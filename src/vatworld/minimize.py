"""Bisimulation partitions, quotient machines, and state-count minimization.

Two states are merged when they emit identically and route identical mass
into every block of the current partition, per (action, output) pair.
Conditioning the block signatures on the output (rather than summing it out)
is what guarantees the quotient kernel is well defined from any class
representative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_TOL, Transducer
from .errors import PartitionError, StructureError


@dataclass(frozen=True)
class Partition:
    """Disjoint classes of state indices covering 0..n-1."""

    classes: tuple[tuple[int, ...], ...]
    class_of: tuple[int, ...]

    @staticmethod
    def from_classes(classes, n: int) -> "Partition":
        canon = tuple(tuple(sorted(c)) for c in classes)
        canon = tuple(sorted(canon, key=lambda c: c[0]))
        seen: dict[int, int] = {}
        for ci, members in enumerate(canon):
            if not members:
                raise StructureError("empty class in partition")
            for s in members:
                if s in seen:
                    raise StructureError(f"state {s} appears in two classes")
                seen[s] = ci
        if sorted(seen) != list(range(n)):
            raise StructureError(f"classes must cover exactly 0..{n - 1}")
        return Partition(canon, tuple(seen[s] for s in range(n)))

    @staticmethod
    def from_assignment(assignment) -> "Partition":
        n = len(assignment)
        ids = sorted(set(assignment))
        groups = [[s for s in range(n) if assignment[s] == cid] for cid in ids]
        return Partition.from_classes(groups, n)

    @staticmethod
    def discrete(n: int) -> "Partition":
        return Partition.from_classes([[s] for s in range(n)], n)

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    def is_discrete(self) -> bool:
        return all(len(c) == 1 for c in self.classes)


def _emission_signature(t: Transducer) -> np.ndarray:
    """sig[j] = flat vector of Pr(y | a, state j) over all (a, y)."""
    em = t.emission_marginals()  # [a, y, j]
    return em.reshape(-1, t.n).T  # [j, (a, y)]


def _block_signature(t: Transducer, part: Partition) -> np.ndarray:
    """sig[j] = flat vector of joint mass into each class per (a, y).

    Entry for (a, y, class C) is the probability of emitting y and landing in
    C under action a from state j.
    """
    n = t.n
    member = np.zeros((part.n_classes, n))
    for ci, members in enumerate(part.classes):
        member[ci, list(members)] = 1.0
    block = np.einsum("ci,ayij->aycj", member, t.kernel)
    return block.reshape(-1, n).T  # [j, (a, y, c)]


def _group_by_signature(sig: np.ndarray, tol: float) -> Partition:
    """Greedy leader grouping in state-index order; leaders anchor each class."""
    n = sig.shape[0]
    leaders: list[int] = []
    assign = [-1] * n
    for j in range(n):
        for ci, lead in enumerate(leaders):
            if np.all(np.abs(sig[j] - sig[lead]) <= tol):
                assign[j] = ci
                break
        else:
            leaders.append(j)
            assign[j] = len(leaders) - 1
    return Partition.from_assignment(assign)


def coarsest_bisimulation(t: Transducer, tol: float = DEFAULT_TOL) -> Partition:
    """Coarsest partition merging states with matching emission and block signatures.

    Starts from emission signatures, then splits each class by its members'
    signatures against the current blocks until no class splits.  A split
    never merges states of different classes, so the class count only grows
    and refinement ends within n rounds.
    """
    em = _emission_signature(t)
    part = _group_by_signature(em, tol)
    while True:
        sig = np.concatenate([em, _block_signature(t, part)], axis=1)
        refined = Partition.from_classes(
            [
                [members[i] for i in group]
                for members in part.classes
                for group in _group_by_signature(sig[list(members)], tol).classes
            ],
            t.n,
        )
        if refined.n_classes == part.n_classes:
            return part
        part = refined


def _check_bisimulation(t: Transducer, part: Partition, tol: float) -> None:
    """Raise PartitionError with a witness pair if the partition is not a bisimulation."""
    em_sig = _emission_signature(t)
    blk_sig = _block_signature(t, part)
    for members in part.classes:
        lead = members[0]
        for s in members[1:]:
            d_em = np.abs(em_sig[s] - em_sig[lead])
            if np.any(d_em > tol):
                flat = int(np.argmax(d_em))
                a, y = divmod(flat, len(t.outputs))
                raise PartitionError(
                    f"states {t.states[lead]} and {t.states[s]} have different emission "
                    f"signatures at (action {t.actions.symbols[a]}, output {t.outputs.symbols[y]})",
                    witness=(t.states[lead], t.states[s], t.actions.symbols[a], t.outputs.symbols[y]),
                )
            d_blk = np.abs(blk_sig[s] - blk_sig[lead])
            if np.any(d_blk > tol):
                flat = int(np.argmax(d_blk))
                ay, c = divmod(flat, part.n_classes)
                a, y = divmod(ay, len(t.outputs))
                raise PartitionError(
                    f"states {t.states[lead]} and {t.states[s]} route different "
                    f"(output {t.outputs.symbols[y]}) mass into class {part.classes[c]} "
                    f"under action {t.actions.symbols[a]}",
                    witness=(t.states[lead], t.states[s], t.actions.symbols[a], part.classes[c]),
                )


def quotient(t: Transducer, part: Partition, tol: float = DEFAULT_TOL) -> Transducer:
    """Collapse each class to one state; initial mass and transitions are class-summed.

    The partition must be a bisimulation (checked; a violating witness pair is
    reported otherwise).  Kernel entries average the class-summed columns over
    the class members, which agree within tol by the check above.
    """
    if len(part.class_of) != t.n:
        raise StructureError("partition size does not match the machine")
    _check_bisimulation(t, part, tol)
    k = part.n_classes
    member = np.zeros((k, t.n))
    for ci, members in enumerate(part.classes):
        member[ci, list(members)] = 1.0
    weights = member / member.sum(axis=1, keepdims=True)
    # new_kernel[a, y, C, D]: sum rows over C, average columns over D's members
    new_kernel = member @ t.kernel @ weights.T
    new_initial = member @ t.initial
    labels = ["+".join(t.states[s] for s in members) for members in part.classes]
    return Transducer(
        f"{t.name}/quotient",
        labels,
        t.actions,
        t.outputs,
        new_kernel,
        new_initial,
    )


def minimize_bisim(t: Transducer, tol: float = DEFAULT_TOL) -> Transducer:
    """Quotient by the coarsest bisimulation."""
    return quotient(t, coarsest_bisimulation(t, tol), tol)
