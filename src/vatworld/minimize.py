"""Bisimulation partitions, quotient machines, and state-count minimization.

Two states are merged when they emit identically and route identical mass
into every block of the current partition, per (action, output) pair.
Conditioning the block signatures on the output (rather than summing it out)
is what guarantees the quotient kernel is well defined from any class
representative.
"""

from __future__ import annotations

import math
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
        groups: dict = {}
        for s, cid in enumerate(assignment):
            groups.setdefault(cid, []).append(s)
        return Partition.from_classes(groups.values(), len(assignment))

    @staticmethod
    def discrete(n: int) -> "Partition":
        return Partition.from_classes([[s] for s in range(n)], n)

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    def is_discrete(self) -> bool:
        return all(len(c) == 1 for c in self.classes)


_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)


class _TolIndex:
    """Stored rows bucketed by one projection, for "first stored row within tol".

    Each row u is projected onto one fixed weight vector w >= 0 with
    |w|_1 = 1.  Since |w.(u - v)| <= |u - v|_inf <= |u - v|_1, a stored row
    within tol of a query in either norm projects within tol of it; the probe
    radius adds a bound on the rounding of both projections and of the
    caller's distance sum.  Projections fall in cells of twice the radius a
    unit-magnitude row needs, so a query probes at most two cells.
    ``candidates`` returns, in ascending id order, every stored row of the
    query's group that a linear scan could accept, so the first candidate
    passing the caller's own distance test is the scan's answer.  Where the
    probe is not finite (a non-finite entry, an infinite tol) or would cover
    more cells than the group has rows, it returns every row of the group.

    ``first`` answers a query with that first candidate, and keeps the
    answer for the query's bytes (``repeats``): a later query of the same
    bytes in the same group takes it without a lookup.  That is the scan's
    answer too, because ids only ascend, so no row stored since lies before
    it, and a finite row lies within every tol >= 0 of itself, so a query
    that was stored answers its repeats.  Under a nan or negative tol and for
    a row with a nan or infinite entry no answer is kept.
    """

    def __init__(self, dim: int, tol: float):
        raw = 1.0 + np.modf(np.arange(dim) * 0.6180339887498949)[0]
        self._w = raw / raw.sum()
        self._tol = tol
        self._rel = 4.0 * (dim + 2) * _EPS
        self._pitch = 2.0 * (tol + 2.0 * (self._rel * (1.0 + tol) + _TINY))
        self._slack = 0.0  # the largest rounding bound of a stored row
        self._cells: dict = {}  # (group, cell) -> ids, ascending
        self._groups: dict = {}  # group -> ids, ascending
        self._answers: dict = {}  # (group, row bytes) -> the first query's answer

    def project(self, rows: np.ndarray) -> list[tuple[float, float]]:
        """(w.u, rounding bound) per row of a 2-D array; never raises on inf or nan."""
        with np.errstate(invalid="ignore", over="ignore"):
            p = rows @ self._w
            s = self._rel * (np.abs(rows) @ self._w + self._tol) + _TINY
        return list(zip(p.tolist(), s.tolist()))

    def repeats(self, rows: np.ndarray) -> list:
        """Per row of a 2-D array, its bytes where a later query of the same
        bytes may take its answer, else None."""
        if not self._tol >= 0.0:
            return [None] * len(rows)
        finite = np.isfinite(rows).all(axis=1).tolist()
        return [row.tobytes() if ok else None for row, ok in zip(rows, finite)]

    def first(self, key: tuple[float, float], within, repeat=None, group=None):
        """The first id of ``group`` whose stored row passes ``within(id)``, or
        None; ``repeat`` is the query's entry of ``repeats``."""
        if repeat is not None and (group, repeat) in self._answers:
            return self._answers[group, repeat]
        for ident in self.candidates(key, group):
            if within(ident):
                if repeat is not None:
                    self._answers[group, repeat] = ident
                return ident
        return None

    def add(self, ident: int, key: tuple[float, float], group=None, repeat=None) -> None:
        """Store row ``ident`` (ids must ascend within a group) by its projection
        key; a query whose ``repeats`` entry is ``repeat`` answers ``ident``."""
        if repeat is not None:
            self._answers[group, repeat] = ident
        p, s = key
        self._groups.setdefault(group, []).append(ident)
        cell = p / self._pitch
        if math.isfinite(cell):  # a row without a cell is only reached by the fallback
            self._cells.setdefault((group, math.floor(cell)), []).append(ident)
            self._slack = max(self._slack, s)

    def candidates(self, key: tuple[float, float], group=None) -> list[int]:
        """Ids of the stored rows of ``group`` that may lie within tol of the query."""
        if not self._tol >= 0.0:
            return []  # no distance is within a negative or nan tol
        members = self._groups.get(group, [])
        p, s = key
        reach = self._tol + s + self._slack
        lo, hi = (p - reach) / self._pitch, (p + reach) / self._pitch
        if not (math.isfinite(lo) and math.isfinite(hi) and hi - lo < len(members)):
            return list(members)
        found = []
        for cell in range(math.floor(lo), math.floor(hi) + 1):
            found += self._cells.get((group, cell), [])
        return sorted(found)


def _emission_signature(t: Transducer) -> np.ndarray:
    """sig[j] = flat vector of Pr(y | a, state j) over all (a, y)."""
    em = t.emission_marginals()  # [a, y, j]
    return em.reshape(-1, t.n).T  # [j, (a, y)]


def _membership(part: Partition) -> np.ndarray:
    """member[c, j] = 1 when state j lies in class c."""
    member = np.zeros((part.n_classes, len(part.class_of)))
    member[part.class_of, np.arange(len(part.class_of))] = 1.0
    return member


def _block_signature(t: Transducer, part: Partition) -> np.ndarray:
    """sig[j] = flat vector of joint mass into each class per (a, y).

    Entry for (a, y, class C) is the probability of emitting y and landing in
    C under action a from state j.
    """
    block = _membership(part) @ t.kernel  # [a, y, c, j]
    return block.reshape(-1, t.n).T  # [j, (a, y, c)]


def _leaders(sig: np.ndarray, tol: float, class_of) -> list[int]:
    """Per state, its leader: in state order, a state joins the first leader of
    its class within tol (max norm) of its signature, or leads a new class.

    A class of one state cannot split, so only the states of larger classes
    are looked up, and a signature repeating an earlier one of its class bit
    for bit takes that one's leader (``_TolIndex.first``).
    """
    class_of = np.asarray(class_of, dtype=np.intp)
    multi = np.flatnonzero(np.bincount(class_of)[class_of] > 1)
    assign = list(range(len(class_of)))
    rows = sig[multi]
    index = _TolIndex(sig.shape[1], tol)
    groups = class_of[multi].tolist()
    for j, group, key, repeat in zip(multi.tolist(), groups, index.project(rows), index.repeats(rows)):
        lead = index.first(key, lambda k: (np.abs(sig[j] - sig[k]) <= tol).all(), repeat, group)
        if lead is None:
            index.add(j, key, group, repeat)
        else:
            assign[j] = lead
    return assign


def _split_by_signature(sig: np.ndarray, tol: float, class_of) -> Partition:
    """Split each class greedily around leaders in state order (``_leaders``)."""
    return Partition.from_assignment(_leaders(sig, tol, class_of))


def _successor_table(t: Transducer, em: np.ndarray, tol: float) -> np.ndarray | None:
    """succ[x, j], the one state letter x leads to from state j (-1 for none),
    when every (letter, state) column of the kernel holds at most one nonzero
    entry, every entry is finite and every nonzero one is above tol >= 0;
    else None.  ``em`` is ``_emission_signature(t)``: a column's sum is its
    one nonzero entry, bit for bit, so the entries are checked there.  Belief
    machines and epsilon-machines qualify."""
    if not tol >= 0.0:
        return None
    nonzero = t.kernel.reshape(-1, t.n, t.n) != 0.0  # [x, next, j]
    count = nonzero.sum(axis=1)
    if count.max(initial=0) > 1 or not np.all((count == 0) | ((em.T > tol) & (em.T < np.inf))):
        return None
    return np.where(count == 1, nonzero.argmax(axis=1), -1)


def _refine_on_successors(em: np.ndarray, succ: np.ndarray, tol: float) -> np.ndarray:
    """Class ids of the coarsest bisimulation of a machine with successor table
    ``succ`` and emission rows ``em``, as the block-signature refinement finds it.

    A state's block signature is its emission row placed at its successor's
    class, and every nonzero entry is above tol, so two states are within tol
    exactly when their emission rows are and, letter by letter, they go to the
    same class or both have no successor.  Each round sorts the states once by
    (class, class of each successor, emission row), which groups them by the
    first two.  A group whose rows all lie within tol of its first member's
    is one class, as the leader scan would make it; the scan runs on the
    other groups alone, over the first state of each distinct row, since a
    state whose row equals an earlier one's goes where that one went.
    """
    n_letters, n = succ.shape
    by_row = np.lexsort(em.T)
    ranked = em[by_row]
    keys = np.empty((n_letters + 2, n), dtype=np.intp)  # row id, successor classes, class
    keys[0, by_row] = np.cumsum(np.concatenate(([0], (ranked[1:] != ranked[:-1]).any(axis=1))))
    ext = np.zeros(n + 1, dtype=np.intp)
    ext[n] = -1  # the class of "no successor"
    cls = ext[:n]
    count = 1
    run_start = np.ones(n, dtype=bool)
    group_start = np.ones(n, dtype=bool)
    while True:
        np.take(ext, succ, out=keys[1:-1])
        keys[-1] = cls
        order = np.lexsort(keys)  # stable, so each run of equal keys keeps state order
        ordered = keys[:, order]
        step = ordered[:, 1:] != ordered[:, :-1]
        np.any(step[1:], axis=0, out=group_start[1:])
        np.logical_or(step[0], group_start[1:], out=run_start[1:])
        group = np.cumsum(group_start) - 1
        refined = int(group[-1]) + 1
        heads = np.flatnonzero(run_start)  # the first position of each run of equal rows
        mixed = [] if len(heads) == refined else np.unique(group[heads[~group_start[heads]]]).tolist()
        for g in mixed:  # the groups of two or more distinct rows
            runs = np.flatnonzero(group[heads] == g)
            sizes = np.diff(np.append(heads, n))[runs]
            first = order[heads[runs]]
            visit = np.argsort(first)
            rows = em[first[visit]]
            if (np.abs(rows - rows[0]) <= tol).all():
                continue
            lead = np.asarray(_leaders(rows, tol, np.zeros(len(rows), dtype=np.intp)))
            others = np.unique(lead[lead > 0])  # the group's first member keeps id g
            ids = np.empty(len(runs), dtype=np.intp)
            ids[visit] = np.where(lead > 0, refined + np.searchsorted(others, lead), g)
            refined += len(others)
            lo = heads[runs[0]]
            group[lo : lo + sizes.sum()] = np.repeat(ids, sizes)
        if refined == count:
            return cls
        cls[order] = group
        count = refined
        if count == n:
            return cls


def coarsest_bisimulation(t: Transducer, tol: float = DEFAULT_TOL) -> Partition:
    """Coarsest partition merging states with matching emission and block signatures.

    Starts from emission signatures, then splits each class by its members'
    signatures against the current blocks until no class splits, or until
    every class holds one state.  A split never merges states of different
    classes, so the class count only grows and refinement ends within n rounds.

    Where every (letter, state) column holds at most one nonzero entry, all
    finite and above tol >= 0 (``_successor_table``: every belief machine
    and epsilon-machine), a round compares emission rows and successor
    classes instead of dense block signatures (``_refine_on_successors``).
    Under that condition the two tests accept the same pairs, so the
    partition is the dense route's exactly; every other machine takes the
    dense route.
    """
    em = _emission_signature(t)
    succ = _successor_table(t, em, tol)
    if succ is not None:
        return Partition.from_assignment(_refine_on_successors(em, succ, tol).tolist())
    part = _split_by_signature(em, tol, [0] * t.n)
    while part.n_classes < t.n:
        sig = np.concatenate([em, _block_signature(t, part)], axis=1)
        refined = _split_by_signature(sig, tol, part.class_of)
        if refined.n_classes == part.n_classes:
            return part
        part = refined
    return part


def _quotient(t: Transducer, part: Partition, tol: float) -> tuple[Transducer, float]:
    """The quotient by ``part`` and the largest column L1 norm of K_x P - P B_x
    over letters x, its link residual delta_q, both from one block P B_x.

    Raises PartitionError naming the first member, in class order, whose
    emission or block signature is over tol (max norm) off its leader's.

    A finite machine under a discrete partition is its own quotient, with
    delta_q 0: there P is the identity, so the block P B_x and its average
    over one-member classes are B_x bit for bit (a -0.0 entry turns 0.0,
    as in the products), and no class has two members to check.
    """
    if len(part.class_of) != t.n:
        raise StructureError("partition size does not match the machine")
    if part.n_classes == t.n and np.isfinite(t.kernel).all() and np.isfinite(t.initial).all():
        q = Transducer(f"{t.name}/quotient", t.states, t.actions, t.outputs, t.kernel + 0.0, t.initial + 0.0)
        return q, 0.0
    member = _membership(part)
    block = member @ t.kernel  # [a, y, c, j]: mass from state j into class c
    em_sig = _emission_signature(t)
    blk_sig = block.reshape(-1, t.n).T  # [j, (a, y, c)]
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
    weights = member / member.sum(axis=1, keepdims=True)
    # kernel[a, y, C, D]: sum rows over C, average columns over D's members
    kernel = block @ weights.T
    gap = kernel[..., list(part.class_of)] - block  # K_x P is K's class column per member
    delta_q = float(np.abs(gap).sum(axis=-2).max(initial=0.0))
    labels = _class_labels(t.states, part.classes)
    q = Transducer(f"{t.name}/quotient", labels, t.actions, t.outputs, kernel, member @ t.initial)
    return q, delta_q


def _class_labels(states: tuple[str, ...], classes) -> list[str]:
    """Each class's member labels joined by "+".  Where two of those coincide
    (states a, b and a+b, with a and b merged), a one-state class keeps its
    state's label and a joined label already taken gets the first free "#k"
    suffix, k >= 2."""
    labels = ["+".join(states[s] for s in members) for members in classes]
    if len(set(labels)) == len(labels):
        return labels
    taken = {label for label, members in zip(labels, classes) if len(members) == 1}
    for c, members in enumerate(classes):
        if len(members) > 1:
            base, k = labels[c], 1
            while labels[c] in taken:
                k += 1
                labels[c] = f"{base}#{k}"
            taken.add(labels[c])
    return labels


def quotient(t: Transducer, part: Partition, tol: float = DEFAULT_TOL) -> Transducer:
    """Collapse each class to one state; initial mass and transitions are class-summed.

    The partition must be a bisimulation (checked; a violating witness pair is
    reported otherwise).  Kernel entries average the class-summed columns over
    the class members, which agree within tol by the check.
    """
    return _quotient(t, part, tol)[0]


def minimize_bisim(t: Transducer, tol: float = DEFAULT_TOL) -> Transducer:
    """Quotient by the coarsest bisimulation."""
    return quotient(t, coarsest_bisimulation(t, tol), tol)
