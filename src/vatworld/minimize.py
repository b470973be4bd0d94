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

    ``place`` answers a query with that first candidate or, where none
    passes, stores the query.  It keeps the answer for the query's bytes in
    its group, so a later query of the same bytes takes it without a lookup.
    That is the scan's answer too: ids only ascend, so no row stored since
    lies before it, and a finite row lies within every tol >= 0 of itself,
    so a query that was stored answers its repeats.  Under a nan or negative
    tol and for a row whose projection is not finite (a row with a nan or
    infinite entry, as every weight is positive) no answer is kept.
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

    def place(self, ident: int, key: tuple[float, float], row: np.ndarray, within, group=None):
        """The first id of ``group`` whose stored row passes ``within(id)``; where
        none does, None, and ``row`` is stored as ``ident`` (ids must ascend
        within a group) under ``key``, its entry of ``project``."""
        p, s = key
        repeat = (group, row.tobytes()) if self._tol >= 0.0 and math.isfinite(p) else None
        if repeat in self._answers:
            return self._answers[repeat]
        for k in self.candidates(key, group):
            if within(k):
                if repeat is not None:
                    self._answers[repeat] = k
                return k
        if repeat is not None:
            self._answers[repeat] = ident
        self._groups.setdefault(group, []).append(ident)
        cell = p / self._pitch
        if math.isfinite(cell):  # a row without a cell is only reached by the fallback
            self._cells.setdefault((group, math.floor(cell)), []).append(ident)
            self._slack = max(self._slack, s)
        return None

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


def _membership(class_of) -> np.ndarray:
    """member[c, j] = 1 when state j lies in class c, for class ids 0, 1, ..."""
    class_of = np.asarray(class_of)
    return (np.arange(class_of.max() + 1)[:, None] == class_of).astype(float)


def _block_signature(t: Transducer, class_of) -> np.ndarray:
    """sig[j] = flat vector of joint mass into each class per (a, y).

    Entry for (a, y, class C) is the probability of emitting y and landing in
    C under action a from state j.
    """
    block = _membership(class_of) @ t.kernel  # [a, y, c, j]
    return block.reshape(-1, t.n).T  # [j, (a, y, c)]


def _leaders(sig: np.ndarray, tol: float, states: np.ndarray, groups: np.ndarray) -> list[int]:
    """Per state of ``states`` (ascending), its leader: in state order, the first
    leader of its group within tol (max norm) of its row, or the state itself,
    by one ``_TolIndex.place`` per state (a bit-for-bit repeat takes its leader)."""
    index = _TolIndex(sig.shape[1], tol)
    rows = sig[states]
    assign = []
    for j, group, key, row in zip(states.tolist(), groups.tolist(), index.project(rows), rows):
        lead = index.place(j, key, row, lambda k: (np.abs(row - sig[k]) <= tol).all(), group)
        assign.append(j if lead is None else lead)
    return assign


def _split_by_signature(sig: np.ndarray, tol: float, first) -> np.ndarray:
    """Per state, its leader when each group is split greedily around leaders
    in state order (``_leaders``); ``first[j]`` is the lowest state of j's group.

    A group whose rows all lie within tol (max norm) of its first member's is
    one class, as the scan makes it, so the scan runs on the other groups
    alone; |inf - inf| is nan, so rows with non-finite entries still reach it.
    Under a nan or negative tol no row, even a zero-width one, is within tol
    of another: every state leads itself."""
    first = np.asarray(first, dtype=np.intp)
    states = np.arange(len(first))
    if not tol >= 0.0:
        return states
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, and 1e308 - -1e308
        near = (np.abs(sig - sig[first]) <= tol).all(axis=1) | (first == states)
    if near.all():
        return first
    lead = first.copy()
    unsettled = np.flatnonzero(np.bincount(first[~near], minlength=len(first))[first])
    lead[unsettled] = _leaders(sig, tol, unsettled, first[unsettled])
    return lead


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


def _group_firsts(keys: np.ndarray) -> np.ndarray:
    """Per column j of ``keys``, the first column whose keys equal j's."""
    order = np.lexsort(keys)  # stable, so each run of equal keys keeps column order
    ordered = keys[:, order]
    start = np.concatenate(([True], np.any(ordered[:, 1:] != ordered[:, :-1], axis=0)))
    first = np.empty_like(order)
    first[order] = order[start][np.cumsum(start) - 1]
    return first


def coarsest_bisimulation(t: Transducer, tol: float = DEFAULT_TOL) -> Partition:
    """Coarsest partition merging states with matching emission and block signatures.

    Starts from emission signatures, then splits each class by its members'
    signatures against the current blocks until no class splits, or until
    every class holds one state.  A split never merges states of different
    classes, so the class count only grows and refinement ends within n rounds.

    Each round is one ``_split_by_signature`` of signature rows within groups:
    [emission | block] rows within the classes or, where every (letter, state)
    column holds at most one nonzero entry, all finite and above tol >= 0
    (``_successor_table``: belief machines and epsilon-machines), emission
    rows within groups of equal class and equal class of each successor (-1
    for none).  There a state's block signature is its emission row placed at
    its successor's class, and every nonzero entry is above tol, so two states
    are within tol on one route exactly when they are on the other.
    """
    em = _emission_signature(t)
    succ = _successor_table(t, em, tol)
    states = np.arange(t.n)
    lead = _split_by_signature(em, tol, np.zeros(t.n, dtype=np.intp))
    count = 0
    while True:
        rank = np.cumsum(lead == states) - 1  # a leader leads itself, and only later states
        class_of = rank[lead]  # classes numbered by leader, as in Partition
        if rank[-1] + 1 in (count, t.n):
            return Partition.from_assignment(class_of.tolist())
        count = rank[-1] + 1
        if succ is None:
            lead = _split_by_signature(np.concatenate([em, _block_signature(t, class_of)], axis=1), tol, lead)
        else:  # groups: equal class of each successor (-1 for none), and equal class
            keys = np.vstack([np.append(class_of, -1)[succ], class_of])
            lead = _split_by_signature(em, tol, _group_firsts(keys))


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
    member = _membership(part.class_of)
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
