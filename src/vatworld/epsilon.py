"""Minimal predictive presentations, built two independent ways.

The main route closes the reachable beliefs and then merges bisimilar belief
states; the cross-check route clusters histories directly by their
conditional distributions over bounded futures.  Both should land on the
same machine (up to state relabeling) for synchronizing sources, which the
canonical-labeling isomorphism test below makes checkable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import DEFAULT_TOL, History, Transducer
from .beliefs import build_msp, is_unifilar
from .errors import StructureError
from .minimize import coarsest_bisimulation, minimize_bisim
from .oracle import _history, _positive, _word_levels, equivalent, word_probability


@dataclass(frozen=True)
class EpsilonMachine:
    """A unifilar, bisimulation-minimal, faithful presentation plus provenance."""

    machine: Transducer
    provenance: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.machine.n


def epsilon_transducer(
    t: Transducer,
    tol: float = DEFAULT_TOL,
    max_states: int = 1000,
    max_depth: int = 200,
) -> EpsilonMachine:
    """Minimal predictive machine: belief closure followed by bisimulation quotient.

    The construction asserts its own contract: the result is unifilar, has no
    two bisimilar states, and gives every word up to twice the input's state
    count the input's probability.
    """
    msp = build_msp(t, tol, max_states, max_depth)
    machine = minimize_bisim(msp.machine, tol)
    if not is_unifilar(machine, tol):
        raise RuntimeError("reduced belief machine lost unifilarity; construction bug")
    if not coarsest_bisimulation(machine, tol).is_discrete():
        raise RuntimeError("reduced belief machine still has bisimilar states")
    check_depth = 2 * t.n
    verdict = equivalent(machine, t, check_depth, max(tol, 1e-8))
    if not verdict.equivalent:
        raise RuntimeError(
            f"reduced belief machine is not faithful: {verdict.counterexample}"
        )
    return EpsilonMachine(
        machine,
        {
            "route": "belief-closure+bisimulation",
            "tol": tol,
            "belief_states": msp.n,
            "checked_depth": check_depth,
        },
    )


# ---------------------------------------------------------------------------
# History clustering
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HistoryClustering:
    """Histories grouped by bounded-future behavior, plus the induced machine."""

    classes: tuple[tuple[History, ...], ...]
    machine: Transducer
    stabilized: bool
    hist_depth: int
    future_depth: int

    @property
    def n_classes(self) -> int:
        return len(self.classes)


def epsilon_from_histories(
    t: Transducer, hist_depth: int, future_depth: int, tol: float = DEFAULT_TOL
) -> HistoryClustering:
    """Cluster positive-probability histories by bounded-future equivalence.

    Histories agree when their conditional distributions over all futures of
    length <= future_depth match within tol.  The induced machine's states are
    the classes, with transitions read off one-step history extensions.  The
    ``stabilized`` flag reports whether the class count stopped growing over
    the last two history lengths; when a deepest-level extension matches no
    existing class, the flag drops and the extension is attached to the
    nearest class by signature distance.
    """
    if hist_depth < 1:
        raise StructureError("hist_depth must be at least 1")

    # Positive-probability histories by length, with their forward vectors.
    histories: list[History] = []
    lengths: list[int] = []
    vecs_of: list[np.ndarray] = []
    levels = _word_levels([t.initial], t.kernel, hist_depth, "history clustering", _positive)
    for length, (_, words, vecs) in enumerate(levels):
        rows = _positive(words, vecs)
        histories += [_history(t, word) for word in words[rows]]
        lengths += [length] * int(rows.sum())
        vecs_of.append(vecs[rows])

    # Signature: the conditional probability of every future word up to
    # future_depth, level by level in alphabet order, from one batched walk.
    starts = np.concatenate(vecs_of)
    starts /= starts.sum(axis=1, keepdims=True)
    futures = _word_levels(starts, t.kernel, future_depth, "history clustering")
    next(futures)
    sigs = np.concatenate(
        [np.zeros((len(starts), 0))]
        + [vecs.sum(axis=1).reshape(len(starts), -1) for _, _, vecs in futures],
        axis=1,
    )

    # Cluster histories of length < hist_depth; the deepest level only tests
    # stabilization and supplies transition targets.
    rep_rows: list[int] = []
    classes: list[list[History]] = []
    class_of: dict[History, int] = {}
    stabilized = True
    for row, (h, length) in enumerate(zip(histories, lengths)):
        dists = np.max(np.abs(sigs[rep_rows] - sigs[row]), axis=1, initial=0.0)
        if length < hist_depth:
            match = np.flatnonzero(dists <= tol)
            if match.size:
                ci = int(match[0])
            else:
                rep_rows.append(row)
                classes.append([])
                ci = len(classes) - 1
        else:
            ci = int(np.argmin(dists))
            if dists[ci] > tol:
                stabilized = False
        classes[ci].append(h)
        class_of[h] = ci
    rep_history = [histories[row] for row in rep_rows]

    # Induced machine: transitions from each class representative.
    k = len(classes)
    n_actions, n_outputs = len(t.actions), len(t.outputs)
    kernel = np.zeros((n_actions, n_outputs, k, k))
    for ci, rep in enumerate(rep_history):
        p_rep = word_probability(t, rep)
        for a in range(n_actions):
            for y in range(n_outputs):
                ext = rep.extended(t.actions.symbols[a], t.outputs.symbols[y])
                p_ext = word_probability(t, ext)
                if p_ext <= 1e-12:
                    continue
                kernel[a, y, class_of[ext], ci] = p_ext / p_rep
    initial = np.zeros(k)
    initial[class_of[History.empty()]] = 1.0
    machine = Transducer(
        f"{t.name}/history-classes",
        [f"c{i}" for i in range(k)],
        t.actions,
        t.outputs,
        kernel,
        initial,
    )
    return HistoryClustering(
        tuple(tuple(c) for c in classes),
        machine,
        stabilized,
        hist_depth,
        future_depth,
    )


# ---------------------------------------------------------------------------
# Predictivity and isomorphism checks
# ---------------------------------------------------------------------------


def check_predictive(
    candidate: Transducer, reference: Transducer, depth: int = 6, tol: float = DEFAULT_TOL
) -> bool:
    """Faithful to the reference, and state pinned down by each history?

    The second half walks positive-probability histories and tracks the
    candidate state reachable along each; more than one reachable state
    anywhere (including a spread-out start) means the state cannot be read
    off the history.
    """
    if not equivalent(candidate, reference, depth, tol).equivalent:
        return False
    start = np.flatnonzero(candidate.initial > tol)
    if len(start) > 1:
        return False
    # With at most one reachable state, the next one is a table lookup:
    # succ[x, s] is the state letter x leads to from s, n standing for none,
    # and fan[x, s] counts the states it could lead to.
    n = candidate.n
    hits = np.zeros((len(candidate.actions) * len(candidate.outputs), n + 1, n), dtype=bool)
    hits[:, :n] = candidate.kernel.reshape(-1, n, n).transpose(0, 2, 1) > tol
    fan = hits.sum(axis=2)
    succ = np.where(fan == 1, hits.argmax(axis=2), n)

    reach = start if len(start) else np.array([n])
    levels = _word_levels(
        [candidate.initial], candidate.kernel, depth, "observability check", _positive
    )
    next(levels)
    for parent, words, vecs in levels:
        last, before = words[:, -1], reach[parent]
        if np.any(_positive(words, vecs) & (fan[last, before] > 1)):
            return False
        reach = succ[last, before]
    return True


def canonical_form(t: Transducer, tol: float = DEFAULT_TOL) -> Transducer:
    """Relabel a unifilar, deterministically started machine canonically.

    States are ordered by the first history reaching them when (action,
    output) pairs are explored in alphabet order; two copies of the same
    machine with scrambled state order become entrywise comparable.
    """
    if not is_unifilar(t, tol):
        raise StructureError("canonical labeling needs a unifilar machine")
    start_support = np.flatnonzero(t.initial > tol)
    if start_support.size != 1:
        raise StructureError("canonical labeling needs a deterministic start state")
    order = [int(start_support[0])]
    seen = set(order)
    head = 0
    while head < len(order):
        j = order[head]
        head += 1
        for a in range(len(t.actions)):
            for y in range(len(t.outputs)):
                col = t.kernel[a, y, :, j]
                if col.sum() <= tol:
                    continue
                succ = int(np.argmax(col))
                if succ not in seen:
                    seen.add(succ)
                    order.append(succ)
    if len(order) != t.n:
        order.extend(sorted(set(range(t.n)) - seen))
    perm = np.array(order)
    kernel = t.kernel[:, :, perm][:, :, :, perm]
    return Transducer(
        f"{t.name}/canonical",
        [t.states[i] for i in order],
        t.actions,
        t.outputs,
        kernel,
        t.initial[perm],
    )


def is_isomorphic(t1: Transducer, t2: Transducer, tol: float = DEFAULT_TOL) -> bool:
    """State-count equality plus a kernel-matching bijection via canonical labels."""
    if t1.n != t2.n:
        return False
    if t1.actions.symbols != t2.actions.symbols or t1.outputs.symbols != t2.outputs.symbols:
        return False
    c1 = canonical_form(t1, tol)
    c2 = canonical_form(t2, tol)
    return bool(
        np.all(np.abs(c1.kernel - c2.kernel) <= tol)
        and np.all(np.abs(c1.initial - c2.initial) <= tol)
    )
