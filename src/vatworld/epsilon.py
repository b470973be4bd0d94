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

from . import budget
from .core import DEFAULT_TOL, History, Transducer
from .beliefs import build_msp, is_unifilar
from .errors import StructureError
from .minimize import coarsest_bisimulation, minimize_bisim
from .oracle import equivalent, word_probability


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


def _future_signature(
    t: Transducer, state_vec: np.ndarray, future_depth: int
) -> np.ndarray:
    """Conditional probabilities of every future word up to the given length.

    ``state_vec`` is the normalized state distribution after the history; the
    signature stacks the probability of each (actions, outputs) continuation
    in a fixed enumeration order.
    """
    n_actions, n_outputs = len(t.actions), len(t.outputs)
    sig: list[float] = []
    level = [state_vec]
    for _ in range(future_depth):
        nxt: list[np.ndarray] = []
        for v in level:
            for a in range(n_actions):
                for y in range(n_outputs):
                    child = t.kernel[a, y] @ v
                    nxt.append(child)
                    sig.append(float(child.sum()))
        level = nxt
    return np.array(sig)


def epsilon_from_histories(
    t: Transducer,
    hist_depth: int,
    future_depth: int,
    tol: float = DEFAULT_TOL,
    force: bool = False,
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
    n_actions, n_outputs = len(t.actions), len(t.outputs)
    branch = n_actions * n_outputs
    budget.check(
        float(branch) ** hist_depth * float(branch) ** future_depth,
        force,
        "history clustering",
    )
    if hist_depth < 1:
        raise StructureError("hist_depth must be at least 1")

    # Enumerate positive-probability histories by length with forward vectors.
    levels: list[dict[History, np.ndarray]] = [{History.empty(): t.initial.copy()}]
    for _ in range(hist_depth):
        prev = levels[-1]
        cur: dict[History, np.ndarray] = {}
        for h, v in prev.items():
            for a in range(n_actions):
                for y in range(n_outputs):
                    child = t.kernel[a, y] @ v
                    if child.sum() > 1e-12:
                        cur[h.extended(t.actions.symbols[a], t.outputs.symbols[y])] = child
        levels.append(cur)

    # Cluster histories of length < hist_depth; the deepest level only tests
    # stabilization and supplies transition targets.
    reps: list[np.ndarray] = []
    rep_history: list[History] = []
    classes: list[list[History]] = []
    class_of: dict[History, int] = {}
    for level in levels[:-1]:
        for h, v in level.items():
            sig = _future_signature(t, v / v.sum(), future_depth)
            for ci, rsig in enumerate(reps):
                if np.all(np.abs(sig - rsig) <= tol):
                    classes[ci].append(h)
                    class_of[h] = ci
                    break
            else:
                reps.append(sig)
                rep_history.append(h)
                classes.append([h])
                class_of[h] = len(classes) - 1

    stabilized = True
    for h, v in levels[-1].items():
        sig = _future_signature(t, v / v.sum(), future_depth)
        dists = [float(np.max(np.abs(sig - rsig))) for rsig in reps]
        ci = int(np.argmin(dists))
        if dists[ci] > tol:
            stabilized = False
        classes[ci].append(h)
        class_of[h] = ci

    # Induced machine: transitions from each class representative.
    k = len(classes)
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
    candidate: Transducer,
    reference: Transducer,
    depth: int = 6,
    tol: float = DEFAULT_TOL,
    force: bool = False,
) -> bool:
    """Faithful to the reference, and state pinned down by each history?

    The second half enumerates positive-probability histories and tracks the
    set of candidate states reachable along each; more than one reachable
    state anywhere (including a spread-out start) means the state cannot be
    read off the history.
    """
    if not equivalent(candidate, reference, depth, tol).equivalent:
        return False
    n_actions, n_outputs = len(candidate.actions), len(candidate.outputs)
    budget.check(float(n_actions * n_outputs) ** depth, force, "observability check")
    start = frozenset(int(i) for i in np.flatnonzero(candidate.initial > tol))
    if len(start) > 1:
        return False
    stack = [(start, 0, candidate.initial.copy())]
    while stack:
        reach, length, vec = stack.pop()
        if length == depth:
            continue
        for a in range(n_actions):
            for y in range(n_outputs):
                child_vec = candidate.kernel[a, y] @ vec
                if child_vec.sum() <= 1e-12:
                    continue
                child_reach = frozenset(
                    int(i)
                    for i in np.flatnonzero(
                        candidate.kernel[a, y][:, list(reach)].sum(axis=1) > tol
                    )
                )
                if len(child_reach) > 1:
                    return False
                stack.append((child_reach, length + 1, child_vec))
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
