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
from .minimize import _quotient, _split_by_signature, coarsest_bisimulation
from .oracle import _history, _positive, _word_levels, equivalent


@dataclass(frozen=True)
class EpsilonMachine:
    """A unifilar, faithful presentation plus provenance.

    Bisimulation-minimal in exact arithmetic only: under tol > 0 the classes
    form around leaders in state order ("within tol" is not transitive), so
    refining the result again can still merge states.
    """

    machine: Transducer
    provenance: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.machine.n


def epsilon_transducer(
    t: Transducer, tol: float = DEFAULT_TOL, max_states: int = 1000
) -> EpsilonMachine:
    """Minimal predictive machine: belief closure followed by bisimulation quotient.

    The result is checked unifilar and certified faithful for words of every
    length (linear bisimulation: Boreale 2009; Kiefer et al. 2011).  With T_x,
    B_x, K_x the source, belief and result kernels at letter x, L the beliefs
    as columns and P the class membership, delta_B and delta_q are the largest
    column L1 norms of T_x L - L B_x and K_x P - P B_x.  As 1'L = 1', L e0 = pi,
    1'P = 1' and P e0 is the result's start, telescoping p_t(w) - p_B(w) over
    the letters of w (1'T_... has entries in [0, 1], |B_... e0|_1 <= 1) gives
    |p_eps(w) - p_t(w)| <= |w| (delta_B + delta_q), the ``faithfulness_residual``.
    ``build_msp`` carries delta_B and its allowance (tol on a stochastic
    source) from its one ``_belief_link``, and ``_quotient`` gives delta_q.
    B keeps only edges above tol, so a class routes into its leader's class
    within tol of the leader, and the averaged quotient column within 2 tol
    of each member: delta_q <= 2 tol.  Past both, or with 1'L off 1',
    by over 8 (n + k) machine epsilons, a RuntimeError reports a construction bug.
    """
    msp = build_msp(t, tol, max_states)
    part = coarsest_bisimulation(msp.machine, tol)
    machine, delta_q = _quotient(msp.machine, part, tol)
    # a discrete partition leaves the belief machine, unifilar by construction
    if not part.is_discrete() and not is_unifilar(machine, tol):
        raise RuntimeError("reduced belief machine lost unifilarity; construction bug")
    residual = msp.link_residual + delta_q
    mass_gap = float(np.abs(msp.beliefs.sum(axis=1) - 1.0).max())
    rounding = 8 * (t.n + msp.n) * float(np.finfo(float).eps)
    if not (residual <= msp.link_allowance + 2 * tol + rounding and mass_gap <= rounding):
        msg = f"residual {residual:.3g}, belief mass off by {mass_gap:.3g}"
        raise RuntimeError(f"reduced belief machine is not certified faithful: {msg}")
    return EpsilonMachine(
        machine,
        {
            "route": "belief-closure+bisimulation",
            "tol": tol,
            "belief_states": msp.n,
            "faithfulness_residual": residual,
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
    if future_depth < 0:
        raise StructureError("future_depth must be at least 0")

    # Positive-probability histories by length, with their forward vectors,
    # and (child id, parent id, last letter) for every history but the empty one.
    n_letters = len(t.actions) * len(t.outputs)
    budget.check(1, n_letters, hist_depth, "history clustering")
    histories: list[History] = []
    vecs_of, links = [], []
    for parent, words, vecs in _word_levels([t.initial], t.kernel, hist_depth, _positive):
        rows = np.flatnonzero(_positive(words, vecs))
        child = len(histories) + np.arange(len(rows))
        if words.shape[1]:
            links.append((child, ids[parent[rows]], words[rows, -1]))
        ids = np.full(len(words), -1)  # each row's history id, -1 if not positive
        ids[rows] = child
        histories += [_history(t, word) for word in words[rows]]
        vecs_of.append(vecs[rows])
        if words.shape[1] < hist_depth:  # the walk may end early, when no history is positive
            n_shallow = len(histories)
    if not histories:
        raise StructureError(f"{t.name}: no history has positive probability, the empty one included")
    vecs = np.concatenate(vecs_of)
    mass = vecs.sum(axis=1)

    # Signature: the conditional probability of every future word up to
    # future_depth.  It is F @ b for the normalised forward vector b, where F
    # stacks the rows 1^T M(w) of one transposed walk; their order is
    # immaterial to the max-norm distance and to the index.  Histories
    # sharing b share the signature, so each distinct b is multiplied once.
    # The charge is that of walking every future from every history.
    budget.check(len(histories), n_letters, future_depth, "history clustering")
    f_levels = _word_levels([np.ones(t.n)], t.kernel.transpose(0, 1, 3, 2), future_depth)
    next(f_levels)
    f = np.concatenate([np.zeros((0, t.n))] + [rows for _, _, rows in f_levels])
    beliefs, sig_of = np.unique(vecs / mass[:, None], axis=0, return_inverse=True)
    sig_of = sig_of.ravel()
    sigs = beliefs @ f.T

    # Cluster histories of length < hist_depth by leader, in history order;
    # each deepest history only joins its nearest representative, testing
    # stabilization and supplying transition targets.
    lead = _split_by_signature(sigs[sig_of[:n_shallow]], tol, np.zeros(n_shallow, dtype=np.intp))
    reps, shallow_class = np.unique(lead, return_inverse=True)
    dists = np.column_stack(
        [np.abs(sigs - sigs[sig_of[r]]).max(axis=1, initial=0.0) for r in reps]
    )[sig_of[n_shallow:]]
    stabilized = not np.any(dists.min(axis=1) > tol)
    class_of = np.concatenate([shallow_class, dists.argmin(axis=1)]).astype(np.intp)
    k = len(reps)
    classes: list[list[History]] = [[] for _ in range(k)]
    for h, ci in zip(histories, class_of):
        classes[ci].append(h)

    # Induced machine: each representative's positive one-letter extensions.
    child, parent, letter = (np.concatenate(col) for col in zip(*links))
    from_rep = np.isin(parent, reps)
    child, parent, letter = child[from_rep], parent[from_rep], letter[from_rep]
    a, y = np.divmod(letter, len(t.outputs))
    kernel = np.zeros((len(t.actions), len(t.outputs), k, k))
    kernel[a, y, class_of[child], class_of[parent]] = mass[child] / mass[parent]
    initial = np.zeros(k)
    initial[class_of[0]] = 1.0
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


def check_predictive(candidate: Transducer, reference: Transducer, tol: float = DEFAULT_TOL) -> bool:
    """Faithful to the reference, and state pinned down by each history?

    Both halves are exact: ``equivalent`` at its default depth, then a search
    of the states reachable from the start along moves above tol, where a
    spread-out start or a letter sending a reachable state to two states
    means the state cannot be read off the history.
    """
    reached = candidate.initial > tol
    if reached.sum() > 1 or not equivalent(candidate, reference, tol=tol).equivalent:
        return False
    n = candidate.n
    hits = candidate.kernel.reshape(-1, n, n).transpose(0, 2, 1) > tol  # [x, from, to]
    step = hits.any(axis=0)
    frontier = reached
    while frontier.any():
        frontier = step[frontier].any(axis=0) & ~reached
        reached = reached | frontier
    return not np.any(hits[:, reached].sum(axis=2) > 1)


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
    order.extend(sorted(set(range(t.n)) - seen))  # unreachable states last
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
