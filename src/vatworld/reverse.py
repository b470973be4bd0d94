"""Running machines backwards: when it is possible, and how to build the
backward kernel.

A machine can be run in reverse exactly when, given the next state and the
current action, the previous state carries no further information about any
other action (Ellison, Mahoney & Crutchfield 2009).  That condition is a
property of the machine alone (it quantifies over exogenous action
sequences); the backward kernel itself, however, needs per-time state
marginals, which only exist under an explicit action law.  Every artifact
here is therefore stamped with the policy used.

Neither question enumerates histories.  The verdict compares, at each time,
only the extensions of the action prefixes whose state marginals grew the
span of the time before, which never exceeds n dimensions (Tzeng 1992).  The
marginals under a policy track one vector per prefix of a policy-table key
and pool every other history into one vector that evolves under the
policy's fallback law.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import DEFAULT_TOL, History, Policy, Transducer
from .errors import StructureError, VatworldError
from .oracle import _span_grower, _word_levels


@dataclass(frozen=True)
class MarginalTable:
    """Per-time joint law of (state, action) under a policy.

    joint[tau, s, a] = Pr(state s and action a at time tau), tau = 0..horizon.
    """

    joint: np.ndarray
    horizon: int
    policy: str

    def state_given_action(self, tau: int) -> tuple[np.ndarray, np.ndarray]:
        """Conditional Pr(state | action) at tau and the action marginal.

        Columns for actions of zero probability are returned as zero.
        """
        slice_ = self.joint[tau]  # [s, a]
        p_action = slice_.sum(axis=0)
        cond = np.zeros_like(slice_)
        ok = p_action > 0.0
        cond[:, ok] = slice_[:, ok] / p_action[ok]
        return cond, p_action


def state_marginals(t: Transducer, policy: Policy, horizon: int) -> MarginalTable:
    """Exact per-time joint of (state, action) under a policy.

    A policy's action law depends on the history only at the prefixes of its
    table keys.  The recursion keeps one forward vector for each such prefix
    of positive mass, weighted by the policy probability of its actions, and
    pools every other history into one state vector that evolves under the
    fallback law; a history that leaves the key prefixes moves its vector into
    the pool.  The table is consulted for the tracked histories only.  With an
    empty table (uniform and weighted policies) the pool is the whole
    recursion, and the cost is linear in the horizon and in the number of key
    prefixes.
    """
    if horizon < 0:
        raise StructureError(f"horizon must be at least 0, got {horizon}")
    n_actions, n_outputs = len(t.actions), len(t.outputs)
    joint = np.zeros((horizon + 1, t.n, n_actions))
    tr = t.transition_marginals()
    fallback = policy.fallback(n_actions)
    prefixes = policy.key_prefixes()
    tracked = {History.empty(): t.initial} if prefixes else {}
    m = np.zeros(t.n) if prefixes else t.initial.copy()
    for tau in range(horizon + 1):
        joint[tau] = np.outer(m, fallback)
        m = sum(fallback[a] * (tr[a] @ m) for a in range(n_actions))
        grown = {}
        for h, v in tracked.items():
            adist = policy.action_dist(h, n_actions)
            joint[tau] += np.outer(v, adist)
            for a in range(n_actions):
                for y in range(n_outputs):
                    child = adist[a] * (t.kernel[a, y] @ v)
                    if child.sum() <= 0.0:
                        continue
                    longer = h.extended(t.actions.symbols[a], t.outputs.symbols[y])
                    if longer in prefixes:
                        grown[longer] = child
                    else:
                        m = m + child
        tracked = grown
    return MarginalTable(joint, horizon, policy.describe())


# ---------------------------------------------------------------------------
# Reversibility
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReversibilityWitness:
    tau: int
    action: str
    next_state: str
    prefix_a: tuple[str, ...]
    prefix_b: tuple[str, ...]
    max_difference: float

    def __str__(self):
        return (
            f"at time {self.tau}, conditioned on next state {self.next_state} and "
            f"action {self.action}, the previous-state law differs between action "
            f"prefixes {self.prefix_a} and {self.prefix_b} (max diff {self.max_difference:.3g})"
        )


@dataclass(frozen=True)
class ReversibilityVerdict:
    reversible: bool
    route: str
    horizon: int
    witness: Optional[ReversibilityWitness] = None

    def __bool__(self):
        return self.reversible


# Masses and per-state relative deviations at or below this are negligible:
# the comparison skips (action, next state) pairs of no more mass, and the
# level-span walk drops prefixes whose marginals grow the span by no more.
_NEGLIGIBLE = 1e-12


def is_action_counifilar(t: Transducer, tol: float = DEFAULT_TOL) -> bool:
    """True when (next state, action) pins down the previous state."""
    return bool(np.all(np.sum(t.transition_marginals() > tol, axis=2) <= 1))


def check_reversible(
    t: Transducer, horizon: int = 4, tol: float = DEFAULT_TOL
) -> ReversibilityVerdict:
    """Can the state chain be reversed using only (next state, current action)?

    The test conditions on exogenous action sequences, so no policy plays a
    role.  At every time tau < horizon, the previous-state conditionals given
    (action a, next state i) are compared across action prefixes: the first
    prefix reaching (a, i) sets the reference, and a later one that differs
    from it by more than tol is the witness.

    Only the prefixes that extend a span-growing one are compared.  Level
    tau + 1 holds the level-tau prefixes kept, each extended by every action,
    in alphabet order.  A prefix is kept when its state marginal, each state's
    mass divided by the largest at its level (or by _NEGLIGIBLE if that is
    smaller), has a two-pass Gram-Schmidt residual above _NEGLIGIBLE against
    the marginals kept before it.  So a level keeps at most n prefixes and
    compares at most n * |A|, and the cost is O(horizon * |A|^2 * n^3).

    A dropped prefix's marginal is a combination of earlier kept ones, so the
    images under diag(tr[a][i, :]) of its extensions are combinations of those
    of compared prefixes that come before them: in exact arithmetic the
    verdict and the witness are those of comparing every prefix.  In floating
    point, write an uncompared prefix's marginal as m = sum_q c_q m_q + r over
    the marginals m_q compared at its time, r the drops' residuals carried
    forward (each, at its drop, at most _NEGLIGIBLE per unit of a state's
    largest mass at that level).  Its conditional at (a, i) is within
    (tol * sum_q |c_q| s_q + 2 |diag(tr[a][i, :]) r|_1) / s of the reference,
    where s_q and s are the masses the prefixes put on (a, i).  The first term
    is tol itself when no c_q is negative; it exceeds tol only when the
    compared prefixes differ from the reference by nearly tol and m
    extrapolates them, so a machine whose differences all sit near tol can be
    called reversible although some prefix differs by a little more.
    """
    if horizon < 0:
        raise StructureError(f"horizon must be at least 0, got {horizon}")
    tr = t.transition_marginals()
    cells = np.ix_(np.arange(len(t.actions)), np.arange(t.n))  # every (action, next state)

    def keep(prefixes: np.ndarray, m: np.ndarray) -> np.ndarray:
        grow, _ = _span_grower(t.n, _NEGLIGIBLE)
        return grow(m / np.maximum(m.max(axis=0), _NEGLIGIBLE))

    for tau, (_, prefixes, m) in enumerate(_word_levels([t.initial], tr, horizon - 1, keep)):
        # joint[p, a, next, prev] for action prefix p then action a
        joint = tr[None] * m[:, None, None, :]
        totals = joint.sum(axis=3)
        seen = totals > _NEGLIGIBLE
        cond = joint / np.where(seen, totals, 1.0)[..., None]
        # the first prefix reaching (a, next) sets the reference the others must match
        first = seen.argmax(axis=0)
        ref = cond[(first,) + cells]  # [a, next, prev]: cond[first[a, next], a, next]
        diff = np.abs(cond - ref).max(axis=3)
        bad = np.argwhere(seen & (diff > tol))
        if len(bad):
            p, a, i = bad[0]
            return ReversibilityVerdict(
                False,
                "level-span",
                horizon,
                ReversibilityWitness(
                    tau,
                    t.actions.symbols[a],
                    t.states[i],
                    tuple(t.actions.symbols[x] for x in prefixes[first[a, i]]),
                    tuple(t.actions.symbols[x] for x in prefixes[p]),
                    float(diff[p, a, i]),
                ),
            )
    return ReversibilityVerdict(True, "level-span", horizon)


# ---------------------------------------------------------------------------
# Backward kernel
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReverseKernel:
    """Backward one-step kernel at a fixed time, under a declared policy.

    matrices[a, y, i, j] is the probability of (output y, previous state i)
    given (action a, next state j); columns where the next state is
    unreachable under the policy are undefined and masked out rather than
    zero-filled.
    """

    matrices: np.ndarray
    defined_mask: np.ndarray  # [a, j]
    tau: int
    policy: str

    def column_sums(self) -> np.ndarray:
        return self.matrices.sum(axis=(1, 2))  # [a, j]


def reverse_kernel(
    t: Transducer,
    policy: Policy,
    tau: int,
    tol: float = DEFAULT_TOL,
    marginals: Optional[MarginalTable] = None,
) -> ReverseKernel:
    """Bayes-invert the one-step kernel at time tau under the given policy.

    The forward kernel is reweighted by the ratio of state marginals
    conditioned on the current action; by construction every defined column
    is a genuine conditional distribution, whether or not the machine is
    reversible.
    """
    if marginals is None:
        marginals = state_marginals(t, policy, tau + 1)
    if marginals.horizon < tau + 1:
        raise StructureError(
            f"marginal table covers horizon {marginals.horizon}, need {tau + 1}"
        )
    cond, p_action = marginals.state_given_action(tau)  # cond[s, a]
    tr = t.transition_marginals()
    n, n_actions = t.n, len(t.actions)
    matrices = np.zeros_like(t.kernel)
    mask = np.zeros((n_actions, n), dtype=bool)
    for a in range(n_actions):
        if p_action[a] <= tol:
            continue
        nxt = tr[a] @ cond[:, a]  # Pr(next state | action a)
        for j in range(n):
            if nxt[j] <= tol:
                continue
            mask[a, j] = True
            # matrices[a, y, i, j] = cond[i, a] / nxt[j] * kernel[a, y, j, i]
            matrices[a, :, :, j] = (t.kernel[a, :, j, :] * cond[:, a][None, :]) / nxt[j]
    if not mask.any():
        raise VatworldError(
            f"no (action, next state) column is reachable at time {tau} under this policy"
        )
    return ReverseKernel(matrices, mask, tau, marginals.policy)
