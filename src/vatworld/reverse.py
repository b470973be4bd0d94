"""Running machines backwards: when it is possible, and how to build the
backward kernel.

A machine can be run in reverse exactly when, given the next state and the
current action, the previous state carries no further information about any
other action.  That condition is a property of the machine alone (it
quantifies over exogenous action sequences); the backward kernel itself,
however, needs per-time state marginals, which only exist under an explicit
action law.  Every artifact here is therefore stamped with the policy used.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import budget
from .core import (
    DEFAULT_TOL,
    History,
    Policy,
    Transducer,
    UniformPolicy,
    WeightedPolicy,
)
from .errors import StructureError, VatworldError
from .oracle import _history, _word_levels


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
    """Exact per-time joint of (state, action) by enumerating histories.

    Policies that ignore the history collapse to a single state-vector
    recursion; history-dependent policies walk every history with positive
    weight, carrying the product of the policy's action probabilities along
    it, and that walk is what the word budget guards.
    """
    n = t.n
    n_actions, n_outputs = len(t.actions), len(t.outputs)
    joint = np.zeros((horizon + 1, n, n_actions))
    tr = t.transition_marginals()
    if isinstance(policy, (UniformPolicy, WeightedPolicy)):
        adist = policy.action_dist(History.empty(), n_actions)
        m = t.initial.copy()
        for tau in range(horizon + 1):
            joint[tau] = np.outer(m, adist)
            m = sum(adist[a] * (tr[a] @ m) for a in range(n_actions))
        return MarginalTable(joint, horizon, policy.describe())

    # weight[r]: policy probability of row r's actions; live rows are the
    # histories with positive weighted mass, the only ones extended.
    weight = np.ones(1)
    live = np.ones(1, dtype=bool)
    levels = _word_levels(
        [t.initial], t.kernel, horizon, "marginal enumeration", lambda words, vecs: live
    )
    for tau, (parent, words, vecs) in enumerate(levels):
        if tau:
            weight = weight[parent] * adists[parent, words[:, -1] // n_outputs]
            live = (weight > 0.0) & (vecs.sum(axis=1) > 0.0)
        adists = np.zeros((len(live), n_actions))
        for r in np.flatnonzero(live):
            adists[r] = policy.action_dist(_history(t, words[r]), n_actions)
        joint[tau] = (vecs * weight[:, None]).T @ adists
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


def is_action_counifilar(t: Transducer, tol: float = DEFAULT_TOL) -> bool:
    """True when (next state, action) pins down the previous state."""
    tr = t.transition_marginals()  # [a, to, from]
    for a in range(len(t.actions)):
        for i in range(t.n):
            if int(np.sum(tr[a, i, :] > tol)) > 1:
                return False
    return True


def _is_action_agnostic(t: Transducer, tol: float) -> bool:
    return bool(np.all(np.abs(t.kernel - t.kernel[0]) <= tol))


def check_reversible(
    t: Transducer,
    policy: Optional[Policy] = None,
    horizon: int = 4,
    tol: float = DEFAULT_TOL,
    use_fast_paths: bool = True,
) -> ReversibilityVerdict:
    """Can the state chain be reversed using only (next state, current action)?

    The test conditions on exogenous action sequences, so the policy argument
    plays no role in the verdict; it is accepted for interface symmetry with
    the kernel constructor.  Structural fast paths (single state, identical
    kernels across actions, unique predecessor per action) decide without
    enumeration; otherwise, for every time and every action prefix, the
    previous-state conditionals are compared across prefixes sharing the
    final action.
    """
    del policy
    if use_fast_paths:
        if t.n == 1:
            return ReversibilityVerdict(True, "single-state", horizon)
        if _is_action_agnostic(t, tol):
            return ReversibilityVerdict(True, "action-agnostic", horizon)
        if is_action_counifilar(t, tol):
            return ReversibilityVerdict(True, "action-counifilar", horizon)
    tr = t.transition_marginals()
    levels = _word_levels([t.initial], tr, horizon - 1, "reversibility check")
    for tau, (_, prefixes, m) in enumerate(levels):
        # joint[p, a, next, prev] for action prefix p then action a
        joint = tr[None] * m[:, None, None, :]
        totals = joint.sum(axis=3)
        seen = totals > 1e-12
        cond = joint / np.where(seen, totals, 1.0)[..., None]
        # the first prefix reaching (a, next) sets the reference the others must match
        first = seen.argmax(axis=0)
        ref = np.take_along_axis(cond, first[None, :, :, None], axis=0)
        diff = np.abs(cond - ref).max(axis=3)
        bad = np.argwhere(seen & (diff > tol))
        if len(bad):
            p, a, i = bad[0]
            return ReversibilityVerdict(
                False,
                "exhaustive",
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
    return ReversibilityVerdict(True, "exhaustive", horizon)


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
    horizon: Optional[int] = None,
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
        need = tau + 1 if horizon is None else max(horizon, tau + 1)
        marginals = state_marginals(t, policy, need)
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


@dataclass(frozen=True)
class ReverseCheck:
    ok: bool
    max_deviation: float
    witness: Optional[dict] = None

    def __bool__(self):
        return self.ok


def verify_reverse_generates(
    t: Transducer,
    policy: Policy,
    horizon: int = 4,
    tol: float = DEFAULT_TOL,
) -> ReverseCheck:
    """Compare the forward and backward factorizations path by path.

    For every action word up to the horizon and every (state path, output
    word), the forward product (initial mass times forward kernel steps) must
    match the backward product (final state marginal under those actions
    times backward kernel steps).  Reverse-kernel columns the policy never
    reaches contribute zero weight; a path with forward mass through such a
    column is itself a violation.
    """
    n = t.n
    n_actions, n_outputs = len(t.actions), len(t.outputs)
    budget.check(
        float(n_actions * n_outputs) ** horizon * float(n) ** (horizon + 1),
        "reverse factorization check",
    )
    marginals = state_marginals(t, policy, horizon)
    revs = [
        reverse_kernel(t, policy, tau, marginals=marginals, tol=tol)
        for tau in range(horizon)
    ]
    tr = t.transition_marginals()
    max_dev = 0.0
    witness: Optional[dict] = None

    def walk(a_word: tuple[int, ...], length: int):
        """Enumerate paths for one action word and compare both products."""
        nonlocal max_dev, witness
        # final state marginal under this exogenous action word
        m_end = t.initial.copy()
        for a in a_word:
            m_end = tr[a] @ m_end

        def paths(step: int, state: int, fwd: float, rev: float, ys: tuple, ss: tuple):
            nonlocal max_dev, witness
            if step == length:
                total_rev = rev * m_end[state]
                dev = abs(fwd - total_rev)
                if dev > max_dev:
                    max_dev = dev
                    if dev > tol and witness is None:
                        witness = {
                            "actions": tuple(t.actions.symbols[a] for a in a_word),
                            "outputs": tuple(t.outputs.symbols[y] for y in ys),
                            "states": tuple(t.states[s] for s in ss),
                            "forward": fwd,
                            "reverse": total_rev,
                        }
                return
            a = a_word[step]
            for y in range(n_outputs):
                for nxt in range(n):
                    f2 = fwd * t.kernel[a, y, nxt, state]
                    if revs[step].defined_mask[a, nxt]:
                        r2 = rev * revs[step].matrices[a, y, state, nxt]
                    else:
                        r2 = 0.0
                    if f2 == 0.0 and r2 == 0.0:
                        continue
                    paths(step + 1, nxt, f2, r2, ys + (y,), ss + (nxt,))

        for s0 in range(n):
            if t.initial[s0] > 0.0:
                paths(0, s0, t.initial[s0], 1.0, (), (s0,))

    stack = [()]
    while stack:
        word = stack.pop()
        if len(word) > 0:
            walk(word, len(word))
        if len(word) < horizon:
            for a in range(n_actions):
                stack.append(word + (a,))
    first_witness = witness if max_dev > tol else None
    return ReverseCheck(bool(max_dev <= tol), float(max_dev), first_witness)
