"""Bayesian belief updates over a machine's hidden states, and the machine of
reachable beliefs.

A belief is a distribution over the base machine's states.  Conditioning on
one more (action, output) pair updates it by one substochastic matrix and a
renormalization; for machines whose emission ignores the current action and
whose output/next-state draw is independent given (state, action), the update
splits into the classic transition-only and emission-reweighting halves.

Closing the set of reachable beliefs under updates yields a new transducer
whose next state is a function of (state, action, output); started from the
base machine's initial distribution it generates the same process.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_TOL, MooreClass, Transducer, classify_moore, validate
from .errors import ImpossibleHistoryError, MspClosureError, StructureError


@dataclass(frozen=True)
class BeliefState:
    """Distribution over a base machine's states."""

    weights: np.ndarray

    def __init__(self, weights, tol: float = 1e-8):
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise StructureError("belief weights must be a non-empty vector")
        if np.any(w < -tol):
            raise StructureError(f"belief has a negative entry: {w.min():.3g}")
        if abs(w.sum() - 1.0) > max(tol, 1e-9):
            raise StructureError(f"belief weights sum to {w.sum():.12g}, not 1")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @staticmethod
    def point_mass(n: int, index: int) -> "BeliefState":
        w = np.zeros(n)
        w[index] = 1.0
        return BeliefState(w)

    def l1_distance(self, other: "BeliefState") -> float:
        return float(np.abs(self.weights - other.weights).sum())

    def __len__(self):
        return self.weights.size


def _require_io_moore(t: Transducer, tol: float) -> tuple[np.ndarray, np.ndarray]:
    if classify_moore(t, tol) is not MooreClass.IO_MOORE:
        raise StructureError(
            f"{t.name}: operation needs an I-O Moore machine "
            "(emission independent of the action, output independent of the next state)"
        )
    emission = t.emission_marginals()[0]  # [y, j]; action-independent by the check
    transition = t.transition_marginals()  # [a, i, j]
    return emission, transition


def predictive_update(t: Transducer, b: BeliefState, action, output) -> BeliefState:
    """Condition a pre-step belief on one (action, output) pair.

    Returns the belief over the *next* state; the normalizer is the emission
    probability of the output under the current belief.
    """
    a = t.actions.index(action)
    y = t.outputs.index(output)
    raw = t.kernel[a, y] @ b.weights
    z = float(raw.sum())
    if z <= 0.0:
        raise ImpossibleHistoryError(
            f"output {output!r} under action {action!r} is impossible for this belief"
        )
    return BeliefState(raw / z)


def postdictive_update(
    t: Transducer, d: BeliefState, action, y_next, tol: float = DEFAULT_TOL
) -> BeliefState:
    """Move a post-observation belief one step and condition on the next output.

    Only defined for I-O Moore machines, where the current output pins down
    nothing about the next state beyond the state itself.
    """
    emission, transition = _require_io_moore(t, tol)
    a = t.actions.index(action)
    y = t.outputs.index(y_next)
    raw = emission[y] * (transition[a] @ d.weights)
    z = float(raw.sum())
    if z <= 0.0:
        raise ImpossibleHistoryError(
            f"next output {y_next!r} is impossible after action {action!r} from this belief"
        )
    return BeliefState(raw / z)


def predict(t: Transducer, d: BeliefState, action, tol: float = DEFAULT_TOL) -> BeliefState:
    """Push a belief through the state dynamics only (no conditioning)."""
    _, transition = _require_io_moore(t, tol)
    a = t.actions.index(action)
    return BeliefState(transition[a] @ d.weights)


def update(t: Transducer, prior: BeliefState, output, tol: float = DEFAULT_TOL) -> BeliefState:
    """Reweight a belief by the emission likelihood of an observed output."""
    emission, _ = _require_io_moore(t, tol)
    y = t.outputs.index(output)
    raw = emission[y] * prior.weights
    z = float(raw.sum())
    if z <= 0.0:
        raise ImpossibleHistoryError(f"output {output!r} is impossible under this belief")
    return BeliefState(raw / z)


def is_unifilar(t: Transducer, tol: float = DEFAULT_TOL) -> bool:
    """True when every (state, action, output) with emission mass has one successor."""
    for a in range(len(t.actions)):
        for y in range(len(t.outputs)):
            for j in range(t.n):
                col = t.kernel[a, y, :, j]
                if col.sum() > tol and int(np.sum(col > tol)) != 1:
                    return False
    return True


@dataclass(frozen=True)
class BeliefTransducer:
    """A machine over deduplicated reachable beliefs, with their payloads."""

    base: Transducer
    machine: Transducer
    state_payload: tuple[BeliefState, ...]

    @property
    def n(self) -> int:
        return self.machine.n


def build_msp(
    t: Transducer,
    tol: float = DEFAULT_TOL,
    max_states: int = 1000,
    max_depth: int = 200,
) -> BeliefTransducer:
    """Close the reachable beliefs of ``t`` under one-step updates.

    Starts from the machine's initial distribution and explores breadth-first;
    a candidate belief is identified with a known one when their L1 distance
    is within tol, and branches whose emission probability is at most tol are
    pruned.  Raises MspClosureError (with closure diagnostics) rather than
    truncating silently when the caps are hit, since a truncated belief
    machine would quietly distort everything built on top of it.
    """
    n_actions, n_outputs = len(t.actions), len(t.outputs)
    start = t.initial / t.initial.sum()
    beliefs: list[np.ndarray] = [start]
    depth_of = [0]
    edges: list[tuple[int, int, int, int, float]] = []
    queue = [0]
    head = 0

    def _closure_error(msg: str) -> MspClosureError:
        nearest = np.inf
        for i in range(len(beliefs)):
            for j in range(i + 1, len(beliefs)):
                nearest = min(nearest, float(np.abs(beliefs[i] - beliefs[j]).sum()))
        return MspClosureError(
            f"belief closure did not terminate: {msg} "
            f"(visited {len(beliefs)} beliefs, depth {max(depth_of)}, "
            f"nearest pair L1 distance {nearest:.3g})",
            visited=len(beliefs),
            depth=max(depth_of),
            nearest_pair_distance=nearest,
        )

    while head < len(queue):
        bi = queue[head]
        head += 1
        b = beliefs[bi]
        for a in range(n_actions):
            for y in range(n_outputs):
                raw = t.kernel[a, y] @ b
                emit = float(raw.sum())
                if emit <= tol:
                    continue
                new = raw / emit
                target = None
                for k, known in enumerate(beliefs):
                    if float(np.abs(known - new).sum()) <= tol:
                        target = k
                        break
                if target is None:
                    if len(beliefs) >= max_states:
                        raise _closure_error(f"more than {max_states} beliefs reached")
                    if depth_of[bi] + 1 > max_depth:
                        raise _closure_error(f"closure deeper than {max_depth}")
                    beliefs.append(new)
                    depth_of.append(depth_of[bi] + 1)
                    target = len(beliefs) - 1
                    queue.append(target)
                edges.append((bi, a, y, target, emit))

    k = len(beliefs)
    kernel = np.zeros((n_actions, n_outputs, k, k))
    for src, a, y, dst, emit in edges:
        kernel[a, y, dst, src] += emit
    initial = np.zeros(k)
    initial[0] = 1.0
    machine = Transducer(
        f"{t.name}/beliefs",
        [f"m{i}" for i in range(k)],
        t.actions,
        t.outputs,
        kernel,
        initial,
    )
    report = validate(machine, max(DEFAULT_TOL, n_outputs * tol))
    if not report.is_valid:
        raise RuntimeError(f"belief machine failed validation: {report}")
    if not is_unifilar(machine, tol):
        raise RuntimeError("belief machine is not unifilar; this is a construction bug")
    payload = tuple(BeliefState(b) for b in beliefs)
    return BeliefTransducer(t, machine, payload)


def is_faithful(
    msp: BeliefTransducer,
    t: Transducer,
    depth: int = 6,
    tol: float = DEFAULT_TOL,
) -> bool:
    """Does the belief machine generate the same process as its base machine?"""
    from .oracle import equivalent

    return equivalent(msp.machine, t, depth, tol).equivalent
