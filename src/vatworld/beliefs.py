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

from .core import DEFAULT_TOL, MooreClass, Transducer, _require_laws, classify_moore, validate
from .errors import ImpossibleHistoryError, MspClosureError, StructureError
from .minimize import _TolIndex
from .oracle import equivalent


@dataclass(frozen=True)
class BeliefState:
    """Distribution over a base machine's states."""

    weights: np.ndarray

    def __init__(self, weights):
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise StructureError("belief weights must be a non-empty vector")
        _require_laws(w[None], 1e-8, lambda _: "belief")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @staticmethod
    def point_mass(n: int, index: int) -> "BeliefState":
        w = np.zeros(n)
        w[index] = 1.0
        return BeliefState(w)


def _normalized(raw: np.ndarray, impossible: str) -> BeliefState:
    """``raw`` over its sum, as a belief; ImpossibleHistoryError(impossible)
    when that sum is not positive."""
    z = float(raw.sum())
    if z <= 0.0:
        raise ImpossibleHistoryError(impossible)
    return BeliefState(raw / z)


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
    impossible = f"output {output!r} under action {action!r} is impossible for this belief"
    return _normalized(t.kernel[a, y] @ b.weights, impossible)


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
    impossible = f"next output {y_next!r} is impossible after action {action!r} from this belief"
    return _normalized(emission[y] * (transition[a] @ d.weights), impossible)


def predict(t: Transducer, d: BeliefState, action, tol: float = DEFAULT_TOL) -> BeliefState:
    """Push a belief through the state dynamics only (no conditioning)."""
    _, transition = _require_io_moore(t, tol)
    a = t.actions.index(action)
    return BeliefState(transition[a] @ d.weights)


def update(t: Transducer, prior: BeliefState, output, tol: float = DEFAULT_TOL) -> BeliefState:
    """Reweight a belief by the emission likelihood of an observed output."""
    emission, _ = _require_io_moore(t, tol)
    y = t.outputs.index(output)
    impossible = f"output {output!r} is impossible under this belief"
    return _normalized(emission[y] * prior.weights, impossible)


def is_unifilar(t: Transducer, tol: float = DEFAULT_TOL) -> bool:
    """True when every (state, action, output) with emission mass has one successor."""
    cols = np.ascontiguousarray(t.kernel.transpose(0, 1, 3, 2))  # [a, y, j, next]
    return not np.any((cols.sum(axis=-1) > tol) & (np.sum(cols > tol, axis=-1) != 1))


@dataclass(frozen=True)
class BeliefTransducer:
    """A machine over deduplicated reachable beliefs; row i of the read-only
    ``beliefs`` is state i's law over the source's states (``beliefs.T`` is L).
    ``link_residual`` and ``link_allowance`` are ``_belief_link`` of the source,
    L and the machine: the largest column L1 norm of T_x L - L B_x, and how far
    a closure at its tol may leave it."""

    machine: Transducer
    beliefs: np.ndarray
    link_residual: float
    link_allowance: float

    @property
    def n(self) -> int:
        return self.machine.n


def _belief_link(
    big: np.ndarray, link: np.ndarray, small: np.ndarray, tol: float
) -> tuple[float, float]:
    """The largest column L1 norm of big_x @ link - link @ small_x over letters x,
    and how far a belief closure at tol may leave that link; see ``build_msp``."""
    pushed = big @ link  # T_x b for each letter x and belief b
    residual = float(np.abs(pushed - link @ small).sum(axis=-2).max(initial=0.0))
    mass = np.abs(pushed).sum(axis=-2)  # its sum plus twice its negative mass
    negative = float((mass - pushed.sum(axis=-2)).max(initial=0.0))
    return residual, tol * max(1.0, float(mass.max(initial=0.0))) + negative


def build_msp(t: Transducer, tol: float = DEFAULT_TOL, max_states: int = 1000) -> BeliefTransducer:
    """Close the reachable beliefs of ``t`` under one-step updates.

    Starts from the machine's initial distribution and explores breadth-first;
    a candidate belief is identified with the first known one within tol in
    L1 distance, and branches whose emission probability is at most tol are
    pruned.  Each level's updates come from one stacked product (bit for bit
    the single products T_x b), and are looked up in (belief, action,
    output) order, an update that repeats an earlier one bit for bit taking
    its answer (``_TolIndex.first``), so the beliefs, their numbering and
    the edges are those of a belief-by-belief walk.  Raises MspClosureError
    (with closure diagnostics) rather than truncating silently past
    ``max_states`` beliefs, which also bounds the depth.  An invalid source,
    at the belief machine's tolerance max(DEFAULT_TOL, |Y| * tol), or
    ``max_states`` below 1 raises StructureError.  The result is unifilar by
    construction and checked once, by its link to the source, the largest
    column L1 norm of T_x L - L B_x with L the beliefs as columns.  A merged
    update T_x b lies within tol * |T_x b|_1 of its belief times emit, and a
    pruned one (emit <= tol) leaves |T_x b|_1, emit plus twice its negative
    mass: tol on a stochastic source.  ``_belief_link`` computes the residual
    and that allowance from one product T_x L; past the allowance by over
    8 (n + k) machine epsilons, a RuntimeError reports a construction bug.
    Both are kept on the result.  Then every belief is checked as a
    ``BeliefState`` checks its one.
    """
    if max_states < 1:
        raise StructureError(f"max_states must be at least 1, got {max_states}")
    n_actions, n_outputs = len(t.actions), len(t.outputs)
    valid_tol = max(DEFAULT_TOL, n_outputs * tol)
    source = validate(t, valid_tol)
    if not source.is_valid:
        raise StructureError(f"{t.name} is not valid at tol {valid_tol:g}: {source.violations[0]}")
    start = t.initial / t.initial.sum()
    beliefs: list[np.ndarray] = [start]
    index = _TolIndex(t.n, tol)
    index.add(0, index.project(start[None])[0], repeat=index.repeats(start[None])[0])
    depth_of = [0]

    def _closure_error(msg: str) -> MspClosureError:
        known = np.array(beliefs)
        nearest = min(
            (float(np.abs(known[i + 1 :] - b).sum(axis=1).min()) for i, b in enumerate(known[:-1])),
            default=np.inf,
        )
        return MspClosureError(
            f"belief closure did not terminate: {msg} "
            f"(visited {len(beliefs)} beliefs, depth {max(depth_of)}, "
            f"nearest pair L1 distance {nearest:.3g})",
            visited=len(beliefs),
            depth=max(depth_of),
            nearest_pair_distance=nearest,
        )

    # One breadth-first level per pass: the level's updates come from one
    # stacked product, and the lookups run in (belief, action, output) order.
    flat = t.kernel.reshape(n_actions * n_outputs, t.n, t.n)
    lo, letters, targets, sources, emits = 0, [], [], [], []
    while lo < len(beliefs):
        hi = len(beliefs)
        raw = np.matmul(flat, np.array(beliefs[lo:hi])[:, None, :, None])[..., 0]
        emit = raw.sum(axis=-1)  # [belief, letter]
        src, letter = np.nonzero(~(emit <= tol))  # a nan tol prunes nothing
        emit = emit[src, letter]
        news = raw[src, letter] / emit[:, None]
        src = (src + lo).tolist()
        for bi, new, key, repeat in zip(src, news, index.project(news), index.repeats(news)):
            target = index.first(key, lambda k: float(np.abs(beliefs[k] - new).sum()) <= tol, repeat)
            if target is None:
                if len(beliefs) >= max_states:
                    raise _closure_error(f"more than {max_states} beliefs reached")
                target = len(beliefs)
                beliefs.append(new)
                index.add(target, key, repeat=repeat)
                depth_of.append(depth_of[bi] + 1)
            targets.append(target)
        letters.append(letter)
        sources += src
        emits.append(emit)
        lo = hi

    k = len(beliefs)
    kernel = np.zeros((n_actions * n_outputs, k, k))
    # one edge per kept (belief, letter), so no cell is written twice
    kernel[np.concatenate(letters), targets, sources] = np.concatenate(emits)
    kernel = kernel.reshape(n_actions, n_outputs, k, k)
    rows = np.array(beliefs)
    residual, allowance = _belief_link(t.kernel, rows.T, kernel, tol)
    rounding = 8 * (t.n + k) * float(np.finfo(float).eps)
    if not residual <= allowance + rounding:
        raise RuntimeError(f"belief machine is off its beliefs by {residual:.3g}; construction bug")
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
    _require_laws(rows, 1e-8, lambda _: "belief")
    rows.setflags(write=False)
    return BeliefTransducer(machine, rows, residual, allowance)


def is_faithful(msp: BeliefTransducer, t: Transducer, tol: float = DEFAULT_TOL) -> bool:
    """Does the belief machine give every word, of any length, its base machine's probability?"""
    return equivalent(msp.machine, t, tol=tol).equivalent
