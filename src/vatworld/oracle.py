"""Ground truth for the action-conditioned output process.

Word probabilities come straight from the defining matrix products, with no
reliance on any reduced or derived presentation, so the rest of the library
can be checked against them.  Questions about all words at once (interface
equivalence here, the history-vector span in ``linalg_reduce``) go through
one basis-pruned span walk, which visits at most dim * |A| * |Y| words.  The
memory-class diagnosis still enumerates words to a depth under the global
word budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Union

import numpy as np

from . import budget
from .core import DEFAULT_TOL, GeneralizedTransducer, History, Policy, Transducer
from .errors import ImpossibleHistoryError, StructureError

Source = Union[Transducer, GeneralizedTransducer]


def _boundary(t: Source) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (final row vector, step matrices, start vector) for a source."""
    if isinstance(t, Transducer):
        return np.ones(t.n), t.kernel, t.initial
    return t.u, t.matrices, t.v


def _span_walk(start: np.ndarray, mats: np.ndarray, tol: float, max_len: Optional[int] = None):
    """Breadth-first walk over the words whose vectors grow a span (Tzeng 1992).

    Yields (word, vector, direction) for every visited word in breadth-first
    order: word is a tuple of (action, output) index pairs, vector is
    mats[word[-1]] @ ... @ mats[word[0]] @ start, and direction is the unit
    residual the vector added to the span, or None when its two-pass
    Gram-Schmidt residual is at most tol * |start|.  Only words that added a
    direction are extended, so the visited vectors span every word vector of
    the same or smaller length, at most dim * |A| * |Y| + 1 words are visited,
    and the walk stops at the first level that adds nothing or at max_len.
    """
    n_outputs, dims = mats.shape[1], mats.shape[2]
    flat = mats.reshape(-1, dims, dims)
    basis = np.empty((dims, dims))
    floor = tol * float(np.linalg.norm(start))
    rank = 0

    def grow(vec: np.ndarray) -> Optional[np.ndarray]:
        nonlocal rank
        res = vec
        for _ in range(2):
            q = basis[:rank]
            res = res - (q @ res) @ q
        norm = float(np.linalg.norm(res))
        if rank == dims or norm <= floor:
            return None
        basis[rank] = res / norm
        rank += 1
        return basis[rank - 1]

    vec = np.asarray(start, dtype=float)
    direction = grow(vec)
    yield (), vec, direction
    frontier = [((), vec)] if direction is not None else []
    length = 0
    while frontier and (max_len is None or length < max_len):
        length += 1
        grown = []
        for word, vec in frontier:
            for x, child in enumerate(flat @ vec):
                longer = word + (divmod(x, n_outputs),)
                direction = grow(child)
                yield longer, child, direction
                if direction is not None:
                    grown.append((longer, child))
        frontier = grown


def forward_vector(t: Source, h: History) -> np.ndarray:
    """Unnormalized forward state vector after consuming the history.

    Entry i is the joint weight of producing the history's outputs (given its
    actions) and ending in state i; summing against the final vector gives the
    word probability.
    """
    _, kern, start = _boundary(t)
    a_idx, y_idx = t.word_indices(h)
    v = start.copy()
    for a, y in zip(a_idx, y_idx):
        v = kern[a, y] @ v
    return v


def word_probability(t: Source, h: History) -> float:
    """Probability of the output word given the action word (time-ordered)."""
    final, _, _ = _boundary(t)
    return float(final @ forward_vector(t, h))


@dataclass
class InterfaceView:
    """Memoizing view of a source's word probabilities."""

    source: Source
    _cache: dict = field(default_factory=dict, repr=False)

    def probability(self, h: History) -> float:
        hit = self._cache.get(h)
        if hit is None:
            hit = word_probability(self.source, h)
            self._cache[h] = hit
        return hit


def next_output_dist(t: Transducer, past: History, action) -> np.ndarray:
    """Conditional distribution of the next output after a given history.

    Computed as a ratio of word probabilities; the array is aligned with
    ``t.outputs``.  Raises ImpossibleHistoryError when the past itself has
    probability zero.
    """
    final, kern, _ = _boundary(t)
    v = forward_vector(t, past)
    p_past = float(final @ v)
    if p_past <= 0.0:
        raise ImpossibleHistoryError(f"history {past} has probability {p_past}")
    a = t.actions.index(action)
    dist = np.array([float(final @ (kern[a, y] @ v)) for y in range(len(t.outputs))])
    return dist / p_past


def sample_trajectory(
    t: Transducer, policy: Policy, length: int, seed: int
) -> tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]:
    """Sample (actions, outputs, states) of the given length, reproducibly.

    States has one extra entry (the post-run state).  Actions are drawn from
    the policy applied to the realized action-output history so far.
    """
    rng = np.random.default_rng(seed)
    n = t.n
    n_actions = len(t.actions)
    n_outputs = len(t.outputs)
    state = int(rng.choice(n, p=t.initial / t.initial.sum()))
    actions: list[str] = []
    outputs: list[str] = []
    states = [t.states[state]]
    for _ in range(length):
        h = History(tuple(actions), tuple(outputs))
        a = int(rng.choice(n_actions, p=policy.action_dist(h, n_actions)))
        joint = t.kernel[a, :, :, state].reshape(-1)  # flat over (y, next)
        total = joint.sum()
        pick = int(rng.choice(joint.size, p=joint / total))
        y, nxt = divmod(pick, n)
        actions.append(t.actions.symbols[a])
        outputs.append(t.outputs.symbols[y])
        states.append(t.states[nxt])
        state = nxt
    return tuple(actions), tuple(outputs), tuple(states)


# ---------------------------------------------------------------------------
# Interface equivalence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CounterExample:
    history: History
    p1: float
    p2: float
    difference: float


@dataclass(frozen=True)
class EquivalenceVerdict:
    equivalent: bool
    depth_checked: int
    counterexample: Optional[CounterExample] = None

    def __bool__(self):
        return self.equivalent


def equivalent(
    t1: Source, t2: Source, depth: Optional[int] = None, tol: float = DEFAULT_TOL
) -> EquivalenceVerdict:
    """Do two sources give every word of length <= depth the same probability?

    Walks the span of the block-diagonal joint machine's forward vectors
    (Tzeng 1992; numerics after Kiefer et al. 2011) and compares the two
    probabilities on every visited word.  The visited words of each length
    span all words of that length, so a difference over tol shows on a
    visited word, and the first one in breadth-first order is a shortest
    counterexample.  The joint span closes within n1 + n2 levels, so the
    default depth, the sum of the two state counts, gives an exact verdict;
    a smaller depth bounds it, and the verdict records the depth asked for.
    """
    if t1.actions.symbols != t2.actions.symbols or t1.outputs.symbols != t2.outputs.symbols:
        raise StructureError("sources must share action and output alphabets")
    if depth is None:
        depth = t1.n + t2.n
    final1, kern1, start1 = _boundary(t1)
    final2, kern2, start2 = _boundary(t2)
    n1 = len(start1)
    joint = np.zeros(kern1.shape[:2] + (n1 + len(start2),) * 2)
    joint[:, :, :n1, :n1] = kern1
    joint[:, :, n1:, n1:] = kern2
    for word, vec, _ in _span_walk(np.concatenate([start1, start2]), joint, tol, depth):
        p1, p2 = float(final1 @ vec[:n1]), float(final2 @ vec[n1:])
        if abs(p1 - p2) > tol:
            hist = History(
                tuple(t1.actions.symbols[a] for a, _ in word),
                tuple(t1.outputs.symbols[y] for _, y in word),
            )
            return EquivalenceVerdict(False, depth, CounterExample(hist, p1, p2, abs(p1 - p2)))
    return EquivalenceVerdict(True, depth)


# ---------------------------------------------------------------------------
# Memory-class diagnosis
# ---------------------------------------------------------------------------


class MemoryClass(Enum):
    MEMORYLESS = "Memoryless"
    FULLY_OBSERVABLE = "FullyObservable"
    GENERAL = "General"


def _is_memoryless(t: Transducer, depth: int, tol: float) -> bool:
    """Do all word probabilities factor into per-step single-symbol marginals?

    The per-step marginal of output y under action a is computed once from a
    canonical action prefix; the factorization check over every word then
    also catches any dependence of those marginals on earlier actions.
    """
    em = t.emission_marginals()  # [a, y, j]
    tr = t.transition_marginals()  # [a, i, j]
    n_actions, n_outputs = len(t.actions), len(t.outputs)
    marg = np.empty((depth, n_actions, n_outputs))
    state_dist = t.initial.copy()
    for step in range(depth):
        marg[step] = em[:, :, :] @ state_dist  # [a, y]
        state_dist = tr[0] @ state_dist  # canonical prefix: always action 0
    ok = True

    def walk(v: np.ndarray, prod: float, step: int):
        nonlocal ok
        if not ok or step == depth:
            return
        for a in range(n_actions):
            for y in range(n_outputs):
                p = float((t.kernel[a, y] @ v).sum())
                expect = prod * marg[step, a, y]
                if abs(p - expect) > tol:
                    ok = False
                    return
                if p > 0.0 or expect > 0.0:
                    walk(t.kernel[a, y] @ v, expect, step + 1)

    walk(t.initial, 1.0, 0)
    return ok


def _is_fully_observable(t: Transducer, depth: int, tol: float) -> bool:
    """Does the next-output conditional depend only on (last output, last action)?

    The first output's distribution is unconstrained.  For every history with
    positive probability, the conditional over the next output (for every
    choice of next action) must agree with the conditional of every other
    history ending in the same (output, action) pair.
    """
    n_actions, n_outputs = len(t.actions), len(t.outputs)
    reference: dict[tuple[int, int], np.ndarray] = {}
    ok = True

    def walk(v: np.ndarray, last: Optional[tuple[int, int]], length: int):
        nonlocal ok
        if not ok:
            return
        p_hist = float(v.sum())
        if p_hist <= 1e-12:
            return
        if length >= depth:
            return
        for a in range(n_actions):
            children = [t.kernel[a, y] @ v for y in range(n_outputs)]
            cond = np.array([c.sum() for c in children]) / p_hist
            if last is not None:
                key = (last[0], last[1])
                ref = reference.get(key)
                if ref is None:
                    reference[key] = cond
                elif np.any(np.abs(ref - cond) > tol):
                    ok = False
                    return
            for y in range(n_outputs):
                walk(children[y], (y, a), length + 1)

    walk(t.initial, None, 0)
    return ok


def memory_class(
    t: Transducer, depth: int = 6, tol: float = DEFAULT_TOL, force: bool = False
) -> MemoryClass:
    """Diagnose the interface's memory structure up to a word-length bound."""
    n_actions, n_outputs = len(t.actions), len(t.outputs)
    budget.check(float(n_actions * n_outputs) ** depth, force, "memory-class check")
    if _is_memoryless(t, depth, tol):
        return MemoryClass.MEMORYLESS
    if _is_fully_observable(t, depth, tol):
        return MemoryClass.FULLY_OBSERVABLE
    return MemoryClass.GENERAL
