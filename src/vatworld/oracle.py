"""Ground truth for the action-conditioned output process.

Word probabilities come straight from the defining matrix products, with no
reliance on any reduced or derived presentation, so the rest of the library
can be checked against them.  Questions about all words at once (interface
equivalence here, the history-vector span in ``linalg_reduce``) go through
one basis-pruned span walk, which visits at most dim * |A| * |Y| words.
The span's growth test is shared with the level-span reversibility verdict
in ``reverse``.  Questions bounded by a word length (the memory-class
diagnosis here, and the depth-bounded checks elsewhere) go through one
level-batched word walk, the only place that charges the global word budget.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

import numpy as np

from . import budget
from .core import (
    DEFAULT_TOL,
    GeneralizedTransducer,
    History,
    Policy,
    Transducer,
)
from .errors import ImpossibleHistoryError, StructureError

Source = Union[Transducer, GeneralizedTransducer]

_CHOICE_ATOL = math.sqrt(np.finfo(np.float64).eps)  # Generator.choice's tolerance on sum(p)


def _boundary(t: Source) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (final row vector, step matrices, start vector) for a source."""
    if isinstance(t, Transducer):
        return np.ones(t.n), t.kernel, t.initial
    return t.u, t.matrices, t.v


def _span_grower(dims: int, floor: float):
    """A span that grows one vector at a time, starting empty.

    The returned grow(vec) takes vec's two-pass Gram-Schmidt residual against
    the span; when its norm is above floor (and the span is not yet the whole
    space), it adds the unit residual to the span and returns it, else it
    returns None.
    """
    basis = np.empty((dims, dims))
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

    return grow


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
    grow = _span_grower(dims, tol * float(np.linalg.norm(start)))
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


def _word_levels(starts, mats: np.ndarray, depth: int, what: str, keep=None):
    """Level-batched breadth-first walk over every word up to a length.

    Yields (parent, words, vecs) for each length 0..depth.  mats is [A, Y, d, d]
    or [A, d, d], flattened to X letters x = a * |Y| + y (or x = a).  words[r]
    holds row r's letters in time order, vecs[r] = mats[x_L] @ ... @ mats[x_1]
    @ start, and parent[r] is the row of the previous level it extends (at
    length 0, its index in starts).  Rows come in (parent, letter) order, so
    each level is in alphabet order.  keep(words, vecs) masks the rows to
    extend; without it every row is.  The word budget is charged once, before
    any work, for len(starts) * X**depth words.
    """
    dims = mats.shape[-1]
    step = mats.reshape(-1, dims).T  # row vector @ step = every one-letter child
    n_letters = step.shape[1] // dims
    vecs = np.asarray(starts, dtype=float).reshape(-1, dims)
    budget.check(len(vecs), n_letters, depth, what)
    parent = np.arange(len(vecs))
    words = np.zeros((len(vecs), 0), dtype=np.intp)
    for length in range(depth + 1):
        yield parent, words, vecs
        if length == depth:
            return
        rows = np.arange(len(vecs)) if keep is None else np.flatnonzero(keep(words, vecs))
        parent = np.repeat(rows, n_letters)
        words = np.column_stack([words[parent], np.tile(np.arange(n_letters), len(rows))])
        vecs = (vecs[rows] @ step).reshape(-1, dims)


def _positive(words: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """The rows of a word level whose probability is above 1e-12."""
    return vecs.sum(axis=1) > 1e-12


def _history(t: Source, word) -> History:
    """The history spelled by a row of flattened letters x = a * |Y| + y."""
    a_idx, y_idx = np.divmod(np.asarray(word, dtype=np.intp), len(t.outputs))
    return History(
        tuple(t.actions.symbols[a] for a in a_idx), tuple(t.outputs.symbols[y] for y in y_idx)
    )


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


def log_word_probability(t: Source, h: History) -> float:
    """Natural log of word_probability, finite however long the history.

    One forward pass renormalised at every step (Rabiner 1989, section V.A):
    each normaliser is the probability of the next output given the history
    before it, and the log-probability is the sum of their logs.  Returns
    -inf for an impossible history (a normaliser of zero).
    """
    final, kern, start = _boundary(t)
    a_idx, y_idx = t.word_indices(h)
    v = np.asarray(start, dtype=float)
    log_p = 0.0
    for a, y in zip(a_idx, y_idx):
        scale = float(final @ v)
        if scale <= 0.0:
            return -math.inf
        log_p += math.log(scale)
        v = kern[a, y] @ (v / scale)
    scale = float(final @ v)
    return log_p + math.log(scale) if scale > 0.0 else -math.inf


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


def _choice_cdf(p) -> list:
    """The CDF that ``Generator.choice(len(p), p=p)`` searches, after its checks.

    choice raises ValueError when the Kahan sum of p is NaN, when an entry is
    negative, or when that sum is off 1 by more than sqrt(eps), in that order;
    it then searches cumsum(p) / cumsum(p)[-1] with side="right" for one
    uniform.  The same checks raise the same errors here, and bisect_right on
    the returned list finds the same index.
    """
    p = np.asarray(p, dtype=float)
    values = p.tolist()
    total, carry = values[0], 0.0
    for x in values[1:]:
        y = x - carry
        nxt = total + y
        carry = (nxt - total) - y
        total = nxt
    if math.isnan(total):  # also when any entry is NaN
        raise ValueError("Probabilities contain NaN")
    if min(values) < 0.0:
        raise ValueError("Probabilities are not non-negative")
    if abs(total - 1.0) > _CHOICE_ATOL:
        raise ValueError(
            "Probabilities do not sum to 1. See Notes section of docstring for more information."
        )
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def sample_trajectory(
    t: Transducer, policy: Policy, length: int, seed: int
) -> tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]:
    """Sample (actions, outputs, states) of the given length, reproducibly.

    States has one extra entry (the post-run state).  Actions are drawn from
    the policy applied to the realized action-output history so far.

    Time is linear in length: one block of 2 * length uniforms drives the
    action and the (output, next state) draw of every step, and each (action,
    state) column's CDF is built and checked once, on its first visit.  The
    history is built only while it is still a prefix of a policy table key;
    from the first step off those prefixes, every action is drawn from the
    policy's fallback law, whose CDF is built once.  Each draw consumes one
    uniform and picks the index ``Generator.choice`` would, so a seed gives
    the same trajectory as in earlier versions, and a column that is not a
    distribution raises the same ValueError at the same step (a column never
    visited raises nothing).
    """
    rng = np.random.default_rng(seed)
    n = t.n
    n_actions = len(t.actions)
    state = int(rng.choice(n, p=t.initial / t.initial.sum()))
    uniforms = rng.random(2 * max(length, 0)).tolist()
    prefixes = policy.key_prefixes()
    action_cdf = None
    columns: dict[tuple[int, int], list] = {}
    actions: list[str] = []
    outputs: list[str] = []
    states = [t.states[state]]
    for u_action, u_step in zip(uniforms[::2], uniforms[1::2]):
        if prefixes:
            h = History(tuple(actions), tuple(outputs))
            if h in prefixes:
                action_cdf = _choice_cdf(policy.action_dist(h, n_actions))
            else:  # no later history is a key either
                prefixes, action_cdf = frozenset(), None
        if action_cdf is None:
            action_cdf = _choice_cdf(policy.fallback(n_actions))
        a = bisect_right(action_cdf, u_action)
        cdf = columns.get((a, state))
        if cdf is None:
            joint = t.kernel[a, :, :, state].reshape(-1)  # flat over (y, next)
            cdf = columns[a, state] = _choice_cdf(joint / joint.sum())
        y, state = divmod(bisect_right(cdf, u_step), n)
        actions.append(t.actions.symbols[a])
        outputs.append(t.outputs.symbols[y])
        states.append(t.states[state])
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
    if depth < 0:
        raise StructureError(f"depth must be at least 0, got {depth}")
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
    def expect(words: np.ndarray) -> np.ndarray:
        return marg[np.arange(words.shape[1]), words].prod(axis=1)

    levels = _word_levels(
        [t.initial], t.kernel, depth, "memory-class check",
        keep=lambda words, vecs: (vecs.sum(axis=1) > 0.0) | (expect(words) > 0.0),
    )
    next(levels)  # charges the budget before the depth-long table below; nothing to factor
    em = t.emission_marginals()  # [a, y, j]
    tr = t.transition_marginals()  # [a, i, j]
    marg = np.empty((depth, len(t.actions) * len(t.outputs)))
    state_dist = t.initial.copy()
    for step in range(depth):
        marg[step] = (em @ state_dist).reshape(-1)  # flat over (a, y)
        state_dist = tr[0] @ state_dist  # canonical prefix: always action 0
    return all(
        np.all(np.abs(vecs.sum(axis=1) - expect(words)) <= tol) for _, words, vecs in levels
    )


def _is_fully_observable(t: Transducer, depth: int, tol: float) -> bool:
    """Does the next-output conditional depend only on (last output, last action)?

    The first output's distribution is unconstrained.  For every history with
    positive probability, the conditional over the next output (for every
    choice of next action) must agree with the conditional of every other
    history ending in the same (output, action) pair.
    """
    em = t.emission_marginals()  # [a, y, j]
    reference: dict[int, np.ndarray] = {}
    levels = _word_levels([t.initial], t.kernel, depth - 1, "memory-class check", _positive)
    next(levels, None)  # the first output's distribution is unconstrained
    for _, words, vecs in levels:
        rows = _positive(words, vecs)
        cond = np.einsum("ayj,rj->ray", em, vecs[rows]) / vecs[rows].sum(axis=1)[:, None, None]
        last = words[rows, -1]
        for x in np.unique(last):
            conds = cond[last == x]
            ref = reference.setdefault(int(x), conds[0])  # [next action, next output]
            if np.any(np.abs(conds - ref) > tol):
                return False
    return True


def memory_class(t: Transducer, depth: int = 6, tol: float = DEFAULT_TOL) -> MemoryClass:
    """Diagnose the interface's memory structure up to a word-length bound.

    The bound must be at least 1: no word of length 0 can show a dependence,
    so depth 0 would call every machine memoryless.
    """
    if depth < 1:
        raise StructureError(f"depth must be at least 1, got {depth}")
    if _is_memoryless(t, depth, tol):
        return MemoryClass.MEMORYLESS
    if _is_fully_observable(t, depth, tol):
        return MemoryClass.FULLY_OBSERVABLE
    return MemoryClass.GENERAL
