"""Ground truth for the action-conditioned output process.

Word probabilities come straight from the defining matrix products, with no
reliance on any reduced or derived presentation, so the rest of the library
can be checked against them.  Every question over words goes through one
level-batched word walk, ``_word_levels``, whose caller masks the rows to
extend.  Questions about all words at once (interface equivalence here, the
history-vector span in ``linalg_reduce``) extend only the words that grow a
span, ``_span_grower``, so they visit at most dim * |A| * |Y| words; the
level-span reversibility verdict in ``reverse`` grows a fresh span per level.
Questions bounded by a word length (the memory-class diagnosis here, and the
depth-bounded checks elsewhere) enumerate words, so each charges the global
word budget itself before it walks; the walk charges nothing.
"""

from __future__ import annotations

import itertools
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
    """A span that grows row by row, starting empty.

    Returns (grow, basis).  grow(vecs) takes each row's two-pass Gram-Schmidt
    residual against the span in turn; when its norm is above floor (and the
    span is not yet the whole space), it appends the unit residual to basis.
    It returns the mask of the rows that grew the span.
    """
    span = np.empty((dims, dims))  # its first len(basis) rows are basis
    basis: list[np.ndarray] = []

    def grow(vecs: np.ndarray) -> np.ndarray:
        grew = np.zeros(len(vecs), dtype=bool)
        for r, res in enumerate(vecs):
            q = span[: len(basis)]
            if len(q) == dims:
                break
            for _ in range(2):
                res = res - (q @ res) @ q
            norm = math.sqrt(res @ res)  # the bits of np.linalg.norm(res)
            if norm > floor:
                span[len(basis)] = res / norm
                basis.append(span[len(basis)])
                grew[r] = True
        return grew

    return grow, basis


def _span_floor(start: np.ndarray, tol: float) -> float:
    """(tol + g) |start|, the residual a word vector must pass to grow a span
    from ``start``: g = nu / (1 - nu), nu = 4 d eps, bounds the rounding of a
    two-pass Gram-Schmidt residual in d dimensions (Higham 2002, ch. 3)."""
    nu = 4 * len(start) * float(np.finfo(float).eps)
    return (tol + nu / (1.0 - nu)) * float(np.linalg.norm(start))


def _word_levels(starts, mats: np.ndarray, depth: Optional[int] = None, keep=None):
    """Level-batched breadth-first walk over words: the one word walker.

    Yields (parent, words, vecs) for each length 0..depth.  mats is [A, Y, d, d]
    or [A, d, d], flattened to X letters x = a * |Y| + y (or x = a).  words[r]
    holds row r's letters in time order, vecs[r] = mats[x_L] @ ... @ mats[x_1]
    @ start, and parent[r] is the row of the previous level it extends (at
    length 0, its index in starts).  Rows come in (parent, letter) order, so
    each level is in alphabet order.  keep(words, vecs) returns the boolean
    mask of the rows to extend; without it every row is.  The walk stops
    after length depth, or sooner at a level whose mask keeps nothing (with
    depth None, only then).  It charges no word budget: the callers that
    enumerate words check it first.
    """
    dims = mats.shape[-1]
    step = mats.reshape(-1, dims).T  # row vector @ step = every one-letter child
    n_letters = step.shape[1] // dims
    letters = np.arange(n_letters)
    vecs = np.asarray(starts, dtype=float).reshape(-1, dims)
    parent = np.arange(len(vecs))
    words = np.zeros((len(vecs), 0), dtype=np.intp)
    for length in itertools.count() if depth is None else range(depth + 1):
        yield parent, words, vecs
        if length == depth:
            return
        rows = np.arange(len(vecs)) if keep is None else keep(words, vecs).nonzero()[0]
        if not len(rows):
            return
        parent = rows.repeat(n_letters)
        children = np.empty((len(rows), n_letters, length + 1), dtype=np.intp)
        children[:, :, :length] = words[rows, None]
        children[:, :, length] = letters
        words = children.reshape(-1, length + 1)
        vecs = (vecs[rows] @ step).reshape(-1, dims)


def _positive(words: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """The rows of a word level whose probability is above 1e-12."""
    return vecs.sum(axis=1) > 1e-12


def _history(t: Source, word) -> History:
    """The history spelled by a row of flattened letters x = a * |Y| + y."""
    pairs = [divmod(x, len(t.outputs)) for x in np.asarray(word, dtype=np.intp).tolist()]
    return History(
        tuple(t.actions.symbols[a] for a, _ in pairs), tuple(t.outputs.symbols[y] for _, y in pairs)
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
    if length < 0:
        raise StructureError(f"length must be at least 0, got {length}")
    rng = np.random.default_rng(seed)
    n = t.n
    n_actions = len(t.actions)
    mass = t.initial.sum()  # zero mass: NaN, which choice refuses, without a numpy warning
    state = int(rng.choice(n, p=t.initial / mass if mass else t.initial + np.nan))
    uniforms = rng.random(2 * length).tolist()
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
            mass = joint.sum()
            cdf = columns[a, state] = _choice_cdf(joint / mass if mass else joint + np.nan)
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
    start = np.concatenate([start1, start2])
    grow, _ = _span_grower(len(start), _span_floor(start, tol))
    for _, words, vecs in _word_levels([start], joint, depth, lambda words, vecs: grow(vecs)):
        p1, p2 = vecs[:, :n1] @ final1, vecs[:, n1:] @ final2
        bad = np.flatnonzero(np.abs(p1 - p2) > tol)
        if len(bad):
            p, q = float(p1[bad[0]]), float(p2[bad[0]])
            ce = CounterExample(_history(t1, words[bad[0]]), p, q, abs(p - q))
            return EquivalenceVerdict(False, depth, ce)
    return EquivalenceVerdict(True, depth)


# ---------------------------------------------------------------------------
# Memory-class diagnosis
# ---------------------------------------------------------------------------


class MemoryClass(Enum):
    MEMORYLESS = "Memoryless"
    FULLY_OBSERVABLE = "FullyObservable"
    GENERAL = "General"


def memory_class(t: Transducer, depth: int = 6, tol: float = DEFAULT_TOL) -> MemoryClass:
    """Diagnose the interface's memory structure up to a word-length bound.

    Memoryless: every word up to length depth has the product of per-step
    single-symbol marginals as its probability.  The marginals come once from
    a canonical action prefix, so the check also catches any dependence of
    them on earlier actions.  Fully observable: every history of length 1 to
    depth - 1 with probability above 1e-12 has the same next-output
    conditional (for every next action) as the first such history ending in
    the same (action, output) letter; the first output's law is free.  One
    walk decides both: it extends a word while a test that still holds needs
    its children, so it stops once both have failed.  The bound must be at
    least 1: no word of length 0 can show a dependence, so depth 0 would call
    every machine memoryless.
    """
    if depth < 1:
        raise StructureError(f"depth must be at least 1, got {depth}")
    budget.check(1, len(t.actions) * len(t.outputs), depth, "memory-class check")
    em = t.emission_marginals()  # [a, y, j]
    tr = t.transition_marginals()  # [a, i, j]
    marg = np.empty((depth, len(t.actions) * len(t.outputs)))
    state_dist = t.initial.copy()
    for step in range(depth):
        marg[step] = (em @ state_dist).reshape(-1)  # flat over (a, y)
        state_dist = tr[0] @ state_dist  # canonical prefix: always action 0
    memoryless = observable = True
    reference: dict[int, np.ndarray] = {}  # last letter -> [next action, next output]
    observed = np.ones(1, dtype=bool)  # the rows the observability test extends
    for parent, words, vecs in _word_levels([t.initial], t.kernel, depth, lambda w, v: extend):
        probs = vecs.sum(axis=1)
        expect = marg[np.arange(words.shape[1]), words].prod(axis=1)
        rows = observed[parent] & _positive(words, vecs)
        if words.shape[1]:  # nothing to test at length 0
            memoryless = memoryless and bool(np.all(np.abs(probs - expect) <= tol))
            cond = np.einsum("ayj,rj->ray", em, vecs[rows]) / probs[rows, None, None]
            last = words[rows, -1]
            for x in np.unique(last) if observable else ():
                conds = cond[last == x]
                if np.any(np.abs(conds - reference.setdefault(int(x), conds[0])) > tol):
                    observable = False
                    break
        observed = rows & (observable and words.shape[1] < depth - 1)
        extend = observed | (memoryless & ((probs > 0.0) | (expect > 0.0)))
    if memoryless:
        return MemoryClass.MEMORYLESS
    return MemoryClass.FULLY_OBSERVABLE if observable else MemoryClass.GENERAL
