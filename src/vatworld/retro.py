"""Joint posteriors over (start state, current state) and smoothing.

Conditioning on a window of actions and outputs, the square matrix with
entry [current, start] = Pr(start state, current state | window) carries both
directions of inference at once: its row sums are the forward-filtered belief
and its column sums are the posterior over where the machine began.  Products
of step matrices against a diagonal prior compute it directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .beliefs import BeliefState
from .core import DEFAULT_TOL, History, Transducer, _require_laws
from .errors import ImpossibleHistoryError, SingularDiagonalError, StructureError


@dataclass(frozen=True)
class BDMSM:
    """Bi-directional posterior matrix for a conditioning window.

    matrix[i, j] = Pr(start state j, current state i | window); entries are
    non-negative and sum to one.
    """

    matrix: np.ndarray
    window: History

    def __init__(self, matrix, window: History):
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise StructureError("posterior matrix must be square")
        _require_laws(m.reshape(1, -1), 1e-8, lambda _: "posterior matrix")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "window", window)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def _walk(t: Transducer, a_idx, y_idx, start: np.ndarray, step):
    """Run ``step`` along a word from ``start``, once per distinct edge.

    ``step(row, m)`` returns the row after the step matrix ``m`` and a value
    for that step.  ``m`` is the ``t.kernel[a, y]`` view itself, taken once
    per letter: a kernel need not be C-contiguous, and a contiguous copy can
    change a product's summation order in the last bit.  A row is known by
    its bytes and an edge by (row id, letter), so each distinct edge costs
    one ``step`` and every repeat one dict lookup; on a source whose beliefs
    repeat (unifilar sources, card decks) a long word visits a few dozen
    edges.  Returns the distinct rows in order of discovery, as a list; the
    row id at every time (start first); and the value of every step.
    """
    n_y = t.kernel.shape[1]
    mats = [t.kernel[a, y] for a in range(t.kernel.shape[0]) for y in range(n_y)]
    rows, known, edges = [start], {start.tobytes(): 0}, {}
    path, values, row_id = [0], [], 0
    for a, y in zip(a_idx, y_idx):
        letter = a * n_y + y
        key = row_id * len(mats) + letter
        edge = edges.get(key)
        if edge is None:
            nxt, value = step(rows[row_id], mats[letter])
            edge = edges[key] = known.setdefault(nxt.tobytes(), len(rows)), value
            if edge[0] == len(rows):
                rows.append(nxt)
        row_id, value = edge
        path.append(row_id)
        values.append(value)
    return rows, path, values


def _start(t: Transducer, h: History) -> np.ndarray:
    """``t.initial`` over its mass; StructureError on a negative or non-finite
    entry, ImpossibleHistoryError on zero mass."""
    if not np.all((t.initial >= 0.0) & (t.initial < np.inf)):
        raise StructureError(f"{t.name}: initial needs finite, non-negative entries, got {t.initial.tolist()}")
    mass = t.initial.sum()
    if mass == 0.0:
        raise ImpossibleHistoryError(f"history {h} has probability 0")
    return t.initial / mass


def _filter(t: Transducer, h: History, a_idx, y_idx):
    """The forward sweep of ``smooth``: ``_walk`` over the filtered beliefs.

    Each step's value is its normaliser z, the probability of the step's
    output given the history before it.  Raises ImpossibleHistoryError on a
    start of zero mass or a step of probability 0.
    """

    def step(prev, m):
        raw = m @ prev
        z = raw.sum()
        if z <= 0.0:
            raise ImpossibleHistoryError(f"history {h} has probability 0")
        return raw / z, z

    return _walk(t, a_idx, y_idx, _start(t, h), step)


def log_probability(t: Transducer, h: History) -> float:
    """Natural log of the probability of h's outputs given its actions.

    One forward walk renormalised at every step (Rabiner 1989, section V.A):
    the log of the start's mass plus the sum of the logs of the step
    normalisers, so it stays finite however long the history.  Each distinct
    (belief, letter) edge costs one product, as in ``smooth``.  Returns -inf
    for an impossible history or a start of zero mass; a start with a
    negative or non-finite entry raises StructureError, as in ``smooth``.
    """
    a_idx, y_idx = t.word_indices(h)
    try:
        _, _, norms = _filter(t, h, a_idx, y_idx)
    except ImpossibleHistoryError:
        return -math.inf
    return math.log(float(t.initial.sum())) + float(np.log(np.array(norms)).sum())


def bdmsm_from_word(t: Transducer, h: History) -> BDMSM:
    """Joint (start, current) posterior from scratch for a whole window.

    The time-ordered product of step matrices hits a diagonal matrix of the
    initial distribution; renormalizing after every step keeps long windows
    from underflowing and leaves the posterior at the end.  The empty window
    returns the diagonal prior itself.  The product runs on ``_walk``: one
    product per distinct (joint matrix, letter) edge plus one dict lookup per
    step.  Raises StructureError on a start with a negative or non-finite
    entry, ImpossibleHistoryError on one of zero mass or a window of
    probability 0.
    """
    a_idx, y_idx = t.word_indices(h)

    def step(mat, m):
        mat = m @ mat
        z = float(mat.sum())
        if z <= 0.0:
            raise ImpossibleHistoryError(f"window {h} has probability 0")
        return mat / z, None

    rows, path, _ = _walk(t, a_idx, y_idx, np.diag(_start(t, h)), step)
    return BDMSM(rows[path[-1]], h)


def bdmsm_forward(t: Transducer, rho: BDMSM, action, output) -> BDMSM:
    """Extend the window by one later (action, output) pair."""
    a = t.actions.index(action)
    y = t.outputs.index(output)
    mat = t.kernel[a, y] @ rho.matrix
    z = float(mat.sum())
    if z <= 0.0:
        raise ImpossibleHistoryError(
            f"extending window {rho.window} with ({action}, {output}) has probability 0"
        )
    return BDMSM(mat / z, rho.window.extended(action, output))


def predictive_from_bdmsm(rho: BDMSM) -> BeliefState:
    """Belief over the current state: marginalize out the start state."""
    return BeliefState(rho.matrix.sum(axis=1))


def retrodictive_from_bdmsm(rho: BDMSM) -> BeliefState:
    """Posterior over the start state: marginalize out the current state."""
    return BeliefState(rho.matrix.sum(axis=0))


def bdmsm_reverse_extend(
    t: Transducer,
    rho: BDMSM,
    a_prev,
    y_prev,
    rho_prev_diag: np.ndarray,
    rho_cur_diag: np.ndarray,
    tol: float = DEFAULT_TOL,
) -> BDMSM:
    """Prepend one earlier (action, output) pair to the window.

    The caller supplies the state-marginal diagonals at the window's current
    start time and one step earlier (under their declared action law; the
    result is only meaningful when the start state is uncorrelated with
    future actions under that law).  The current diagonal must be invertible
    wherever the posterior puts start-state mass.
    """
    d_prev = np.asarray(rho_prev_diag, dtype=float)
    d_cur = np.asarray(rho_cur_diag, dtype=float)
    if d_prev.shape != (rho.n,) or d_cur.shape != (rho.n,):
        raise StructureError("marginal diagonals must be length-n vectors")
    col_mass = np.abs(rho.matrix).sum(axis=0)
    needed = col_mass > 1e-15
    if np.any(needed & (d_cur <= tol)):
        bad = int(np.flatnonzero(needed & (d_cur <= tol))[0])
        raise SingularDiagonalError(
            f"current marginal diagonal is ~0 at state {t.states[bad]}, "
            "which carries posterior mass"
        )
    inv = np.where(needed, 1.0 / np.where(d_cur > tol, d_cur, 1.0), 0.0)
    a = t.actions.index(a_prev)
    y = t.outputs.index(y_prev)
    mat = (rho.matrix * inv[None, :]) @ t.kernel[a, y] * d_prev[None, :]
    z = float(mat.sum())
    if z <= 0.0:
        raise ImpossibleHistoryError(
            f"prepending ({a_prev}, {y_prev}) to window {rho.window} has probability 0"
        )
    window = History((str(a_prev),) + rho.window.actions, (str(y_prev),) + rho.window.outputs)
    return BDMSM(mat / z, window)


def smooth(t: Transducer, h: History) -> np.ndarray:
    """Posterior over the state at every time 0..len(h) given the whole history.

    Returns a read-only (len(h)+1, n) array whose row tau is the
    forward-filtered belief at tau times the likelihood of the history's
    suffix from tau given each state, normalized; the last row is the
    filtered belief itself.  Both sweeps are renormalized at every step
    (Rabiner 1989, section V.A), so no product underflows on long histories.
    Both run on ``_walk``, so the cost is one product per distinct (belief,
    letter) edge plus one dict lookup per step, and the rows are gathered
    once.  Every row passes the checks of a ``BeliefState``.
    """
    a_idx, y_idx = t.word_indices(h)
    rows, path, _ = _filter(t, h, a_idx, y_idx)
    post = np.array(rows)[path]

    def step(likelihood, m):
        return (likelihood / likelihood.sum()) @ m, None

    if h:  # the walk carries raw likelihood rows, last first; the first comes from all ones
        last = np.ones(t.n) @ t.kernel[a_idx[-1], y_idx[-1]]
        rows, path, _ = _walk(t, a_idx[-2::-1], y_idx[-2::-1], last, step)
        post[:-1] *= np.array(rows)[path[::-1]]
    z = post[:-1].sum(axis=1)
    if np.any(z <= 0.0):
        raise ImpossibleHistoryError(f"history {h} has probability 0")
    post[:-1] /= z[:, None]
    _require_laws(post, 1e-8, lambda tau: f"posterior at {tau}")
    post.setflags(write=False)
    return post
