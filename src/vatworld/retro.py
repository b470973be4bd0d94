"""Joint posteriors over (start state, current state) and smoothing.

Conditioning on a window of actions and outputs, the square matrix with
entry [current, start] = Pr(start state, current state | window) carries both
directions of inference at once: its row sums are the forward-filtered belief
and its column sums are the posterior over where the machine began.  Products
of step matrices against a diagonal prior compute it directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .beliefs import BeliefState
from .core import DEFAULT_TOL, History, Transducer
from .errors import ImpossibleHistoryError, SingularDiagonalError, StructureError

# A posterior over where the machine started is structurally just a belief;
# the alias marks intent at call sites.
RetrodictiveBelief = BeliefState

# BeliefState's default tolerance, applied to every row of a smoothed posterior
_BELIEF_TOL = 1e-8


@dataclass(frozen=True)
class BDMSM:
    """Bi-directional posterior matrix for a conditioning window.

    matrix[i, j] = Pr(start state j, current state i | window); entries are
    non-negative and sum to one.
    """

    matrix: np.ndarray
    window: History

    def __init__(self, matrix, window: History, tol: float = 1e-8):
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise StructureError("posterior matrix must be square")
        if np.any(m < -tol):
            raise StructureError(f"posterior matrix has a negative entry: {m.min():.3g}")
        if abs(m.sum() - 1.0) > tol:
            raise StructureError(f"posterior matrix sums to {m.sum():.12g}, not 1")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "window", window)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def bdmsm_from_word(t: Transducer, h: History) -> BDMSM:
    """Joint (start, current) posterior from scratch for a whole window.

    The time-ordered product of step matrices hits a diagonal matrix of the
    initial distribution; renormalizing after every step keeps long windows
    from underflowing and leaves the posterior at the end.  The empty window
    returns the diagonal prior itself.
    """
    a_idx, y_idx = t.word_indices(h)
    mat = np.diag(t.initial / t.initial.sum())
    for a, y in zip(a_idx, y_idx):
        mat = t.kernel[a, y] @ mat
        z = float(mat.sum())
        if z <= 0.0:
            raise ImpossibleHistoryError(f"window {h} has probability 0")
        mat /= z
    return BDMSM(mat, h)


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


def retrodictive_from_bdmsm(rho: BDMSM) -> RetrodictiveBelief:
    """Posterior over the start state: marginalize out the current state."""
    return RetrodictiveBelief(rho.matrix.sum(axis=0))


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
    (Rabiner 1989, section V.A), so no product underflows on long histories
    and the cost is linear in the length.  Every row passes the checks of a
    ``BeliefState``.
    """
    a_idx, y_idx = t.word_indices(h)
    steps = [t.kernel[a, y] for a, y in zip(a_idx, y_idx)]
    forward = np.empty((len(steps) + 1, t.n))
    forward[0] = t.initial / t.initial.sum()
    for m, prev, row in zip(steps, forward, forward[1:]):
        raw = m @ prev
        z = raw.sum()
        if z <= 0.0:
            raise ImpossibleHistoryError(f"history {h} has probability 0")
        np.divide(raw, z, out=row)

    likelihood = np.empty((len(steps), t.n))
    back = np.ones(t.n)
    for m, row in zip(reversed(steps), likelihood[::-1]):
        np.matmul(back, m, out=row)
        back = row / row.sum()

    post = forward
    post[:-1] *= likelihood
    z = post[:-1].sum(axis=1)
    if np.any(z <= 0.0):
        raise ImpossibleHistoryError(f"history {h} has probability 0")
    post[:-1] /= z[:, None]
    if np.any(post < -_BELIEF_TOL):
        raise StructureError(f"posterior has a negative entry: {post.min():.3g}")
    sums = post.sum(axis=1)
    off = np.abs(sums - 1.0) > _BELIEF_TOL
    if np.any(off):
        tau = int(np.argmax(off))
        raise StructureError(f"posterior at {tau} sums to {sums[tau]:.12g}, not 1")
    post.setflags(write=False)
    return post
