"""History-vector spans, canonical dimension, and rank-minimal realizations.

For each history h, the vector w(h) holds the probability of h's outputs
given its actions from every possible start state.  The dimension of the span
of these vectors lower-bounds the state count of any machine generating the
same process; projecting the step matrices onto that span gives a (generally
quasi-probabilistic) realization of exactly that dimension.  Spans come from
the span walk in ``oracle``, which extends only the histories that grow them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .core import (
    DEFAULT_TOL,
    GeneralizedTransducer,
    History,
    Transducer,
    ValidationReport,
    Violation,
)
from .oracle import _boundary, _history, _span_walk, _word_levels

Source = Union[Transducer, GeneralizedTransducer]


@dataclass(frozen=True)
class HistoryMatrix:
    """Start-state likelihood vectors, one column per history that grew the span."""

    columns: dict
    max_len: Optional[int]

    @property
    def matrix(self) -> np.ndarray:
        return np.stack(list(self.columns.values()), axis=1)

    def __len__(self):
        return len(self.columns)


def history_vectors(
    t: Source, max_len: Optional[int] = None, tol: float = DEFAULT_TOL
) -> HistoryMatrix:
    """Likelihood vectors of the histories that grow the span, up to max_len.

    The vector of a history h = (a1 y1 ... ak yk) is
    M(a1 y1)' ... M(ak yk)' 1, so the basis-pruned span walk (Tzeng 1992)
    runs on the transposed step matrices from the final vector and each
    walked word is reversed into history order.  Only histories whose vector
    leaves the span of the earlier ones (breadth-first, alphabet order) are
    kept; they form a basis of the span of all histories up to max_len, and
    with max_len None the walk runs until the span closes, within n - 1
    levels.
    """
    final, kern, _ = _boundary(t)
    a_syms, y_syms = t.actions.symbols, t.outputs.symbols
    columns: dict[History, np.ndarray] = {}
    for word, vec, direction in _span_walk(final, kern.transpose(0, 1, 3, 2), tol, max_len):
        if direction is not None:
            pairs = word[::-1]
            h = History(tuple(a_syms[a] for a, _ in pairs), tuple(y_syms[y] for _, y in pairs))
            columns[h] = vec
    return HistoryMatrix(columns, max_len)


def canonical_dimension(t: Source, tol: float = DEFAULT_TOL) -> int:
    """Dimension of the history-vector span (a state-count lower bound).

    This is the number of histories the span walk keeps: exact up to the
    tolerance, since the walk runs until the span closes (Tzeng 1992).
    """
    return len(history_vectors(t, tol=tol))


def _span_basis(start: np.ndarray, mats: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal columns spanning every word vector the walk reaches from start."""
    directions = [q for _, _, q in _span_walk(start, mats, tol) if q is not None]
    if not directions:
        raise RuntimeError("word-vector span is degenerate (zero boundary vector)")
    return np.stack(directions, axis=1)


def _standard_form(
    dims: int, actions, outputs, mats: np.ndarray, u: np.ndarray, v: np.ndarray, name: str
) -> GeneralizedTransducer:
    """Change basis so the evaluation vector is all-ones and v sums to one.

    Any invertible map R with column sums equal to u leaves every word value
    u (prod M) v untouched while sending u to the all-ones vector and v to a
    genuine quasi-distribution (its components then sum to u . v = 1).
    """
    m = int(np.argmax(np.abs(u)))
    if u[m] == 0.0:
        raise RuntimeError("evaluation vector is zero; cannot normalize")
    r_mat = np.eye(dims)
    r_mat[m, :] = u - 1.0
    r_mat[m, m] = u[m]
    r_inv = np.linalg.inv(r_mat)
    new_mats = np.einsum("ki,ayij,jl->aykl", r_mat, mats, r_inv)
    return GeneralizedTransducer(
        dims, actions, outputs, new_mats, np.ones(dims), r_mat @ v, name=name
    )


def reduce_generalized(
    t: Source,
    tol: float = DEFAULT_TOL,
    both_sides: bool = False,
) -> GeneralizedTransducer:
    """Project the machine onto its history-vector span.

    With C an orthonormal basis of the span, the projected matrices
    C' M C together with boundary vectors C' 1 (or C' u) and C' p (or C' v)
    reproduce every word probability of the original machine: the span is
    closed under the transposed step maps and contains the final vector, so
    the projector is transparent to every time-ordered product that matters.
    The result is re-based so its evaluation vector is all-ones.

    ``both_sides`` follows with the dual pass over the span of forward
    vectors, which may shrink the dimension further when the start vector
    does not excite every observable direction.
    """
    final, kern, start = _boundary(t)
    name = f"{getattr(t, 'name', 'source')}/reduced"
    c_mat = _span_basis(final, kern.transpose(0, 1, 3, 2), tol)
    mats = np.einsum("ki,ayij,jl->aykl", c_mat.T, kern, c_mat)
    u_vec = c_mat.T @ final
    v_vec = c_mat.T @ start
    if both_sides:
        probe = _standard_form(c_mat.shape[1], t.actions, t.outputs, mats, u_vec, v_vec, name)
        d_mat = _span_basis(probe.v, probe.matrices, tol)
        mats = np.einsum("ki,ayij,jl->aykl", d_mat.T, probe.matrices, d_mat)
        u_vec = d_mat.T @ probe.u
        v_vec = d_mat.T @ probe.v
    return _standard_form(mats.shape[2], t.actions, t.outputs, mats, u_vec, v_vec, name)


def gt_validate_interface(
    g: GeneralizedTransducer, depth: int = 6, tol: float = DEFAULT_TOL
) -> ValidationReport:
    """Check that induced word probabilities behave like probabilities.

    Flags any word of length <= depth whose value leaves [-tol, 1 + tol], and
    any action word whose output-word values miss a total of one by more than
    depth * tol.
    """
    n_actions, n_outputs = len(g.actions), len(g.outputs)
    found: list[Violation] = []
    sum_tol = depth * tol
    levels = _word_levels([g.v], g.matrices, depth, "interface validation")
    next(levels)
    for length, (_, words, vecs) in enumerate(levels, 1):
        probs = vecs @ g.u
        for r in np.flatnonzero((probs < -tol) | (probs > 1.0 + tol)):
            h = _history(g, words[r])
            word_a, word_y = h.actions, h.outputs
            found.append(
                Violation(
                    "word_probability_range",
                    (word_a, word_y),
                    float(probs[r]),
                    f"word (a={','.join(word_a)}; y={','.join(word_y)}) has "
                    f"probability {probs[r]:.6g} outside [0, 1]",
                )
            )
        # rows are never pruned here, so each action word has all its output words
        totals = probs.reshape((n_actions, n_outputs) * length).sum(
            axis=tuple(range(1, 2 * length, 2))
        )
        for a_word in np.argwhere(np.abs(totals - 1.0) > sum_tol):
            total = float(totals[tuple(a_word)])
            word_a = tuple(g.actions.symbols[x] for x in a_word)
            found.append(
                Violation(
                    "normalization",
                    (word_a,),
                    total - 1.0,
                    f"output-word probabilities for actions {','.join(word_a)} "
                    f"sum to {total:.9g}",
                )
            )
    return ValidationReport(tuple(found))
