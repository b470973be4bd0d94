"""Joint (start, current) posteriors, their updates, and smoothing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vatworld.beliefs import BeliefState, predictive_update
from vatworld.core import Alphabet, History, Policy, Transducer, make_card_deck
from vatworld.errors import ImpossibleHistoryError, SingularDiagonalError, StructureError
from vatworld.retro import (
    BDMSM,
    bdmsm_forward,
    bdmsm_from_word,
    bdmsm_reverse_extend,
    log_probability,
    predictive_from_bdmsm,
    retrodictive_from_bdmsm,
    smooth,
)
from vatworld.fixtures import parity_flip
from vatworld.oracle import log_word_probability, sample_trajectory
from vatworld.reverse import state_marginals

from conftest import (
    path_enum_posterior,
    positive_histories,
    random_io_moore,
    random_transducer,
    random_unifilar,
    reference_bdmsm,
    reference_smooth,
)

UNIFORM = Policy.uniform()


class TestBdmsmFromWord:
    def test_parity_flip_deterministic_path(self, fix_a):
        rho = bdmsm_from_word(fix_a, History(("1",), ("0",)))
        expect = np.zeros((2, 2))
        expect[1, 0] = 1.0  # current s1, started s0
        np.testing.assert_array_equal(rho.matrix, expect)

    def test_mixture_column_sums(self, fix_c):
        rho = bdmsm_from_word(fix_c, History(("0",), ("1",)))
        np.testing.assert_allclose(
            rho.matrix.sum(axis=0), np.array([0.04, 0.24, 0.25]) / 0.53, atol=1e-12
        )

    def test_empty_window_is_diagonal_prior(self, fix_c):
        rho = bdmsm_from_word(fix_c, History.empty())
        np.testing.assert_allclose(rho.matrix, np.diag(fix_c.initial), atol=1e-15)

    def test_impossible_word(self, fix_a):
        with pytest.raises(ImpossibleHistoryError):
            bdmsm_from_word(fix_a, History(("0",), ("1",)))

    @pytest.mark.parametrize("window", [History.empty(), History(("1",), ("0",))])
    def test_start_of_zero_mass_is_impossible(self, fix_a, window):
        t = Transducer("zero", fix_a.states, fix_a.actions, fix_a.outputs, fix_a.kernel, [0.0, 0.0])
        with pytest.raises(ImpossibleHistoryError):
            bdmsm_from_word(t, window)
        with pytest.raises(ImpossibleHistoryError):
            smooth(t, window)
        assert log_probability(t, window) == -np.inf

    def test_invariants_on_seeded_traces(self, fix_a, fix_b, fix_c):
        for t in (fix_a, fix_b, fix_c):
            for h in positive_histories(t, 4):
                rho = bdmsm_from_word(t, h)
                assert rho.matrix.sum() == pytest.approx(1.0, abs=1e-10)
                assert np.all(rho.matrix >= -1e-12)


class TestBdmsmForward:
    def test_chain_equals_whole_word(self, fix_a):
        word = History(("1", "0"), ("0", "1"))
        rho = bdmsm_from_word(fix_a, History.empty())
        for a, y in zip(word.actions, word.outputs):
            rho = bdmsm_forward(fix_a, rho, a, y)
        direct = bdmsm_from_word(fix_a, word)
        np.testing.assert_allclose(rho.matrix, direct.matrix, atol=1e-12)
        assert rho.window == word

    def test_redundant_split_spreads_rows(self, fix_b):
        rho = bdmsm_from_word(fix_b, History(("1",), ("0",)))
        expect = np.zeros((3, 3))
        expect[1, 0] = 0.5
        expect[2, 0] = 0.5
        np.testing.assert_allclose(rho.matrix, expect, atol=1e-12)

    def test_impossible_extension(self, fix_a):
        rho = bdmsm_from_word(fix_a, History(("1",), ("0",)))
        with pytest.raises(ImpossibleHistoryError):
            bdmsm_forward(fix_a, rho, "0", "0")  # current state s1 emits 1

    def test_chains_on_seeded_traces(self, fix_a, fix_b, fix_c):
        for t in (fix_a, fix_b, fix_c):
            for h in positive_histories(t, 4):
                rho = bdmsm_from_word(t, History.empty())
                for a, y in zip(h.actions, h.outputs):
                    rho = bdmsm_forward(t, rho, a, y)
                np.testing.assert_allclose(
                    rho.matrix, bdmsm_from_word(t, h).matrix, atol=1e-12
                )


class TestMarginalExtraction:
    def test_parity_flip_window(self, fix_a):
        rho = bdmsm_from_word(fix_a, History(("1",), ("0",)))
        np.testing.assert_allclose(predictive_from_bdmsm(rho).weights, [0.0, 1.0])
        np.testing.assert_allclose(retrodictive_from_bdmsm(rho).weights, [1.0, 0.0])

    def test_mixture_retrodictive(self, fix_c):
        rho = bdmsm_from_word(fix_c, History(("0",), ("1",)))
        np.testing.assert_allclose(
            retrodictive_from_bdmsm(rho).weights, np.array([0.04, 0.24, 0.25]) / 0.53, atol=1e-12
        )

    def test_empty_window_marginals_equal_initial(self, fix_c):
        rho = bdmsm_from_word(fix_c, History.empty())
        np.testing.assert_allclose(predictive_from_bdmsm(rho).weights, fix_c.initial)
        np.testing.assert_allclose(retrodictive_from_bdmsm(rho).weights, fix_c.initial)

    def test_row_sums_match_chained_beliefs_and_columns_match_posterior(
        self, fix_a, fix_b, fix_c
    ):
        for t in (fix_a, fix_b, fix_c):
            for h in positive_histories(t, 4):
                rho = bdmsm_from_word(t, h)
                b = BeliefState(t.initial / t.initial.sum())
                for a, y in zip(h.actions, h.outputs):
                    b = predictive_update(t, b, a, y)
                assert np.abs(predictive_from_bdmsm(rho).weights - b.weights).sum() <= 1e-9
                start_post = path_enum_posterior(t, h, 0)
                assert np.abs(retrodictive_from_bdmsm(rho).weights - start_post).sum() <= 1e-9


class TestReverseExtend:
    def test_reproduces_longer_window_exhaustively(self, fix_a):
        # for every feasible word up to length 3, build the suffix window from
        # the time-1 marginal diagonal and prepend the first step
        table = state_marginals(fix_a, UNIFORM, horizon=3)
        m0 = table.joint[0].sum(axis=1)
        m1 = table.joint[1].sum(axis=1)
        for h in positive_histories(fix_a, 3):
            suffix = History(h.actions[1:], h.outputs[1:])
            a_idx, y_idx = fix_a.word_indices(suffix)
            mat = np.diag(m1)
            for a, y in zip(a_idx, y_idx):
                mat = fix_a.kernel[a, y] @ mat
            if mat.sum() <= 0:
                continue
            rho_suffix = BDMSM(mat / mat.sum(), suffix)
            ext = bdmsm_reverse_extend(
                fix_a, rho_suffix, h.actions[0], h.outputs[0], m0, m1
            )
            direct = bdmsm_from_word(fix_a, h)
            np.testing.assert_allclose(ext.matrix, direct.matrix, atol=1e-12)
            assert ext.window == h

    def test_singular_diagonal_raises(self, fix_a):
        rho = bdmsm_from_word(fix_a, History(("0",), ("0",)))
        with pytest.raises(SingularDiagonalError):
            bdmsm_reverse_extend(fix_a, rho, "0", "0", np.array([1.0, 0.0]), np.array([0.0, 1.0]))

    def test_one_state_machine_scalar_algebra(self):
        kern = np.zeros((1, 2, 1, 1))
        kern[0, 0] = 0.3
        kern[0, 1] = 0.7
        t = Transducer("coin", ["s0"], Alphabet(["0"]), Alphabet(["0", "1"]), kern, [1.0])
        rho = bdmsm_from_word(t, History(("0",), ("1",)))
        ext = bdmsm_reverse_extend(t, rho, "0", "0", np.array([1.0]), np.array([1.0]))
        np.testing.assert_allclose(ext.matrix, [[1.0]])


class TestSmooth:
    def test_parity_flip_deterministic_slices(self, fix_a):
        post = smooth(fix_a, History(("1", "1"), ("0", "1")))
        np.testing.assert_allclose(post[0], [1.0, 0.0])
        np.testing.assert_allclose(post[1], [0.0, 1.0])
        np.testing.assert_allclose(post[2], [1.0, 0.0])

    def test_redundant_split_middle_slice(self, fix_b):
        post = smooth(fix_b, History(("1",), ("0",)))
        np.testing.assert_allclose(post[1], [0.0, 0.5, 0.5])

    def test_matches_enumeration_posteriors(self, fix_a, fix_b, fix_c):
        for t in (fix_a, fix_b, fix_c):
            count = 0
            for h in positive_histories(t, 3):
                post = smooth(t, h)
                assert len(post) == len(h) + 1
                for tau in range(len(h) + 1):
                    expect = path_enum_posterior(t, h, tau)
                    assert np.abs(post[tau] - expect).sum() <= 1e-9
                count += 1
            assert count > 0

    def test_impossible_history(self, fix_a):
        with pytest.raises(ImpossibleHistoryError):
            smooth(fix_a, History(("0",), ("1",)))

    def test_a_negative_posterior_is_refused_at_its_time(self):
        # columns sum to 1, but the step pushes mass below zero: the start is a
        # law, and the posterior after one step is [1.5, -0.5]
        kernel = np.array([[[[1.5, 1.5], [-0.5, -0.5]]]])
        t = Transducer("negative", ["s0", "s1"], ["a"], ["y"], kernel, [0.5, 0.5])
        with pytest.raises(StructureError) as err:
            smooth(t, History(["a", "a"], ["y", "y"]))
        assert str(err.value) == "posterior at 1 has a negative entry: -0.5"

    def test_long_sampled_trace_does_not_underflow(self, fix_c):
        # the unscaled products fall below the smallest double near 1100 steps
        actions, outputs, _ = sample_trajectory(fix_c, UNIFORM, 3000, seed=3)
        h = History(actions, outputs)
        post = smooth(fix_c, h)
        assert len(post) == 3001
        for s in post:
            assert s.sum() == pytest.approx(1.0, abs=1e-12)
        rho = bdmsm_from_word(fix_c, h)
        np.testing.assert_allclose(post[-1], rho.matrix.sum(axis=1), atol=1e-12)
        np.testing.assert_allclose(post[0], rho.matrix.sum(axis=0), atol=1e-12)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from([random_transducer, random_unifilar, random_io_moore]),
        length=st.integers(0, 6),
    )
    def test_sampled_traces_match_path_enumeration(self, seed, kind, length):
        rng = np.random.default_rng(seed)
        n, n_a, n_y = (int(rng.integers(lo, hi)) for lo, hi in ((1, 4), (1, 4), (1, 4)))
        t = kind(rng, n=n, n_actions=n_a, n_outputs=n_y)
        actions, outputs, _ = sample_trajectory(t, UNIFORM, length, seed)
        h = History(actions, outputs)
        post = smooth(t, h)
        assert len(post) == length + 1
        for tau, s in enumerate(post):
            assert s.sum() == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(s, path_enum_posterior(t, h, tau), atol=1e-9)
        rho = bdmsm_from_word(t, h)
        np.testing.assert_allclose(rho.matrix.sum(axis=1), post[-1], atol=1e-9)
        np.testing.assert_allclose(rho.matrix.sum(axis=0), post[0], atol=1e-9)

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from([random_transducer, random_unifilar, random_io_moore]),
        length=st.integers(0, 60),
    )
    def test_rows_are_the_reference_slices(self, seed, kind, length):
        rng = np.random.default_rng(seed)
        n, n_a, n_y = (int(rng.integers(lo, hi)) for lo, hi in ((1, 6), (1, 4), (1, 4)))
        t = kind(rng, n=n, n_actions=n_a, n_outputs=n_y)
        actions, outputs, _ = sample_trajectory(t, UNIFORM, length, seed)
        h = History(actions, outputs)
        post = smooth(t, h)
        assert post.shape == (length + 1, t.n) and not post.flags.writeable
        assert np.array_equal(post, [s.weights for s in reference_smooth(t, h)])
        assert np.array_equal(bdmsm_from_word(t, h).matrix, reference_bdmsm(t, h))
        assert abs(log_probability(t, h) - log_word_probability(t, h)) <= 1e-9

    def test_long_trace_rows_are_the_reference_slices(self, fix_c):
        actions, outputs, _ = sample_trajectory(fix_c, UNIFORM, 3000, seed=3)
        h = History(actions, outputs)
        assert np.array_equal(smooth(fix_c, h), [s.weights for s in reference_smooth(fix_c, h)])

    def test_negative_posterior_is_refused_like_the_reference(self, fix_a):
        kern = fix_a.kernel.copy()
        kern[0, 0, 0, 1] = -0.25  # a signed entry no valid machine has
        kern[0, 1, 1, 1] = 1.25
        t = Transducer("signed", fix_a.states, fix_a.actions, fix_a.outputs, kern, [0.5, 0.5])
        h = History(("0",), ("0",))
        with pytest.raises(StructureError, match="negative entry"):
            reference_smooth(t, h)
        with pytest.raises(StructureError, match="negative entry"):
            smooth(t, h)

    @pytest.mark.parametrize("where", ["kernel", "initial"])
    def test_nan_machine_entry_is_refused(self, fix_a, where):
        kern, initial = fix_a.kernel.copy(), fix_a.initial.copy()
        if where == "kernel":
            kern[1, 0, 1, 0] = np.nan
        else:
            initial[1] = np.nan
        t = Transducer("nan", fix_a.states, fix_a.actions, fix_a.outputs, kern, initial)
        with pytest.raises(StructureError):
            smooth(t, History(("1", "1"), ("0", "1")))

    def test_smoothing_can_sharpen_the_past(self, fix_c):
        # seeing later outputs changes the posterior over the start state
        h = History(("0", "0"), ("1", "1"))
        post = smooth(fix_c, h)
        filtered_start = fix_c.initial / fix_c.initial.sum()
        assert np.abs(post[0] - filtered_start).sum() > 0.1


class TestRepeatedBeliefs:
    """Sources whose beliefs repeat, where most steps of a trace are memo hits."""

    @staticmethod
    def machine(kind: str, seed: int) -> Transducer:
        if kind == "unifilar":
            rng = np.random.default_rng(seed)
            n, n_a, n_y = (int(rng.integers(1, hi)) for hi in (6, 4, 4))
            return random_unifilar(rng, n=n, n_actions=n_a, n_outputs=n_y)
        return {
            "2r2b": lambda: make_card_deck(2, 2, "flip_shuffle"),
            "3r3b": lambda: make_card_deck(3, 3, "flip_shuffle"),
            "parity-flip": parity_flip,
        }[kind]()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["unifilar", "2r2b", "3r3b", "parity-flip"]),
        length=st.integers(0, 400),
    )
    def test_walks_are_the_per_step_loops(self, seed, kind, length):
        t = self.machine(kind, seed)
        actions, outputs, _ = sample_trajectory(t, UNIFORM, length, seed)
        h = History(actions, outputs)
        assert np.array_equal(smooth(t, h), [s.weights for s in reference_smooth(t, h)])
        assert np.array_equal(bdmsm_from_word(t, h).matrix, reference_bdmsm(t, h))
        assert abs(log_probability(t, h) - log_word_probability(t, h)) <= 1e-9

    @pytest.mark.parametrize("kind", ["2r2b", "3r3b", "parity-flip"])
    def test_impossible_step_after_memo_hits(self, kind):
        t = self.machine(kind, 0)
        actions, outputs, _ = sample_trajectory(t, UNIFORM, 200, seed=1)
        bad = next(  # the longest sampled prefix with an impossible next letter
            History(actions[:k], outputs[:k]).extended(a, y)
            for k in range(200, 0, -1)
            for a in t.actions.symbols
            for y in t.outputs.symbols
            if log_word_probability(t, History(actions[:k], outputs[:k]).extended(a, y)) == -np.inf
        )
        assert len(bad) > 50 and len(set(zip(bad.actions, bad.outputs))) < 10  # letters repeat
        with pytest.raises(ImpossibleHistoryError):
            smooth(t, bad)
        with pytest.raises(ImpossibleHistoryError):
            bdmsm_from_word(t, bad)
        assert log_probability(t, bad) == -np.inf


def test_log_probability_counts_the_start_mass(fix_c):
    half = Transducer("half", fix_c.states, fix_c.actions, fix_c.outputs, fix_c.kernel, fix_c.initial / 2)
    actions, outputs, _ = sample_trajectory(fix_c, UNIFORM, 40, seed=2)
    h = History(actions, outputs)
    assert log_probability(half, h) == pytest.approx(log_word_probability(half, h), abs=1e-9)
    assert log_probability(half, h) == pytest.approx(log_probability(fix_c, h) + np.log(0.5), abs=1e-12)


def test_bdmsm_constructor_validates():
    with pytest.raises(StructureError):
        BDMSM(np.array([[0.5, 0.1], [0.1, 0.5]]), History.empty())  # sums to 1.2
    with pytest.raises(StructureError):
        BDMSM(np.array([[1.5, 0.0], [0.0, -0.5]]), History.empty())


@pytest.mark.parametrize(
    "matrix", [[[np.nan, 0.0], [0.0, 1.0]], [[0.5, 0.0], [0.0, np.nan]], [[np.nan] * 2] * 2]
)
def test_bdmsm_constructor_refuses_nan(matrix):
    with pytest.raises(StructureError):
        BDMSM(np.array(matrix), History.empty())
