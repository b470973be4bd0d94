"""History-vector spans, canonical dimension, and quasi-probabilistic reduction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vatworld.core import Alphabet, GeneralizedTransducer, History, Transducer
from vatworld.linalg_reduce import (
    canonical_dimension,
    gt_validate_interface,
    history_vectors,
    reduce_generalized,
)
from vatworld.oracle import equivalent

from conftest import PROPERTY_KINDS, path_enum_probability, property_machine, random_transducer


class TestHistoryVectors:
    def test_empty_history_is_all_ones(self, fix_a):
        hm = history_vectors(fix_a, max_len=1)
        np.testing.assert_array_equal(hm.columns[History.empty()], [1.0, 1.0])

    def test_parity_flip_indicator_columns(self, fix_a):
        hm = history_vectors(fix_a, max_len=1)
        np.testing.assert_array_equal(hm.columns[History(("0",), ("0",))], [1.0, 0.0])
        # [0, 1] = [1, 1] - [1, 0] adds nothing to the span, so it is pruned
        assert History(("0",), ("1",)) not in hm.columns

    def test_columns_are_start_conditioned_probabilities(self, fix_c):
        from vatworld.core import Transducer

        hm = history_vectors(fix_c, max_len=2)
        probes = []
        for k in range(fix_c.n):
            start = np.zeros(fix_c.n)
            start[k] = 1.0
            probes.append(
                Transducer("probe", fix_c.states, fix_c.actions, fix_c.outputs, fix_c.kernel, start)
            )
        for h, w in hm.columns.items():
            if len(h) == 0:
                continue
            for k, probe in enumerate(probes):
                assert w[k] == pytest.approx(path_enum_probability(probe, h), abs=1e-12)

    def test_mixture_rows_are_linearly_dependent(self, fix_c):
        # the third state is the average of the first two, entrywise
        hm = history_vectors(fix_c, max_len=2)
        for h, w in hm.columns.items():
            assert w[2] == pytest.approx(0.5 * (w[0] + w[1]), abs=1e-12)


class TestCanonicalDimension:
    def test_fixture_dimensions(self, fix_a, fix_b, fix_c):
        assert canonical_dimension(fix_a) == 2
        assert canonical_dimension(fix_b) == 2
        assert canonical_dimension(fix_c) == 2

    def test_never_exceeds_state_count(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            t = random_transducer(rng, n=int(rng.integers(1, 5)))
            assert canonical_dimension(t) <= t.n

    def test_equals_state_count_for_parity_flip(self, fix_a):
        assert canonical_dimension(fix_a) == fix_a.n

    def test_strictly_smaller_for_redundant_fixtures(self, fix_b, fix_c):
        assert canonical_dimension(fix_b) < fix_b.n
        assert canonical_dimension(fix_c) < fix_c.n

    def test_unreachable_state_counts_so_only_the_two_sided_dimension_bounds(self, fix_a):
        # parity flip plus an absorbing state no start reaches: fix_a's process
        kernel = np.zeros((2, 2, 3, 3))
        kernel[:, :, :2, :2] = fix_a.kernel
        kernel[:, 0, 2, 2] = 1.0
        states = ["s0", "s1", "dead"]
        t = Transducer("dead-end", states, fix_a.actions, fix_a.outputs, kernel, [1, 0, 0])
        assert equivalent(t, fix_a).equivalent
        assert canonical_dimension(t) == reduce_generalized(t).dims == 3
        assert reduce_generalized(t, both_sides=True).dims == 2

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(PROPERTY_KINDS), seed=st.integers(0, 2**32 - 1))
    def test_spans_at_tol_zero_are_those_at_1e_12(self, kind, seed):
        # at tol 0 only the rounding allowance of the span floor keeps a
        # residual of rounding noise from growing the span
        t = property_machine(kind, seed)
        assert canonical_dimension(t, 0.0) == canonical_dimension(t, 1e-12)
        assert reduce_generalized(t, 0.0, both_sides=True).dims == reduce_generalized(t, 1e-12, both_sides=True).dims


class TestReduceGeneralized:
    def test_mixture_reduces_to_two_dims(self, fix_c):
        g = reduce_generalized(fix_c)
        assert g.dims == 2

    def test_reduction_preserves_all_word_probabilities(self, fix_a, fix_b, fix_c, fix_d):
        for t in (fix_a, fix_b, fix_c, fix_d):
            g = reduce_generalized(t)
            for ell in range(1, 9):
                if (len(t.actions) * len(t.outputs)) ** ell > 70_000:
                    break
                verdict = equivalent(g, t, depth=ell, tol=1e-9)
                assert verdict.equivalent, f"{t.name} at length {ell}: {verdict.counterexample}"

    def test_parity_flip_keeps_full_dimension(self, fix_a):
        assert reduce_generalized(fix_a).dims == 2

    def test_idempotent_at_fixpoint(self, fix_c):
        once = reduce_generalized(fix_c)
        twice = reduce_generalized(once)
        assert twice.dims == once.dims == 2
        assert equivalent(twice, fix_c, depth=6, tol=1e-8).equivalent

    def test_rank_consistency(self, fix_a, fix_b, fix_c):
        for t in (fix_a, fix_b, fix_c):
            d = canonical_dimension(t)
            g = reduce_generalized(t)
            assert g.dims == d
            assert canonical_dimension(g) == d

    def test_random_machines_reduce_to_their_dimension(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            t = random_transducer(rng, n=4)
            d = canonical_dimension(t)
            g = reduce_generalized(t)
            assert g.dims == d
            assert equivalent(g, t, depth=5, tol=1e-8).equivalent

    def test_both_sides_pass_keeps_interface(self, fix_c):
        g = reduce_generalized(fix_c, both_sides=True)
        assert g.dims <= 2
        assert equivalent(g, fix_c, depth=8, tol=1e-9).equivalent

    def test_both_sides_can_shrink_further(self, fix_b):
        # start the redundant machine inside the merged pair: observably
        # two-dimensional, but the start excites only one direction mix
        import vatworld.core as core

        t = core.Transducer(
            "lop",
            fix_b.states,
            fix_b.actions,
            fix_b.outputs,
            fix_b.kernel,
            [0.0, 0.5, 0.5],
        )
        one_sided = reduce_generalized(t)
        both = reduce_generalized(t, both_sides=True)
        assert both.dims <= one_sided.dims
        assert equivalent(both, t, depth=6, tol=1e-8).equivalent


class TestGtValidateInterface:
    def test_reduced_fixtures_are_clean(self, fix_a, fix_c):
        for t in (fix_a, fix_c):
            report = gt_validate_interface(reduce_generalized(t), depth=6)
            assert report.is_valid, str(report)

    def test_hand_built_violation_is_flagged(self):
        mats = np.zeros((1, 2, 2, 2))
        mats[0, 0] = np.array([[1.5, 0.0], [0.0, 0.2]])
        mats[0, 1] = np.array([[0.1, 0.0], [0.0, 0.3]])
        g = GeneralizedTransducer(
            2, Alphabet(["0"]), Alphabet(["0", "1"]), mats, [1.0, 1.0], [2.0, -1.0]
        )
        report = gt_validate_interface(g, depth=3)
        assert not report.is_valid
        kinds = {v.kind for v in report.violations}
        assert kinds & {"word_probability_range", "normalization"}

    def test_quasi_distribution_constraint(self):
        mats = np.zeros((1, 1, 2, 2))
        mats[0, 0] = np.eye(2)
        # components may be negative as long as they total one
        GeneralizedTransducer(2, ["0"], ["0"], mats, [1.0, 1.0], [2.0, -1.0], name="ok")
        with pytest.raises(Exception):
            GeneralizedTransducer(2, ["0"], ["0"], mats, [1.0, 1.0], [2.0, 0.0], name="bad")

    def test_reduction_outputs_standard_form(self, fix_b, fix_c):
        for t in (fix_b, fix_c):
            g = reduce_generalized(t)
            np.testing.assert_allclose(g.u, 1.0, atol=1e-9)
            assert g.v.sum() == pytest.approx(1.0, abs=1e-9)
