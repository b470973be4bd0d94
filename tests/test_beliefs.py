"""Belief updates, the predict/update split, and belief-machine construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vatworld import io as vio
from vatworld.beliefs import (
    BeliefState,
    build_msp,
    is_faithful,
    is_unifilar,
    postdictive_update,
    predict,
    predictive_update,
    update,
)
from vatworld.core import History, Transducer, validate
from vatworld.errors import ImpossibleHistoryError, MspClosureError, StructureError
from vatworld.oracle import equivalent, word_probability

from conftest import (
    PROPERTY_KINDS,
    PROPERTY_TOLS,
    delayed_machine,
    loop_is_unifilar,
    path_enum_posterior,
    positive_histories,
    property_machine,
    random_io_moore,
    random_unifilar,
    scan_build_msp,
)


def _closure(build, t, tol):
    """The belief machine's document and payloads, or the refusal it raised."""
    try:
        msp = build(t, tol, max_states=60)
    except (MspClosureError, RuntimeError) as exc:
        return type(exc).__name__, str(exc)
    return vio.dumps(vio.transducer_to_doc(msp.machine)), [b.weights.tolist() for b in msp.state_payload]


class TestBeliefState:
    def test_simplex_enforced(self):
        with pytest.raises(StructureError):
            BeliefState([0.5, 0.6])
        with pytest.raises(StructureError):
            BeliefState([1.5, -0.5])

    def test_point_mass(self):
        b = BeliefState.point_mass(3, 1)
        np.testing.assert_array_equal(b.weights, [0.0, 1.0, 0.0])


class TestPredictiveUpdate:
    def test_parity_flip_deterministic_swap(self, fix_a):
        b = BeliefState.point_mass(2, 0)
        after = predictive_update(fix_a, b, "1", "0")
        np.testing.assert_allclose(after.weights, [0.0, 1.0])

    def test_redundant_split_spreads_evenly(self, fix_b):
        b = BeliefState.point_mass(3, 0)
        after = predictive_update(fix_b, b, "1", "0")
        np.testing.assert_allclose(after.weights, [0.0, 0.5, 0.5])

    def test_mixture_normalizer(self, fix_c):
        b = BeliefState(fix_c.initial)
        after = predictive_update(fix_c, b, "0", "1")
        raw = fix_c.kernel[0, 1] @ fix_c.initial
        assert raw.sum() == pytest.approx(0.53)
        np.testing.assert_allclose(after.weights, raw / 0.53, atol=1e-12)

    def test_impossible_observation(self, fix_a):
        with pytest.raises(ImpossibleHistoryError):
            predictive_update(fix_a, BeliefState.point_mass(2, 0), "0", "1")

    def test_chained_belief_equals_path_posterior(self, fix_b, fix_c):
        # the filtered belief after any feasible history is the brute-force
        # posterior over the current state
        for t in (fix_b, fix_c):
            for h in positive_histories(t, 3):
                b = BeliefState(t.initial / t.initial.sum())
                for a, y in zip(h.actions, h.outputs):
                    b = predictive_update(t, b, a, y)
                expect = path_enum_posterior(t, h, len(h))
                assert float(np.abs(b.weights - expect).sum()) <= 1e-9


class TestPostdictiveUpdate:
    def test_parity_flip_swap_then_observe(self, fix_a):
        d = BeliefState.point_mass(2, 0)
        after = postdictive_update(fix_a, d, "1", "1")
        np.testing.assert_allclose(after.weights, [0.0, 1.0])

    def test_zero_normalizer(self, fix_a):
        with pytest.raises(ImpossibleHistoryError):
            postdictive_update(fix_a, BeliefState.point_mass(2, 0), "1", "0")

    def test_requires_io_moore(self, fix_c):
        # single-action mixture machine is not output-Moore
        with pytest.raises(StructureError):
            postdictive_update(fix_c, BeliefState(fix_c.initial), "0", "1")

    def test_equals_update_after_predict_on_random_machines(self):
        rng = np.random.default_rng(12)
        for k in range(20):
            t = random_io_moore(rng, n=3, name=f"iom{k}")
            d = BeliefState(rng.dirichlet(np.ones(3)))
            a = str(rng.integers(2))
            moved = predict(t, d, a)
            for y in t.outputs.symbols:
                try:
                    direct = postdictive_update(t, d, a, y)
                except ImpossibleHistoryError:
                    continue
                split = update(t, moved, y)
                assert float(np.abs(direct.weights - split.weights).sum()) <= 1e-12


class TestPredictUpdateChain:
    def test_parity_flip_pieces(self, fix_a):
        np.testing.assert_allclose(
            predict(fix_a, BeliefState.point_mass(2, 0), "1").weights, [0.0, 1.0]
        )
        np.testing.assert_allclose(
            update(fix_a, BeliefState([0.5, 0.5]), "0").weights, [1.0, 0.0]
        )

    def test_interleaved_chain_reproduces_predictive_beliefs(self):
        # update within a step, predict across the step boundary
        rng = np.random.default_rng(99)
        for k in range(20):
            t = random_io_moore(rng, n=3, name=f"iom{k}")
            h = History.empty()
            b = BeliefState(t.initial)
            for step in range(20):
                a = str(rng.integers(2))
                dist = [word_probability(t, h.extended(a, y)) for y in t.outputs.symbols]
                total = sum(dist)
                y = t.outputs.symbols[int(rng.choice(2, p=np.array(dist) / total))]
                h = h.extended(a, y)
                d = update(t, b, y)
                b_next = predict(t, d, a)
                direct = predictive_update(t, b, a, y)
                assert float(np.abs(b_next.weights - direct.weights).sum()) <= 1e-12
                b = b_next


class TestIsUnifilar:
    def test_fixtures(self, fix_a, fix_b):
        assert is_unifilar(fix_a)
        assert not is_unifilar(fix_b)  # two successors from s0 under action 1

    def test_random_unifilar_machines(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            assert is_unifilar(random_unifilar(rng))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(PROPERTY_KINDS),
        tol=st.sampled_from(PROPERTY_TOLS),
    )
    def test_same_verdict_as_the_column_loop(self, seed, kind, tol):
        t = property_machine(kind, seed)
        assert is_unifilar(t, tol) == loop_is_unifilar(t, tol)

    @pytest.mark.parametrize("tol", PROPERTY_TOLS)
    def test_column_sums_at_tol_match_the_column_loop(self, tol):
        # Twelve equal shares sum to tol up to rounding, on either side of it.
        n = 12
        for share in (tol / n, np.nextafter(tol / n, 0.0), np.nextafter(tol / n, 1.0), 0.1 / 3):
            kernel = np.zeros((1, 1, n, n))
            kernel[0, 0, :, 0] = share
            kernel[0, 0, 0, 1:] = 1.0
            t = Transducer("ties", [f"s{k}" for k in range(n)], ["a"], ["y"], kernel, np.eye(n)[0])
            assert is_unifilar(t, tol) == loop_is_unifilar(t, tol)


class TestBuildMsp:
    def test_parity_flip_reproduces_itself(self, fix_a):
        msp = build_msp(fix_a)
        assert msp.n == 2
        assert is_unifilar(msp.machine)
        assert validate(msp.machine).is_valid
        assert equivalent(msp.machine, fix_a, depth=8).equivalent

    def test_redundant_split_closes_to_two_beliefs(self, fix_b):
        msp = build_msp(fix_b)
        assert msp.n == 2
        payloads = sorted(tuple(np.round(p.weights, 9)) for p in msp.state_payload)
        assert payloads == [(0.0, 0.5, 0.5), (1.0, 0.0, 0.0)]

    def test_mixture_does_not_close(self, fix_c):
        # pinned regression: the mixture machine's belief orbit is infinite
        with pytest.raises(MspClosureError) as err:
            build_msp(fix_c, max_states=200)
        assert err.value.visited == 200
        assert err.value.nearest_pair_distance > 0

    def test_nearest_pair_is_the_pair_loops(self, fix_c):
        with pytest.raises(MspClosureError) as got:
            build_msp(fix_c, max_states=200)
        with pytest.raises(MspClosureError) as ref:
            scan_build_msp(fix_c, max_states=200)
        assert got.value.nearest_pair_distance == ref.value.nearest_pair_distance
        assert str(got.value) == str(ref.value)

    def test_faithful_on_fixtures(self, fix_a, fix_b):
        assert is_faithful(build_msp(fix_a), fix_a)
        assert is_faithful(build_msp(fix_b), fix_b)

    def test_wrong_start_is_not_faithful(self, fix_b):
        shifted = Transducer(
            "shifted", fix_b.states, fix_b.actions, fix_b.outputs, fix_b.kernel, [0.0, 1.0, 0.0]
        )
        msp = build_msp(shifted)
        assert not is_faithful(msp, fix_b)
        ce = equivalent(msp.machine, fix_b, depth=4).counterexample
        assert ce is not None and len(ce.history) == 1  # first emission already differs

    def test_difference_past_depth_eight_is_found(self):
        # the machines first differ on the word of nine 0s and then one letter
        msp = build_msp(delayed_machine(9, last=0.5))
        other = delayed_machine(9, last=0.6)
        assert equivalent(msp.machine, other, depth=8).equivalent
        assert not is_faithful(msp, other)
        assert is_faithful(msp, delayed_machine(9, last=0.5))

    def test_invalid_source_is_refused_with_its_first_violation(self, fix_a):
        kernel = fix_a.kernel.copy()
        kernel[tuple(np.argwhere(kernel)[0])] = 0.7
        t = Transducer("broken", fix_a.states, fix_a.actions, fix_a.outputs, kernel, fix_a.initial)
        first = str(validate(t).violations[0])
        with pytest.raises(StructureError, match="is not valid at tol") as err:
            build_msp(t)
        assert str(err.value).endswith(first)

    def test_nan_source_entry_is_refused_by_name(self, fix_a):
        kernel = fix_a.kernel.copy()
        kernel[0, 0, 0, 0] = np.nan
        t = Transducer("broken", fix_a.states, fix_a.actions, fix_a.outputs, kernel, fix_a.initial)
        with pytest.raises(StructureError, match=r"kernel entry \(0, s0 \| 0, s0\) = nan is not finite$"):
            build_msp(t)

    def test_msp_outputs_are_unifilar(self, fix_a, fix_b):
        rng = np.random.default_rng(8)
        machines = [fix_a, fix_b] + [random_unifilar(rng, name=f"u{k}") for k in range(5)]
        for t in machines:
            assert is_unifilar(build_msp(t).machine)

    def test_faithful_on_random_machines_that_close(self):
        rng = np.random.default_rng(21)
        closed = 0
        for k in range(20):
            t = random_unifilar(rng, n=3, name=f"u{k}")
            msp = build_msp(t, max_states=200)
            assert msp.n <= 200
            assert is_faithful(msp, t, tol=1e-8)
            closed += 1
        assert closed == 20

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(PROPERTY_KINDS),
        tol=st.sampled_from(PROPERTY_TOLS),
    )
    def test_same_machine_or_refusal_as_the_linear_scan(self, seed, kind, tol):
        t = property_machine(kind, seed)
        assert _closure(build_msp, t, tol) == _closure(scan_build_msp, t, tol)

    def test_belief_simplex_closure(self, fix_b, fix_c):
        for t in (fix_b, fix_c):
            for h in positive_histories(t, 3):
                b = BeliefState(t.initial / t.initial.sum())
                for a, y in zip(h.actions, h.outputs):
                    b = predictive_update(t, b, a, y)
                assert np.all(b.weights >= -1e-12)
                assert b.weights.sum() == pytest.approx(1.0, abs=1e-10)
