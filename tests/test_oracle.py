"""Word probabilities, sampling, equivalence, and memory-class diagnosis,
cross-checked against explicit path enumeration."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vatworld.core import History, Policy, Transducer
from vatworld.errors import BudgetExceededError, ImpossibleHistoryError, StructureError
from vatworld.linalg_reduce import reduce_generalized
from vatworld.minimize import minimize_bisim
from vatworld.oracle import (
    InterfaceView,
    _history,
    _positive,
    _word_levels,
    MemoryClass,
    equivalent,
    forward_vector,
    memory_class,
    next_output_dist,
    sample_trajectory,
    word_probability,
)

from conftest import (
    all_histories,
    path_enum_probability,
    positive_histories,
    random_permutation_machine,
    random_transducer,
    random_unifilar,
)


class TestWordProbability:
    def test_parity_flip_first_step(self, fix_a):
        assert word_probability(fix_a, History(("0",), ("0",))) == 1.0

    def test_parity_flip_tracks_action_parity(self, fix_a):
        assert word_probability(fix_a, History(("1", "0"), ("0", "1"))) == 1.0
        assert word_probability(fix_a, History(("1", "0"), ("0", "0"))) == 0.0

    def test_mixture_hand_value(self, fix_c):
        # 0.2*0.2 + 0.3*0.8 + 0.5*0.5, also confirmed by path enumeration
        h = History(("0",), ("1",))
        assert word_probability(fix_c, h) == pytest.approx(0.53, abs=1e-12)
        assert path_enum_probability(fix_c, h) == pytest.approx(0.53, abs=1e-12)

    def test_matches_path_enumeration_everywhere(self, fix_a, fix_b, fix_c, fix_d):
        for t in (fix_a, fix_b, fix_c, fix_d):
            for ell in (1, 2, 3):
                for h in all_histories(t, ell):
                    assert word_probability(t, h) == pytest.approx(
                        path_enum_probability(t, h), abs=1e-12
                    )

    def test_alphabet_mismatch(self, fix_a):
        with pytest.raises(StructureError):
            word_probability(fix_a, History(("2",), ("0",)))

    def test_interface_view_caches(self, fix_c):
        view = InterfaceView(fix_c)
        h = History(("0", "0"), ("1", "0"))
        assert view.probability(h) == view.probability(h)
        assert view.probability(h) == pytest.approx(word_probability(fix_c, h))


class TestNextOutputDist:
    def test_parity_flip_before_any_history(self, fix_a):
        np.testing.assert_allclose(next_output_dist(fix_a, History.empty(), "1"), [1.0, 0.0])

    def test_redundant_split_after_one_step(self, fix_b):
        dist = next_output_dist(fix_b, History(("1",), ("0",)), "0")
        np.testing.assert_allclose(dist, [0.0, 1.0])

    def test_mixture_matches_brute_force(self, fix_c):
        past = History(("0",), ("1",))
        dist = next_output_dist(fix_c, past, "0")
        p_past = path_enum_probability(fix_c, past)
        expect = np.array(
            [path_enum_probability(fix_c, past.extended("0", y)) / p_past for y in "01"]
        )
        np.testing.assert_allclose(dist, expect, atol=1e-12)
        assert dist.sum() == pytest.approx(1.0, abs=1e-9)

    def test_impossible_past(self, fix_a):
        with pytest.raises(ImpossibleHistoryError):
            next_output_dist(fix_a, History(("0",), ("1",)), "0")


class TestSampleTrajectory:
    def test_parity_flip_outputs_track_action_parity(self, fix_a):
        acts, outs, states = sample_trajectory(fix_a, Policy.uniform(), 25, seed=7)
        parity = 0
        for a, y in zip(acts, outs):
            assert int(y) == parity
            parity ^= int(a)
        assert len(states) == 26

    def test_delay_channel_echoes_previous_action(self, fix_d):
        for seed in range(5):
            acts, outs, _ = sample_trajectory(fix_d, Policy.weighted([0.3, 0.7]), 20, seed)
            assert outs[0] == "0"
            for k in range(1, 20):
                assert outs[k] == acts[k - 1]

    def test_reproducible(self, fix_c):
        one = sample_trajectory(fix_c, Policy.uniform(), 15, seed=11)
        two = sample_trajectory(fix_c, Policy.uniform(), 15, seed=11)
        assert one == two

    def test_mixture_first_output_frequency(self, fix_c):
        n = 10_000
        hits = 0
        for seed in range(n):
            _, outs, _ = sample_trajectory(fix_c, Policy.uniform(), 1, seed)
            hits += outs[0] == "1"
        sigma = np.sqrt(0.53 * 0.47 / n)
        assert abs(hits / n - 0.53) < 3 * sigma


class TestEquivalent:
    def test_reflexive(self, fix_a):
        assert equivalent(fix_a, fix_a, depth=6).equivalent

    def test_split_states_do_not_change_the_interface(self, fix_a, fix_b):
        verdict = equivalent(fix_a, fix_b, depth=8)
        assert verdict.equivalent
        assert verdict.depth_checked == 8

    def test_parity_vs_delay(self, fix_a, fix_d):
        # The two machines agree on all words of length <= 2 and first
        # differ at length 3, where the parity machine folds in an older
        # action.  (The second output equals the first action for both.)
        assert equivalent(fix_a, fix_d, depth=2).equivalent
        verdict = equivalent(fix_a, fix_d, depth=3)
        assert not verdict.equivalent
        ce = verdict.counterexample
        assert ce is not None
        assert len(ce.history) == 3
        assert abs(ce.difference) == pytest.approx(1.0)
        # exhibit the specific separating word
        w = History(("1", "0", "0"), ("0", "1", "1"))
        assert word_probability(fix_a, w) == 1.0
        assert word_probability(fix_d, w) == 0.0

    def test_default_depth_is_state_count_sum(self, fix_a, fix_b):
        assert equivalent(fix_a, fix_b).depth_checked == 5

    def test_equivalence_relation_on_fixture_set(self, fix_a, fix_b, fix_c, fix_d):
        pool = [fix_a, fix_b, fix_d]
        verdicts = {}
        for i, t1 in enumerate(pool):
            for j, t2 in enumerate(pool):
                verdicts[i, j] = equivalent(t1, t2, depth=4).equivalent
        for i in range(len(pool)):
            assert verdicts[i, i]
            for j in range(len(pool)):
                assert verdicts[i, j] == verdicts[j, i]
                for k in range(len(pool)):
                    if verdicts[i, j] and verdicts[j, k]:
                        assert verdicts[i, k]

    def test_alphabet_mismatch_rejected(self, fix_a, fix_c):
        with pytest.raises(StructureError):
            equivalent(fix_a, fix_c)

    def test_budget_guard(self, fix_a):
        with pytest.raises(BudgetExceededError):
            memory_class(fix_a, depth=20)

    def test_budget_override_is_the_environment(self, fix_a, monkeypatch):
        assert memory_class(fix_a, depth=4) is MemoryClass.FULLY_OBSERVABLE
        monkeypatch.setenv("VATWORLD_BUDGET", "100")  # 4**4 = 256 words
        with pytest.raises(BudgetExceededError):
            memory_class(fix_a, depth=4)


def _lifted(t, rng):
    """t with each state split into two bisimilar copies: the same interface."""
    w = rng.uniform(0.1, 0.9, t.n)
    split = np.concatenate([w, 1.0 - w])  # share of state j's mass per copy
    kernel = np.tile(t.kernel, (1, 1, 2, 2)) * split[:, None]
    initial = np.tile(t.initial, 2) * split
    states = [f"{s}{c}" for c in "ab" for s in t.states]
    return Transducer("lifted", states, t.actions, t.outputs, kernel, initial)


def _rerouted(t, rng):
    """t with new landing states but the same per-state emission laws."""
    emission = t.kernel.sum(axis=2, keepdims=True)
    route = t.kernel / emission + 0.5 * rng.random(t.kernel.shape)
    route /= route.sum(axis=2, keepdims=True)
    return Transducer("rerouted", t.states, t.actions, t.outputs, route * emission, t.initial)


def _brute_force_first_failure(t1, t2, depth, tol=1e-9):
    """Shortest length <= depth of a word the two sources disagree on, or None."""
    for ell in range(1, depth + 1):
        for h in all_histories(t1, ell):
            if abs(word_probability(t1, h) - word_probability(t2, h)) > tol:
                return ell
    return None


class TestEquivalentAgainstBruteForce:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["minimized", "lifted", "reduced", "rerouted", "unrelated"]),
        depth=st.integers(1, 4),
    )
    def test_verdict_and_shortest_counterexample(self, seed, kind, depth):
        rng = np.random.default_rng(seed)
        n, n_a, n_y = (int(rng.integers(lo, hi)) for lo, hi in ((2, 4), (1, 3), (1, 4)))
        t = random_transducer(rng, n=n, n_actions=n_a, n_outputs=n_y)
        if kind == "minimized":
            big = _lifted(t, rng)
            pair = (big, minimize_bisim(big))
        elif kind == "lifted":
            pair = (t, _lifted(t, rng))
        elif kind == "reduced":
            pair = (reduce_generalized(t), t)
        elif kind == "rerouted":
            pair = (t, _rerouted(t, rng))
        else:
            pair = (t, random_transducer(rng, n=n, n_actions=n_a, n_outputs=n_y))
        verdict = equivalent(*pair, depth=depth)
        failure = _brute_force_first_failure(*pair, depth)
        assert verdict.equivalent == (failure is None)
        assert verdict.depth_checked == depth
        if failure is not None:
            ce = verdict.counterexample
            assert len(ce.history) == failure
            assert ce.p1 == pytest.approx(word_probability(pair[0], ce.history), abs=1e-12)
            assert ce.p2 == pytest.approx(word_probability(pair[1], ce.history), abs=1e-12)
            assert ce.difference > 1e-9
        if kind in ("minimized", "lifted", "reduced"):
            assert equivalent(*pair).equivalent


class TestWordLevels:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from([random_transducer, random_unifilar, random_permutation_machine]),
        depth=st.integers(0, 4),
    )
    def test_levels_are_every_word_in_order_or_the_positive_histories(self, seed, kind, depth):
        rng = np.random.default_rng(seed)
        n, n_a, n_y = (int(rng.integers(lo, hi)) for lo, hi in ((2, 5), (1, 3), (1, 4)))
        t = kind(rng, n=n, n_actions=n_a, n_outputs=n_y)
        n_letters = n_a * n_y
        levels = list(_word_levels([t.initial], t.kernel, depth, "test"))
        assert len(levels) == depth + 1
        for length, (parent, words, vecs) in enumerate(levels):
            assert [tuple(w) for w in words] == list(
                itertools.product(range(n_letters), repeat=length)
            )
            assert list(parent) == list(np.arange(n_letters**length) // n_letters)
            for word, vec in zip(words, vecs):
                expect = forward_vector(t, _history(t, word))
                np.testing.assert_allclose(vec, expect, rtol=1e-12, atol=1e-15)
        walked = [
            _history(t, word)
            for _, words, vecs in _word_levels([t.initial], t.kernel, depth, "test", _positive)
            for word in words[_positive(words, vecs)]
            if len(word)
        ]
        by_words = sorted(walked, key=lambda h: (len(h), h.actions, h.outputs))
        assert by_words == positive_histories(t, depth)


class TestMemoryClass:
    def test_single_state_coin_is_memoryless(self):
        kern = np.zeros((2, 2, 1, 1))
        kern[:, 0] = 0.5
        kern[:, 1] = 0.5
        t = Transducer("coin", ["s0"], ["0", "1"], ["0", "1"], kern, [1.0])
        assert memory_class(t, depth=5) is MemoryClass.MEMORYLESS

    def test_biased_echo_is_memoryless(self):
        # output distribution depends on the action but never on the state
        kern = np.zeros((2, 2, 2, 2))
        for j in range(2):
            for a, p in ((0, 0.9), (1, 0.4)):
                kern[a, 0, 1 - j, j] = p
                kern[a, 1, 1 - j, j] = 1 - p
        t = Transducer("drift", ["s0", "s1"], ["0", "1"], ["0", "1"], kern, [1.0, 0.0])
        assert memory_class(t, depth=5) is MemoryClass.MEMORYLESS

    def test_parity_flip_fully_observable(self, fix_a):
        assert memory_class(fix_a, depth=6) is MemoryClass.FULLY_OBSERVABLE

    def test_delay_channel_fully_observable(self, fix_d):
        assert memory_class(fix_d, depth=6) is MemoryClass.FULLY_OBSERVABLE

    def test_mixture_is_general(self, fix_c):
        assert memory_class(fix_c, depth=4) is MemoryClass.GENERAL

    def test_hidden_split_is_still_observable_through_outputs(self, fix_b):
        # the split states emit identically, so histories still pin the output law
        assert memory_class(fix_b, depth=5) is MemoryClass.FULLY_OBSERVABLE


class TestOracleInvariants:
    def test_normalization_over_output_words(self, fix_a, fix_b, fix_c, fix_d):
        depth = 6
        for t in (fix_a, fix_b, fix_c, fix_d):
            for acts in itertools.product(t.actions.symbols, repeat=depth):
                total = sum(
                    word_probability(t, History(acts, outs))
                    for outs in itertools.product(t.outputs.symbols, repeat=depth)
                )
                assert total == pytest.approx(1.0, abs=depth * 1e-10)

    def test_prefix_monotonicity(self, fix_b, fix_c):
        for t in (fix_b, fix_c):
            for h in positive_histories(t, 3):
                p = word_probability(t, h)
                for a in t.actions.symbols:
                    for y in t.outputs.symbols:
                        assert word_probability(t, h.extended(a, y)) <= p + 1e-12

    def test_normalization_on_random_machines(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            t = random_transducer(rng, n=4, n_actions=2, n_outputs=3)
            for acts in itertools.product(t.actions.symbols, repeat=3):
                total = sum(
                    word_probability(t, History(acts, outs))
                    for outs in itertools.product(t.outputs.symbols, repeat=3)
                )
                assert total == pytest.approx(1.0, abs=1e-9)
