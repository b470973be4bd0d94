"""Word probabilities, sampling, equivalence, and memory-class diagnosis,
cross-checked against explicit path enumeration."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest
from vatworld import budget, oracle
from vatworld.core import Alphabet, History, Policy, Transducer
from vatworld.errors import BudgetExceededError, ImpossibleHistoryError, StructureError
from vatworld.linalg_reduce import reduce_generalized
from vatworld.minimize import minimize_bisim
from vatworld.linalg_reduce import history_vectors
from vatworld.oracle import (
    _history,
    _positive,
    _span_grower,
    _word_levels,
    MemoryClass,
    equivalent,
    forward_vector,
    log_word_probability,
    memory_class,
    next_output_dist,
    sample_trajectory,
    word_probability,
)

from conftest import (
    PROPERTY_KINDS,
    PROPERTY_TOLS,
    all_histories,
    delayed_machine,
    lifted_machine,
    path_enum_probability,
    positive_histories,
    property_machine,
    random_io_moore,
    random_permutation_machine,
    random_rare_machine,
    random_transducer,
    random_unifilar,
    reference_sample_trajectory,
    reference_span_walk,
    two_walk_memory_class,
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


class TestLogWordProbability:
    def test_matches_path_enumeration_on_sampled_traces(self, fix_a, fix_b, fix_c, fix_d):
        rng = np.random.default_rng(8)
        machines = [fix_a, fix_b, fix_c, fix_d] + [
            kind(rng, n=3, n_actions=2, n_outputs=3)
            for kind in (random_transducer, random_unifilar, random_io_moore)
        ]
        for t in machines:
            for length in (0, 1, 4, 9):
                acts, outs, _ = sample_trajectory(t, Policy.uniform(), length, seed=length)
                h = History(acts, outs)
                expect = np.log(path_enum_probability(t, h))
                assert log_word_probability(t, h) == pytest.approx(expect, abs=1e-9)

    def test_impossible_history_is_minus_infinity(self, fix_a):
        assert log_word_probability(fix_a, History(("0",), ("1",))) == -np.inf
        assert log_word_probability(fix_a, History(("0", "0"), ("1", "0"))) == -np.inf

    def test_finite_where_the_probability_underflows(self, fix_c):
        actions, outputs, _ = sample_trajectory(fix_c, Policy.uniform(), 3000, seed=3)
        h = History(actions, outputs)
        assert word_probability(fix_c, h) == 0.0
        log_p = log_word_probability(fix_c, h)
        assert np.isfinite(log_p) and log_p < np.log(np.finfo(float).tiny)


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

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from([random_transducer, random_unifilar, random_io_moore]),
        policy_kind=st.sampled_from(["uniform", "weighted", "table"]),
        length=st.integers(0, 60),
    )
    def test_same_trajectory_as_the_reference(self, seed, kind, policy_kind, length):
        rng = np.random.default_rng(seed)
        n, n_a, n_y = (int(rng.integers(lo, hi)) for lo, hi in ((1, 5), (1, 4), (1, 4)))
        t = kind(rng, n=n, n_actions=n_a, n_outputs=n_y)
        if policy_kind == "uniform":
            policy = Policy.uniform()
        elif policy_kind == "weighted":
            policy = Policy.weighted(rng.dirichlet(np.ones(n_a)))
        else:
            # keyed by prefixes of a trajectory the sampler may well retrace
            acts, outs, _ = reference_sample_trajectory(t, Policy.uniform(), 8, seed)
            table = {
                History(acts[:k], outs[:k]): rng.dirichlet(np.ones(n_a)) for k in range(0, 9, 2)
            }
            policy = Policy.from_table(table)
        expect = reference_sample_trajectory(t, policy, length, seed)
        assert sample_trajectory(t, policy, length, seed) == expect

    @pytest.mark.parametrize("bad_column", [[0.0, 0.0, 0.0, 0.0], [0.0, 1.5, 0.0, -0.5]])
    def test_bad_column_raises_as_the_reference_does(self, bad_column):
        def machine(leave):
            """State 0 emits either output and moves to state 1 with probability leave."""
            kernel = np.zeros((1, 2, 2, 2))
            kernel[0, :, 0, 0] = 0.5 * (1.0 - leave)
            kernel[0, :, 1, 0] = 0.5 * leave
            kernel[0, :, :, 1] = np.reshape(bad_column, (2, 2))
            return Transducer("bad", ["s0", "s1"], ["0"], ["0", "1"], kernel, [1.0, 0.0])

        reachable, unreached = machine(1.0), machine(0.0)
        errors = []
        with np.errstate(invalid="ignore"):  # the zero column divides 0 by 0
            for sampler in (sample_trajectory, reference_sample_trajectory):
                assert len(sampler(reachable, Policy.uniform(), 1, 4)[0]) == 1
                with pytest.raises(ValueError) as raised:
                    sampler(reachable, Policy.uniform(), 2, 4)
                errors.append(str(raised.value))
        assert errors[0] == errors[1]
        assert sample_trajectory(unreached, Policy.uniform(), 20, 4) == (
            reference_sample_trajectory(unreached, Policy.uniform(), 20, 4)
        )

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

    @pytest.mark.parametrize("raw", ["inf", "1e400"])
    def test_infinite_budget_lifts_the_cap(self, monkeypatch, raw):
        monkeypatch.setenv("VATWORLD_BUDGET", raw)
        assert budget.current_budget() == math.inf
        budget.check(1, 4, 600, "memory-class check")  # past the float range, not refused

    @pytest.mark.parametrize("raw", ["nan", "-nan", "lots", ""])
    def test_budget_without_a_number_keeps_the_default(self, monkeypatch, raw):
        monkeypatch.setenv("VATWORLD_BUDGET", raw)
        assert budget.current_budget() == budget.DEFAULT_BUDGET


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
    @settings(max_examples=300, deadline=None, derandomize=True)
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
            big = lifted_machine(t, rng)
            pair = (big, minimize_bisim(big))
        elif kind == "lifted":
            pair = (t, lifted_machine(t, rng))
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
        budget.check(1, n_letters, depth, "test")
        levels = list(_word_levels([t.initial], t.kernel, depth))
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
            for _, words, vecs in _word_levels([t.initial], t.kernel, depth, _positive)
            for word in words[_positive(words, vecs)]
            if len(word)
        ]
        by_words = sorted(walked, key=lambda h: (len(h), h.actions, h.outputs))
        assert by_words == positive_histories(t, depth)

    @pytest.mark.parametrize("depth", [0, 1, 3])
    def test_no_depth_walks_until_the_mask_keeps_nothing(self, fix_c, depth):
        def keep(words, vecs):
            return np.full(len(words), words.shape[1] < depth)

        bounded = list(_word_levels([fix_c.initial], fix_c.kernel, depth))
        unbounded = list(_word_levels([fix_c.initial], fix_c.kernel, None, keep))
        assert len(unbounded) == depth + 1
        for got, expect in zip(unbounded, bounded):
            for a, b in zip(got, expect):
                np.testing.assert_array_equal(a, b)

    def test_a_level_that_keeps_nothing_ends_the_walk(self, fix_c):
        levels = list(_word_levels([fix_c.initial], fix_c.kernel, 5, lambda words, vecs: np.zeros(len(words), bool)))
        assert len(levels) == 1


class TestSpanWalkAgainstTheReference:
    """The span walks on ``_word_levels`` against the parent's pair-word walk."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(
            [random_transducer, random_unifilar, random_io_moore, random_rare_machine]
        ),
        tol=st.sampled_from([1e-12, 1e-9, 1e-6, 1e-3]),
        depth=st.sampled_from([None, 0, 1, 2, 3, 4]),
    )
    def test_same_words_grown_rows_and_vectors(self, seed, kind, tol, depth):
        rng = np.random.default_rng(seed)
        n, n_a, n_y = (int(rng.integers(lo, hi)) for lo, hi in ((1, 7), (1, 4), (1, 4)))
        t = kind(rng, n=n, n_actions=n_a, n_outputs=n_y)
        other = kind(rng, n=n, n_actions=n_a, n_outputs=n_y)
        # forward from the start law (equivalent) and backward from the
        # all-ones vector (history_vectors, reduce_generalized)
        for start, mats in ((t.initial, t.kernel), (np.ones(n), t.kernel.transpose(0, 1, 3, 2))):
            ref = list(reference_span_walk(start, mats, tol, depth))
            grow, _ = _span_grower(n, tol * float(np.linalg.norm(start)))
            got = []
            for _, words, vecs in _word_levels([start], mats, depth, lambda words, vecs: grew):
                grew = grow(vecs)
                got += zip(words.tolist(), vecs, grew.tolist())
            assert [word for word, _, _ in got] == [
                [a * n_y + y for a, y in word] for word, _, _ in ref
            ]
            assert [grown for _, _, grown in got] == [q is not None for _, _, q in ref]
            for (_, vec, _), (_, expect, _) in zip(got, ref):
                np.testing.assert_allclose(vec, expect, rtol=1e-12, atol=0.0)

        # ref is now the backward walk, whose grown words are history_vectors' columns
        columns = history_vectors(t, depth, tol).columns
        expect = {
            History(
                tuple(t.actions.symbols[a] for a, _ in word[::-1]),
                tuple(t.outputs.symbols[y] for _, y in word[::-1]),
            ): vec
            for word, vec, q in ref
            if q is not None
        }
        assert list(columns) == list(expect)
        for h, vec in columns.items():
            np.testing.assert_allclose(vec, expect[h], rtol=1e-12, atol=0.0)

        joint = np.zeros((n_a, n_y, 2 * n, 2 * n))
        joint[:, :, :n, :n], joint[:, :, n:, n:] = t.kernel, other.kernel
        first = next(
            (
                word
                for word, vec, _ in reference_span_walk(
                    np.concatenate([t.initial, other.initial]), joint, tol, depth
                )
                if abs(vec[:n].sum() - vec[n:].sum()) > tol
            ),
            None,
        )
        verdict = equivalent(t, other, 2 * n if depth is None else depth, tol)
        assert verdict.equivalent == (first is None)
        if first is not None:
            assert verdict.counterexample.history == History(
                tuple(t.actions.symbols[a] for a, _ in first),
                tuple(t.outputs.symbols[y] for _, y in first),
            )


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

    def test_last_output_pins_the_law_of_every_next_action(self):
        # the state is the last output; the next output is action XOR state w.p. 0.9
        kern = np.zeros((2, 2, 2, 2))
        for a, y, j in itertools.product(range(2), repeat=3):
            kern[a, y, y, j] = 0.9 if y == a ^ j else 0.1
        t = Transducer("xor-last", ["s0", "s1"], ["0", "1"], ["0", "1"], kern, [0.5, 0.5])
        assert memory_class(t, depth=4) is MemoryClass.FULLY_OBSERVABLE

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


def copy_machine(n_actions: int = 3, first: float = 0.3) -> Transducer:
    """A random first output ("1" with probability first), then that output
    repeated for ever, whatever the actions: fully observable, not memoryless."""
    kernel = np.zeros((n_actions, 2, 3, 3))
    kernel[:, :, 1:, 0] = np.diag([1.0 - first, first])  # start s -> copy c{y}, emitting y
    for y in range(2):
        kernel[:, y, 1 + y, 1 + y] = 1.0
    actions = Alphabet([f"a{k}" for k in range(n_actions)])
    return Transducer("copy", ["s", "c0", "c1"], actions, Alphabet(["0", "1"]), kernel, [1, 0, 0])


class TestOneWalkMemoryClass:
    """memory_class's one walk against the two walks it replaced."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        kind=st.sampled_from(PROPERTY_KINDS),
        seed=st.integers(0, 2**32 - 1),
        depth=st.integers(1, 6),
        tol=st.sampled_from(PROPERTY_TOLS),
    )
    def test_same_verdict_as_the_two_walks(self, kind, seed, depth, tol):
        t = property_machine(kind, seed)
        assert memory_class(t, depth, tol) is two_walk_memory_class(t, depth, tol)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        kind=st.sampled_from(PROPERTY_KINDS),
        seed=st.integers(0, 2**32 - 1),
        depth=st.integers(1, 4),
        tol=st.sampled_from(PROPERTY_TOLS),
    )
    def test_same_verdict_from_a_signed_start(self, kind, seed, depth, tol):
        # info reads a machine whose initial has negative entries; a child of
        # a history of probability at most 1e-12 can then be more likely
        t = property_machine(kind, seed)
        signed = np.random.default_rng(seed).normal(size=t.n)
        t = Transducer(t.name, t.states, t.actions, t.outputs, t.kernel, signed / signed.sum())
        assert memory_class(t, depth, tol) is two_walk_memory_class(t, depth, tol)

    @pytest.mark.parametrize(
        "t",
        [delayed_machine(d, split=split) for d in range(1, 6) for split in (False, True)]
        + [copy_machine(), copy_machine(first=1e-13), copy_machine(n_actions=1)],
        ids=lambda t: t.name,
    )
    @pytest.mark.parametrize("tol", PROPERTY_TOLS)
    def test_same_verdict_on_delays_and_copies(self, t, tol):
        for depth in range(1, 7):
            assert memory_class(t, depth, tol) is two_walk_memory_class(t, depth, tol)

    def test_a_copy_is_fully_observable_and_not_memoryless(self):
        assert memory_class(copy_machine(), 1) is MemoryClass.MEMORYLESS
        assert memory_class(copy_machine(), 2) is MemoryClass.FULLY_OBSERVABLE

    @pytest.mark.parametrize("tol", PROPERTY_TOLS)
    def test_one_walk_yields_no_more_rows(self, monkeypatch, tol):
        walks: list[int] = []

        def counting(*args, **kwargs):
            walks.append(0)
            for level in _word_levels(*args, **kwargs):
                walks[-1] += len(level[1])
                yield level

        monkeypatch.setattr(oracle, "_word_levels", counting)
        monkeypatch.setattr(conftest, "_word_levels", counting)
        machines = [property_machine(kind, seed) for kind in PROPERTY_KINDS for seed in range(4)]
        for t in machines + [copy_machine(), delayed_machine(3, split=True)]:
            for depth in (1, 2, 4):
                walks.clear()
                got = memory_class(t, depth, tol)
                assert len(walks) == 1
                assert got is two_walk_memory_class(t, depth, tol)
                assert walks[0] <= sum(walks[1:])
