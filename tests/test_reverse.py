"""State marginals, reversibility verdicts, and backward-kernel checks."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vatworld.core import Alphabet, History, Policy, Transducer, make_card_deck
from vatworld.errors import StructureError
from vatworld.oracle import word_probability
from vatworld.reverse import (
    check_reversible,
    is_action_counifilar,
    reverse_kernel,
    state_marginals,
)

from conftest import (
    PROPERTY_KINDS,
    PROPERTY_TOLS,
    delayed_leak_machine,
    exhaustive_check_reversible,
    history_walk_state_marginals,
    leak_machine,
    loop_reverse_kernel,
    pair_machine,
    path_enum_reverse_generates,
    property_machine,
    random_io_moore,
    random_permutation_machine,
    random_rare_machine,
    random_transducer,
    random_unifilar,
    rank_cap_machine,
    rare_swap_machine,
    reference_check_reversible,
)

MACHINE_KINDS = [random_transducer, random_unifilar, random_io_moore, random_permutation_machine]


UNIFORM = Policy.uniform()


def one_state_coin():
    kern = np.zeros((1, 2, 1, 1))
    kern[0, 0] = 0.5
    kern[0, 1] = 0.5
    return Transducer("coin", ["s0"], Alphabet(["0"]), Alphabet(["0", "1"]), kern, [1.0])


class TestStateMarginals:
    def test_parity_flip_one_uniform_action(self, fix_a):
        table = state_marginals(fix_a, UNIFORM, horizon=2)
        np.testing.assert_allclose(table.joint[1].sum(axis=1), [0.5, 0.5])
        for tau in range(3):
            assert table.joint[tau].sum() == pytest.approx(1.0, abs=1e-12)

    def test_delay_channel_is_uniform_after_one_step(self, fix_d):
        table = state_marginals(fix_d, UNIFORM, horizon=3)
        for tau in (1, 2, 3):
            np.testing.assert_allclose(table.joint[tau].sum(axis=1), [0.5, 0.5])

    def test_single_action_mixture_propagates(self, fix_c):
        table = state_marginals(fix_c, UNIFORM, horizon=2)
        expected = fix_c.transition_marginals()[0] @ fix_c.initial
        np.testing.assert_allclose(table.joint[1].sum(axis=1), expected, atol=1e-12)

    def test_history_policy_matches_hand_mixture(self, fix_a):
        # deterministic first action via a table entry, uniform afterwards
        policy = Policy.from_table({History.empty(): [1.0, 0.0]})
        table = state_marginals(fix_a, policy, horizon=2)
        # first action is 0, so the state stays s0 at time 1
        np.testing.assert_allclose(table.joint[1].sum(axis=1), [1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(table.joint[2].sum(axis=1), [0.5, 0.5], atol=1e-12)

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(MACHINE_KINDS),
        policy_kind=st.sampled_from(["uniform", "weighted", "table"]),
        horizon=st.integers(0, 5),
    )
    def test_same_joint_as_the_history_walk(self, seed, kind, policy_kind, horizon):
        rng = np.random.default_rng(seed)
        n, n_a, n_y = (int(rng.integers(lo, hi)) for lo, hi in ((1, 6), (1, 4), (1, 4)))
        t = kind(rng, n=n, n_actions=n_a, n_outputs=n_y)
        if policy_kind == "uniform":
            policy = Policy.uniform()
        elif policy_kind == "weighted":
            policy = Policy.weighted(rng.dirichlet(np.ones(n_a)))
        else:
            # keys of every length up to 3, reachable or not
            table = {}
            for _ in range(int(rng.integers(1, 5))):
                k = int(rng.integers(0, 4))
                h = History(rng.integers(0, n_a, k), rng.integers(0, n_y, k))
                table[h] = rng.dirichlet(np.ones(n_a))
            policy = Policy.from_table(table)
        got = state_marginals(t, policy, horizon)
        ref = history_walk_state_marginals(t, policy, horizon)
        assert (got.horizon, got.policy) == (ref.horizon, ref.policy)
        if policy_kind == "table":
            np.testing.assert_allclose(got.joint, ref.joint, rtol=0.0, atol=1e-12)
        else:
            np.testing.assert_array_equal(got.joint, ref.joint)

    def test_table_entry_of_the_wrong_size_raises_only_where_reached(self, fix_a):
        # the first action is always 0, so a key starting with action 1 is never consulted
        unreached = {History.empty(): [1.0, 0.0], History(("1",), ("1",)): [1.0]}
        table = state_marginals(fix_a, Policy.from_table(unreached), horizon=3)
        np.testing.assert_allclose(table.joint[1].sum(axis=1), [1.0, 0.0], atol=1e-12)
        reached = {History.empty(): [1.0, 0.0], History(("0",), ("0",)): [1.0]}
        with pytest.raises(StructureError):
            state_marginals(fix_a, Policy.from_table(reached), horizon=3)

    def test_table_policy_at_horizon_nine_on_three_actions(self):
        # 6**9 histories: the history walk is refused here
        t = random_transducer(np.random.default_rng(3), n=4, n_actions=3, n_outputs=2)
        policy = Policy.from_table({History.empty(): [0.2, 0.3, 0.5]})
        table = state_marginals(t, policy, horizon=9)
        np.testing.assert_allclose(table.joint.sum(axis=(1, 2)), 1.0, atol=1e-12)
        np.testing.assert_allclose(table.joint[0].sum(axis=0), [0.2, 0.3, 0.5], atol=1e-12)
        np.testing.assert_allclose(table.joint[9].sum(axis=0), [1 / 3] * 3, atol=1e-12)

    def test_negative_horizon_rejected(self, fix_a):
        with pytest.raises(StructureError):
            state_marginals(fix_a, UNIFORM, horizon=-1)


def witness_key(verdict):
    w = verdict.witness
    return verdict.reversible, w and (w.tau, w.action, w.next_state, w.prefix_a, w.prefix_b)


def assert_same_witness(got, ref):
    """Same verdict and witness, max_difference within 1e-12."""
    assert witness_key(got) == witness_key(ref)
    if ref.witness is not None:
        assert got.witness.max_difference == pytest.approx(ref.witness.max_difference, abs=1e-12)


class TestCheckReversible:
    def test_parity_flip_fast_path_and_exhaustive(self, fix_a):
        fast = check_reversible(fix_a, horizon=4)
        assert fast.reversible and fast.route == "level-span"
        full = exhaustive_check_reversible(fix_a, horizon=4)
        assert full.reversible and full.route == "exhaustive"

    def test_delay_channel_witness(self, fix_d):
        verdict = check_reversible(fix_d, horizon=3)
        assert not verdict.reversible
        w = verdict.witness
        assert w is not None
        assert w.tau == 1  # the state at time 1 is the action at time 0
        assert w.prefix_a != w.prefix_b

    def test_single_state_machine_reversible(self):
        verdict = check_reversible(one_state_coin(), horizon=4)
        assert verdict.reversible and verdict.route == "level-span"

    def test_action_agnostic_fast_path(self, fix_c):
        verdict = check_reversible(fix_c, horizon=4)
        assert verdict.reversible and verdict.route == "level-span"

    def test_deck_variants(self):
        flip = make_card_deck(2, 2, "flip_shuffle")
        cyc = make_card_deck(2, 2, "cyclic")
        bad = check_reversible(flip, horizon=4)
        assert not bad.reversible and bad.witness is not None
        good = check_reversible(cyc, horizon=4)
        assert good.reversible and good.route == "level-span"
        assert exhaustive_check_reversible(cyc, horizon=4).reversible

    def test_fast_path_soundness_on_permutation_machines(self):
        rng = np.random.default_rng(77)
        for k in range(20):
            t = random_permutation_machine(rng, n=4, name=f"perm{k}")
            assert is_action_counifilar(t)
            assert exhaustive_check_reversible(t, horizon=3).reversible

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(MACHINE_KINDS),
        horizon=st.integers(0, 6),
    )
    def test_level_span_verdict_and_witness_are_the_exhaustive_ones(self, seed, kind, horizon):
        rng = np.random.default_rng(seed)
        n, n_a, n_y = (int(rng.integers(lo, hi)) for lo, hi in ((1, 6), (1, 4), (1, 4)))
        t = kind(rng, n=n, n_actions=n_a, n_outputs=n_y)
        got = check_reversible(t, horizon=horizon)
        ref = exhaustive_check_reversible(t, horizon=horizon)
        assert got.reversible == ref.reversible
        assert_same_witness(got, ref)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        tol=st.sampled_from([1e-12, 1e-9, 1e-6, 1e-3]),
        horizon=st.integers(0, 6),
    )
    def test_level_span_on_rare_states_matches_the_exhaustive_walk(self, seed, tol, horizon):
        # Low-mass states and near-collinear marginals are where dropping a
        # prefix could hide a difference.  A prefix that is not compared
        # differs from the reference by a combination of the compared
        # prefixes' differences, each at most tol (the docstring's bound), so
        # where a tenfold tol changes the exhaustive verdict the level-span one
        # need only be sound.
        rng = np.random.default_rng(seed)
        n, n_a, n_y = (int(rng.integers(lo, hi)) for lo, hi in ((2, 6), (2, 4), (1, 4)))
        t = random_rare_machine(rng, n=n, n_actions=n_a, n_outputs=n_y)
        got = check_reversible(t, horizon=horizon, tol=tol)
        ref = exhaustive_check_reversible(t, horizon=horizon, tol=tol)
        if not got.reversible:  # a level-span witness is a difference the walk sees too
            assert not ref.reversible and ref.witness.tau <= got.witness.tau
        if witness_key(ref) == witness_key(exhaustive_check_reversible(t, horizon, 10 * tol)):
            assert_same_witness(got, ref)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(
            [random_transducer, random_unifilar, random_io_moore, random_rare_machine]
        ),
        tol=st.sampled_from([1e-12, 1e-9, 1e-6, 1e-3]),
        horizon=st.integers(0, 6),
    )
    def test_word_levels_give_the_reference_verdict_bit_for_bit(self, seed, kind, tol, horizon):
        rng = np.random.default_rng(seed)
        n, n_a, n_y = (int(rng.integers(lo, hi)) for lo, hi in ((1, 7), (1, 4), (1, 4)))
        t = kind(rng, n=n, n_actions=n_a, n_outputs=n_y)
        assert check_reversible(t, horizon, tol) == reference_check_reversible(t, horizon, tol)

    @pytest.mark.parametrize("tol", [1e-12, 1e-9, 1e-6, 1e-3])
    @pytest.mark.parametrize(
        "machine",
        [
            pytest.param(leak_machine(1e-4, 1e-6), id="leak-1e-4-mass-1e-6"),
            pytest.param(leak_machine(1e-4, 1e-10), id="leak-1e-4-mass-1e-10"),
            pytest.param(leak_machine(1e-2, 1e-3), id="leak-1e-2-mass-1e-3"),
            pytest.param(delayed_leak_machine(1e-4, 1e-6), id="delayed-1e-4-mass-1e-6"),
            pytest.param(delayed_leak_machine(1e-2, 1e-3), id="delayed-1e-2-mass-1e-3"),
            pytest.param(rank_cap_machine(), id="rank-cap"),
        ],
    )
    def test_rare_state_machines_match_the_exhaustive_walk(self, machine, tol):
        for horizon in range(5):
            got = check_reversible(machine, horizon=horizon, tol=tol)
            assert_same_witness(got, exhaustive_check_reversible(machine, horizon=horizon, tol=tol))

    @pytest.mark.parametrize("seed", [37, 123, 147])
    def test_rare_counifilar_looking_machine_is_not_reversible(self, seed):
        # Read at tol 1e-3, every (action, next state) of these 2-state
        # machines has one predecessor, but the previous-state laws given
        # (action, next state) of the prefixes ("0",) and ("1",) differ by
        # 0.5 to 0.996 at tau = 1.
        rng = np.random.default_rng(seed)
        n, n_a, n_y = (int(rng.integers(lo, hi)) for lo, hi in ((2, 6), (2, 4), (1, 4)))
        assert (n, n_a, n_y) == (2, 3, 2)
        t = random_rare_machine(rng, n=n, n_actions=n_a, n_outputs=n_y)
        assert is_action_counifilar(t, 1e-3)
        got = check_reversible(t, horizon=2, tol=1e-3)
        assert not got.reversible and got.witness.tau == 1
        assert_same_witness(got, exhaustive_check_reversible(t, horizon=2, tol=1e-3))

    def test_leak_machine_is_not_reversible(self):
        # "keep" and "leak" differ by 1e-10 in their marginals, 2e-8 in the
        # previous-state law given ("leak", s2)
        verdict = check_reversible(leak_machine(1e-4, 1e-6), horizon=2)
        assert not verdict.reversible
        w = verdict.witness
        assert (w.tau, w.action, w.next_state, w.prefix_a, w.prefix_b) == (
            1,
            "leak",
            "s2",
            ("keep",),
            ("leak",),
        )
        assert w.max_difference == pytest.approx(2e-8, rel=1e-3)

    @pytest.mark.parametrize("mass", [1e-11, 3e-12])
    @pytest.mark.parametrize("horizon", [3, 4])
    def test_rare_swap_machine_needs_the_per_state_scaling(self, horizon, mass):
        # K and L move under 1e-12 of mass, 5 per cent of r's and s's: only
        # marginals scaled per state keep L's prefix, whose (L, X) differs
        # from (K, X) by 0.025 given Y and z.  At tol 1e-3 and below, time 1
        # already shows a difference, with or without the scaling.
        t = rare_swap_machine(mass)
        verdict = check_reversible(t, horizon=horizon, tol=1e-2)
        assert_same_witness(verdict, exhaustive_check_reversible(t, horizon=horizon, tol=1e-2))
        w = verdict.witness
        assert (w.tau, w.action, w.next_state, w.prefix_a, w.prefix_b) == (
            2,
            "Y",
            "z",
            ("K", "X"),
            ("L", "X"),
        )
        assert w.max_difference == pytest.approx(0.025, rel=1e-9)

    def test_pair_machine_takes_the_level_span_route(self):
        t = pair_machine()
        assert exhaustive_check_reversible(t, horizon=6).reversible
        for horizon in (6, 1000):
            verdict = check_reversible(t, horizon=horizon)
            assert verdict.reversible and verdict.route == "level-span"

    def test_negative_horizon_rejected(self, fix_d):
        with pytest.raises(StructureError):
            check_reversible(fix_d, horizon=-2)


class TestIsActionCounifilar:
    def test_fixtures(self, fix_a, fix_b):
        assert is_action_counifilar(fix_a)
        assert not is_action_counifilar(fix_b)  # s0 reached from s1a and s1b

    def test_cyclic_deck(self):
        assert is_action_counifilar(make_card_deck(2, 2, "cyclic"))


class TestReverseKernel:
    def test_parity_flip_is_deterministic_backwards(self, fix_a):
        rk = reverse_kernel(fix_a, state_marginals(fix_a, UNIFORM, 1), tau=1)
        assert rk.defined_mask.all()
        for a in range(2):
            for j in range(2):  # next state index
                prev = j ^ a
                # sole mass: previous state prev, output equal to prev's label
                np.testing.assert_allclose(rk.matrices[a, prev, prev, j], 1.0)
                assert rk.matrices[a].sum() == pytest.approx(2.0)

    def test_unreachable_columns_masked_at_time_zero(self, fix_a):
        rk = reverse_kernel(fix_a, state_marginals(fix_a, UNIFORM, 0), tau=0)
        # from the fixed start, action 0 keeps the state at s0
        assert rk.defined_mask[0, 0] and not rk.defined_mask[0, 1]
        assert rk.defined_mask[1, 1] and not rk.defined_mask[1, 0]

    def test_memoryless_machine_reverse_equals_forward(self):
        t = one_state_coin()
        rk = reverse_kernel(t, state_marginals(t, UNIFORM, 2), tau=2)
        np.testing.assert_allclose(rk.matrices, t.kernel, atol=1e-12)

    def test_columns_normalize_even_for_non_reversible_machines(self, fix_d):
        flip = make_card_deck(2, 2, "flip_shuffle")
        for t, tau in ((fix_d, 1), (fix_d, 2), (flip, 1), (flip, 3)):
            rk = reverse_kernel(t, state_marginals(t, UNIFORM, tau), tau=tau)
            sums = rk.column_sums()
            np.testing.assert_allclose(sums[rk.defined_mask], 1.0, atol=1e-9)


    def test_tau_outside_the_table_is_refused(self, fix_d):
        table = state_marginals(fix_d, UNIFORM, horizon=3)
        for tau in (-1, 4):
            with pytest.raises(StructureError, match=f"horizon 3, got {tau}$"):
                reverse_kernel(fix_d, table, tau)
        assert reverse_kernel(fix_d, table, 3).tau == 3

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(PROPERTY_KINDS),
        policy_kind=st.sampled_from(["uniform", "weighted", "table"]),
        horizon=st.integers(0, 4),
        tol=st.sampled_from(PROPERTY_TOLS),
    )
    def test_same_kernel_as_the_column_loop(self, seed, kind, policy_kind, horizon, tol):
        t = property_machine(kind, seed)
        rng = np.random.default_rng(seed)
        n_a, n_y = len(t.actions), len(t.outputs)
        if policy_kind == "uniform":
            policy = Policy.uniform()
        elif policy_kind == "weighted":
            # a small concentration leaves some actions rare, below the larger tols
            policy = Policy.weighted(rng.dirichlet(np.full(n_a, 0.3)))
        else:
            table = {}
            for _ in range(int(rng.integers(1, 5))):
                k = int(rng.integers(0, 3))
                acts = [t.actions.symbols[a] for a in rng.integers(0, n_a, k)]
                outs = [t.outputs.symbols[y] for y in rng.integers(0, n_y, k)]
                table[History(acts, outs)] = rng.dirichlet(np.ones(n_a))
            policy = Policy.from_table(table)
        marginals = state_marginals(t, policy, horizon)
        for tau in range(horizon + 1):
            ref = loop_reverse_kernel(t, marginals, tau, tol)
            got = reverse_kernel(t, marginals, tau, tol)
            assert np.array_equal(got.matrices, ref.matrices)
            assert np.array_equal(got.defined_mask, ref.defined_mask)
            assert (got.tau, got.policy) == (tau, marginals.policy)


class TestVerifyReverseGenerates:
    def test_parity_flip_exact(self, fix_a):
        res = path_enum_reverse_generates(fix_a, UNIFORM, horizon=4)
        assert res.ok and res.max_deviation <= 1e-12

    def test_small_cyclic_deck(self):
        res = path_enum_reverse_generates(make_card_deck(1, 1, "cyclic"), UNIFORM, horizon=4)
        assert res.ok and res.max_deviation <= 1e-12

    def test_delay_channel_fails_with_path(self, fix_d):
        res = path_enum_reverse_generates(fix_d, UNIFORM, horizon=2)
        assert not res.ok
        assert res.witness is not None
        assert res.witness["forward"] != pytest.approx(res.witness["reverse"])

    def test_flip_shuffle_deck_fails(self):
        res = path_enum_reverse_generates(make_card_deck(2, 2, "flip_shuffle"), UNIFORM, horizon=3)
        assert not res.ok

    def test_reverse_factorization_reproduces_word_probabilities(self, fix_a):
        # marginalizing the backward factorization over state paths recovers
        # the forward word probabilities
        horizon = 3
        marginals = state_marginals(fix_a, UNIFORM, horizon)
        revs = [reverse_kernel(fix_a, marginals, tau) for tau in range(horizon)]
        tr = fix_a.transition_marginals()
        n = fix_a.n
        for acts in itertools.product(range(2), repeat=horizon):
            m_end = fix_a.initial.copy()
            for a in acts:
                m_end = tr[a] @ m_end
            for outs in itertools.product(range(2), repeat=horizon):
                total = 0.0
                for spath in itertools.product(range(n), repeat=horizon + 1):
                    w = m_end[spath[-1]]
                    for k in range(horizon):
                        a, y = acts[k], outs[k]
                        if not revs[k].defined_mask[a, spath[k + 1]]:
                            w = 0.0
                            break
                        w *= revs[k].matrices[a, y, spath[k], spath[k + 1]]
                    total += w
                h = History(tuple(str(a) for a in acts), tuple(str(y) for y in outs))
                assert total == pytest.approx(word_probability(fix_a, h), abs=1e-9)
