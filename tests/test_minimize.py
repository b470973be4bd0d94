"""Bisimulation partitions and quotient machines."""

import numpy as np
import pytest

from vatworld.beliefs import build_msp
from vatworld.core import make_card_deck, validate
from vatworld.epsilon import is_isomorphic
from vatworld.errors import PartitionError
from vatworld.minimize import Partition, coarsest_bisimulation, minimize_bisim, quotient
from vatworld.oracle import equivalent

from conftest import random_transducer


class TestPartition:
    def test_from_classes_canonicalizes(self):
        p = Partition.from_classes([[2, 1], [0]], 3)
        assert p.classes == ((0,), (1, 2))
        assert p.class_of == (0, 1, 1)

    def test_rejects_non_cover(self):
        with pytest.raises(Exception):
            Partition.from_classes([[0], [1]], 3)
        with pytest.raises(Exception):
            Partition.from_classes([[0, 1], [1, 2]], 3)

    def test_discrete(self):
        assert Partition.discrete(3).is_discrete()


class TestCoarsestBisimulation:
    def test_parity_flip_discrete(self, fix_a):
        assert coarsest_bisimulation(fix_a).classes == ((0,), (1,))

    def test_redundant_split_merges(self, fix_b):
        assert coarsest_bisimulation(fix_b).classes == ((0,), (1, 2))

    def test_mixture_stays_discrete(self, fix_c):
        # emission probabilities 0.2 / 0.8 / 0.5 all differ
        assert coarsest_bisimulation(fix_c).classes == ((0,), (1,), (2,))

    def test_merged_states_share_emission_signatures(self, fix_b):
        part = coarsest_bisimulation(fix_b)
        em = fix_b.emission_marginals()
        for members in part.classes:
            lead = members[0]
            for s in members[1:]:
                np.testing.assert_allclose(em[:, :, s], em[:, :, lead], atol=1e-9)

    def test_coarse_tolerance_settles_on_deck_beliefs(self):
        # Regrouping every state from scratch each round let the class count
        # shrink here, and refinement never settled.
        beliefs = build_msp(make_card_deck(2, 2, "flip_shuffle")).machine
        assert minimize_bisim(beliefs, 0.6).n == 6

    def test_refinement_never_merges_random_distinct_states(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            t = random_transducer(rng, n=4)
            assert coarsest_bisimulation(t).is_discrete()


class TestQuotient:
    def test_redundant_split_collapses_to_parity_flip(self, fix_a, fix_b):
        part = coarsest_bisimulation(fix_b)
        small = quotient(fix_b, part)
        assert small.n == 2
        assert validate(small).is_valid
        assert equivalent(small, fix_a, depth=8).equivalent

    def test_discrete_quotient_is_isomorphic_copy(self, fix_a):
        same = quotient(fix_a, Partition.discrete(2))
        np.testing.assert_allclose(same.kernel, fix_a.kernel, atol=1e-12)
        np.testing.assert_allclose(same.initial, fix_a.initial, atol=1e-12)

    def test_bad_partition_rejected_with_witness(self, fix_b):
        bad = Partition.from_classes([[0, 1], [2]], 3)
        with pytest.raises(PartitionError) as err:
            quotient(fix_b, bad)
        assert err.value.witness[0] == "s0"
        assert err.value.witness[1] == "s1a"

    def test_initial_mass_is_class_summed(self, fix_b):
        part = coarsest_bisimulation(fix_b)
        small = quotient(fix_b, part)
        assert small.initial.sum() == pytest.approx(1.0)
        np.testing.assert_allclose(small.initial, [1.0, 0.0])


class TestMinimizeBisim:
    def test_state_counts(self, fix_a, fix_b, fix_c):
        assert minimize_bisim(fix_b).n == 2
        assert minimize_bisim(fix_a).n == 2
        assert minimize_bisim(fix_c).n == 3  # rank-deficient but not mergeable

    def test_idempotent(self, fix_a, fix_b, fix_c):
        for t in (fix_a, fix_b, fix_c):
            once = minimize_bisim(t)
            assert minimize_bisim(once).n == once.n

    def test_interface_preserved_on_fixtures(self, fix_a, fix_b, fix_c, fix_d):
        for t in (fix_a, fix_b, fix_c, fix_d):
            reduced = minimize_bisim(t)
            assert equivalent(t, reduced, depth=2 * t.n, tol=1e-9).equivalent

    def test_interface_preserved_on_seeded_random_machines(self):
        rng = np.random.default_rng(2024)
        for k in range(50):
            n = int(rng.integers(2, 6))
            n_a = int(rng.integers(1, 4))
            n_y = int(rng.integers(1, 4))
            t = random_transducer(rng, n=n, n_actions=n_a, n_outputs=n_y, name=f"r{k}")
            reduced = minimize_bisim(t)
            assert equivalent(t, reduced, tol=1e-9).equivalent

    def test_duplicated_states_always_merge(self, fix_a):
        # clone each state of the parity flip; minimization must recover it
        import vatworld.core as core

        n = 4
        kern = np.zeros((2, 2, n, n))
        for a in range(2):
            for s in range(2):
                for dup_from in (s, s + 2):
                    for half in (0, 2):
                        kern[a, s, (s ^ a) + half, dup_from] = 0.5
        big = core.Transducer(
            "doubled", ["p0", "p1", "q0", "q1"], ["0", "1"], ["0", "1"], kern, [0.5, 0, 0.5, 0]
        )
        assert validate(big).is_valid
        reduced = minimize_bisim(big)
        assert reduced.n == 2
        assert equivalent(reduced, fix_a, depth=8).equivalent
        assert is_isomorphic(reduced, fix_a)
