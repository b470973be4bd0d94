"""Construction, validation, and Moore classification."""

import numpy as np
import pytest

from vatworld.core import (
    Alphabet,
    History,
    MooreClass,
    Transducer,
    classify_moore,
    from_pomdp,
    is_input_moore,
    is_output_moore,
    make_card_deck,
    validate,
)
from vatworld.errors import StructureError
from vatworld.fixtures import parity_flip
from vatworld.oracle import word_probability
from vatworld.reverse import is_action_counifilar

from conftest import random_transducer


class TestAlphabet:
    def test_rejects_empty_and_duplicates(self):
        with pytest.raises(StructureError):
            Alphabet([])
        with pytest.raises(StructureError):
            Alphabet(["a", "a"])

    def test_index_roundtrip(self):
        al = Alphabet(["x", "y", "z"])
        assert [al.index(s) for s in al] == [0, 1, 2]
        with pytest.raises(StructureError):
            al.index("w")

    def test_labels_are_matched_as_strings(self):
        al = Alphabet([0, 1, 2])
        assert al.index(2) == al.index("2") == 2
        assert al.indices([1, "0", 2, 2]) == [1, 0, 2, 2]
        assert al.indices(iter(["2", "1"])) == [2, 1]

    def test_unknown_label_in_indices_is_named(self):
        al = Alphabet(["x", "y"])
        with pytest.raises(StructureError, match=r"^symbol 'w' not in alphabet \('x', 'y'\)$"):
            al.indices(iter(["x", "w", "v"]))
        with pytest.raises(StructureError, match=r"^symbol 3 not in alphabet"):
            al.index(3)
        with pytest.raises(StructureError, match=r"^symbol \['x'\] not in alphabet"):
            al.indices([["x"]])


class TestHistory:
    def test_lengths_must_match(self):
        with pytest.raises(StructureError):
            History(("0",), ())

    def test_extended(self):
        h = History.empty().extended("1", "0")
        assert h.actions == ("1",) and h.outputs == ("0",)


class TestValidate:
    def test_fixtures_are_valid(self, fix_a, fix_b, fix_c, fix_d):
        for t in (fix_a, fix_b, fix_c, fix_d):
            assert validate(t).is_valid, str(validate(t))

    def test_mass_deficit_reported(self, fix_a):
        kern = fix_a.kernel.copy()
        kern[0, 0, 0, 0] = 0.9  # was 1.0
        broken = Transducer("broken", fix_a.states, fix_a.actions, fix_a.outputs, kern, fix_a.initial)
        report = validate(broken)
        assert not report.is_valid
        assert len(report.violations) == 1
        v = report.violations[0]
        assert v.kind == "column_mass"
        assert v.where == ("0", "s0")
        assert v.amount == pytest.approx(-0.1)

    def test_negative_entry_and_initial_defects(self, fix_a):
        kern = fix_a.kernel.copy()
        kern[0, 0, 0, 0] = -0.5
        kern[0, 1, 0, 0] = 1.5
        broken = Transducer("broken", fix_a.states, fix_a.actions, fix_a.outputs, kern, [0.7, 0.7])
        kinds = {v.kind for v in validate(broken).violations}
        assert "negative_entry" in kinds
        assert "initial_mass" in kinds

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_kernel_entry_is_named(self, fix_a, value):
        kern = fix_a.kernel.copy()
        kern[0, 0, 0, 0] = value
        broken = Transducer("broken", fix_a.states, fix_a.actions, fix_a.outputs, kern, fix_a.initial)
        report = validate(broken)
        assert not report.is_valid
        v = report.violations[0]
        assert v.kind == "non_finite"
        assert v.where == ("0", "0", "s0", "s0")
        assert v.message == f"kernel entry (0, s0 | 0, s0) = {value} is not finite"
        assert [w.kind for w in report.violations].count("non_finite") == 1

    def test_non_finite_initial_entry_is_named(self, fix_a):
        initial = [np.nan, 1.0]
        broken = Transducer("broken", fix_a.states, fix_a.actions, fix_a.outputs, fix_a.kernel, initial)
        report = validate(broken)
        assert not report.is_valid
        v = report.violations[0]
        assert (v.kind, v.where) == ("non_finite", ("s0",))
        assert v.message == "initial[s0] = nan is not finite"

    def test_structural_errors_raise(self, fix_a):
        with pytest.raises(StructureError):
            Transducer("bad", ["s0"], fix_a.actions, fix_a.outputs, fix_a.kernel, [1.0])
        with pytest.raises(StructureError):
            Transducer("bad", fix_a.states, fix_a.actions, fix_a.outputs, fix_a.kernel, [1.0])

    def test_column_sums_of_random_machines(self):
        rng = np.random.default_rng(3)
        for k in range(10):
            t = random_transducer(rng, n=4, n_actions=3, n_outputs=2)
            mass = t.kernel.sum(axis=(1, 2))
            np.testing.assert_allclose(mass, 1.0, atol=1e-9)
            assert validate(t).is_valid


class TestClassifyMoore:
    def test_parity_flip_is_io_moore(self, fix_a):
        assert classify_moore(fix_a) is MooreClass.IO_MOORE

    def test_delay_channel_is_io_moore(self, fix_d):
        assert classify_moore(fix_d) is MooreClass.IO_MOORE

    def test_mixture_state_breaks_output_moore(self, fix_c):
        # The averaged third state has a non-product (output, next) joint,
        # while a one-action machine passes the input test vacuously.
        assert not is_output_moore(fix_c)
        assert is_input_moore(fix_c)
        assert classify_moore(fix_c) is MooreClass.INPUT_MOORE

    def test_io_moore_implies_both_parts(self, fix_a, fix_d):
        for t in (fix_a, fix_d, make_card_deck(2, 2, "flip_shuffle")):
            if classify_moore(t) is MooreClass.IO_MOORE:
                assert is_input_moore(t) and is_output_moore(t)

    def test_mealy_example(self):
        # output equals the action: emission marginal depends on the action
        kern = np.zeros((2, 2, 1, 1))
        kern[0, 0, 0, 0] = 1.0
        kern[1, 1, 0, 0] = 1.0
        t = Transducer("echo", ["s0"], ["0", "1"], ["0", "1"], kern, [1.0])
        assert not is_input_moore(t)
        assert is_output_moore(t)
        assert classify_moore(t) is MooreClass.OUTPUT_MOORE


class TestFromPomdp:
    def test_identity_pomdp_emits_first_output_forever(self):
        eye = np.eye(3)
        t = from_pomdp(np.stack([eye, eye]), eye, [1.0, 0.0, 0.0])
        h = History(("0",) * 5, ("0",) * 5)
        assert word_probability(t, h) == pytest.approx(1.0)
        assert classify_moore(t) is MooreClass.IO_MOORE

    def test_reconstructs_parity_flip(self, fix_a):
        stay = np.eye(2)
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        t = from_pomdp(
            np.stack([stay, swap]),
            np.eye(2),
            [1.0, 0.0],
            actions=["0", "1"],
            outputs=["0", "1"],
        )
        np.testing.assert_array_equal(t.kernel, fix_a.kernel)

    def test_random_pomdp_valid_and_io_moore(self):
        rng = np.random.default_rng(42)
        transition = rng.dirichlet(np.ones(3), size=(2, 3))
        observation = rng.dirichlet(np.ones(2), size=3)
        t = from_pomdp(transition, observation, rng.dirichlet(np.ones(3)))
        assert validate(t).is_valid
        assert classify_moore(t) is MooreClass.IO_MOORE

    def test_output_moore_factorization_is_exact(self):
        rng = np.random.default_rng(7)
        transition = rng.dirichlet(np.ones(4), size=(2, 4))
        observation = rng.dirichlet(np.ones(3), size=4)
        t = from_pomdp(transition, observation, rng.dirichlet(np.ones(4)))
        em = t.emission_marginals()
        tr = t.transition_marginals()
        np.testing.assert_allclose(
            t.kernel, np.einsum("ayj,aij->ayij", em, tr), atol=1e-12
        )

    def test_dimension_mismatch(self):
        with pytest.raises(StructureError):
            from_pomdp(np.ones((2, 3, 2)) / 2, np.eye(3), [1, 0, 0])


class TestCardDeck:
    def test_two_two_flip_shuffle(self):
        deck = make_card_deck(2, 2, "flip_shuffle")
        assert deck.n == 6
        assert validate(deck).is_valid
        assert classify_moore(deck) is MooreClass.IO_MOORE

    def test_one_one_cyclic_swaps(self):
        deck = make_card_deck(1, 1, "cyclic")
        assert deck.n == 2
        tr = deck.transition_marginals()
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_array_equal(tr[0], swap)
        np.testing.assert_array_equal(tr[1], swap)

    def test_two_two_cyclic_counifilar(self):
        assert is_action_counifilar(make_card_deck(2, 2, "cyclic"))

    def test_cyclic_kernels_are_zero_one(self):
        deck = make_card_deck(2, 2, "cyclic")
        assert set(np.unique(deck.kernel)) <= {0.0, 1.0}

    def test_flip_shuffle_rows_uniform(self):
        deck = make_card_deck(3, 2, "flip_shuffle")
        n = deck.n
        shuffle = deck.kernel[1]  # [y, to, from]
        for j in range(n):
            col = shuffle[:, :, j]
            assert np.isclose(col.sum(), 1.0)
            nz = col[col > 0]
            np.testing.assert_allclose(nz, 1.0 / n)

    def test_size_cap(self):
        with pytest.raises(StructureError):
            make_card_deck(5, 4, "cyclic")
        with pytest.raises(StructureError):
            make_card_deck(0, 2, "cyclic")


def test_kernel_is_immutable():
    t = parity_flip()
    with pytest.raises(ValueError):
        t.kernel[0, 0, 0, 0] = 0.5
