"""Construction, validation, and Moore classification."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vatworld.beliefs import BeliefState
from vatworld.core import (
    Alphabet,
    GeneralizedTransducer,
    History,
    MooreClass,
    Policy,
    Transducer,
    _require_laws,
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
from vatworld.retro import BDMSM
from vatworld.reverse import is_action_counifilar

from conftest import (
    random_transducer,
    reference_bdmsm_law,
    reference_belief_laws,
    reference_smooth_laws,
    reference_table_law,
    reference_weighted_law,
)


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

    def test_column_mass_violations_come_in_action_then_state_order(self):
        rng = np.random.default_rng(11)
        t = random_transducer(rng, n=4, n_actions=2, n_outputs=2)
        kern = t.kernel.copy()
        for a, j, scale in ((1, 0, 0.5), (0, 3, 1.5), (1, 2, 0.25), (0, 1, 0.75)):
            kern[a, :, :, j] *= scale
        broken = Transducer("broken", t.states, t.actions, t.outputs, kern, [-0.5, 0.5, 0.5, 0.5])
        report = validate(broken)
        assert [(v.kind, v.where) for v in report.violations] == [
            ("column_mass", ("0", "s1")),
            ("column_mass", ("0", "s3")),
            ("column_mass", ("1", "s0")),
            ("column_mass", ("1", "s2")),
            ("initial_negative", ("s0",)),
        ]
        assert report.violations[0].message == (
            f"mass for (action 0, state s1) is {kern[0, :, :, 1].sum():.12g}, off by "
            f"{kern[0, :, :, 1].sum() - 1.0:.3g}"
        )

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

    @pytest.mark.parametrize("where", ["transition", "observation"])
    def test_nan_entry_is_refused(self, where):
        transition, observation = np.stack([np.eye(2), np.eye(2)]), np.eye(2)
        (transition if where == "transition" else observation)[0, 0] = np.nan
        with pytest.raises(StructureError, match=f"{where} rows"):
            from_pomdp(transition, observation, [1.0, 0.0])


class TestLawChecksRefuseNan:
    @pytest.mark.parametrize("weights", [[np.nan, 1.0], [0.5, np.nan], [np.nan, np.nan]])
    def test_weighted_policy(self, weights):
        with pytest.raises(StructureError, match="weighted policy has a negative entry: nan"):
            Policy.weighted(weights)

    @pytest.mark.parametrize("weights", [[np.nan, 1.0], [0.5, np.nan], [np.nan, np.nan]])
    def test_history_table_policy(self, weights):
        with pytest.raises(StructureError, match=r"table entry for History.* has a negative entry: nan"):
            Policy.from_table({History.empty(): weights})

    @pytest.mark.parametrize("v", [[np.nan, 1.0], [1.0, np.nan], [np.nan, np.nan]])
    def test_generalized_transducer_v(self, v):
        with pytest.raises(StructureError, match="quasi-distribution"):
            GeneralizedTransducer(2, ["0"], ["0"], np.zeros((1, 1, 2, 2)), np.ones(2), v)


# entries and row sums on either side of each law check's thresholds
_EDGE = [0.0, -0.0, 0.5, 1.0, -1e-9, -5e-9, -1e-8, np.nextafter(-1e-8, 0.0), np.nextafter(-1e-8, -1.0)]
_EDGE += [-2e-8, np.nan, np.inf, -np.inf]
_SLACK = [0.0, 1e-9, -1e-9, 1e-8, -1e-8, 2e-9, -2e-9, 0.99e-9, 1.01e-9, 0.99e-8, 1.01e-8, -1.01e-8]


@st.composite
def _law_row(draw, width: int) -> list:
    """A row whose last entry brings it to 1 plus a slack, or is drawn too."""
    entry = st.sampled_from(_EDGE) | st.floats(0.0, 1.0)
    head = draw(st.lists(entry, min_size=width - 1, max_size=width - 1))
    if draw(st.booleans()):
        return head + [draw(entry)]
    return head + [1.0 + draw(st.sampled_from(_SLACK)) - sum(head)]


def _refused(check, *args) -> bool:
    try:
        check(*args)
    except StructureError:
        return True
    return False


class TestOneLawCheck:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(data=st.data(), width=st.sampled_from([1, 2, 3, 4]))
    def test_refuses_exactly_the_rows_the_five_checks_refused(self, data, width):
        rows = np.array(data.draw(st.lists(_law_row(width), min_size=1, max_size=4)))
        # beliefs (build_msp) and smoothed posteriors check all rows at once, at 1e-8
        at_once = _refused(_require_laws, rows, 1e-8, str)
        assert at_once == _refused(reference_belief_laws, rows)
        assert at_once == _refused(reference_smooth_laws, rows)
        per_row = [_refused(reference_belief_laws, row[None]) for row in rows]
        if at_once:  # the row it names is the first one a belief check refuses
            with pytest.raises(StructureError, match=f"^row {per_row.index(True)} "):
                _require_laws(rows, 1e-8, lambda i: f"row {i}")
        empty = History.empty()
        for row, refused in zip(rows, per_row):
            assert _refused(BeliefState, row) == refused
            assert _refused(_require_laws, row[None], 0.0, str) == _refused(reference_weighted_law, row)
            assert _refused(Policy.weighted, row) == _refused(reference_weighted_law, row)
            assert _refused(Policy.from_table, {empty: row}) == _refused(reference_table_law, empty, row)
            if width in (1, 4):  # BDMSM checks its square matrix as one row
                m = row.reshape(2, 2) if width == 4 else row.reshape(1, 1)
                assert _refused(BDMSM, m, empty) == _refused(reference_bdmsm_law, m)


class TestPolicy:
    @pytest.mark.parametrize(
        "weights, message",
        [
            ([1.5, -0.5], "weighted policy has a negative entry: -0.5"),
            ([0.5, 0.6], "weighted policy sums to 1.1, not 1"),
            ([1e308, 1e308], "weighted policy sums to inf, not 1"),  # and no overflow warning
        ],
    )
    def test_weighted_refusals(self, weights, message):
        with pytest.raises(StructureError) as err:
            Policy.weighted(weights)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "dist, fault",
        [([1.5, -0.5], "has a negative entry: -0.5"), ([0.5, 0.6], "sums to 1.1, not 1")],
    )
    def test_table_refusals(self, dist, fault):
        h = History(["{x}"], ["0"])
        with pytest.raises(StructureError) as err:
            Policy.from_table({History.empty(): [0.5, 0.5], h: dist})
        assert str(err.value) == f"table entry for {h} {fault}"

    def test_weights_and_a_table_at_once_are_refused(self):
        with pytest.raises(StructureError, match="weights or a table, not both"):
            Policy([0.5, 0.5], {History.empty(): [0.5, 0.5]})
        with pytest.raises(StructureError, match="weights or a table, not both"):
            Policy([0.5, 0.5], {})

    @pytest.mark.parametrize(
        "policy, text",
        [
            (Policy.uniform(), "uniform"),
            (Policy(), "uniform"),
            (Policy.weighted([0.25, 0.75]), "weighted:0.25,0.75"),
            (Policy.weighted([1 / 3, 2 / 3]), "weighted:0.3333333333333333,0.6666666666666666"),
            (Policy.from_table({}), "table:0 entries, uniform fallback"),
            (Policy.from_table({History(["0"], ["1"]): [1.0, 0.0]}), "table:1 entries, uniform fallback"),
        ],
    )
    def test_describe_keeps_each_kinds_text(self, policy, text):
        assert policy.describe() == text

    def test_each_kind_draws_from_its_fallback(self):
        key = History(["0"], ["1"])
        table = Policy.from_table({key: [1.0, 0.0]})
        np.testing.assert_array_equal(Policy.uniform().fallback(4), [0.25] * 4)
        np.testing.assert_array_equal(Policy.weighted([0.25, 0.75]).fallback(2), [0.25, 0.75])
        np.testing.assert_array_equal(table.fallback(2), [0.5, 0.5])
        np.testing.assert_array_equal(table.action_dist(key, 2), [1.0, 0.0])
        assert table.key_prefixes() == {History.empty(), key}
        assert Policy.weighted([0.25, 0.75]).key_prefixes() == frozenset()
        with pytest.raises(StructureError, match="2 action weights but the machine has 3"):
            Policy.weighted([0.25, 0.75]).fallback(3)


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
