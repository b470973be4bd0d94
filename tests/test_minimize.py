"""Bisimulation partitions and quotient machines."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vatworld import io as vio
from vatworld.beliefs import build_msp
from vatworld.core import DEFAULT_TOL, Transducer, make_card_deck, validate
from vatworld.epsilon import is_isomorphic
from vatworld.errors import PartitionError
from vatworld.minimize import (
    Partition,
    _block_signature,
    _class_labels,
    _emission_signature,
    _quotient,
    _split_by_signature,
    _successor_table,
    _TolIndex,
    coarsest_bisimulation,
    minimize_bisim,
    quotient,
)
from vatworld.oracle import equivalent

from conftest import (
    PROPERTY_KINDS,
    PROPERTY_TOLS,
    dense_quotient,
    dense_quotient_link,
    einsum_block_signature,
    property_machine,
    random_transducer,
    scan_coarsest_bisimulation,
    scan_group_by_signature,
)


def _within_l1(tol):
    return lambda u, v: float(np.abs(u - v).sum()) <= tol


def _within_max(tol):
    return lambda u, v: bool(np.all(np.abs(u - v) <= tol))


def _scan_first(rows, within, groups):
    """Each row joins the first kept row of its group that passes ``within``, or is kept."""
    kept, out = [], []
    for j, row in enumerate(rows):
        match = next((k for k in kept if groups[k] == groups[j] and within(rows[k], row)), None)
        if match is None:
            kept.append(j)
        out.append(j if match is None else match)
    return out


def _index_first(rows, tol, within, groups):
    """The same assignment, with each row placed in a _TolIndex."""
    index = _TolIndex(rows.shape[1], tol)
    out = []
    for j, key in enumerate(index.project(rows)):
        match = index.place(j, key, rows[j], lambda k: within(rows[k], rows[j]), groups[j])
        out.append(j if match is None else match)
    return out


def _assert_index_matches_the_scan(rows, tol):
    rows = np.asarray(rows, dtype=float)
    for groups in ([0] * len(rows), [j % 2 for j in range(len(rows))]):
        for within in (_within_l1(tol), _within_max(tol)):
            with np.errstate(invalid="ignore"):  # inf - inf in the distance tests
                assert _index_first(rows, tol, within, groups) == _scan_first(rows, within, groups)


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


class TestTolIndex:
    @pytest.mark.parametrize("tol", PROPERTY_TOLS)
    def test_rows_exactly_tol_apart(self, tol):
        base = np.array([0.3, 0.2, 0.5])
        steps = np.array([[1, 0, 0], [0, -1, 0], [0.5, -0.5, 0], [1, -1, 0], [0, 0, 2]])
        rows = [base + k * tol * d for d in steps for k in (3, 0, 1, 2, -1)]
        _assert_index_matches_the_scan(rows, tol)

    @pytest.mark.parametrize("tol", PROPERTY_TOLS)
    def test_rows_straddling_a_cell_boundary(self, tol):
        rng = np.random.default_rng(5)
        index = _TolIndex(4, tol)
        rows = []
        for _ in range(4):
            base = rng.random(4)
            (p, _), = index.project(base[None])
            near = base + (np.floor(p / index._pitch) + 1) * index._pitch - p
            for off in (-0.6, -0.4, 0.0, 0.4, 0.6):
                for ulps in (-2, 0, 2):
                    rows.append(near + off * tol + ulps * np.spacing(near))
        _assert_index_matches_the_scan(rows, tol)

    @pytest.mark.parametrize("tol", [1e-12, 1e-9])
    def test_twins_whose_projections_round_apart_across_a_boundary(self, tol):
        # u and u + tol pass the max-norm test, yet their projections differ
        # by a little more than tol with a cell boundary in the gap: only the
        # rounding term of the probe radius finds the twin.
        rng = np.random.default_rng(5)
        index = _TolIndex(4, tol)
        rows = []
        while len(rows) < 8:
            base = rng.random(4)
            (p, _), = index.project(base[None])
            near = base + (np.floor(p / index._pitch) + 1) * index._pitch - p
            for ulps in range(-3, 4):
                u = near + ulps * np.spacing(near)
                (pu, _), (pv, _) = index.project(np.array([u, u + tol]))
                apart = np.floor(pu / index._pitch) < np.floor((pv - tol) / index._pitch)
                if apart and np.all(np.abs(u - (u + tol)) <= tol):
                    rows += [u, u + tol]
        _assert_index_matches_the_scan(rows, tol)

    @pytest.mark.parametrize("tol", PROPERTY_TOLS + (np.inf, np.nan, -1e-9, -0.0))
    def test_rows_with_nan_or_inf(self, tol):
        base = np.array([0.25, 0.25, 0.5])
        odd = [np.nan, np.inf, -np.inf]
        rows = [base]
        for k, bad in enumerate(odd * 2):
            row = base.copy()
            row[k % 3] = bad
            rows += [row, base + tol / 2]
        rows += [np.full(3, np.nan), np.full(3, np.inf), base]
        _assert_index_matches_the_scan(rows, tol)

    def test_rows_far_beyond_unit_magnitude(self):
        rows = [np.array([1e300, 1.0]), np.array([1e300, 1.0]), np.array([3e300, -1e300]), np.zeros(2)]
        for tol in PROPERTY_TOLS:
            _assert_index_matches_the_scan(rows, tol)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        tol=st.sampled_from(PROPERTY_TOLS),
        dim=st.integers(1, 6),
    )
    def test_lattice_rows_with_rounding_jitter(self, seed, tol, dim):
        # Rows on a lattice of half-tol steps, nudged by a few ulps, make
        # every distance a near-tie of tol.
        rng = np.random.default_rng(seed)
        lattice = rng.integers(-3, 4, size=(32, dim)) * (tol / 2) + rng.random(dim)
        rows = lattice + rng.integers(-2, 3, size=lattice.shape) * np.spacing(lattice)
        _assert_index_matches_the_scan(rows, tol)


def _memo_rows(kind: str, tol: float) -> np.ndarray:
    """Rows that repeat earlier ones bit for bit, interleaved with their near twins."""
    a = np.array([0.5, 0.3, 0.2])
    if kind == "near-tie chain":
        # b is within tol of a, c within tol of b but not of a (max norm); b
        # and c come back bit for bit, and a repeat of c must not join a
        d = 0.6 * tol * np.array([1.0, -1.0, 0.0])
        b, c = a + d, a + 2 * d
        return np.array([a, b, c, b, c, a, c, b])
    if kind == "nan and inf":
        nan, inf = np.full(3, np.nan), np.full(3, np.inf)
        mixed = np.array([np.inf, 0.3, np.nan])
        return np.array([a, nan, a, nan, inf, -inf, inf, -inf, mixed, a, mixed, a + tol / 2])
    if kind == "signed zero":
        # u and v, w and x are equal with bytes that differ
        u, v = np.array([0.0, 0.5, 0.5]), np.array([-0.0, 0.5, 0.5])
        w, x = np.array([0.0, 1.0, 0.0]), np.array([-0.0, 1.0, -0.0])
        return np.array([v, u, w, v, u, x, w, x, v])
    return np.array([a, a + tol / 2, a, a + 2 * tol, a + tol / 2, a, a + 2 * tol])


def _scan_split(rows: np.ndarray, tol: float, class_of) -> Partition:
    """The scan grouping of each class of ``class_of`` on its own."""
    classes: dict = {}
    for j, c in enumerate(class_of):
        classes.setdefault(c, []).append(j)
    return Partition.from_classes(
        [
            [members[i] for i in group]
            for members in classes.values()
            for group in scan_group_by_signature(rows[members], tol).classes
        ],
        len(rows),
    )


class TestRepeatMemo:
    """A row repeating an earlier one bit for bit takes that one's answer, as
    the scan would give it: never under a nan or negative tol, never for a
    non-finite row, and never across classes."""

    @pytest.mark.parametrize("tol", PROPERTY_TOLS + (np.nan, -1e-9, np.inf))
    @pytest.mark.parametrize("kind", ["repeats", "near-tie chain", "nan and inf", "signed zero"])
    def test_split_is_the_scan_grouping(self, kind, tol):
        with np.errstate(invalid="ignore"):  # inf - inf, and 0 * inf at tol inf
            rows = _memo_rows(kind, tol)
            n = len(rows)
            for class_of in ([0] * n, [j % 2 for j in range(n)], [j // 3 for j in range(n)]):
                first = [class_of.index(c) for c in class_of]
                split = Partition.from_assignment(_split_by_signature(rows, tol, first).tolist())
                assert split == _scan_split(rows, tol, class_of)

    def test_a_repeat_takes_the_first_answer_without_a_lookup(self):
        rows = _memo_rows("near-tie chain", 1e-3)
        index = _TolIndex(3, 1e-3)
        keys = index.project(rows)
        assert rows[1].tobytes() == rows[3].tobytes() and rows[2].tobytes() == rows[4].tobytes()
        assert index.place(0, keys[0], rows[0], lambda k: False) is None
        assert index.place(1, keys[1], rows[1], lambda k: True) == 0
        # the answer kept for b's bytes is 0, whatever the distance test says now
        assert index.place(3, keys[3], rows[3], lambda k: False) == 0
        assert index.place(2, keys[2], rows[2], lambda k: False) is None
        # c was stored, so it answers its repeat
        assert index.place(4, keys[4], rows[4], lambda k: False) == 2

    @pytest.mark.parametrize("tol", [np.nan, -1e-9])
    def test_no_answer_is_kept_where_no_row_is_within_tol(self, tol):
        index = _TolIndex(3, tol)
        rows = np.ones((2, 3))
        keys = index.project(rows)
        assert [index.place(j, keys[j], rows[j], lambda k: True) for j in range(2)] == [None, None]

    def test_no_answer_is_kept_for_a_non_finite_row(self):
        rows = _memo_rows("nan and inf", 1e-9)
        index = _TolIndex(3, 1e-9)
        keys = index.project(rows)
        n = len(rows)
        for j in range(n):
            index.place(j, keys[j], rows[j], lambda k: False)
        kept = [index.place(n + j, keys[j], rows[j], lambda k: False) is not None for j in range(n)]
        assert kept == np.isfinite(rows).all(axis=1).tolist()

    @pytest.mark.parametrize("tol", PROPERTY_TOLS + (np.nan,))
    def test_refinement_is_the_scan_refinement_on_repeated_states(self, tol):
        # copies of each deck state, every block signature repeated bit for bit
        deck = build_msp(make_card_deck(3, 2, "flip_shuffle")).machine
        n = deck.n
        kernel = np.zeros((*deck.kernel.shape[:2], 2 * n, 2 * n))
        for copy in (0, n):
            kernel[:, :, :n, copy : copy + n] = deck.kernel / 2
            kernel[:, :, n:, copy : copy + n] = deck.kernel / 2
        states = [f"{s}{c}" for c in "ab" for s in deck.states]
        doubled = Transducer("doubled", states, deck.actions, deck.outputs, kernel, np.ones(2 * n) / (2 * n))
        for m in (deck, doubled):
            assert coarsest_bisimulation(m, tol) == scan_coarsest_bisimulation(m, tol)

    @pytest.mark.parametrize("tol", PROPERTY_TOLS + (np.nan,))
    def test_refinement_is_the_scan_refinement_with_non_finite_entries(self, fix_b, tol):
        for spot, bad in [((0, 0, 0, 1), np.nan), ((0, 1, 2, 2), np.inf), ((1, 0, 1, 1), -np.inf)]:
            kernel = np.array(fix_b.kernel)
            kernel[spot] = bad
            t = Transducer("bad", fix_b.states, fix_b.actions, fix_b.outputs, kernel, fix_b.initial)
            with np.errstate(invalid="ignore"):
                assert coarsest_bisimulation(t, tol) == scan_coarsest_bisimulation(t, tol)


def _planted_rows(rng, tol: float, dim: int) -> tuple[np.ndarray, list]:
    """Rows of 1-5 interleaved groups, each planted settled (every row within
    tol of its first) or mixed (a lattice of half-tol steps around a base, so
    near-ties chain), with now and then a nan or infinite entry, and now and
    then exact copies of earlier rows: of an infinite one, of a -0.0/0.0
    twin, and one placed in another group."""
    step = tol if 0.0 < tol < np.inf else 1e-3
    rows, groups = [], []
    for g in range(int(rng.integers(1, 6))):
        size = int(rng.integers(1, 6))
        if rng.random() < 0.5:
            offsets = np.vstack([np.zeros(dim), rng.uniform(-0.5, 0.5, (size - 1, dim))])
        else:
            offsets = rng.integers(-3, 4, (size, dim)) / 2
        rows += list(rng.random(dim) + offsets * step)
        groups += [g] * size
    order = rng.permutation(len(rows))
    rows, groups = np.array(rows).reshape(len(rows), dim)[order], [groups[k] for k in order]
    if dim and rng.random() < 0.25:
        rows[rng.integers(len(rows)), rng.integers(dim)] = rng.choice([np.nan, np.inf, -np.inf])
    if dim and rng.random() < 0.5:
        picks = rng.integers(len(rows), size=int(rng.integers(1, 5)))
        if rng.random() < 0.5:
            rows[picks[-1], rng.integers(dim)] = np.inf
        copies, copy_groups = rows[picks], [groups[k] for k in picks]
        if rng.random() < 0.5:  # the first pick and its copy differ in the sign of a zero
            col = rng.integers(dim)
            rows[picks[0], col], copies[0, col] = -0.0, 0.0
        if rng.random() < 0.5:
            copy_groups[0] = groups[rng.integers(len(groups))]
        order = rng.permutation(len(rows) + len(copies))
        rows, groups = np.vstack([rows, copies])[order], [(groups + copy_groups)[k] for k in order]
    return rows, groups


class TestSplitMatchesTheScan:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        tol=st.sampled_from(PROPERTY_TOLS + (np.nan, -1e-9, np.inf)),
        dim=st.integers(0, 4),
    )
    def test_split_is_the_scan_split_group_by_group(self, seed, tol, dim):
        rows, groups = _planted_rows(np.random.default_rng(seed), tol, dim)
        first = [groups.index(g) for g in groups]
        with np.errstate(invalid="ignore"):  # inf - inf in the scan
            lead = _split_by_signature(rows, tol, first)
            expected = _scan_split(rows, tol, groups)
        assert Partition.from_assignment(lead.tolist()) == expected
        assert lead.tolist() == [expected.classes[c][0] for c in expected.class_of]


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


class TestRefinementMatchesTheScan:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(PROPERTY_KINDS),
        tol=st.sampled_from(PROPERTY_TOLS + (np.nan, np.inf)),
    )
    def test_partition_is_the_scan_partition(self, seed, kind, tol):
        t = property_machine(kind, seed)
        machines = [t]
        if kind in ("deck", "unifilar"):
            machines.append(build_msp(t).machine)
        for m in machines:
            assert coarsest_bisimulation(m, tol) == scan_coarsest_bisimulation(m, tol)

    @pytest.mark.parametrize("tol", [1e-12, 1e-9, 1e-3])
    @pytest.mark.parametrize("edit", ["emission below tol", "emission at tol", "two entries", "nan", "inf"])
    def test_machines_at_the_edge_of_the_successor_route(self, edit, tol):
        # Two copies of the 2R2B belief machine, each state bisimilar to its
        # copy; one edit to a copy's column leaves the successor route, but not
        # the dense route's bisimilarity, except for the non-finite entries.
        beliefs = build_msp(make_card_deck(2, 2, "flip_shuffle")).machine
        n = beliefs.n
        kernel = np.zeros((*beliefs.kernel.shape[:2], 2 * n, 2 * n))
        kernel[:, :, :n, :n] = kernel[:, :, n:, n:] = beliefs.kernel
        states = [f"{s}{c}" for c in "ab" for s in beliefs.states]
        start = np.ones(2 * n) / (2 * n)
        doubled = Transducer("doubled", states, beliefs.actions, beliefs.outputs, kernel, start)
        flat = kernel.reshape(-1, 2 * n, 2 * n)  # [x, next, j], a view
        x, j = np.argwhere(flat[:, :, n:].sum(axis=1) == 0.0)[0]  # a copy's column without mass
        x_edge, i_edge = np.argwhere(flat[:, :, n + j] != 0.0)[0]
        if edit == "emission below tol":
            flat[x, n, n + j] = tol / 2
        elif edit == "emission at tol":
            flat[x, n, n + j] = tol
        elif edit == "two entries":
            half = flat[x_edge, i_edge, n + j] / 2
            flat[x_edge, i_edge, n + j] = flat[x_edge, i_edge - n, n + j] = half
        else:
            flat[x_edge, i_edge, n + j] = np.nan if edit == "nan" else np.inf
        edited = Transducer("edited", states, beliefs.actions, beliefs.outputs, kernel, start)
        assert _successor_table(doubled, _emission_signature(doubled), tol) is not None
        assert _successor_table(edited, _emission_signature(edited), tol) is None
        with np.errstate(invalid="ignore"):
            part = coarsest_bisimulation(edited, tol)
            assert part == scan_coarsest_bisimulation(edited, tol)
        pairs = coarsest_bisimulation(doubled, tol)
        assert pairs == scan_coarsest_bisimulation(doubled, tol)
        assert pairs.classes == tuple((s, n + s) for s in range(n))
        assert (part == pairs) == (edit not in ("nan", "inf"))

    def test_successor_route_needs_a_tol_of_zero_or_more(self):
        beliefs = build_msp(make_card_deck(2, 2, "flip_shuffle")).machine
        assert _successor_table(beliefs, _emission_signature(beliefs), 0.0) is not None
        for tol in (-1e-9, np.nan, np.inf):  # no entry is above an infinite tol
            assert _successor_table(beliefs, _emission_signature(beliefs), tol) is None
            assert coarsest_bisimulation(beliefs, tol) == scan_coarsest_bisimulation(beliefs, tol)

    def test_block_signature_is_bit_identical_on_unifilar_machines(self):
        beliefs = build_msp(make_card_deck(3, 3, "flip_shuffle")).machine
        part = coarsest_bisimulation(beliefs)
        for p in (part, Partition.discrete(beliefs.n), Partition.from_assignment([0] * beliefs.n)):
            np.testing.assert_array_equal(
                _block_signature(beliefs, p.class_of), einsum_block_signature(beliefs, p)
            )


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

    def test_discrete_quotient_is_written_as_the_dense_products_wrote_it(self, fix_a, fix_b, fix_c, fix_d):
        signed = np.array(fix_c.kernel)
        signed[signed == 0.0] = -0.0
        machines = [
            fix_a,
            fix_b,
            fix_d,
            build_msp(make_card_deck(3, 3, "flip_shuffle")).machine,
            Transducer("signed", fix_c.states, fix_c.actions, fix_c.outputs, signed, [1.0, -0.0, 0.0]),
            Transducer("one", ["s"], ["a"], ["0", "1"], [[[[-0.0]], [[1.0]]]], [1.0]),
        ] + [property_machine(kind, seed) for kind in PROPERTY_KINDS for seed in range(4)]
        for m in machines:
            part = Partition.discrete(m.n)
            q, delta_q = _quotient(m, part, DEFAULT_TOL)
            dense = dense_quotient(m, part)
            assert vio.dumps(vio.transducer_to_doc(q)) == vio.dumps(vio.transducer_to_doc(dense))
            assert q.kernel.tobytes() == dense.kernel.tobytes()
            assert q.initial.tobytes() == dense.initial.tobytes()
            assert delta_q == dense_quotient_link(dense, m, part) == 0.0

    def test_class_labels_stay_distinct(self):
        states = ("a", "b+c", "a+b", "c", "d")
        assert _class_labels(states, tuple((s,) for s in range(5))) == list(states)
        assert _class_labels(states, ((0, 2), (1,), (3, 4))) == ["a+a+b", "b+c", "c+d"]
        assert _class_labels(states, ((0, 1), (2, 3), (4,))) == ["a+b+c", "a+b+c#2", "d"]
        assert _class_labels(("a", "b", "a+b", "a+b#2"), ((0, 1), (2,), (3,))) == ["a+b#3", "a+b", "a+b#2"]

    def test_bad_partition_rejected_with_witness(self, fix_b):
        bad = Partition.from_classes([[0, 1], [2]], 3)
        with pytest.raises(PartitionError) as err:
            quotient(fix_b, bad)
        assert err.value.witness[0] == "s0"
        assert err.value.witness[1] == "s1a"

    def test_block_branch_names_the_class(self):
        deck = make_card_deck(2, 2, "flip_shuffle")  # BBRR and BRBR both show black
        bad = Partition.from_classes([[0, 1], [2], [3], [4], [5]], deck.n)
        with pytest.raises(PartitionError, match=r"route different \(output black\) mass") as err:
            quotient(deck, bad)
        # rotating BBRR gives BRRB (state 2), rotating BRBR gives RBRB (state 4)
        assert err.value.witness == ("BBRR", "BRBR", "rotate", (2,))

    def test_the_first_class_in_order_is_named(self):
        deck = make_card_deck(2, 2, "flip_shuffle")
        with pytest.raises(PartitionError) as err:  # the red-top class violates alone
            quotient(deck, Partition.from_classes([[0], [1], [2], [3, 4, 5]], deck.n))
        # rotating RBBR gives BBRR (state 0), rotating RBRB gives BRBR (state 1)
        assert err.value.witness == ("RBBR", "RBRB", "rotate", (0,))
        by_top = Partition.from_classes([[3, 4, 5], [0, 1, 2]], deck.n)  # both classes violate
        with pytest.raises(PartitionError) as err:
            quotient(deck, by_top)
        assert err.value.witness == ("BBRR", "BRBR", "rotate", (0, 1, 2))

    def test_initial_mass_is_class_summed(self, fix_b):
        part = coarsest_bisimulation(fix_b)
        small = quotient(fix_b, part)
        assert small.initial.sum() == pytest.approx(1.0)
        np.testing.assert_allclose(small.initial, [1.0, 0.0])


class TestQuotientLink:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(PROPERTY_KINDS),
        tol=st.sampled_from(PROPERTY_TOLS),
    )
    def test_refined_partitions_pass_with_the_dense_link(self, seed, kind, tol):
        t = property_machine(kind, seed)
        machines = [t]
        if kind in ("deck", "unifilar"):
            machines.append(build_msp(t).machine)
        for m in machines:
            part = coarsest_bisimulation(m, tol)
            q, delta_q = _quotient(m, part, tol)
            np.testing.assert_array_equal(quotient(m, part, tol).kernel, q.kernel)
            assert delta_q == dense_quotient_link(q, m, part)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(PROPERTY_KINDS))
    def test_any_partition_at_tol_two_has_the_dense_link(self, seed, kind):
        # signatures of a stochastic machine lie in [0, 1] up to rounding, so tol 2
        # passes every partition, and its link columns differ in many entries
        t = property_machine(kind, seed)
        part = Partition.from_assignment(np.random.default_rng(seed).integers(0, 3, t.n).tolist())
        q, delta_q = _quotient(t, part, 2.0)
        assert delta_q == dense_quotient_link(q, t, part)


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
