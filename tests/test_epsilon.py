"""Minimal predictive machines: belief route, history route, and isomorphism."""

import itertools
import math
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vatworld.beliefs import BeliefTransducer, _belief_link, build_msp, is_unifilar
from vatworld.core import DEFAULT_TOL, Alphabet, Transducer, make_card_deck
from vatworld.epsilon import (
    canonical_form,
    check_predictive,
    epsilon_from_histories,
    epsilon_transducer,
    is_isomorphic,
)
from vatworld.errors import BudgetExceededError, MspClosureError, StructureError
from vatworld.minimize import _quotient, coarsest_bisimulation, minimize_bisim
from vatworld.oracle import equivalent, forward_vector

from conftest import (
    PROPERTY_KINDS,
    PROPERTY_TOLS,
    delayed_machine,
    property_machine,
    random_io_moore,
    random_permutation_machine,
    random_rare_machine,
    random_transducer,
    random_unifilar,
    scan_epsilon_from_histories,
    walk_check_predictive,
)

CLUSTERING_KINDS = [
    random_transducer,
    random_unifilar,
    random_io_moore,
    random_permutation_machine,
    random_rare_machine,
]


def clustering_outcome(fn, t, hist_depth, future_depth, tol):
    """The clustering, or the budget refusal it raised."""
    try:
        return fn(t, hist_depth, future_depth, tol)
    except BudgetExceededError as err:
        return err


def assert_same_clustering(got, ref):
    """Same classes, flag and state count; kernel entries within 1e-15."""
    assert got.classes == ref.classes
    assert got.stabilized == ref.stabilized
    assert got.machine.n == ref.machine.n
    assert np.array_equal(got.machine.initial, ref.machine.initial)
    assert np.max(np.abs(got.machine.kernel - ref.machine.kernel)) <= 1e-15


def rounding_tie(t, clustering, tol) -> bool:
    """Whether a decision of the clustering rests on the last bits of a signature.

    Histories whose normalised forward vectors differ get signatures whose
    rounding depends on how they are computed (a future walk per history, or
    one future matrix).  A decision is exposed to it when such a pair, a
    history of length below hist_depth being one of them, lies within 1e-12
    of tol, or when a deepest history has representatives of different
    vectors within 1e-12 of its nearest one.  Every signature of a machine
    with one output is 1, so at tol 0 or nan its classes always are.
    """
    histories = [h for members in clustering.classes for h in members]
    n_outputs = len(t.outputs)
    words = [
        word
        for length in range(1, clustering.future_depth + 1)
        for word in itertools.product(range(len(t.actions) * n_outputs), repeat=length)
    ]
    if not words:
        return False
    rows = []
    for word in words:
        row = np.ones(t.n)
        for x in reversed(word):
            row = row @ t.kernel[divmod(x, n_outputs)]
        rows.append(row)
    b = np.array([forward_vector(t, h) for h in histories])
    b /= b.sum(axis=1, keepdims=True)
    sigs = b @ np.array(rows).T
    dist = np.column_stack([np.abs(sigs - row).max(axis=1) for row in sigs])
    differ = np.column_stack([np.any(b != row, axis=1) for row in b])
    shallow = [r for r, h in enumerate(histories) if len(h) < clustering.hist_depth]
    if np.any((differ & (np.abs(dist - tol) <= 1e-12))[:, shallow]):
        return True
    reps = [histories.index(members[0]) for members in clustering.classes]
    for r, h in enumerate(histories):
        if len(h) == clustering.hist_depth:
            near = dist[r, reps] <= dist[r, reps].min() + 1e-12
            if len({b[q].tobytes() for q in np.array(reps)[near]}) > 1:
                return True
    return False


def chain_machine() -> Transducer:
    """One action; the state counts outputs up to two, then stays.

    The next output is "0" with probability 0.5, 0.65 and 0.59 after none,
    one and two or more outputs, so at tol 0.1 the histories of length two
    lie within tol of both representatives and nearest to the second.
    """
    kernel = np.zeros((1, 2, 3, 3))
    for j, p0 in enumerate((0.5, 0.65, 0.59)):
        kernel[0, 0, min(j + 1, 2), j] = p0
        kernel[0, 1, min(j + 1, 2), j] = 1.0 - p0
    states = ["s0", "s1", "s2"]
    return Transducer("chain", states, Alphabet(["a"]), Alphabet(["0", "1"]), kernel, [1, 0, 0])


def rounding_allowance(t: Transducer, eps) -> float:
    """The certificate's rounding allowance: 8 (n + k) machine epsilons."""
    return 8 * (t.n + eps.provenance["belief_states"]) * float(np.finfo(float).eps)


def perturbed_build(part: str, delta: float):
    """build_msp, with the last belief's first weight or the belief machine's
    largest kernel entry raised by delta, carrying the link of what it returns."""

    def build(t, tol, *args):
        msp = build_msp(t, tol, *args)
        machine, beliefs = msp.machine, msp.beliefs
        if part == "payload":
            beliefs = beliefs.copy()
            beliefs[-1, 0] += delta
        else:
            kernel = machine.kernel.copy()
            kernel.flat[np.argmax(kernel)] += delta
            m = machine
            machine = Transducer(m.name, m.states, m.actions, m.outputs, kernel, m.initial)
        return BeliefTransducer(machine, beliefs, *_belief_link(t.kernel, beliefs.T, machine.kernel, tol))

    return build


# Property builds whose result a second refinement would still split: tol
# near-ties at 1e-3, rounding at 1e-12 and 0.
NEAR_TIE_BUILDS = [
    ("dense", 24, 1e-3),
    ("dense", 29, 1e-3),
    ("dense", 30, 1e-3),
    ("dense", 60, 1e-3),
    ("io-moore", 24, 1e-3),
    ("io-moore", 30, 1e-3),
    ("io-moore", 142, 1e-12),
    ("permutation", 75, 0.0),
]


class TestEpsilonTransducer:
    def test_redundant_split_collapses(self, fix_a, fix_b):
        eps = epsilon_transducer(fix_b)
        assert eps.n == 2
        assert equivalent(eps.machine, fix_a, depth=8).equivalent

    def test_parity_flip_already_minimal(self, fix_a):
        eps = epsilon_transducer(fix_a)
        assert eps.n == 2
        assert is_isomorphic(eps.machine, fix_a)

    def test_flip_shuffle_deck_predictive_machine(self):
        # Pinned regression: the exact minimal predictive machine for the
        # 2R2B rotate/shuffle deck tracks the sequence of colors seen since
        # the last shuffle, and needs 11 belief states: the uniform prior,
        # two one-third sets, two half sets, and six fully pinned decks.
        deck = make_card_deck(2, 2, "flip_shuffle")
        eps = epsilon_transducer(deck)
        assert eps.n == 11
        assert equivalent(eps.machine, deck, depth=6, tol=1e-9).equivalent

    @pytest.mark.parametrize(
        "t, calls",
        [(make_card_deck(2, 2, "flip_shuffle"), 0), (property_machine("unifilar", 3), 1)],
        ids=["discrete-deck", "two-beliefs-merge"],
    )
    def test_unifilarity_is_checked_only_after_a_merge(self, t, calls):
        # a discrete partition leaves the belief machine, unifilar by construction
        with mock.patch("vatworld.epsilon.is_unifilar", wraps=is_unifilar) as check:
            eps = epsilon_transducer(t)
        assert check.call_count == calls
        assert eps.n == coarsest_bisimulation(build_msp(t).machine).n_classes
        assert is_unifilar(eps.machine)

    def test_construction_invariants(self, fix_a, fix_b):
        for t in (fix_a, fix_b):
            eps = epsilon_transducer(t)
            assert is_unifilar(eps.machine)
            assert coarsest_bisimulation(eps.machine).is_discrete()
            assert eps.provenance["route"] == "belief-closure+bisimulation"

    def test_uniqueness_up_to_isomorphism(self, fix_a, fix_b):
        ea = epsilon_transducer(fix_a)
        eb = epsilon_transducer(fix_b)
        assert ea.n == eb.n == 2
        assert is_isomorphic(ea.machine, eb.machine)

    def test_minimality_among_predictive_presentations(self, fix_a, fix_b):
        # bisimulation fully reduces any unifilar faithful presentation to
        # the same state count as the minimal predictive machine
        for t in (fix_a, fix_b):
            eps = epsilon_transducer(t)
            msp = build_msp(t)
            assert minimize_bisim(msp.machine).n == eps.n
        rng = np.random.default_rng(14)
        for k in range(10):
            t = random_unifilar(rng, n=3, name=f"u{k}")
            eps = epsilon_transducer(t)
            msp = build_msp(t)
            assert minimize_bisim(msp.machine).n == eps.n


class TestFaithfulnessCertificate:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(PROPERTY_KINDS),
        tol=st.sampled_from(PROPERTY_TOLS),
    )
    def test_every_build_is_certified(self, seed, kind, tol):
        t = property_machine(kind, seed)
        try:
            eps = epsilon_transducer(t, tol, max_states=200)
        except MspClosureError:
            return
        assert eps.provenance["faithfulness_residual"] <= 3 * tol + rounding_allowance(t, eps)
        if tol <= 1e-9:
            assert equivalent(eps.machine, t, tol=1e-8).equivalent

    @pytest.mark.parametrize("tol", PROPERTY_TOLS)
    @pytest.mark.parametrize("part", ["payload", "kernel"])
    @pytest.mark.parametrize("kind, seed", [("deck", 8), ("unifilar", 1), ("unifilar", 4)])
    def test_perturbed_belief_machine_is_refused(self, kind, seed, part, tol):
        t = property_machine(kind, seed)
        assert epsilon_transducer(t, tol).n >= 2
        build = perturbed_build(part, 10 * max(tol, 1e-9))
        with mock.patch("vatworld.epsilon.build_msp", build):
            with pytest.raises(RuntimeError, match="not certified faithful"):
                epsilon_transducer(t, tol)

    @pytest.mark.parametrize("kind, seed, tol", NEAR_TIE_BUILDS)
    def test_builds_a_second_refinement_would_split_are_faithful(self, kind, seed, tol):
        t = property_machine(kind, seed)
        eps = epsilon_transducer(t, tol)
        assert not coarsest_bisimulation(eps.machine, tol).is_discrete()
        assert eps.provenance["faithfulness_residual"] <= 3 * tol + rounding_allowance(t, eps)
        assert equivalent(eps.machine, t, 2 * t.n, max(tol, 1e-8)).equivalent
        assert equivalent(eps.machine, t, tol=max(tol, 1e-8)).equivalent

    @pytest.mark.parametrize("kind, seed", [("deck", 8), ("unifilar", 1), ("dense", 3)])
    def test_the_belief_link_is_computed_once(self, kind, seed):
        t = property_machine(kind, seed)
        with mock.patch("vatworld.beliefs._belief_link", wraps=_belief_link) as link:
            eps = epsilon_transducer(t)
        assert link.call_count == 1
        msp = build_msp(t)
        delta_q = _quotient(msp.machine, coarsest_bisimulation(msp.machine), DEFAULT_TOL)[1]
        assert eps.provenance["faithfulness_residual"] == msp.link_residual + delta_q

    def test_provenance_reports_the_residual_not_a_depth(self, fix_b):
        eps = epsilon_transducer(fix_b)
        assert "checked_depth" not in eps.provenance
        assert 0.0 <= eps.provenance["faithfulness_residual"] <= rounding_allowance(fix_b, eps)


class TestEpsilonFromHistories:
    def test_parity_flip_two_classes(self, fix_a):
        hc = epsilon_from_histories(fix_a, hist_depth=4, future_depth=3)
        assert hc.n_classes == 2
        assert hc.stabilized
        assert is_isomorphic(hc.machine, fix_a)

    def test_redundant_split_matches_belief_route(self, fix_b):
        hc = epsilon_from_histories(fix_b, hist_depth=4, future_depth=3)
        eps = epsilon_transducer(fix_b)
        assert hc.n_classes == eps.n == 2
        assert hc.stabilized
        assert is_isomorphic(hc.machine, eps.machine)

    def test_delay_channel_last_action_rules(self, fix_d):
        hc = epsilon_from_histories(fix_d, hist_depth=3, future_depth=2)
        assert hc.n_classes == 2
        assert hc.stabilized
        assert equivalent(hc.machine, fix_d, depth=5).equivalent

    def test_induced_machine_is_valid_and_faithful(self, fix_a, fix_b, fix_d):
        from vatworld.core import validate

        for t, (hd, fd) in (
            (fix_a, (4, 3)),
            (fix_b, (4, 3)),
            (fix_d, (3, 2)),
        ):
            hc = epsilon_from_histories(t, hd, fd)
            assert validate(hc.machine).is_valid
            assert equivalent(hc.machine, t, depth=5, tol=1e-9).equivalent

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(CLUSTERING_KINDS),
        n=st.integers(1, 5),
        n_a=st.integers(1, 3),
        n_y=st.integers(1, 3),
        hist_depth=st.integers(1, 4),
        future_depth=st.integers(0, 3),
        tol=st.sampled_from([0.0, 1e-12, 1e-9, 1e-3, math.nan]),
    )
    def test_same_clustering_as_the_scan(
        self, seed, kind, n, n_a, n_y, hist_depth, future_depth, tol
    ):
        # A budget of 5000 words keeps the scan's per-history future walks
        # small; inputs over it must be refused alike.
        rng = np.random.default_rng(seed)
        t = kind(rng, n=n, n_actions=n_a, n_outputs=n_y)
        with mock.patch.dict(os.environ, {"VATWORLD_BUDGET": "5000"}):
            ref = clustering_outcome(scan_epsilon_from_histories, t, hist_depth, future_depth, tol)
            got = clustering_outcome(epsilon_from_histories, t, hist_depth, future_depth, tol)
        if isinstance(ref, BudgetExceededError):
            assert type(got) is type(ref) and str(got) == str(ref)
        elif not rounding_tie(t, ref, tol):
            assert_same_clustering(got, ref)

    def test_zero_width_signatures_merge_nothing_at_a_nan_tol(self):
        # future_depth 0 leaves every signature empty; "all of no entries is
        # within tol" must not merge histories when no distance is within tol
        t = random_transducer(np.random.default_rng(0), n=1, n_actions=1, n_outputs=1)
        got = epsilon_from_histories(t, hist_depth=2, future_depth=0, tol=math.nan)
        assert_same_clustering(got, scan_epsilon_from_histories(t, 2, 0, math.nan))
        assert [len(members) for members in got.classes] == [2, 1]

    def test_deepest_history_joins_the_nearest_representative(self):
        t = chain_machine()
        hc = epsilon_from_histories(t, hist_depth=2, future_depth=1, tol=0.1)
        ref = scan_epsilon_from_histories(t, 2, 1, 0.1)
        assert_same_clustering(hc, ref)
        assert [len(members) for members in hc.classes] == [1, 6]
        assert hc.stabilized
        # the first representative is within tol too, but farther
        assert [len(h) for h in hc.classes[1]] == [1, 1, 2, 2, 2, 2]

    @pytest.mark.parametrize(
        "cap, words",
        [
            ("100", "~256"),  # the 4**4 history words
            ("300", "~1.98e+03"),  # the 31 positive histories times 4**3 futures
        ],
    )
    def test_budget_refusals_are_the_scans(self, fix_a, monkeypatch, cap, words):
        monkeypatch.setenv("VATWORLD_BUDGET", cap)
        with pytest.raises(BudgetExceededError) as ref:
            scan_epsilon_from_histories(fix_a, 4, 3, 1e-9)
        with pytest.raises(BudgetExceededError) as got:
            epsilon_from_histories(fix_a, 4, 3, 1e-9)
        assert str(got.value) == str(ref.value)
        assert str(got.value).startswith(f"history clustering would visit {words} words")


class TestCheckPredictive:
    def test_epsilon_machine_is_predictive(self, fix_b):
        eps = epsilon_transducer(fix_b)
        assert check_predictive(eps.machine, fix_b)

    def test_nondeterministic_split_is_not(self, fix_b):
        # action 1 from the start reaches two states under one history
        assert not check_predictive(fix_b, fix_b)

    def test_other_minimal_presentation_is_predictive(self, fix_a, fix_b):
        assert check_predictive(fix_a, fix_b)

    def test_unfaithful_candidate_rejected(self, fix_a, fix_d):
        assert not check_predictive(fix_d, fix_a)

    def test_fan_past_depth_six_is_found(self):
        # the candidate's state splits on the eighth letter
        split, line = delayed_machine(8, split=True), delayed_machine(8)
        assert walk_check_predictive(split, line, depth=6)
        assert not check_predictive(split, line)
        assert check_predictive(line, split)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(PROPERTY_KINDS),
        tol=st.sampled_from(PROPERTY_TOLS),
    )
    def test_exact_verdict_implies_the_depth_six_walk(self, seed, kind, tol):
        # The walk visits a prefix of the exact check's words and a subset of
        # its reachable states, so it can only accept more.
        t = property_machine(kind, seed)
        candidates = [t]
        try:
            candidates.append(epsilon_transducer(t, tol, max_states=200).machine)
        except MspClosureError:
            pass
        for c in candidates:
            if check_predictive(c, t, tol):
                assert walk_check_predictive(c, t, 6, tol)

    def test_charges_no_budget(self, fix_b, monkeypatch):
        eps = epsilon_transducer(fix_b)
        monkeypatch.setenv("VATWORLD_BUDGET", "1")
        with pytest.raises(BudgetExceededError):
            walk_check_predictive(eps.machine, fix_b, depth=6)
        assert check_predictive(eps.machine, fix_b)
        assert not check_predictive(fix_b, fix_b)


class TestCanonicalForm:
    def test_requires_unifilar_and_deterministic_start(self, fix_b):
        with pytest.raises(StructureError):
            canonical_form(fix_b)

    def test_scrambled_copy_is_isomorphic(self, fix_a):
        from vatworld.core import Transducer

        perm = [1, 0]
        kern = fix_a.kernel[:, :, perm][:, :, :, perm]
        scrambled = Transducer(
            "scrambled",
            ["x1", "x0"],
            fix_a.actions,
            fix_a.outputs,
            kern,
            fix_a.initial[perm],
        )
        assert is_isomorphic(scrambled, fix_a)

    def test_different_machines_are_not(self, fix_a, fix_d):
        assert not is_isomorphic(fix_a, fix_d)
