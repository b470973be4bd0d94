"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.

Criterion 5 checks that the minimal predictive machine (epsilon-machine) of
the 2-red/2-black rotate-or-shuffle deck is minimal, against a count reckoned
on the test side by path enumeration alone.  The deck starts in a known
arrangement, rotations are deterministic, a shuffle is uniform, and the output
is the top color.  All 6 arrangements become reachable as pinned beliefs (a
shuffle, then four observations), each gives a different output word under
four rotations, and the uniform belief right after a shuffle differs from all
six, so any correct predictive machine has at least 7 states; the old
expectation of fewer than the 6 source arrangements cannot hold.  The exact
count is 11: the reachable predictive beliefs are the uniform one, two
one-third sets, two one-half sets and six pinned decks (an upper bound, since
no history of length 5 reaches a new one), and their laws of the next four
outputs under rotate^4 are pairwise distinct (a lower bound).  The deck's
minimal generator (its bisimulation quotient) keeps 6 states: prediction
costs memory that generation does not.  History clustering (history depth 5,
future depth 3) must give a machine isomorphic to the belief route's.
"""

import itertools
from collections import Counter

import numpy as np

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
from vatworld.cli import run
from vatworld.core import History, Policy, make_card_deck, validate
from vatworld.epsilon import epsilon_from_histories, epsilon_transducer, is_isomorphic
from vatworld.fixtures import delay_channel, mixture_hmm, parity_flip, parity_flip_redundant
from vatworld.linalg_reduce import canonical_dimension, gt_validate_interface, reduce_generalized
from vatworld.minimize import coarsest_bisimulation, minimize_bisim
from vatworld.oracle import equivalent, sample_trajectory, word_probability
from vatworld.retro import bdmsm_forward, bdmsm_from_word, smooth
from vatworld.reverse import check_reversible, reverse_kernel

from conftest import (
    exhaustive_check_reversible,
    path_enum_future_law,
    path_enum_posterior,
    path_enum_reachable_beliefs,
    path_enum_reverse_generates,
    random_io_moore,
    random_transducer,
    random_unifilar,
)

UNIFORM = Policy.uniform()


def _report(number: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")


def _sampled_traces(t, count, max_len, seed0):
    """Positive-probability histories sampled from the machine itself."""
    traces = []
    rng = np.random.default_rng(seed0)
    for k in range(count):
        length = int(rng.integers(1, max_len + 1))
        acts, outs, _ = sample_trajectory(t, UNIFORM, length, seed=seed0 + 1000 + k)
        traces.append(History(acts, outs))
    return traces


def test_criterion_1_bisimulation_correctness():
    fb = parity_flip_redundant()
    reduced = minimize_bisim(fb, 1e-9)
    ok = reduced.n == 2 and equivalent(fb, reduced, depth=8, tol=1e-9).equivalent
    rng = np.random.default_rng(1001)
    for k in range(50):
        n = int(rng.integers(2, 6))
        n_a = int(rng.integers(1, 4))
        n_y = int(rng.integers(1, 4))
        t = random_transducer(rng, n=n, n_actions=n_a, n_outputs=n_y, name=f"acc1-{k}")
        small = minimize_bisim(t, 1e-9)
        ok = ok and equivalent(t, small, tol=1e-9).equivalent
    _report(1, ok, "bisimulation quotient preserves the interface (fixture + 50 seeded)")
    assert ok


def test_criterion_2_canonical_dimension_and_reduction():
    fa, fc = parity_flip(), mixture_hmm()
    ok = canonical_dimension(fc, 1e-9) == 2 and fc.n == 3
    gc = reduce_generalized(fc, 1e-9)
    ok = ok and gc.dims == 2
    ok = ok and equivalent(gc, fc, depth=8, tol=1e-9).equivalent
    ga = reduce_generalized(fa, 1e-9)
    ok = ok and ga.dims == 2 == fa.n
    ok = ok and gt_validate_interface(gc, depth=6, tol=1e-9).is_valid
    ok = ok and gt_validate_interface(ga, depth=6, tol=1e-9).is_valid
    _report(2, ok, "canonical dimension 2 for the mixture machine; reductions exact to depth 8")
    assert ok


def test_criterion_3_msp_faithfulness():
    ok = True
    for t in (parity_flip(), parity_flip_redundant()):
        msp = build_msp(t, 1e-9)
        ok = ok and is_unifilar(msp.machine, 1e-9)
        ok = ok and is_faithful(msp, t, tol=1e-8)
    rng = np.random.default_rng(3003)
    for k in range(20):
        t = random_unifilar(rng, n=3, name=f"acc3-{k}")
        msp = build_msp(t, 1e-9)
        ok = ok and is_unifilar(msp.machine, 1e-9)
        ok = ok and is_faithful(msp, t, tol=1e-8)
    _report(3, ok, "belief machines are unifilar and faithful, exact (tol 1e-8)")
    assert ok


def test_criterion_4_predict_update_decomposition():
    ok = True
    rng = np.random.default_rng(4004)
    for k in range(20):
        t = random_io_moore(rng, n=3, name=f"acc4-{k}")
        acts, outs, _ = sample_trajectory(t, UNIFORM, 20, seed=40_000 + k)
        b = BeliefState(t.initial)
        for step in range(20):
            a, y = acts[step], outs[step]
            d = update(t, b, y)
            b_next = predict(t, d, a)
            direct = predictive_update(t, b, a, y)
            ok = ok and float(np.abs(b_next.weights - direct.weights).sum()) <= 1e-12
            if step + 1 < 20:
                y_next = outs[step + 1]
                via_post = postdictive_update(t, d, a, y_next)
                via_split = update(t, predict(t, d, a), y_next)
                ok = ok and float(np.abs(via_post.weights - via_split.weights).sum()) <= 1e-12
            b = b_next
    _report(4, ok, "update/predict split matches one-shot updates on 20 seeded machines")
    assert ok


def test_criterion_5_epsilon_minimality_and_uniqueness():
    fa, fb, fd = parity_flip(), parity_flip_redundant(), delay_channel()
    ea = epsilon_transducer(fa, 1e-9)
    eb = epsilon_transducer(fb, 1e-9)
    ok = ea.n == 2 and eb.n == 2
    ok = ok and is_unifilar(ea.machine) and is_unifilar(eb.machine)
    ok = ok and coarsest_bisimulation(ea.machine, 1e-9).is_discrete()
    ok = ok and coarsest_bisimulation(eb.machine, 1e-9).is_discrete()
    ok = ok and is_isomorphic(ea.machine, eb.machine, 1e-9)
    for t, (hd, fdp), expect in ((fa, (4, 3), ea.n), (fb, (4, 3), eb.n), (fd, (3, 2), 2)):
        hc = epsilon_from_histories(t, hd, fdp, 1e-9)
        ok = ok and hc.stabilized and hc.n_classes == expect
    deck = make_card_deck(2, 2, "flip_shuffle")
    ed = epsilon_transducer(deck, 1e-9)
    faithful = equivalent(ed.machine, deck, depth=6, tol=1e-9).equivalent
    ok = ok and faithful
    # Pinned regression: the construction yields exactly 11 states.
    ok = ok and ed.n == 11
    # The minimum, reckoned by path enumeration alone.  Upper bound: the
    # reachable predictive beliefs, closed because no length-5 history reaches
    # a new one.  Lower bound: their laws of the next four outputs under
    # rotate^4 are pairwise distinct, so no predictive machine may merge two.
    reached = path_enum_reachable_beliefs(deck, 5)
    closed = max(len(h) for _, h in reached) < 5
    laws = [path_enum_future_law(deck, h, ("rotate",) * 4) for _, h in reached]
    distinct = all(
        float(np.abs(p - q).max()) > 1e-9 for p, q in itertools.combinations(laws, 2)
    )
    minimal = closed and distinct and ed.n == len(reached)
    # Uniqueness: history clustering reaches the same machine as belief closure.
    hc = epsilon_from_histories(deck, 5, 3, 1e-9)
    unique = (
        hc.stabilized
        and hc.n_classes == len(reached)
        and is_isomorphic(hc.machine, ed.machine, 1e-9)
    )
    # Prediction costs memory that generation does not.
    generator = minimize_bisim(deck, 1e-9)
    support = Counter(int(np.count_nonzero(b > 1e-9)) for b, _ in reached)
    _report(
        5,
        ok and minimal and unique and generator.n == 6 < ed.n,
        f"minimal predictive machines unique and faithful; the deck's has {ed.n} states, "
        f"one per reachable belief ({support[6]} uniform, {support[3]} one-third sets, "
        f"{support[2]} one-half sets, {support[1]} pinned decks), whose rotate^4 output "
        f"laws all differ; its minimal generator has {generator.n}",
    )
    assert ok, "the fixture epsilon-machines and the deck machine's faithfulness must hold"
    assert closed, "reachable beliefs of the deck did not close by length 4"
    assert distinct, "two reachable deck beliefs share their rotate^4 output law"
    assert ed.n == len(reached), (
        f"deck epsilon-machine has {ed.n} states, path enumeration gives {len(reached)}"
    )
    assert unique, "history clustering disagrees with belief closure on the deck"
    assert generator.n == 6 < ed.n, "the deck's minimal generator should be smaller"


def test_criterion_6_reversibility():
    fa, fd = parity_flip(), delay_channel()
    cyc = make_card_deck(2, 2, "cyclic")
    flip = make_card_deck(2, 2, "flip_shuffle")
    ok = True
    for t in (fa, cyc):
        fast = check_reversible(t, horizon=4, tol=1e-9)
        full = exhaustive_check_reversible(t, horizon=4, tol=1e-9)
        ok = ok and fast.reversible and fast.route == "level-span" and full.reversible
        res = path_enum_reverse_generates(t, UNIFORM, horizon=4, tol=1e-9)
        ok = ok and res.ok and res.max_deviation <= 1e-9
    for t, horizon in ((fd, 3), (flip, 3)):
        verdict = check_reversible(t, horizon=horizon, tol=1e-9)
        ok = ok and not verdict.reversible and verdict.witness is not None
        res = path_enum_reverse_generates(t, UNIFORM, horizon=2, tol=1e-9)
        ok = ok and not res.ok
    for t, tau in ((fd, 1), (flip, 2), (fa, 1)):
        rk = reverse_kernel(t, UNIFORM, tau=tau, tol=1e-9)
        sums = rk.column_sums()
        ok = ok and bool(np.all(np.abs(sums[rk.defined_mask] - 1.0) <= 1e-9))
    _report(6, ok, "reversibility verdicts, witnesses, and backward-kernel normalization")
    assert ok


def test_criterion_7_bdmsm_identities():
    fixtures = [parity_flip(), parity_flip_redundant(), mixture_hmm()]
    ok = True
    count = 0
    for idx, t in enumerate(fixtures):
        for h in _sampled_traces(t, 34, 6, seed0=7000 + idx):
            count += 1
            rho = bdmsm_from_word(t, h)
            b = BeliefState(t.initial / t.initial.sum())
            chained = bdmsm_from_word(t, History.empty())
            for a, y in zip(h.actions, h.outputs):
                b = predictive_update(t, b, a, y)
                chained = bdmsm_forward(t, chained, a, y)
            ok = ok and float(np.abs(rho.matrix.sum(axis=1) - b.weights).sum()) <= 1e-9
            start_post = path_enum_posterior(t, h, 0)
            ok = ok and float(np.abs(rho.matrix.sum(axis=0) - start_post).sum()) <= 1e-9
            ok = ok and float(np.abs(chained.matrix - rho.matrix).max()) <= 1e-12
            for tau, belief in enumerate(smooth(t, h)):
                expect = path_enum_posterior(t, h, tau)
                ok = ok and float(np.abs(belief - expect).sum()) <= 1e-9
    _report(7, ok, f"joint-posterior identities on {count} seeded traces")
    assert ok and count >= 100


def test_criterion_8_oracle_soundness():
    fixtures = [parity_flip(), parity_flip_redundant(), mixture_hmm(), delay_channel()]
    ok = True
    depth = 6
    for t in fixtures:
        for acts in itertools.product(t.actions.symbols, repeat=depth):
            total = sum(
                word_probability(t, History(acts, outs))
                for outs in itertools.product(t.outputs.symbols, repeat=depth)
            )
            ok = ok and abs(total - 1.0) <= depth * 1e-10
        for ell in (1, 2, 3):
            for acts in itertools.product(t.actions.symbols, repeat=ell):
                for outs in itertools.product(t.outputs.symbols, repeat=ell):
                    h = History(acts, outs)
                    p = word_probability(t, h)
                    for a in t.actions.symbols:
                        for y in t.outputs.symbols:
                            ok = ok and word_probability(t, h.extended(a, y)) <= p + 1e-12

    fc = mixture_hmm()
    n_samples = 100_000
    length = 4
    counts = {}
    for seed in range(n_samples):
        _, outs, _ = sample_trajectory(fc, UNIFORM, length, seed=seed)
        counts[outs] = counts.get(outs, 0) + 1
    for outs in itertools.product(fc.outputs.symbols, repeat=length):
        p = word_probability(fc, History(("0",) * length, outs))
        freq = counts.get(outs, 0) / n_samples
        sigma = np.sqrt(max(p * (1 - p), 1e-12) / n_samples)
        ok = ok and abs(freq - p) <= 3 * sigma
    _report(8, ok, "normalization, prefix monotonicity, and sampler agreement at 1e5 draws")
    assert ok


def test_criterion_9_cli_round_trip_and_determinism(tmp_path):
    ok = True
    machines = {
        "fixA": parity_flip(),
        "fixB": parity_flip_redundant(),
        "fixC": mixture_hmm(),
        "fixD": delay_channel(),
        "deckF": make_card_deck(2, 2, "flip_shuffle"),
        "deckC": make_card_deck(2, 2, "cyclic"),
    }
    paths = {}
    for key, t in machines.items():
        p = tmp_path / f"{key}.json"
        vio.save_transducer(t, p)
        first = p.read_bytes()
        vio.save_transducer(vio.load_transducer(p), p)
        ok = ok and p.read_bytes() == first
        paths[key] = str(p)

    argv = ["sample", paths["fixC"], "--length", "30", "--seed", "9"]
    code1, rep1 = run(argv)
    code2, rep2 = run(argv)
    ok = ok and code1 == code2 == 0 and rep1.verdicts == rep2.verdicts

    code, _ = run(["equivalent", paths["fixA"], paths["fixB"], "--depth", "8"])
    ok = ok and code == 0
    code, rep = run(["reverse", paths["fixD"], "--horizon", "3"])
    ok = ok and code == 1 and any(v["name"] == "witness" for v in rep.verdicts)
    bad = tmp_path / "malformed.json"
    bad.write_text("{definitely not json")
    code, _ = run(["validate", str(bad)])
    ok = ok and code == 2
    _report(9, ok, "byte-identical round trips, deterministic reports, exit-code contract")
    assert ok
