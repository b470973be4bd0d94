"""The benchmark's workloads: seeded input files plus the vatworld commands to run.

Each workload function writes its inputs under a work directory and returns
the job list.  A job is one ``vatworld`` command line and a check of its
output that relies only on facts no algorithm change may alter: agreement of
derived machines with their source under the brute-force oracle at a small
depth, sizes that follow from how a machine was built, and posteriors
recomputed by the benchmark's own scaled forward-backward pass.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from vatworld.core import History, Transducer
from vatworld.io import load_generalized, load_transducer, transducer_from_doc
from vatworld.oracle import word_probability

import machines as mk

# Smallest positive normal double; a probability below it cannot be returned
# at full precision, so only "> 0" is demanded of it.
_DBL_MIN_LOG = math.log(2.2250738585072014e-308)
_AGREE_WORDS = 400  # words per agreement check, all lengths together
_AGREE_TOL = 1e-8
_POSTERIOR_TOL = 1e-6


class Failed(Exception):
    """The job gave no usable answer: a refusal, or a value out of range."""


class Wrong(Exception):
    """The job's answer contradicts a fact the benchmark knows."""


@dataclass
class Job:
    command: str
    argv: list
    states: int
    alphabet: int
    length: int = 0
    check: Optional[Callable[[int, dict], None]] = None
    chain: str = ""  # jobs of one chain share inputs and keep their order

    @property
    def size(self) -> tuple:
        return (self.states * self.alphabet, self.length)


def verdicts(report: dict) -> dict:
    out = {}
    for v in report.get("verdicts", []):
        out.setdefault(v["name"], v["value"])
    return out


def _transducer(m: mk.Machine) -> Transducer:
    return Transducer(m.name, m.states, m.actions, m.outputs, m.kernel, m.initial)


def _agree_depth(alphabet: int) -> int:
    depth, words = 0, 0
    while words + alphabet ** (depth + 1) <= _AGREE_WORDS:
        depth += 1
        words += alphabet**depth
    return max(depth, 2)


class Reference:
    """A source machine and its probabilities of every short word.

    The probabilities are computed on first use and kept: a job's check
    runs after each of the job's runs, against the same source.  Only the
    numbers are kept, so the benchmark's memory stays small beside the
    program's.
    """

    def __init__(self, m: mk.Machine):
        self.machine = _transducer(m)
        self._probabilities = None

    def histories(self):
        acts, outs = self.machine.actions.symbols, self.machine.outputs.symbols
        for d in range(1, _agree_depth(len(acts) * len(outs)) + 1):
            for a_word in itertools.product(acts, repeat=d):
                for y_word in itertools.product(outs, repeat=d):
                    yield History(a_word, y_word)

    def probabilities(self) -> list:
        if self._probabilities is None:
            self._probabilities = [word_probability(self.machine, h) for h in self.histories()]
        return self._probabilities


def agrees(src: Reference, other, what: str) -> None:
    """Raise Wrong unless ``other`` gives every short word the source's probability."""
    for h, p in zip(src.histories(), src.probabilities()):
        q = word_probability(other, h)
        if abs(p - q) > _AGREE_TOL:
            raise Wrong(f"{what} gives {q!r} for {h}, source gives {p!r}")


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise Wrong(message)


# ---------------------------------------------------------------------------
# Checks shared by the workloads
# ---------------------------------------------------------------------------


def _check_machine_out(src: Reference, path: str, key: str, size: int, what: str, exact: bool = False):
    """The written machine matches the report, has ``size`` states (at most, or
    exactly), and agrees with the source on short words."""

    def check(code, report):
        reported = verdicts(report)[key]
        out = load_transducer(path)
        _require(reported == out.n, f"{what}: reports {reported} states, file has {out.n}")
        fits = out.n == size if exact else out.n <= size
        _require(fits, f"{what}: {out.n} states, expected {'' if exact else 'at most '}{size}")
        agrees(src, out, what)

    return check


def _check_valid(code, report):
    _require(verdicts(report)["valid"] is True, "validate: a valid machine was rejected")


def _check_info(m: mk.Machine):
    def check(code, report):
        v = verdicts(report)
        _require(v["states"] == m.n, f"info: {v['states']} states, expected {m.n}")
        _require(v["unifilar"] == mk.is_unifilar(m), "info: wrong unifilarity verdict")

    return check


def _check_equivalent(code, report):
    _require(verdicts(report)["equivalent"] is True, "equivalent: source and quotient differ")


def _check_dimension(m: mk.Machine):
    def check(code, report):
        d = verdicts(report)["canonical_dimension"]
        _require(1 <= d <= m.reduced_max, f"dimension: {d} outside 1..{m.reduced_max}")

    return check


def _check_reduced(src: Reference, m: mk.Machine, path: str):
    def check(code, report):
        g = load_generalized(path)
        _require(verdicts(report)["dims_after"] == g.dims, "reduce-gt: report and file disagree")
        _require(g.dims <= m.reduced_max, f"reduce-gt: {g.dims} dims, at most {m.reduced_max}")
        agrees(src, g, "reduce-gt")

    return check


def _check_reverse(m: mk.Machine, prefix: str, horizon: int):
    def check(code, report):
        reversible = verdicts(report)["reversible"]
        if mk.is_action_counifilar(m):
            _require(reversible is True, "reverse: an action-counifilar machine is reversible")
        if not reversible:
            return
        for tau in range(horizon):
            with open(f"{prefix}.tau{tau}.json", encoding="utf-8") as fh:
                doc = json.load(fh)
            mass: dict = {}
            for rec in doc["kernel"]:
                _require(rec["prob"] >= 0.0, "reverse: negative backward probability")
                key = (rec["action"], rec["from"])
                mass[key] = mass.get(key, 0.0) + rec["prob"]
            for action, states in doc["defined"].items():
                for s in states:
                    total = mass.get((action, s), 0.0)
                    _require(abs(total - 1.0) <= 1e-8, f"reverse: column mass {total} at tau {tau}")

    return check


def _check_histories(m: mk.Machine, path: str):
    def check(code, report):
        out = load_transducer(path)
        _require(verdicts(report)["states"] == out.n, "epsilon: report and file disagree")
        mass = out.kernel.sum(axis=(1, 2))  # [a, class]
        _require(bool(np.all(np.abs(mass - 1.0) <= 1e-6)), "epsilon: class columns are not laws")

    return check


# ---------------------------------------------------------------------------
# structure-mix
# ---------------------------------------------------------------------------

# (family, actions, outputs, states, planted bisimilar copies)
MIX_PLAN = (
    ("dense", 1, 3, 4, 1),
    ("dense", 1, 3, 6, 2),
    ("dense", 1, 3, 6, 1),
    ("dense", 2, 2, 4, 1),
    ("dense", 2, 2, 5, 1),
    ("dense", 2, 2, 6, 2),
    ("dense", 2, 2, 8, 2),
    ("dense", 3, 2, 3, 0),
    ("dense", 3, 2, 4, 1),
    ("dense", 3, 2, 5, 1),
    ("unifilar", 1, 3, 5, 0),
    ("unifilar", 2, 2, 5, 0),
    ("unifilar", 3, 2, 3, 0),
    ("io-moore", 1, 3, 5, 0),
    ("io-moore", 2, 2, 5, 0),
    ("io-moore", 3, 2, 3, 0),
    ("io-moore", 1, 3, 8, 0),
    ("permutation", 1, 3, 5, 0),
    ("permutation", 2, 2, 5, 0),
    ("permutation", 3, 2, 3, 0),
)
# (reds, blacks, variant); the seed decides which colour is which.
MIX_DECKS = ((1, 2, "flip_shuffle"), (1, 3, "cyclic"), (2, 2, "flip_shuffle"), (3, 3, "cyclic"))
REVERSE_HORIZON = 4


def _oriented_deck(rng, reds, blacks, variant):
    if reds != blacks and rng.random() < 0.5:
        reds, blacks = blacks, reds
    return mk.shuffled_states(mk.card_deck(reds, blacks, variant), rng)


def mix_machines(seed: int) -> list:
    rng = np.random.default_rng([seed, 1])
    out = []
    for family, n_a, n_y, n, copies in MIX_PLAN:
        name = f"{family}-{n_a}x{n_y}-{n}"
        if family == "dense":
            out.append(mk.dense_with_copies(rng, n - copies, copies, n_a, n_y, f"{name}c{copies}"))
        elif family == "unifilar":
            out.append(mk.unifilar(rng, n, n_a, n_y, name))
        elif family == "io-moore":
            out.append(mk.io_moore(rng, n, n_a, n_y, name))
        else:
            out.append(mk.permutation(rng, n, n_a, n_y, name))
    out.extend(mk.fixtures())
    out.extend(_oriented_deck(rng, *spec) for spec in MIX_DECKS)
    return out


def structure_mix(seed: int, work: str) -> list:
    jobs = []
    for m in mix_machines(seed):
        base = os.path.join(work, m.name)
        path = base + ".json"
        mk.write_json(path, m.doc())
        src = Reference(m)
        quotient = base + ".min.json"
        reduced = base + ".gt.json"
        job = functools.partial(Job, states=m.n, alphabet=m.alphabet, chain=m.name)
        jobs += [
            job("validate", ["validate", path], check=_check_valid),
            job("info", ["info", path], check=_check_info(m)),
            job(
                "minimize",
                ["minimize", path, "--out", quotient],
                check=_check_machine_out(src, quotient, "states_after", m.reduced_max, "minimize"),
            ),
            job("equivalent", ["equivalent", path, quotient], check=_check_equivalent),
            job("dimension", ["dimension", path], check=_check_dimension(m)),
            job(
                "reduce-gt",
                ["reduce-gt", path, "--both-sides", "--out", reduced],
                check=_check_reduced(src, m, reduced),
            ),
            job(
                "reverse",
                ["reverse", path, "--horizon", str(REVERSE_HORIZON), "--out", base + ".rev"],
                check=_check_reverse(m, base + ".rev", REVERSE_HORIZON),
            ),
        ]
        if m.family == "unifilar":
            eps = base + ".eps.json"
            jobs.append(
                job(
                    "epsilon",
                    ["epsilon", path, "--out", eps],
                    check=_check_machine_out(src, eps, "states", m.n, "epsilon"),
                )
            )
        if m.family == "fixture":
            hist = base + ".hist.json"
            jobs.append(
                job(
                    "epsilon",
                    ["epsilon", path, "--from-histories", "--out", hist],
                    check=_check_histories(m, hist),
                )
            )
    return jobs


# ---------------------------------------------------------------------------
# deck-scale
# ---------------------------------------------------------------------------

DECK_CARDS = 8
EPSILON_MAX_STATES = 20  # flip-shuffle decks up to this size also run epsilon
EPSILON_LARGE = (4, 4)  # and this one, the large case


def _epsilon_size(reds: int, blacks: int, variant: str) -> int:
    """States of the minimal predictive machine of a deck started in a known order."""
    if variant == "cyclic":
        return reds + blacks
    return 2 * math.comb(reds + blacks, reds) - 1


def _check_msp(src: Reference, path: str):
    def check(code, report):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        machine = transducer_from_doc(doc)
        _require(verdicts(report)["belief_states"] == machine.n, "msp: report and file disagree")
        for weights in doc["state_payloads"].values():
            w = np.asarray(weights)
            _require(bool(np.all(w >= -1e-12)) and abs(w.sum() - 1.0) <= 1e-8, "msp: payload is not a law")
        agrees(src, machine, "msp")

    return check


def deck_scale(seed: int, work: str) -> list:
    rng = np.random.default_rng([seed, 2])
    # Colour-swapped decks have the same structure; the seed picks which
    # side of each pair also runs epsilon.
    eps_side = set()
    for cards in range(2, DECK_CARDS + 1):
        for reds in range(1, cards // 2 + 1):
            blacks = cards - reds
            eps_side.add((blacks, reds) if rng.random() < 0.5 else (reds, blacks))
    jobs = []
    for cards in range(2, DECK_CARDS + 1):
        for reds in range(1, cards):
            blacks = cards - reds
            for variant in ("flip_shuffle", "cyclic"):
                m = mk.shuffled_states(mk.card_deck(reds, blacks, variant), rng)
                base = os.path.join(work, m.name)
                path = base + ".json"
                mk.write_json(path, m.doc())
                src = Reference(m)
                eps_n = _epsilon_size(reds, blacks, variant)
                belief, quotient, eps = base + ".msp.json", base + ".msp-min.json", base + ".eps.json"
                job = functools.partial(Job, states=m.n, alphabet=m.alphabet, chain=m.name)
                jobs += [
                    job("msp", ["msp", path, "--out", belief], check=_check_msp(src, belief)),
                    job(
                        "minimize",
                        ["minimize", belief, "--out", quotient],
                        states=eps_n,  # the belief machine is as large as the epsilon-machine
                        check=_check_machine_out(src, quotient, "states_after", eps_n, "minimize", exact=True),
                    ),
                ]
                small = variant == "cyclic" or m.n <= EPSILON_MAX_STATES
                large = variant == "flip_shuffle" and (reds, blacks) == EPSILON_LARGE
                if (reds, blacks) in eps_side and small or large:
                    jobs.append(
                        job(
                            "epsilon",
                            ["epsilon", path, "--out", eps],
                            check=_check_machine_out(src, eps, "states", eps_n, "epsilon", exact=True),
                        )
                    )
    return jobs


# ---------------------------------------------------------------------------
# trace-inference
# ---------------------------------------------------------------------------

TRACE_LENGTHS = (32, 64, 128, 256, 512, 1024)
LONG_TRACE = 1500  # past the ~1100 steps where unscaled products underflow


def trace_machines(seed: int) -> list:
    """(machine, runs the long trace) pairs.

    parity-flip and delay-channel give every trace probability 1, so a long
    trace there adds smoothing time but tests nothing the 1024-step one does
    not; the other four carry output uncertainty at every step, and their
    1500-step traces all fall below the smallest double.
    """
    rng = np.random.default_rng([seed, 3])
    fixed = {m.name: m for m in mk.fixtures()}
    return [
        (fixed["mixture-hmm"], True),
        (fixed["parity-flip"], False),
        (fixed["delay-channel"], False),
        (mk.shuffled_states(mk.card_deck(2, 2, "flip_shuffle"), rng), True),
        (mk.shuffled_states(mk.card_deck(3, 3, "flip_shuffle"), rng), True),
        # Emissions kept inside [0.25, 0.75]: every step carries output
        # uncertainty, so the long trace is certain to pass the underflow point.
        (mk.io_moore(rng, 8, 2, 2, "io-moore-2x2-8", emission_range=(0.25, 0.75)), True),
    ]


def _check_sample(m: mk.Machine, length: int):
    def check(code, report):
        v = verdicts(report)
        acts, outs, states = v["actions"], v["outputs"], v["states"]
        _require(len(acts) == len(outs) == length and len(states) == length + 1, "sample: wrong length")
        s = m.states.index(states[0])
        _require(m.initial[s] > 0.0, "sample: starts in a state of no initial mass")
        for a, y, nxt in zip(acts, outs, states[1:]):
            i = m.states.index(nxt)
            _require(m.kernel[m.actions.index(a), m.outputs.index(y), i, s] > 0.0, "sample: impossible step")
            s = i

    return check


def _check_prob(ref_log_p: float):
    def check(code, report):
        p = verdicts(report)["word_probability"]
        if p <= 0.0:
            raise Failed(f"prob: {p!r} for a sampled trace of log-probability {ref_log_p:.1f}")
        if ref_log_p > _DBL_MIN_LOG:
            _require(abs(math.log(p) - ref_log_p) <= 1e-6, f"prob: {p!r}, expected exp({ref_log_p})")

    return check


def _check_smooth(post: np.ndarray):
    def check(code, report):
        v = verdicts(report)
        got = np.asarray(v["posteriors"], dtype=float)
        _require(got.shape == post.shape, f"smooth: shape {got.shape}, expected {post.shape}")
        _require(bool(np.all(got >= -1e-9)), "smooth: negative posterior")
        _require(bool(np.all(np.abs(got.sum(axis=1) - 1.0) <= _POSTERIOR_TOL)), "smooth: slice sum is not 1")
        err = float(np.max(np.abs(got - post)))
        _require(err <= _POSTERIOR_TOL, f"smooth: off the reference posterior by {err:.3g}")
        rho = np.asarray(v["final_bdmsm"], dtype=float)
        _require(bool(np.all(rho >= -1e-9)) and abs(rho.sum() - 1.0) <= _POSTERIOR_TOL, "smooth: bdmsm is not a law")
        _require(float(np.max(np.abs(rho.sum(axis=1) - post[-1]))) <= _POSTERIOR_TOL, "smooth: bdmsm rows")
        _require(float(np.max(np.abs(rho.sum(axis=0) - post[0]))) <= _POSTERIOR_TOL, "smooth: bdmsm columns")

    return check


def trace_inference(seed: int, work: str) -> list:
    rng = np.random.default_rng([seed, 4])
    jobs = []
    for m, long_trace in trace_machines(seed):
        path = os.path.join(work, m.name + ".json")
        mk.write_json(path, m.doc())
        for length in TRACE_LENGTHS + ((LONG_TRACE,) if long_trace else ()):
            acts, outs = mk.sample_trace(m, length, rng)
            a_syms = [m.actions[a] for a in acts]
            y_syms = [m.outputs[y] for y in outs]
            trace = os.path.join(work, f"{m.name}.trace{length}.json")
            mk.write_json(trace, {"actions": a_syms, "outputs": y_syms})
            log_p, post = mk.forward_backward(m, acts, outs)
            sample_seed = str(int(rng.integers(2**31)))
            job = functools.partial(Job, states=m.n, alphabet=m.alphabet, length=length, chain=trace)
            jobs += [
                job(
                    "sample",
                    ["sample", path, "--length", str(length), "--seed", sample_seed],
                    check=_check_sample(m, length),
                ),
                job(
                    "prob",
                    ["prob", path, "--actions", ",".join(a_syms), "--outputs", ",".join(y_syms)],
                    check=_check_prob(log_p),
                ),
                job("smooth", ["smooth", path, "--trace", trace], check=_check_smooth(post)),
            ]
    return jobs


WORKLOADS = {
    "structure-mix": structure_mix,
    "deck-scale": deck_scale,
    "trace-inference": trace_inference,
}
