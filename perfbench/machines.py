"""Seeded machine and trace generators, and the benchmark's own reference maths.

Nothing here calls vatworld: inputs are built and written by the benchmark
itself, so the files for a given seed are byte-identical whatever version of
the program later reads them.  The file format is vatworld's documented
machine/history JSON (nonzero kernel records in a fixed order).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Machine:
    """A finite stochastic transducer as the benchmark knows it.

    ``kernel[a, y, i, j]`` is Pr(output y, next state i | action a, state j),
    the layout of vatworld's machine files.  ``reduced_max`` is an upper bound
    on the size of the coarsest bisimulation quotient that follows from how
    the machine was built (planted copies), or ``n`` when nothing is known.
    """

    name: str
    family: str
    states: tuple
    actions: tuple
    outputs: tuple
    kernel: np.ndarray
    initial: np.ndarray
    reduced_max: int

    @property
    def n(self) -> int:
        return len(self.states)

    @property
    def alphabet(self) -> int:
        return len(self.actions) * len(self.outputs)

    def doc(self) -> dict:
        records = []
        for j in range(self.n):
            for a in range(len(self.actions)):
                for y in range(len(self.outputs)):
                    for i in range(self.n):
                        p = float(self.kernel[a, y, i, j])
                        if p != 0.0:
                            records.append(
                                {
                                    "from": self.states[j],
                                    "action": self.actions[a],
                                    "output": self.outputs[y],
                                    "to": self.states[i],
                                    "prob": p,
                                }
                            )
        return {
            "name": self.name,
            "states": list(self.states),
            "actions": list(self.actions),
            "outputs": list(self.outputs),
            "initial": [float(x) for x in self.initial],
            "kernel": records,
        }


def write_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")


def _machine(name, family, kernel, initial, reduced_max=None, states=None, actions=None, outputs=None):
    n_a, n_y, n, _ = kernel.shape
    return Machine(
        name,
        family,
        tuple(states or (f"s{k}" for k in range(n))),
        tuple(actions or (str(k) for k in range(n_a))),
        tuple(outputs or (str(k) for k in range(n_y))),
        kernel,
        np.asarray(initial, dtype=float),
        n if reduced_max is None else reduced_max,
    )


def shuffled_states(m: Machine, rng) -> Machine:
    """The same machine with its states listed in a seeded order."""
    perm = rng.permutation(m.n)
    return Machine(
        m.name, m.family, tuple(m.states[p] for p in perm), m.actions, m.outputs,
        m.kernel[:, :, perm][:, :, :, perm], m.initial[perm], m.reduced_max,
    )


# ---------------------------------------------------------------------------
# Random families
# ---------------------------------------------------------------------------


def dense_with_copies(rng, base: int, copies: int, n_a: int, n_y: int, name: str) -> Machine:
    """Dense random machine with ``copies`` of its states split in two.

    Every incoming edge of a split state is shared between the two halves at
    a random ratio, and both halves keep the original outgoing law, so each
    pair is bisimilar and the quotient has at most ``base`` states.  The
    result is shown in a random state order so the copies are not adjacent.
    """
    kernel = np.zeros((n_a, n_y, base, base))
    for a in range(n_a):
        for j in range(base):
            kernel[a, :, :, j] = rng.dirichlet(np.ones(n_y * base)).reshape(n_y, base)
    initial = rng.dirichlet(np.ones(base))
    split = rng.choice(base, size=copies, replace=False)
    source = list(range(base)) + [int(s) for s in split]  # new state -> base state
    lift = np.zeros((len(source), base))  # share of base mass landing on each new state
    lift[np.arange(base), np.arange(base)] = 1.0
    for k, s in enumerate(split):
        f = rng.uniform(0.3, 0.7)
        lift[s, s] = f
        lift[base + k, s] = 1.0 - f
    big = np.einsum("is,ayst->ayit", lift, kernel)[:, :, :, source]
    m = _machine(name, "dense", big, lift @ initial, reduced_max=base)
    return shuffled_states(m, rng)


def unifilar(rng, n: int, n_a: int, n_y: int, name: str) -> Machine:
    """Next state is a function of (state, action, output); starts in state 0."""
    kernel = np.zeros((n_a, n_y, n, n))
    for a in range(n_a):
        for j in range(n):
            emit = rng.dirichlet(np.ones(n_y))
            for y in range(n_y):
                kernel[a, y, int(rng.integers(n)), j] = emit[y]
    initial = np.zeros(n)
    initial[0] = 1.0
    return _machine(name, "unifilar", kernel, initial)


def io_moore(rng, n: int, n_a: int, n_y: int, name: str, emission_range=None) -> Machine:
    """State-only emission and output-blind transitions.

    With ``emission_range=(lo, hi)`` (two outputs only) each state emits its
    first output with a probability drawn from that range, which keeps every
    step's output uncertain.
    """
    if emission_range is None:
        emission = rng.dirichlet(np.ones(n_y), size=n)  # [state, y]
    else:
        p = rng.uniform(*emission_range, size=n)
        emission = np.stack([p, 1.0 - p], axis=1)
    transition = rng.dirichlet(np.ones(n), size=(n_a, n))  # [a, from, to]
    kernel = np.einsum("jy,aji->ayij", emission, transition)
    return _machine(name, "io-moore", kernel, rng.dirichlet(np.ones(n)))


def permutation(rng, n: int, n_a: int, n_y: int, name: str) -> Machine:
    """Every action permutes the states, so the machine is action-counifilar."""
    kernel = np.zeros((n_a, n_y, n, n))
    for a in range(n_a):
        perm = rng.permutation(n)
        for j in range(n):
            emit = rng.dirichlet(np.ones(n_y))
            kernel[a, :, perm[j], j] = emit
    return _machine(name, "permutation", kernel, rng.dirichlet(np.ones(n)))


# ---------------------------------------------------------------------------
# Fixed machines: the four fixtures and the card decks
# ---------------------------------------------------------------------------


def fixtures() -> list:
    """The four hand-built machines that ship with vatworld, rebuilt here."""
    pf = np.zeros((2, 2, 2, 2))
    dc = np.zeros((2, 2, 2, 2))
    for s in range(2):
        for a in range(2):
            pf[a, s, s ^ a, s] = 1.0
            dc[a, s, a, s] = 1.0
    emit = [0, 1, 1]
    trans = np.zeros((2, 3, 3))
    trans[0] = np.eye(3)
    trans[1, 1, 0] = trans[1, 2, 0] = 0.5
    trans[1, 0, 1] = trans[1, 0, 2] = 1.0
    pfr = np.zeros((2, 2, 3, 3))
    for a in range(2):
        for j in range(3):
            pfr[a, emit[j], :, j] = trans[a, :, j]
    joints = [np.outer([0.8, 0.2], [0.5, 0.5, 0.0]), np.outer([0.2, 0.8], [0.1, 0.9, 0.0])]
    joints.append(0.5 * joints[0] + 0.5 * joints[1])
    mix = np.zeros((1, 2, 3, 3))
    for j, joint in enumerate(joints):
        mix[0, :, :, j] = joint
    return [
        _machine("parity-flip", "fixture", pf, [1.0, 0.0]),
        _machine("parity-flip-redundant", "fixture", pfr, [1.0, 0.0, 0.0], reduced_max=2,
                 states=["s0", "s1a", "s1b"]),
        _machine("mixture-hmm", "fixture", mix, [0.2, 0.3, 0.5]),
        _machine("delay-channel", "fixture", dc, [1.0, 0.0]),
    ]


def card_deck(reds: int, blacks: int, variant: str) -> Machine:
    """Card-deck world: states are colour arrangements, output is the top colour.

    ``flip_shuffle`` pairs a left rotation with a uniform reshuffle, ``cyclic``
    pairs it with the right rotation.  The deck starts in its lexicographically
    first arrangement.  Same construction as ``vatworld.make_card_deck``.
    """
    total = reds + blacks
    arrangements = []
    for positions in itertools.combinations(range(total), reds):
        seq = ["B"] * total
        for p in positions:
            seq[p] = "R"
        arrangements.append(tuple(seq))
    arrangements.sort()
    n = len(arrangements)
    index = {arr: k for k, arr in enumerate(arrangements)}
    kernel = np.zeros((2, 2, n, n))
    for j, arr in enumerate(arrangements):
        y = 0 if arr[0] == "R" else 1
        kernel[0, y, index[arr[1:] + arr[:1]], j] = 1.0
        if variant == "flip_shuffle":
            kernel[1, y, :, j] = 1.0 / n
        else:
            kernel[1, y, index[arr[-1:] + arr[:-1]], j] = 1.0
    initial = np.zeros(n)
    initial[0] = 1.0
    actions = ["rotate", "shuffle"] if variant == "flip_shuffle" else ["rotate_left", "rotate_right"]
    return _machine(
        f"card-deck-{reds}r{blacks}b-{variant.replace('_', '-')}",
        f"deck-{variant}",
        kernel,
        initial,
        states=["".join(arr) for arr in arrangements],
        actions=actions,
        outputs=["red", "black"],
    )


# ---------------------------------------------------------------------------
# Traces and reference inference
# ---------------------------------------------------------------------------


def sample_trace(m: Machine, length: int, rng) -> tuple[list, list]:
    """Action and output indices of a run under uniformly random actions."""
    state = int(rng.choice(m.n, p=m.initial / m.initial.sum()))
    n_a = len(m.actions)
    flat = m.kernel.reshape(n_a, -1, m.n)  # [a, (y, next), from]
    cum = np.cumsum(flat, axis=1)
    acts, outs = [], []
    for a, u in zip(rng.integers(n_a, size=length), rng.random(length)):
        col = cum[a, :, state]
        pick = min(int(np.searchsorted(col, u * col[-1], side="right")), col.size - 1)
        y, state = divmod(pick, m.n)
        acts.append(int(a))
        outs.append(y)
    return acts, outs


def forward_backward(m: Machine, acts, outs) -> tuple[float, np.ndarray]:
    """Natural log of Pr(outputs | actions) and the smoothed state posteriors.

    Scaled forward and backward passes, so neither underflows on long
    traces.  Row t of the posterior array is Pr(state at time t | trace) for
    t = 0..len(trace).
    """
    steps = [m.kernel[a, y] for a, y in zip(acts, outs)]
    alpha = [m.initial / m.initial.sum()]
    log_p = 0.0
    for mat in steps:
        raw = mat @ alpha[-1]
        z = raw.sum()
        if z <= 0.0:
            return -np.inf, np.empty((0, m.n))
        log_p += np.log(z)
        alpha.append(raw / z)
    beta = np.ones(m.n)
    post = np.empty((len(steps) + 1, m.n))
    for t in range(len(steps), -1, -1):
        w = alpha[t] * beta
        post[t] = w / w.sum()
        if t:
            beta = steps[t - 1].T @ beta
            beta = beta / beta.sum()
    return float(log_p), post


def is_unifilar(m: Machine, tol: float = 1e-9) -> bool:
    col_mass = m.kernel.sum(axis=2)  # [a, y, from]
    successors = (m.kernel > tol).sum(axis=2)
    return bool(np.all((col_mass <= tol) | (successors == 1)))


def is_action_counifilar(m: Machine, tol: float = 1e-9) -> bool:
    moves = m.kernel.sum(axis=1)  # [a, to, from]
    return bool(np.all((moves > tol).sum(axis=2) <= 1))
