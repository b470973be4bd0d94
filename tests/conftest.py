"""Shared fixtures, random machine generators, and independent test oracles.

The oracles here deliberately avoid the library's matrix-product code paths:
word probabilities and posteriors are computed by explicit summation over
state paths, so library results are checked against a second route.
"""

import itertools

import numpy as np
import pytest

from vatworld.core import Alphabet, History, Transducer
from vatworld.fixtures import delay_channel, mixture_hmm, parity_flip, parity_flip_redundant


@pytest.fixture
def fix_a():
    return parity_flip()


@pytest.fixture
def fix_b():
    return parity_flip_redundant()


@pytest.fixture
def fix_c():
    return mixture_hmm()


@pytest.fixture
def fix_d():
    return delay_channel()


# ---------------------------------------------------------------------------
# Independent oracles (path enumeration, no matrix products)
# ---------------------------------------------------------------------------


def path_enum_joint(t: Transducer, h: History):
    """All (state path, probability) pairs consistent with the history.

    Paths have length len(h) + 1 and are enumerated by explicit products of
    kernel entries, one step at a time.
    """
    a_idx, y_idx = t.word_indices(h)
    paths = [((s0,), float(t.initial[s0])) for s0 in range(t.n) if t.initial[s0] > 0]
    for a, y in zip(a_idx, y_idx):
        nxt = []
        for path, p in paths:
            s = path[-1]
            for s2 in range(t.n):
                q = p * float(t.kernel[a, y, s2, s])
                if q > 0:
                    nxt.append((path + (s2,), q))
        paths = nxt
    return paths


def path_enum_probability(t: Transducer, h: History) -> float:
    return sum(p for _, p in path_enum_joint(t, h))


def path_enum_posterior(t: Transducer, h: History, tau: int) -> np.ndarray:
    """Pr(state at time tau | history) by brute-force path summation."""
    paths = path_enum_joint(t, h)
    total = sum(p for _, p in paths)
    assert total > 0, f"history {h} is impossible"
    post = np.zeros(t.n)
    for path, p in paths:
        post[path[tau]] += p
    return post / total


def path_enum_reachable_beliefs(t: Transducer, max_len: int, tol: float = 1e-9):
    """Distinct predictive beliefs Pr(state now | h) by brute-force path summation.

    Covers the empty history and every positive-probability history of length
    up to max_len.  Returns one (belief, history) pair per belief, the history
    being the shortest that reaches it.  Belief updates are Markov, so when no
    history of length max_len reaches a new belief, the set is closed: longer
    histories reach nothing new either.
    """
    reached = []
    for h in [History.empty()] + positive_histories(t, max_len):
        b = path_enum_posterior(t, h, len(h))
        if all(float(np.abs(b - c).max()) > tol for c, _ in reached):
            reached.append((b, h))
    return reached


def path_enum_future_law(t: Transducer, h: History, actions) -> np.ndarray:
    """Pr(output word | h, actions) for every output word, by path summation."""
    actions = tuple(actions)
    p_h = path_enum_probability(t, h)
    return np.array(
        [
            path_enum_probability(t, History(h.actions + actions, h.outputs + outs)) / p_h
            for outs in itertools.product(t.outputs.symbols, repeat=len(actions))
        ]
    )


def all_histories(t: Transducer, length: int):
    """Every (actions, outputs) pair of exactly the given length."""
    for acts in itertools.product(t.actions.symbols, repeat=length):
        for outs in itertools.product(t.outputs.symbols, repeat=length):
            yield History(acts, outs)


def positive_histories(t: Transducer, max_len: int, cutoff: float = 1e-12):
    """Histories of length 1..max_len with path-enumeration probability > cutoff."""
    out = []
    for ell in range(1, max_len + 1):
        for h in all_histories(t, ell):
            if path_enum_probability(t, h) > cutoff:
                out.append(h)
    return out


# ---------------------------------------------------------------------------
# Reference sampler
# ---------------------------------------------------------------------------


def reference_sample_trajectory(t: Transducer, policy, length: int, seed: int):
    """The sampler as it stood before the linear-time rewrite, kept verbatim.

    It rebuilds the history and calls ``rng.choice`` twice at every step, so
    it is quadratic in length; ``oracle.sample_trajectory`` must give the same
    trajectory for every (machine, policy, length, seed).
    """
    rng = np.random.default_rng(seed)
    n = t.n
    n_actions = len(t.actions)
    n_outputs = len(t.outputs)
    state = int(rng.choice(n, p=t.initial / t.initial.sum()))
    actions: list[str] = []
    outputs: list[str] = []
    states = [t.states[state]]
    for _ in range(length):
        h = History(tuple(actions), tuple(outputs))
        a = int(rng.choice(n_actions, p=policy.action_dist(h, n_actions)))
        joint = t.kernel[a, :, :, state].reshape(-1)  # flat over (y, next)
        total = joint.sum()
        pick = int(rng.choice(joint.size, p=joint / total))
        y, nxt = divmod(pick, n)
        actions.append(t.actions.symbols[a])
        outputs.append(t.outputs.symbols[y])
        states.append(t.states[nxt])
        state = nxt
    return tuple(actions), tuple(outputs), tuple(states)


# ---------------------------------------------------------------------------
# Random machine generators
# ---------------------------------------------------------------------------


def random_transducer(rng, n=3, n_actions=2, n_outputs=2, name="random") -> Transducer:
    """Dense random valid machine: each (action, state) column is a random joint."""
    kernel = np.zeros((n_actions, n_outputs, n, n))
    for a in range(n_actions):
        for j in range(n):
            joint = rng.dirichlet(np.ones(n_outputs * n))
            kernel[a, :, :, j] = joint.reshape(n_outputs, n)
    initial = rng.dirichlet(np.ones(n))
    return Transducer(
        name,
        [f"s{k}" for k in range(n)],
        Alphabet([str(k) for k in range(n_actions)]),
        Alphabet([str(k) for k in range(n_outputs)]),
        kernel,
        initial,
    )


def random_unifilar(rng, n=3, n_actions=2, n_outputs=2, name="random-unifilar") -> Transducer:
    """Random machine whose next state is a function of (state, action, output).

    Started deterministically in state 0, so its reachable beliefs stay point
    masses.
    """
    kernel = np.zeros((n_actions, n_outputs, n, n))
    for a in range(n_actions):
        for j in range(n):
            emit = rng.dirichlet(np.ones(n_outputs))
            for y in range(n_outputs):
                kernel[a, y, int(rng.integers(n)), j] = emit[y]
    initial = np.zeros(n)
    initial[0] = 1.0
    return Transducer(
        name,
        [f"s{k}" for k in range(n)],
        Alphabet([str(k) for k in range(n_actions)]),
        Alphabet([str(k) for k in range(n_outputs)]),
        kernel,
        initial,
    )


def random_io_moore(rng, n=3, n_actions=2, n_outputs=2, name="random-io-moore") -> Transducer:
    """Random machine with state-only emission and output-blind transitions."""
    emission = rng.dirichlet(np.ones(n_outputs), size=n)  # [state, y]
    transition = rng.dirichlet(np.ones(n), size=(n_actions, n))  # [a, from, to]
    kernel = np.einsum("ajy,aji->ayij", emission[None, :, :].repeat(n_actions, 0), transition)
    initial = rng.dirichlet(np.ones(n))
    return Transducer(
        name,
        [f"s{k}" for k in range(n)],
        Alphabet([str(k) for k in range(n_actions)]),
        Alphabet([str(k) for k in range(n_outputs)]),
        kernel,
        initial,
    )


def random_permutation_machine(rng, n=4, n_actions=2, n_outputs=2, name="random-perm") -> Transducer:
    """Machine whose every action is a permutation of states (hence counifilar)."""
    kernel = np.zeros((n_actions, n_outputs, n, n))
    for a in range(n_actions):
        perm = rng.permutation(n)
        for j in range(n):
            emit = rng.dirichlet(np.ones(n_outputs))
            for y in range(n_outputs):
                kernel[a, y, perm[j], j] = emit[y]
    initial = rng.dirichlet(np.ones(n))
    return Transducer(
        name,
        [f"s{k}" for k in range(n)],
        Alphabet([str(k) for k in range(n_actions)]),
        Alphabet([str(k) for k in range(n_outputs)]),
        kernel,
        initial,
    )
