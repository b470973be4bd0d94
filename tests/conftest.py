"""Shared fixtures, random machine generators, and independent test oracles.

The oracles here deliberately avoid the library's matrix-product code paths:
word probabilities and posteriors are computed by explicit summation over
state paths, so library results are checked against a second route.
"""

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np
import pytest

from vatworld.beliefs import BeliefState, BeliefTransducer, is_unifilar
from vatworld.core import DEFAULT_TOL, Alphabet, History, Transducer, make_card_deck, validate
from vatworld.epsilon import HistoryClustering
from vatworld.errors import ImpossibleHistoryError, MspClosureError, StructureError
from vatworld.fixtures import delay_channel, mixture_hmm, parity_flip, parity_flip_redundant
from vatworld.minimize import Partition, _emission_signature
from vatworld.oracle import _history, _positive, _word_levels, equivalent, word_probability
from vatworld.reverse import (
    MarginalTable,
    ReversibilityVerdict,
    ReversibilityWitness,
    reverse_kernel,
    state_marginals,
)


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


@dataclass(frozen=True)
class ReverseCheck:
    ok: bool
    max_deviation: float
    witness: Optional[dict] = None

    def __bool__(self):
        return self.ok


def path_enum_reverse_generates(t: Transducer, policy, horizon: int = 4, tol: float = 1e-9):
    """Compare the forward and backward factorizations path by path.

    For every action word up to the horizon and every (state path, output
    word), the forward product (initial mass times forward kernel steps) must
    match the backward product (final state marginal under those actions
    times backward kernel steps).  Reverse-kernel columns the policy never
    reaches contribute zero weight; a path with forward mass through such a
    column is itself a violation.
    """
    n = t.n
    n_actions, n_outputs = len(t.actions), len(t.outputs)
    marginals = state_marginals(t, policy, horizon)
    revs = [
        reverse_kernel(t, policy, tau, marginals=marginals, tol=tol)
        for tau in range(horizon)
    ]
    tr = t.transition_marginals()
    max_dev = 0.0
    witness: Optional[dict] = None

    def walk(a_word: tuple[int, ...], length: int):
        """Enumerate paths for one action word and compare both products."""
        nonlocal max_dev, witness
        # final state marginal under this exogenous action word
        m_end = t.initial.copy()
        for a in a_word:
            m_end = tr[a] @ m_end

        def paths(step: int, state: int, fwd: float, rev: float, ys: tuple, ss: tuple):
            nonlocal max_dev, witness
            if step == length:
                total_rev = rev * m_end[state]
                dev = abs(fwd - total_rev)
                if dev > max_dev:
                    max_dev = dev
                    if dev > tol and witness is None:
                        witness = {
                            "actions": tuple(t.actions.symbols[a] for a in a_word),
                            "outputs": tuple(t.outputs.symbols[y] for y in ys),
                            "states": tuple(t.states[s] for s in ss),
                            "forward": fwd,
                            "reverse": total_rev,
                        }
                return
            a = a_word[step]
            for y in range(n_outputs):
                for nxt in range(n):
                    f2 = fwd * t.kernel[a, y, nxt, state]
                    if revs[step].defined_mask[a, nxt]:
                        r2 = rev * revs[step].matrices[a, y, state, nxt]
                    else:
                        r2 = 0.0
                    if f2 == 0.0 and r2 == 0.0:
                        continue
                    paths(step + 1, nxt, f2, r2, ys + (y,), ss + (nxt,))

        for s0 in range(n):
            if t.initial[s0] > 0.0:
                paths(0, s0, t.initial[s0], 1.0, (), (s0,))

    stack = [()]
    while stack:
        word = stack.pop()
        if len(word) > 0:
            walk(word, len(word))
        if len(word) < horizon:
            for a in range(n_actions):
                stack.append(word + (a,))
    first_witness = witness if max_dev > tol else None
    return ReverseCheck(bool(max_dev <= tol), float(max_dev), first_witness)


# ---------------------------------------------------------------------------
# Reversal references: every action prefix, every history
# ---------------------------------------------------------------------------


def exhaustive_check_reversible(t: Transducer, horizon: int = 4, tol: float = 1e-9):
    """The reversibility verdict over every action prefix.

    This is the comparison loop of ``check_reversible`` before it kept only
    the prefixes that grow each level's span, kept verbatim; it walks |A|^tau
    prefixes at each time tau, so it suits small horizons only.
    """
    tr = t.transition_marginals()
    levels = _word_levels([t.initial], tr, horizon - 1, "reversibility check")
    for tau, (_, prefixes, m) in enumerate(levels):
        # joint[p, a, next, prev] for action prefix p then action a
        joint = tr[None] * m[:, None, None, :]
        totals = joint.sum(axis=3)
        seen = totals > 1e-12
        cond = joint / np.where(seen, totals, 1.0)[..., None]
        # the first prefix reaching (a, next) sets the reference the others must match
        first = seen.argmax(axis=0)
        ref = np.take_along_axis(cond, first[None, :, :, None], axis=0)
        diff = np.abs(cond - ref).max(axis=3)
        bad = np.argwhere(seen & (diff > tol))
        if len(bad):
            p, a, i = bad[0]
            return ReversibilityVerdict(
                False,
                "exhaustive",
                horizon,
                ReversibilityWitness(
                    tau,
                    t.actions.symbols[a],
                    t.states[i],
                    tuple(t.actions.symbols[x] for x in prefixes[first[a, i]]),
                    tuple(t.actions.symbols[x] for x in prefixes[p]),
                    float(diff[p, a, i]),
                ),
            )
    return ReversibilityVerdict(True, "exhaustive", horizon)


def history_walk_state_marginals(t: Transducer, policy, horizon: int) -> MarginalTable:
    """Per-time (state, action) joint by walking every history, kept verbatim.

    A policy without a table ignores the history and takes the single
    state-vector recursion; any other policy walks every history with
    positive weight, carrying the product of the policy's action
    probabilities along it.  The walk is exponential in the horizon.  (The
    fork once read the policy's class; it reads the table, which is empty
    exactly for uniform and weighted policies.)
    """
    n = t.n
    n_actions, n_outputs = len(t.actions), len(t.outputs)
    joint = np.zeros((horizon + 1, n, n_actions))
    tr = t.transition_marginals()
    if not policy.table:
        adist = policy.action_dist(History.empty(), n_actions)
        m = t.initial.copy()
        for tau in range(horizon + 1):
            joint[tau] = np.outer(m, adist)
            m = sum(adist[a] * (tr[a] @ m) for a in range(n_actions))
        return MarginalTable(joint, horizon, policy.describe())

    # weight[r]: policy probability of row r's actions; live rows are the
    # histories with positive weighted mass, the only ones extended.
    weight = np.ones(1)
    live = np.ones(1, dtype=bool)
    levels = _word_levels(
        [t.initial], t.kernel, horizon, "marginal enumeration", lambda words, vecs: live
    )
    for tau, (parent, words, vecs) in enumerate(levels):
        if tau:
            weight = weight[parent] * adists[parent, words[:, -1] // n_outputs]
            live = (weight > 0.0) & (vecs.sum(axis=1) > 0.0)
        adists = np.zeros((len(live), n_actions))
        for r in np.flatnonzero(live):
            adists[r] = policy.action_dist(_history(t, words[r]), n_actions)
        joint[tau] = (vecs * weight[:, None]).T @ adists
    return MarginalTable(joint, horizon, policy.describe())


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
# Reference smoother
# ---------------------------------------------------------------------------


def reference_smooth(t: Transducer, h: History) -> list[BeliefState]:
    """The smoother as it stood before the array rewrite, kept verbatim.

    It builds one ``BeliefState`` per time step; ``retro.smooth`` must give
    the same posteriors bit for bit, row tau being slice tau.
    """
    a_idx, y_idx = t.word_indices(h)
    forward = [t.initial / t.initial.sum()]
    for a, y in zip(a_idx, y_idx):
        raw = t.kernel[a, y] @ forward[-1]
        z = float(raw.sum())
        if z <= 0.0:
            raise ImpossibleHistoryError(f"history {h} has probability 0")
        forward.append(raw / z)

    slices = [BeliefState(forward[-1])]
    back = np.ones(t.n)
    for tau in range(len(h) - 1, -1, -1):
        back = back @ t.kernel[a_idx[tau], y_idx[tau]]
        post = forward[tau] * back
        z = float(post.sum())
        if z <= 0.0:
            raise ImpossibleHistoryError(f"history {h} has probability 0")
        back /= back.sum()
        slices.append(BeliefState(post / z))
    return slices[::-1]


# ---------------------------------------------------------------------------
# Linear-scan references: greedy grouping, belief dedup, history clustering
# and record loops
# ---------------------------------------------------------------------------


def scan_group_by_signature(sig: np.ndarray, tol: float) -> Partition:
    """Greedy leader grouping in state-index order; leaders anchor each class."""
    n = sig.shape[0]
    leaders: list[int] = []
    assign = [-1] * n
    for j in range(n):
        for ci, lead in enumerate(leaders):
            if np.all(np.abs(sig[j] - sig[lead]) <= tol):
                assign[j] = ci
                break
        else:
            leaders.append(j)
            assign[j] = len(leaders) - 1
    return Partition.from_assignment(assign)


def einsum_block_signature(t: Transducer, part: Partition) -> np.ndarray:
    """sig[j] = flat vector of joint mass into each class per (a, y)."""
    n = t.n
    member = np.zeros((part.n_classes, n))
    for ci, members in enumerate(part.classes):
        member[ci, list(members)] = 1.0
    block = np.einsum("ci,ayij->aycj", member, t.kernel)
    return block.reshape(-1, n).T  # [j, (a, y, c)]


def scan_coarsest_bisimulation(t: Transducer, tol: float = DEFAULT_TOL) -> Partition:
    """Per-class greedy refinement with the scan grouping and einsum signatures."""
    em = _emission_signature(t)
    part = scan_group_by_signature(em, tol)
    while True:
        sig = np.concatenate([em, einsum_block_signature(t, part)], axis=1)
        refined = Partition.from_classes(
            [
                [members[i] for i in group]
                for members in part.classes
                for group in scan_group_by_signature(sig[list(members)], tol).classes
            ],
            t.n,
        )
        if refined.n_classes == part.n_classes:
            return part
        part = refined


def scan_build_msp(
    t: Transducer,
    tol: float = DEFAULT_TOL,
    max_states: int = 1000,
    max_depth: int = 200,
) -> BeliefTransducer:
    """Belief closure that compares each new belief with every known one."""
    n_actions, n_outputs = len(t.actions), len(t.outputs)
    start = t.initial / t.initial.sum()
    beliefs: list[np.ndarray] = [start]
    depth_of = [0]
    edges: list[tuple[int, int, int, int, float]] = []
    queue = [0]
    head = 0

    def _closure_error(msg: str) -> MspClosureError:
        nearest = np.inf
        for i in range(len(beliefs)):
            for j in range(i + 1, len(beliefs)):
                nearest = min(nearest, float(np.abs(beliefs[i] - beliefs[j]).sum()))
        return MspClosureError(
            f"belief closure did not terminate: {msg} "
            f"(visited {len(beliefs)} beliefs, depth {max(depth_of)}, "
            f"nearest pair L1 distance {nearest:.3g})",
            visited=len(beliefs),
            depth=max(depth_of),
            nearest_pair_distance=nearest,
        )

    while head < len(queue):
        bi = queue[head]
        head += 1
        b = beliefs[bi]
        for a in range(n_actions):
            for y in range(n_outputs):
                raw = t.kernel[a, y] @ b
                emit = float(raw.sum())
                if emit <= tol:
                    continue
                new = raw / emit
                target = None
                for k, known in enumerate(beliefs):
                    if float(np.abs(known - new).sum()) <= tol:
                        target = k
                        break
                if target is None:
                    if len(beliefs) >= max_states:
                        raise _closure_error(f"more than {max_states} beliefs reached")
                    if depth_of[bi] + 1 > max_depth:
                        raise _closure_error(f"closure deeper than {max_depth}")
                    beliefs.append(new)
                    depth_of.append(depth_of[bi] + 1)
                    target = len(beliefs) - 1
                    queue.append(target)
                edges.append((bi, a, y, target, emit))

    k = len(beliefs)
    kernel = np.zeros((n_actions, n_outputs, k, k))
    for src, a, y, dst, emit in edges:
        kernel[a, y, dst, src] += emit
    initial = np.zeros(k)
    initial[0] = 1.0
    machine = Transducer(
        f"{t.name}/beliefs",
        [f"m{i}" for i in range(k)],
        t.actions,
        t.outputs,
        kernel,
        initial,
    )
    report = validate(machine, max(DEFAULT_TOL, n_outputs * tol))
    if not report.is_valid:
        raise RuntimeError(f"belief machine failed validation: {report}")
    if not is_unifilar(machine, tol):
        raise RuntimeError("belief machine is not unifilar; this is a construction bug")
    payload = tuple(BeliefState(b) for b in beliefs)
    return BeliefTransducer(t, machine, payload)


def scan_epsilon_from_histories(
    t: Transducer, hist_depth: int, future_depth: int, tol: float = DEFAULT_TOL
) -> HistoryClustering:
    """Cluster positive-probability histories by bounded-future equivalence.

    Histories agree when their conditional distributions over all futures of
    length <= future_depth match within tol.  The induced machine's states are
    the classes, with transitions read off one-step history extensions.  The
    ``stabilized`` flag reports whether the class count stopped growing over
    the last two history lengths; when a deepest-level extension matches no
    existing class, the flag drops and the extension is attached to the
    nearest class by signature distance.
    """
    if hist_depth < 1:
        raise StructureError("hist_depth must be at least 1")
    if future_depth < 0:
        raise StructureError("future_depth must be at least 0")

    # Positive-probability histories by length, with their forward vectors.
    histories: list[History] = []
    lengths: list[int] = []
    vecs_of: list[np.ndarray] = []
    levels = _word_levels([t.initial], t.kernel, hist_depth, "history clustering", _positive)
    for length, (_, words, vecs) in enumerate(levels):
        rows = _positive(words, vecs)
        histories += [_history(t, word) for word in words[rows]]
        lengths += [length] * int(rows.sum())
        vecs_of.append(vecs[rows])

    # Signature: the conditional probability of every future word up to
    # future_depth, level by level in alphabet order, from one batched walk.
    starts = np.concatenate(vecs_of)
    starts /= starts.sum(axis=1, keepdims=True)
    futures = _word_levels(starts, t.kernel, future_depth, "history clustering")
    next(futures)
    sigs = np.concatenate(
        [np.zeros((len(starts), 0))]
        + [vecs.sum(axis=1).reshape(len(starts), -1) for _, _, vecs in futures],
        axis=1,
    )

    # Cluster histories of length < hist_depth; the deepest level only tests
    # stabilization and supplies transition targets.
    rep_rows: list[int] = []
    classes: list[list[History]] = []
    class_of: dict[History, int] = {}
    stabilized = True
    for row, (h, length) in enumerate(zip(histories, lengths)):
        dists = np.max(np.abs(sigs[rep_rows] - sigs[row]), axis=1, initial=0.0)
        if length < hist_depth:
            match = np.flatnonzero(dists <= tol)
            if match.size:
                ci = int(match[0])
            else:
                rep_rows.append(row)
                classes.append([])
                ci = len(classes) - 1
        else:
            ci = int(np.argmin(dists))
            if dists[ci] > tol:
                stabilized = False
        classes[ci].append(h)
        class_of[h] = ci
    rep_history = [histories[row] for row in rep_rows]

    # Induced machine: transitions from each class representative.
    k = len(classes)
    n_actions, n_outputs = len(t.actions), len(t.outputs)
    kernel = np.zeros((n_actions, n_outputs, k, k))
    for ci, rep in enumerate(rep_history):
        p_rep = word_probability(t, rep)
        for a in range(n_actions):
            for y in range(n_outputs):
                ext = rep.extended(t.actions.symbols[a], t.outputs.symbols[y])
                p_ext = word_probability(t, ext)
                if p_ext <= 1e-12:
                    continue
                kernel[a, y, class_of[ext], ci] = p_ext / p_rep
    initial = np.zeros(k)
    initial[class_of[History.empty()]] = 1.0
    machine = Transducer(
        f"{t.name}/history-classes",
        [f"c{i}" for i in range(k)],
        t.actions,
        t.outputs,
        kernel,
        initial,
    )
    return HistoryClustering(
        tuple(tuple(c) for c in classes),
        machine,
        stabilized,
        hist_depth,
        future_depth,
    )


def walk_check_predictive(
    candidate: Transducer, reference: Transducer, depth: int = 6, tol: float = DEFAULT_TOL
) -> bool:
    """The depth-bounded predictivity check: ``equivalent`` up to depth, then a
    walk over the positive-probability histories up to depth that tracks the
    one candidate state reachable along each."""
    if not equivalent(candidate, reference, depth, tol).equivalent:
        return False
    start = np.flatnonzero(candidate.initial > tol)
    if len(start) > 1:
        return False
    # With at most one reachable state, the next one is a table lookup:
    # succ[x, s] is the state letter x leads to from s, n standing for none,
    # and fan[x, s] counts the states it could lead to.
    n = candidate.n
    hits = np.zeros((len(candidate.actions) * len(candidate.outputs), n + 1, n), dtype=bool)
    hits[:, :n] = candidate.kernel.reshape(-1, n, n).transpose(0, 2, 1) > tol
    fan = hits.sum(axis=2)
    succ = np.where(fan == 1, hits.argmax(axis=2), n)

    reach = start if len(start) else np.array([n])
    levels = _word_levels(
        [candidate.initial], candidate.kernel, depth, "observability check", _positive
    )
    next(levels)
    for parent, words, vecs in levels:
        last, before = words[:, -1], reach[parent]
        if np.any(_positive(words, vecs) & (fan[last, before] > 1)):
            return False
        reach = succ[last, before]
    return True


def loop_is_unifilar(t: Transducer, tol: float = DEFAULT_TOL) -> bool:
    """True when every (state, action, output) with emission mass has one successor."""
    for a in range(len(t.actions)):
        for y in range(len(t.outputs)):
            for j in range(t.n):
                col = t.kernel[a, y, :, j]
                if col.sum() > tol and int(np.sum(col > tol)) != 1:
                    return False
    return True


def loop_transducer_to_doc(t: Transducer) -> dict:
    records = []
    for j in range(t.n):
        for a in range(len(t.actions)):
            for y in range(len(t.outputs)):
                for i in range(t.n):
                    p = float(t.kernel[a, y, i, j])
                    if p != 0.0:
                        records.append(
                            {
                                "from": t.states[j],
                                "action": t.actions.symbols[a],
                                "output": t.outputs.symbols[y],
                                "to": t.states[i],
                                "prob": p,
                            }
                        )
    return {
        "name": t.name,
        "states": list(t.states),
        "actions": list(t.actions.symbols),
        "outputs": list(t.outputs.symbols),
        "initial": [float(x) for x in t.initial],
        "kernel": records,
    }


def loop_reverse_records(t: Transducer, matrices: np.ndarray) -> list:
    """The per-time backward kernel records of ``vatworld reverse --out``."""
    records = []
    for a in range(len(t.actions)):
        for y in range(len(t.outputs)):
            for i in range(t.n):
                for j in range(t.n):
                    p = float(matrices[a, y, i, j])
                    if p != 0.0:
                        records.append(
                            {
                                "from": t.states[j],
                                "action": t.actions.symbols[a],
                                "output": t.outputs.symbols[y],
                                "to": t.states[i],
                                "prob": p,
                            }
                        )
    return records


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


def random_rare_machine(rng, n=3, n_actions=2, n_outputs=2, name="random-rare") -> Transducer:
    """Machine with rare states: near-deterministic moves and tiny initial masses.

    Each (action, state) column makes one move, plus up to two leaks of
    probability 1e-8 to 1e-3; the initial law puts 1e-10 to 1 on each state
    before normalising.  Marginals under different action prefixes then differ
    by little, and mostly on low-mass states.
    """
    kernel = np.zeros((n_actions, n_outputs, n, n))
    for a in range(n_actions):
        for j in range(n):
            col = kernel[a, :, :, j]
            col[rng.integers(n_outputs), rng.integers(n)] = 1.0
            for _ in range(int(rng.integers(0, 3))):
                col[rng.integers(n_outputs), rng.integers(n)] += 10.0 ** rng.uniform(-8, -3)
            col /= col.sum()
    initial = 10.0 ** rng.uniform(-10, 0, size=n)
    initial[rng.integers(n)] = 1.0
    return Transducer(
        name,
        [f"s{k}" for k in range(n)],
        Alphabet([str(k) for k in range(n_actions)]),
        Alphabet([str(k) for k in range(n_outputs)]),
        kernel,
        initial / initial.sum(),
    )


def lifted_machine(t: Transducer, rng) -> Transducer:
    """t with each state split into two bisimilar copies: the same interface."""
    w = rng.uniform(0.1, 0.9, t.n)
    split = np.concatenate([w, 1.0 - w])  # share of state j's mass per copy
    kernel = np.tile(t.kernel, (1, 1, 2, 2)) * split[:, None]
    initial = np.tile(t.initial, 2) * split
    states = [f"{s}{c}" for c in "ab" for s in t.states]
    return Transducer("lifted", states, t.actions, t.outputs, kernel, initial)


PROPERTY_KINDS = ("dense", "unifilar", "io-moore", "permutation", "deck")
PROPERTY_TOLS = (0.0, 1e-12, 1e-9, 1e-3)
_PROPERTY_DECKS = [
    (reds, cards - reds, variant)
    for cards in range(2, 7)
    for reds in range(1, cards)
    for variant in ("flip_shuffle", "cyclic")
]


def property_machine(kind: str, seed: int) -> Transducer:
    """A seeded machine of one of PROPERTY_KINDS for the scan-reference properties.

    Random kinds have 2-5 states and 1-3 actions and outputs, and every other
    seed splits each state into two bisimilar copies, whose signatures then
    differ by rounding alone.  Decks go up to 3R3B.
    """
    rng = np.random.default_rng(seed)
    if kind == "deck":
        return make_card_deck(*_PROPERTY_DECKS[seed % len(_PROPERTY_DECKS)])
    build = {
        "dense": random_transducer,
        "unifilar": random_unifilar,
        "io-moore": random_io_moore,
        "permutation": random_permutation_machine,
    }[kind]
    n, n_a, n_y = (int(rng.integers(lo, hi)) for lo, hi in ((2, 6), (1, 4), (1, 4)))
    t = build(rng, n=n, n_actions=n_a, n_outputs=n_y, name=kind)
    return lifted_machine(t, rng) if seed % 2 else t


def delayed_machine(delay: int, last: float = 0.5, split: bool = False) -> Transducer:
    """One action, outputs "0" and "1", states s0..s{delay} in a line.

    Each state of the line emits "0" and moves on; s{delay} emits "1" with
    probability ``last``, else "0", and stays.  So two such machines that
    differ in ``last`` first differ on a word of length delay + 1.  With
    ``split``, s{delay - 1} moves to s{delay} or to a copy of it with
    probability 1/2 each: the same process, whose state is no longer read
    off the history from length delay on.
    """
    n = delay + 1 + split
    kernel = np.zeros((1, 2, n, n))
    for j in range(delay):
        kernel[0, 0, j + 1, j] = 1.0
    for j in range(delay, n):
        kernel[0, :, j, j] = [1.0 - last, last]
    if split:
        kernel[0, 0, delay:, delay - 1] = 0.5
    initial = np.zeros(n)
    initial[0] = 1.0
    states = [f"s{j}" for j in range(n)]
    return Transducer("delayed", states, Alphabet(["a"]), Alphabet(["0", "1"]), kernel, initial)


def leak_machine(leak: float = 1e-4, mass: float = 1e-6) -> Transducer:
    """States s0, s1, s2; actions "keep" and "leak"; one output.

    "keep" holds every state, and so does "leak", except that s1 moves to s2
    with probability leak.  s1 and s2 start with the given mass each.  The
    marginals after the prefixes "keep" and "leak" differ by about
    mass * leak, yet given action "leak" and next state s2 the two prefixes
    disagree on the previous state by about 2 * leak**2.
    """
    kernel = np.zeros((2, 1, 3, 3))
    kernel[:, 0] = np.eye(3)
    kernel[1, 0, 1:, 1] = [1.0 - leak, leak]
    return Transducer(
        "leak",
        ["s0", "s1", "s2"],
        Alphabet(["keep", "leak"]),
        Alphabet(["y"]),
        kernel,
        [1.0 - 2.0 * mass, mass, mass],
    )


def delayed_leak_machine(leak: float = 1e-4, mass: float = 1e-6) -> Transducer:
    """States s0..s3; actions "keep", "leak" and "spill"; one output.

    "keep" holds every state.  "leak" moves s1 to s2 with probability leak
    and s2 on to s3.  "spill" moves half of s0 to s2 and s2 on to s3.  Only
    s0 and s1 (with the given mass) start occupied.  No two prefixes of length
    one disagree on any previous state, but given "leak" and next state s3,
    ("keep", "leak") and ("leak", "leak") disagree by about 1/2.  The prefix
    "leak" departs from "keep" by about mass * leak, a relative leak on s1,
    and on s2 by less than mass * leak against the mass "spill" puts there.
    """
    kernel = np.zeros((3, 1, 4, 4))
    kernel[:, 0] = np.eye(4)
    kernel[1, 0, 1:3, 1] = [1.0 - leak, leak]
    kernel[1:, 0, 2:, 2] = [0.0, 1.0]
    kernel[2, 0, ::2, 0] = [0.5, 0.5]
    return Transducer(
        "delayed-leak",
        ["s0", "s1", "s2", "s3"],
        Alphabet(["keep", "leak", "spill"]),
        Alphabet(["y"]),
        kernel,
        [1.0 - mass, mass, 0.0, 0.0],
    )


def rank_cap_machine(rare: float = 1e-8, leak: float = 1e-7) -> Transducer:
    """Two states, three actions: "swap" exchanges s0 and s1, "drain" sends s1
    to s0 and keeps s0 but for a leak to s1, "stay" holds both.  s0 starts
    with the rare mass.  The prefixes "swap" and "drain" already span both
    dimensions, and given "drain" and next state s0 they disagree on the
    previous state by about rare, while "stay" disagrees with them by about 1.
    """
    kernel = np.zeros((3, 1, 2, 2))
    kernel[0, 0] = [[0.0, 1.0], [1.0, 0.0]]
    kernel[1, 0] = [[1.0 - leak, 1.0], [leak, 0.0]]
    kernel[2, 0] = np.eye(2)
    return Transducer(
        "rank-cap",
        ["s0", "s1"],
        Alphabet(["swap", "drain", "stay"]),
        Alphabet(["y"]),
        kernel,
        [rare, 1.0 - rare],
    )


def pair_machine() -> Transducer:
    """A reversible 4-state, 3-action machine, neither action-agnostic nor action-counifilar.

    States p0, p1 form pair P and q0, q1 pair Q.  Action "stay" keeps the
    pair, "swap" and "coin" exchange the pairs, and each moves to either state
    of the target pair with probability 1/2.  "stay" and "swap" emit the
    target pair's name, "coin" emits either name with probability 1/2.  The
    state marginals stay uniform inside each pair at every time, so given the
    action and the next state the previous state is uniform over the source
    pair, whatever the actions before.
    """
    kernel = np.zeros((3, 2, 4, 4))
    for a, swaps in enumerate((False, True, True)):
        for j in range(4):
            target = (j // 2) ^ swaps
            for i in (2 * target, 2 * target + 1):
                if a == 2:
                    kernel[a, :, i, j] = 0.25
                else:
                    kernel[a, target, i, j] = 0.5
    return Transducer(
        "pair",
        ["p0", "p1", "q0", "q1"],
        Alphabet(["stay", "swap", "coin"]),
        Alphabet(["P", "Q"]),
        kernel,
        [0.15, 0.15, 0.35, 0.35],
    )
