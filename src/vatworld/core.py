"""Domain types, construction, validation, and structural classification.

The central object is the finite stochastic transducer: a machine that, given
a memory state s and an input symbol a, jointly emits an output symbol y and
moves to a next state s'.  The joint one-step law is stored as a tensor of
substochastic matrices, one n-by-n matrix per (action, output) pair, with
``kernel[a, y, i, j] = Pr(output y, next state i | action a, state j)``.

A generalized transducer keeps the same matrix shape but drops positivity:
entries and the boundary vectors may be negative, as long as the induced word
probabilities remain genuine probabilities.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import StructureError

DEFAULT_TOL = 1e-9


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Alphabet:
    """Ordered set of distinct symbol labels with a label<->index bijection."""

    symbols: tuple[str, ...]

    def __init__(self, symbols: Iterable[str]):
        syms = tuple(str(s) for s in symbols)
        if not syms:
            raise StructureError("alphabet must be non-empty")
        if len(set(syms)) != len(syms):
            raise StructureError(f"alphabet labels must be unique, got {syms}")
        object.__setattr__(self, "symbols", syms)
        object.__setattr__(self, "_lookup", {s: k for k, s in enumerate(syms)})

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    def index(self, label) -> int:
        try:
            return self._lookup[str(label)]
        except KeyError:
            raise StructureError(f"symbol {label!r} not in alphabet {self.symbols}") from None

    def indices(self, labels: Iterable) -> list[int]:
        labels = list(labels)
        try:
            return list(map(self._lookup.__getitem__, labels))
        except (KeyError, TypeError):  # a label that is not a known str
            return [self.index(s) for s in labels]


@dataclass(frozen=True)
class History:
    """Paired action/output sequences of equal length (a joint history)."""

    actions: tuple[str, ...]
    outputs: tuple[str, ...]

    def __init__(self, actions: Iterable, outputs: Iterable):
        acts = tuple(str(a) for a in actions)
        outs = tuple(str(y) for y in outputs)
        if len(acts) != len(outs):
            raise StructureError(
                f"history needs equally many actions and outputs, got {len(acts)} vs {len(outs)}"
            )
        object.__setattr__(self, "actions", acts)
        object.__setattr__(self, "outputs", outs)

    def __len__(self) -> int:
        return len(self.actions)

    def extended(self, action, output) -> "History":
        return History(self.actions + (str(action),), self.outputs + (str(output),))

    @staticmethod
    def empty() -> "History":
        return History((), ())


class MooreClass(Enum):
    """Structural class of a transducer's one-step kernel."""

    MEALY = "Mealy"
    INPUT_MOORE = "InputMoore"
    OUTPUT_MOORE = "OutputMoore"
    IO_MOORE = "IOMoore"


@dataclass(frozen=True)
class Transducer:
    """Finite memory-state machine over paired action/output alphabets.

    kernel[a, y, i, j] is the probability of emitting output y and moving to
    state i, given action a in state j.  Columns (a, :, :, j) therefore sum
    to one for a valid machine.  initial is a distribution over states.
    """

    name: str
    states: tuple[str, ...]
    actions: Alphabet
    outputs: Alphabet
    kernel: np.ndarray
    initial: np.ndarray

    def __init__(self, name, states, actions, outputs, kernel, initial):
        states = tuple(str(s) for s in states)
        if not states:
            raise StructureError("transducer needs at least one state")
        if len(set(states)) != len(states):
            raise StructureError("state labels must be distinct")
        if not isinstance(actions, Alphabet):
            actions = Alphabet(actions)
        if not isinstance(outputs, Alphabet):
            outputs = Alphabet(outputs)
        kernel = np.asarray(kernel, dtype=float)
        n = len(states)
        expected = (len(actions), len(outputs), n, n)
        if kernel.shape != expected:
            raise StructureError(f"kernel shape {kernel.shape} != {expected} (actions, outputs, n, n)")
        initial = np.asarray(initial, dtype=float)
        if initial.shape != (n,):
            raise StructureError(f"initial shape {initial.shape} != ({n},)")
        object.__setattr__(self, "name", str(name))
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "actions", actions)
        object.__setattr__(self, "outputs", outputs)
        object.__setattr__(self, "kernel", _frozen_array(kernel))
        object.__setattr__(self, "initial", _frozen_array(initial))

    @property
    def n(self) -> int:
        return len(self.states)

    def emission_marginals(self) -> np.ndarray:
        """em[a, y, j] = Pr(output y | action a, state j)."""
        return self.kernel.sum(axis=2)

    def transition_marginals(self) -> np.ndarray:
        """tr[a, i, j] = Pr(next state i | action a, state j)."""
        return self.kernel.sum(axis=1)

    def word_indices(self, h: History) -> tuple[list[int], list[int]]:
        """Map a history's labels to (action, output) index lists."""
        return self.actions.indices(h.actions), self.outputs.indices(h.outputs)

    def __repr__(self) -> str:
        return (
            f"Transducer({self.name!r}, n={self.n}, "
            f"actions={self.actions.symbols}, outputs={self.outputs.symbols})"
        )


@dataclass(frozen=True)
class GeneralizedTransducer:
    """Quasi-probabilistic realization: real matrices with boundary vectors.

    Word probabilities are u @ M(word) @ v with the same time ordering as the
    stochastic case.  v is a quasi-distribution (sums to one, entries may be
    negative); u generalizes the all-ones evaluation vector.
    """

    dims: int
    actions: Alphabet
    outputs: Alphabet
    matrices: np.ndarray
    u: np.ndarray
    v: np.ndarray
    name: str = "generalized"

    def __init__(self, dims, actions, outputs, matrices, u, v, name="generalized"):
        dims = int(dims)
        if dims < 1:
            raise StructureError("dims must be positive")
        if not isinstance(actions, Alphabet):
            actions = Alphabet(actions)
        if not isinstance(outputs, Alphabet):
            outputs = Alphabet(outputs)
        matrices = np.asarray(matrices, dtype=float)
        expected = (len(actions), len(outputs), dims, dims)
        if matrices.shape != expected:
            raise StructureError(f"matrices shape {matrices.shape} != {expected}")
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        if u.shape != (dims,) or v.shape != (dims,):
            raise StructureError("u and v must be length-dims vectors")
        if not abs(v.sum() - 1.0) <= 1e-8:
            raise StructureError(
                f"v must be a quasi-distribution (components sum to 1), got {v.sum():.12g}"
            )
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "actions", actions)
        object.__setattr__(self, "outputs", outputs)
        object.__setattr__(self, "matrices", _frozen_array(matrices))
        object.__setattr__(self, "u", _frozen_array(u))
        object.__setattr__(self, "v", _frozen_array(v))
        object.__setattr__(self, "name", str(name))

    @property
    def n(self) -> int:
        return self.dims

    def word_indices(self, h: History) -> tuple[list[int], list[int]]:
        return self.actions.indices(h.actions), self.outputs.indices(h.outputs)

    def __repr__(self) -> str:
        return f"GeneralizedTransducer({self.name!r}, dims={self.dims})"


def _require_laws(rows: np.ndarray, tol: float, label) -> None:
    """Refuse, as a StructureError, the first row of the 2-d ``rows`` with an
    entry below -tol (NaN included) or a sum off 1 by more than max(tol, 1e-9).

    ``label(i)`` names row i in the message; it is called, never formatted,
    so a label read from a file may hold any text.
    """
    negative = ~np.all(rows >= -tol, axis=1)
    # a sum that overflows is inf, refused below; inf - inf comes only with a negative entry
    with np.errstate(over="ignore", invalid="ignore"):
        sums = rows.sum(axis=1)
    bad = negative | ~(np.abs(sums - 1.0) <= max(tol, 1e-9))
    if bad.any():
        i = int(np.argmax(bad))
        if negative[i]:
            raise StructureError(f"{label(i)} has a negative entry: {rows[i].min():.3g}")
        raise StructureError(f"{label(i)} sums to {sums[i]:.12g}, not 1")


# ---------------------------------------------------------------------------
# Action policies
# ---------------------------------------------------------------------------


class Policy:
    """Action law used by samplers and marginal computations.

    The library never assumes a default statistical law for actions; whenever
    a result depends on how actions are drawn, the policy used is an explicit
    argument and is stamped into the output.  A policy looks the history up in
    its table (empty unless one is given) and draws from its fallback law
    everywhere else: ``weights``, i.i.d. at every step, or uniform when there
    are none.  So only the prefixes of its keys can make the action law depend
    on the history.  A policy takes weights or a table, not both.
    """

    def __init__(self, weights=None, table: Mapping[History, Sequence[float]] | None = None):
        if weights is not None and table is not None:
            raise StructureError("a policy takes weights or a table, not both")
        self.weights = None
        self.table: Mapping[History, np.ndarray] = MappingProxyType({})
        self._tabled = table is not None  # a table policy, its table empty or not
        if weights is not None:
            w = np.asarray(weights, dtype=float)
            if w.ndim != 1 or w.size == 0:
                raise StructureError("weights must be a non-empty vector")
            _require_laws(w[None], 0.0, lambda _: "weighted policy")
            self.weights = _frozen_array(w)
        if table is not None:
            checked: dict[History, np.ndarray] = {}
            for h, dist in table.items():
                if not isinstance(h, History):
                    raise StructureError("table keys must be History instances")
                arr = np.asarray(dist, dtype=float)
                _require_laws(arr.reshape(1, -1), 0.0, lambda _: f"table entry for {h}")
                checked[h] = _frozen_array(arr)
            self.table = checked

    def action_dist(self, history: History, n_actions: int) -> np.ndarray:
        dist = self.table.get(history)
        if dist is None:
            return self.fallback(n_actions)
        if dist.size != n_actions:
            raise StructureError("table entry has the wrong number of actions")
        return dist

    def fallback(self, n_actions: int) -> np.ndarray:
        """The action law for every history that is not a table key."""
        if self.weights is None:
            return np.full(n_actions, 1.0 / n_actions)
        if n_actions != self.weights.size:
            raise StructureError(
                f"policy has {self.weights.size} action weights but the machine has {n_actions}"
            )
        return self.weights

    def describe(self) -> str:
        if self.weights is not None:
            return "weighted:" + ",".join(repr(float(x)) for x in self.weights)
        if self._tabled:
            return f"table:{len(self.table)} entries, uniform fallback"
        return "uniform"

    def __repr__(self):
        return f"Policy({self.describe()!r})"

    def key_prefixes(self) -> frozenset:
        """Every prefix of a table key, the keys included.

        No extension of a history outside this set is a key, so from there on
        every action is drawn from the fallback law.
        """
        return frozenset(
            History(h.actions[:k], h.outputs[:k]) for h in self.table for k in range(len(h) + 1)
        )

    @staticmethod
    def uniform() -> "Policy":
        """Independent uniformly random actions at every step."""
        return Policy()

    @staticmethod
    def weighted(weights) -> "Policy":
        """Independent identically distributed actions with fixed weights."""
        return Policy(weights=weights)

    @staticmethod
    def from_table(table: Mapping[History, Sequence[float]]) -> "Policy":
        """History-keyed action distributions with a uniform fallback."""
        return Policy(table=table)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    kind: str
    where: tuple
    amount: float
    message: str

    def __str__(self):
        return self.message


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...] = ()

    @property
    def is_valid(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.is_valid

    def __str__(self):
        if self.is_valid:
            return "valid"
        return "\n".join(str(v) for v in self.violations)


def validate(t: Transducer, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Check the probabilistic invariants of a transducer.

    Structural problems (bad shapes, unknown symbols) raise at construction
    time; this reports numeric defects: NaN or infinite kernel or initial
    entries, negative ones, per-(action, state) columns whose total mass
    misses one, and an initial vector that does not sum to one.
    """
    found: list[Violation] = []
    kern = t.kernel
    for a, y, i, j in np.argwhere(~np.isfinite(kern)):
        found.append(
            Violation(
                "non_finite",
                (t.actions.symbols[a], t.outputs.symbols[y], t.states[i], t.states[j]),
                float(kern[a, y, i, j]),
                f"kernel entry ({t.outputs.symbols[y]}, {t.states[i]} | "
                f"{t.actions.symbols[a]}, {t.states[j]}) = {kern[a, y, i, j]} is not finite",
            )
        )
    for j in np.flatnonzero(~np.isfinite(t.initial)):
        found.append(
            Violation(
                "non_finite",
                (t.states[j],),
                float(t.initial[j]),
                f"initial[{t.states[j]}] = {t.initial[j]} is not finite",
            )
        )
    neg = np.argwhere(kern < -tol)
    for a, y, i, j in neg:
        found.append(
            Violation(
                "negative_entry",
                (t.actions.symbols[a], t.outputs.symbols[y], t.states[i], t.states[j]),
                float(kern[a, y, i, j]),
                f"kernel entry ({t.outputs.symbols[y]}, {t.states[i]} | "
                f"{t.actions.symbols[a]}, {t.states[j]}) = {kern[a, y, i, j]:.3g} < 0",
            )
        )
    col_mass = kern.sum(axis=(1, 2))  # [a, j]
    for a, j in np.argwhere(np.abs(col_mass - 1.0) > tol):
        dev = float(col_mass[a, j] - 1.0)
        found.append(
            Violation(
                "column_mass",
                (t.actions.symbols[a], t.states[j]),
                dev,
                f"mass for (action {t.actions.symbols[a]}, state {t.states[j]}) "
                f"is {col_mass[a, j]:.12g}, off by {dev:.3g}",
            )
        )
    for j in np.flatnonzero(t.initial < -tol):
        found.append(
            Violation(
                "initial_negative",
                (t.states[j],),
                float(t.initial[j]),
                f"initial[{t.states[j]}] = {t.initial[j]:.3g} < 0",
            )
        )
    init_dev = float(t.initial.sum() - 1.0)
    if abs(init_dev) > tol:
        found.append(
            Violation(
                "initial_mass",
                (),
                init_dev,
                f"initial distribution sums to {t.initial.sum():.12g}, off by {init_dev:.3g}",
            )
        )
    return ValidationReport(tuple(found))


# ---------------------------------------------------------------------------
# Moore classification
# ---------------------------------------------------------------------------


def is_input_moore(t: Transducer, tol: float = DEFAULT_TOL) -> bool:
    """True when the output marginal Pr(y | a, s) does not depend on a."""
    em = t.emission_marginals()  # [a, y, j]
    return bool(np.all(np.abs(em - em[0]) <= tol))


def is_output_moore(t: Transducer, tol: float = DEFAULT_TOL) -> bool:
    """True when each (a, s) joint over (y, s') is the product of its marginals."""
    em = t.emission_marginals()  # [a, y, j]
    tr = t.transition_marginals()  # [a, i, j]
    product = np.einsum("ayj,aij->ayij", em, tr)
    return bool(np.all(np.abs(t.kernel - product) <= tol))


def classify_moore(t: Transducer, tol: float = DEFAULT_TOL) -> MooreClass:
    """Classify a transducer by which Moore-style factorizations it admits.

    Note that a single-action machine is vacuously input-Moore: there is no
    other action for the emission law to differ on.
    """
    inp = is_input_moore(t, tol)
    out = is_output_moore(t, tol)
    if inp and out:
        return MooreClass.IO_MOORE
    if inp:
        return MooreClass.INPUT_MOORE
    if out:
        return MooreClass.OUTPUT_MOORE
    return MooreClass.MEALY


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def from_pomdp(
    transition: np.ndarray,
    observation: np.ndarray,
    initial: np.ndarray,
    actions: Sequence[str] | None = None,
    outputs: Sequence[str] | None = None,
    name: str = "pomdp",
    tol: float = DEFAULT_TOL,
) -> Transducer:
    """Build a transducer from per-action state dynamics and an observation map.

    transition[a, s, s'] is the chance of moving s -> s' under action a;
    observation[s, y] is the chance of observing y in state s.  The induced
    one-step kernel emits from the current state and then moves, so the
    result is always I-O Moore by construction.
    """
    transition = np.asarray(transition, dtype=float)
    observation = np.asarray(observation, dtype=float)
    initial = np.asarray(initial, dtype=float)
    if transition.ndim != 3 or transition.shape[1] != transition.shape[2]:
        raise StructureError("transition must have shape (n_actions, n, n)")
    n = transition.shape[1]
    if observation.ndim != 2 or observation.shape[0] != n:
        raise StructureError("observation must have shape (n, n_outputs)")
    if initial.shape != (n,):
        raise StructureError("initial must have length n")
    if not (np.all(transition >= -tol) and np.all(np.abs(transition.sum(axis=2) - 1.0) <= tol)):
        raise StructureError("transition rows must be probability distributions")
    if not (np.all(observation >= -tol) and np.all(np.abs(observation.sum(axis=1) - 1.0) <= tol)):
        raise StructureError("observation rows must be probability distributions")
    n_actions = transition.shape[0]
    n_outputs = observation.shape[1]
    if actions is None:
        actions = [str(k) for k in range(n_actions)]
    if outputs is None:
        outputs = [str(k) for k in range(n_outputs)]
    # kernel[a, y, i, j] = transition[a, j, i] * observation[j, y]
    kernel = np.einsum("aji,jy->ayij", transition, observation)
    states = [f"s{k}" for k in range(n)]
    return Transducer(name, states, Alphabet(actions), Alphabet(outputs), kernel, initial)


def _deck_arrangements(reds: int, blacks: int) -> list[tuple[str, ...]]:
    total = reds + blacks
    out = []
    for positions in itertools.combinations(range(total), reds):
        seq = ["B"] * total
        for p in positions:
            seq[p] = "R"
        out.append(tuple(seq))
    out.sort()
    return out


def make_card_deck(reds: int, blacks: int, variant: str = "flip_shuffle") -> Transducer:
    """Card-deck world: states are color arrangements, output is the top color.

    The robot sees only the color of the top card.  Both variants rotate the
    deck deterministically; ``flip_shuffle`` pairs the rotation with a uniform
    reshuffle, ``cyclic`` pairs it with the inverse rotation (so every action
    is a permutation of arrangements).  The deck starts in a known arrangement
    (the lexicographically first): a shuffle then forgets where the deck
    started while rotations keep it pinned, which is exactly what makes the
    shuffle variant non-reversible.
    """
    if reds < 1 or blacks < 1:
        raise StructureError("need at least one card of each color")
    if reds + blacks > 8:
        raise StructureError(
            f"deck of {reds + blacks} cards exceeds the supported size cap of 8"
        )
    if variant not in ("flip_shuffle", "cyclic"):
        raise StructureError(f"unknown variant {variant!r}")
    arrangements = _deck_arrangements(reds, blacks)
    n = len(arrangements)
    index = {arr: k for k, arr in enumerate(arrangements)}
    outputs = Alphabet(["red", "black"])
    if variant == "flip_shuffle":
        actions = Alphabet(["rotate", "shuffle"])
    else:
        actions = Alphabet(["rotate_left", "rotate_right"])
    kernel = np.zeros((2, 2, n, n))
    for j, arr in enumerate(arrangements):
        y = 0 if arr[0] == "R" else 1  # index into ["red", "black"]
        left = arr[1:] + arr[:1]
        if variant == "flip_shuffle":
            kernel[0, y, index[left], j] = 1.0
            kernel[1, y, :, j] = 1.0 / n
        else:
            right = arr[-1:] + arr[:-1]
            kernel[0, y, index[left], j] = 1.0
            kernel[1, y, index[right], j] = 1.0
    states = ["".join(arr) for arr in arrangements]
    initial = np.zeros(n)
    initial[0] = 1.0
    name = f"card-deck-{reds}r{blacks}b-{variant.replace('_', '-')}"
    return Transducer(name, states, actions, outputs, kernel, initial)
