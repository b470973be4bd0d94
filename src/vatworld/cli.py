"""Command-line front end.

Exit codes: 0 for success (or a true verdict), 1 for an honest negative
verdict or property failure, 2 for usage and input errors.  Reports are
deterministic given identical inputs and flags; randomness always flows
through an explicit --seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import io as vio
from .beliefs import build_msp, is_unifilar
from .core import DEFAULT_TOL, History, Policy, Transducer, classify_moore, make_card_deck, validate
from .epsilon import epsilon_from_histories, epsilon_transducer
from .errors import MspClosureError, StructureError, VatworldError
from .fixtures import ALL_FIXTURES
from .linalg_reduce import canonical_dimension, reduce_generalized
from .minimize import coarsest_bisimulation, quotient
from .oracle import equivalent, memory_class, sample_trajectory
from .retro import bdmsm_from_word, log_probability, smooth
from .reverse import check_reversible, is_action_counifilar, reverse_kernel, state_marginals


@dataclass
class RunReport:
    command: str
    inputs: dict = field(default_factory=dict)
    parameters: dict = field(default_factory=dict)
    verdicts: list = field(default_factory=list)
    artifacts: list = field(default_factory=list)

    def add(self, name, value):
        self.verdicts.append({"name": name, "value": value})

    def to_json(self) -> str:
        return vio.dumps(vars(self))  # the fields, in declaration order

    def to_text(self) -> str:
        lines = [f"command: {self.command}"]
        for path, digest in self.inputs.items():
            lines.append(f"input: {path} sha256={digest[:16]}")
        for key, value in self.parameters.items():
            lines.append(f"param: {key}={value}")
        for v in self.verdicts:
            lines.append(f"{v['name']}: {_plain(v['value'])}")
        for a in self.artifacts:
            lines.append(f"wrote: {a}")
        return "\n".join(lines) + "\n"


def _plain(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, dict)):
        return json.dumps(value)
    return str(value)


def _read_doc(report: RunReport, path: str):
    """An input file's document; ``report.inputs`` gets the SHA-256 of its bytes."""
    doc, report.inputs[path] = vio.read_doc(path)
    return doc


def _load_machine(report: RunReport, path: str, finite: bool = True) -> Transducer:
    """Load a machine file; unless finite is False, refuse a NaN or infinite entry."""
    t = vio.transducer_from_doc(_read_doc(report, path), where=path)
    if finite and not (np.isfinite(t.kernel).all() and np.isfinite(t.initial).all()):
        raise StructureError(f"{path}: {validate(t).violations[0]}")  # the first is non_finite
    return t


def _require_start(t: Transducer, path: str) -> None:
    """Refuse a machine whose initial law has no mass to start from, or a negative entry."""
    mass = float(t.initial.sum())
    if not mass > 0.0:
        raise StructureError(f"{path}: initial has no positive mass (it sums to {mass:.12g})")
    if t.initial.min() < 0.0:
        raise StructureError(f"{path}: initial has a negative entry: {t.initial.min():.12g}")


def _parse_policy(report: RunReport, spec: str, t: Transducer) -> Policy:
    """The --policy law; it is refused, naming the spec or the file (and a
    table entry), when its weights or an entry's dist are not one weight per
    action of ``t`` or a table label is not in ``t``'s alphabets."""
    if spec == "uniform":
        return Policy.uniform()
    if spec.startswith("weighted:"):
        where = f"policy {spec!r}"
        try:
            weights = [float(x) for x in spec.split(":", 1)[1].split(",")]
        except ValueError as exc:
            raise StructureError(f"{where}: {exc}") from exc
        policy = Policy.weighted(weights)
    elif spec.startswith("file:"):
        where = spec.split(":", 1)[1]
        policy = vio.policy_from_doc(_read_doc(report, where), where=where)
        for k, (h, dist) in enumerate(policy.table.items()):  # in entry order
            spot = f"{where}: entries[{k}]"
            try:
                t.word_indices(h)
            except StructureError as exc:
                raise StructureError(f"{spot}: {exc}") from None
            if dist.size != len(t.actions):
                raise StructureError(f"{spot}: dist has {dist.size} weights, the machine has {len(t.actions)} actions")
    else:
        raise StructureError(f"unknown policy {spec!r}; expected uniform, weighted:<w1,w2,...>, or file:<path>")
    weights = policy.weights
    if weights is not None and weights.size != len(t.actions):
        raise StructureError(f"{where}: weights has {weights.size} entries, the machine has {len(t.actions)} actions")
    return policy


def _tolerance(text: str) -> float:
    """A --tol value: a finite number at least 0 (NaN and inf would flip verdicts)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a finite number at least 0, got {text!r}")
    return value


def _symbols(raw: str) -> tuple[str, ...]:
    return tuple(s for s in raw.split(",") if s != "")


def _pretty_edges(t: Transducer) -> list[str]:
    """Edge list with y|a:p labels: probability of (output, next) given action."""
    edges: dict = {}  # (from, to) -> labels, in the order of the records
    for r in vio.kernel_records(t, t.kernel, walk=(3, 2, 0, 1)):
        label = f"{r['output']}|{r['action']}:{r['prob']:g}"
        edges.setdefault((r["from"], r["to"]), []).append(label)
    return [f"{src} -> {dst}  [{' '.join(labels)}]" for (src, dst), labels in edges.items()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vatworld",
        description="Inspect, reduce, reverse, and retrodict finite stochastic transducers.",
    )
    parser.add_argument("--format", choices=["text", "machine"], default="text")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("validate", help="check a machine file's probabilistic invariants")
    p.add_argument("file")
    p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)

    p = sub.add_parser("info", help="memory class, Moore class, and unifilarity")
    p.add_argument("file")
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)
    p.add_argument("--pretty", action="store_true")

    p = sub.add_parser("prob", help="probability of an output word given an action word")
    p.add_argument("file")
    p.add_argument("--actions", required=True, help="comma-separated action symbols")
    p.add_argument("--outputs", required=True, help="comma-separated output symbols")

    p = sub.add_parser("sample", help="sample a trajectory")
    p.add_argument("file")
    p.add_argument("--length", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--policy", default="uniform")

    p = sub.add_parser("equivalent", help="compare two machines' word probabilities")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)

    p = sub.add_parser("minimize", help="quotient by the coarsest bisimulation")
    p.add_argument("file")
    p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)
    p.add_argument("--out")

    p = sub.add_parser("dimension", help="dimension of the history-vector span")
    p.add_argument("file")
    p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)

    p = sub.add_parser(
        "reduce-gt", help="quasi-probabilistic realization (rank-minimal with --both-sides)"
    )
    p.add_argument("file")
    p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)
    p.add_argument("--both-sides", action="store_true")
    p.add_argument("--out")

    p = sub.add_parser("msp", help="machine of reachable Bayesian beliefs")
    p.add_argument("file")
    p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)
    p.add_argument("--max-states", type=int, default=1000)
    p.add_argument("--out")

    p = sub.add_parser("epsilon", help="minimal predictive machine")
    p.add_argument("file")
    p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)
    p.add_argument("--max-states", type=int, default=1000)
    p.add_argument("--from-histories", action="store_true")
    p.add_argument("--hist-depth", type=int, default=4)
    p.add_argument("--future-depth", type=int, default=3)
    p.add_argument("--out")

    p = sub.add_parser("reverse", help="reversibility verdict and backward kernels")
    p.add_argument("file")
    p.add_argument("--policy", default="uniform")
    p.add_argument("--horizon", type=int, default=4)
    p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)
    p.add_argument("--out", help="path prefix for per-time backward kernel files")

    p = sub.add_parser("smooth", help="state posteriors at every time of a trace")
    p.add_argument("file")
    p.add_argument("--trace", required=True, help="history file (actions + outputs)")

    p = sub.add_parser("fixtures", help="write the bundled example machines to files")
    p.add_argument("--dir", default=".")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``run`` and ``main`` share: built once per process, since
    parsing changes nothing in it.  ``build_parser`` still returns a new one."""
    return build_parser()


def _cmd_validate(args, report: RunReport) -> int:
    t = _load_machine(report, args.file, finite=False)  # validate names them as violations
    result = validate(t, args.tol)
    report.parameters["tol"] = args.tol
    report.add("valid", result.is_valid)
    report.add("violations", [str(v) for v in result.violations])
    return 0 if result.is_valid else 1


def _cmd_info(args, report: RunReport) -> int:
    t = _load_machine(report, args.file)
    report.parameters.update({"depth": args.depth, "tol": args.tol})
    report.add("name", t.name)
    report.add("states", t.n)
    report.add("moore_class", classify_moore(t, args.tol).value)
    report.add("memory_class", memory_class(t, args.depth, args.tol).value)
    report.add("unifilar", is_unifilar(t, args.tol))
    report.add("action_counifilar", is_action_counifilar(t, args.tol))
    if args.pretty:
        for line in _pretty_edges(t):
            report.add("edge", line)
    return 0


def _cmd_prob(args, report: RunReport) -> int:
    t = _load_machine(report, args.file)
    _require_start(t, args.file)
    h = History(_symbols(args.actions), _symbols(args.outputs))
    report.parameters.update({"actions": args.actions, "outputs": args.outputs})
    log_p = log_probability(t, h)
    try:
        p = math.exp(log_p)  # 0.0 below about e^-745
    except OverflowError:  # only a kernel that is not stochastic gets here
        p = math.inf
    report.add("word_probability", p)
    report.add("log_probability", log_p)
    return 0


def _cmd_sample(args, report: RunReport) -> int:
    t = _load_machine(report, args.file)
    _require_start(t, args.file)
    policy = _parse_policy(report, args.policy, t)
    try:
        acts, outs, states = sample_trajectory(t, policy, args.length, args.seed)
    except ValueError as exc:  # a column or an action law that is not a distribution
        raise StructureError(f"cannot sample {t.name}: {exc}") from exc
    report.parameters.update({"length": args.length, "seed": args.seed, "policy": policy.describe()})
    report.add("actions", list(acts))
    report.add("outputs", list(outs))
    report.add("states", list(states))
    return 0


def _cmd_equivalent(args, report: RunReport) -> int:
    t1 = _load_machine(report, args.file1)
    t2 = _load_machine(report, args.file2)
    verdict = equivalent(t1, t2, args.depth, args.tol)
    report.parameters.update({"depth": verdict.depth_checked, "tol": args.tol})
    report.add("equivalent", verdict.equivalent)
    if verdict.counterexample is not None:
        ce = verdict.counterexample
        report.add(
            "counterexample",
            {
                "actions": list(ce.history.actions),
                "outputs": list(ce.history.outputs),
                "p1": ce.p1,
                "p2": ce.p2,
                "difference": ce.difference,
            },
        )
    return 0 if verdict.equivalent else 1


def _cmd_minimize(args, report: RunReport) -> int:
    t = _load_machine(report, args.file)
    part = coarsest_bisimulation(t, args.tol)
    reduced = quotient(t, part, args.tol)
    report.parameters["tol"] = args.tol
    report.add("states_before", t.n)
    report.add("states_after", reduced.n)
    report.add("partition", [[t.states[s] for s in c] for c in part.classes])
    if args.out:
        vio.save_transducer(reduced, args.out)
        report.artifacts.append(args.out)
    return 0


def _cmd_dimension(args, report: RunReport) -> int:
    t = _load_machine(report, args.file)
    report.parameters["tol"] = args.tol
    report.add("states", t.n)
    report.add("canonical_dimension", canonical_dimension(t, args.tol))
    return 0


def _cmd_reduce_gt(args, report: RunReport) -> int:
    t = _load_machine(report, args.file)
    _require_start(t, args.file)
    mass = float(t.initial.sum())
    if not abs(mass - 1.0) <= 1e-8:  # the slack GeneralizedTransducer gives its start v
        raise StructureError(f"{args.file}: initial sums to {mass:.12g}, not 1")
    reduced = reduce_generalized(t, args.tol, args.both_sides)
    report.parameters.update({"tol": args.tol, "both_sides": args.both_sides})
    report.add("states_before", t.n)
    report.add("dims_after", reduced.dims)
    if args.out:
        vio.save_generalized(reduced, args.out)
        report.artifacts.append(args.out)
    return 0


def _cmd_msp(args, report: RunReport) -> int:
    t = _load_machine(report, args.file)
    msp = build_msp(t, args.tol, args.max_states)
    report.parameters.update({"tol": args.tol, "max_states": args.max_states})
    report.add("belief_states", msp.n)
    if args.out:
        doc = vio.transducer_to_doc(msp.machine)
        doc["state_payloads"] = dict(zip(msp.machine.states, msp.beliefs.tolist()))
        vio.write_doc(doc, args.out)
        report.artifacts.append(args.out)
    return 0


def _cmd_epsilon(args, report: RunReport) -> int:
    t = _load_machine(report, args.file)
    report.parameters["tol"] = args.tol
    if args.from_histories:
        clustering = epsilon_from_histories(t, args.hist_depth, args.future_depth, args.tol)
        machine = clustering.machine
        report.parameters.update(
            {"hist_depth": args.hist_depth, "future_depth": args.future_depth}
        )
        report.add("route", "history-clustering")
        report.add("states", machine.n)
        report.add("stabilized", clustering.stabilized)
    else:
        eps = epsilon_transducer(t, args.tol, args.max_states)
        machine = eps.machine
        report.add("route", eps.provenance["route"])
        report.add("states", machine.n)
        report.add("faithfulness_residual", eps.provenance["faithfulness_residual"])
    if args.out:
        vio.save_transducer(machine, args.out)
        report.artifacts.append(args.out)
    return 0


def _cmd_reverse(args, report: RunReport) -> int:
    t = _load_machine(report, args.file)
    policy = _parse_policy(report, args.policy, t)
    verdict = check_reversible(t, args.horizon, args.tol)
    report.parameters.update(
        {"policy": policy.describe(), "horizon": args.horizon, "tol": args.tol}
    )
    report.add("reversible", verdict.reversible)
    report.add("route", verdict.route)
    if verdict.witness is not None:
        report.add("witness", str(verdict.witness))
    if verdict.reversible and args.out:
        marginals = state_marginals(t, policy, args.horizon)
        for tau in range(args.horizon):
            rk = reverse_kernel(t, marginals, tau, args.tol)
            doc = {
                "tau": tau,
                "policy": policy.describe(),
                "defined": {
                    action: [t.states[j] for j in np.flatnonzero(mask)]
                    for action, mask in zip(t.actions.symbols, rk.defined_mask)
                },
                "kernel": vio.kernel_records(t, rk.matrices, walk=(0, 1, 2, 3)),
            }
            path = f"{args.out}.tau{tau}.json"
            vio.write_doc(doc, path)
            report.artifacts.append(path)
    return 0 if verdict.reversible else 1


def _cmd_smooth(args, report: RunReport) -> int:
    t = _load_machine(report, args.file)
    _require_start(t, args.file)
    h = vio.history_from_doc(_read_doc(report, args.trace), where=args.trace)
    try:
        t.word_indices(h)
    except StructureError as exc:  # a label the machine lacks
        raise StructureError(f"{args.trace}: {exc}") from None
    post = smooth(t, h)
    rho = bdmsm_from_word(t, h)
    report.parameters.update({"trace_length": len(h)})
    report.add("posteriors", post.tolist())
    report.add("final_bdmsm", rho.matrix.tolist())
    return 0


def _cmd_fixtures(args, report: RunReport) -> int:
    os.makedirs(args.dir, exist_ok=True)
    machines = [build() for build in ALL_FIXTURES.values()]
    machines.append(make_card_deck(2, 2, "flip_shuffle"))
    machines.append(make_card_deck(2, 2, "cyclic"))
    for m in machines:
        path = os.path.join(args.dir, f"{m.name}.json")
        vio.save_transducer(m, path)
        report.artifacts.append(path)
    return 0


_HANDLERS = {
    "validate": _cmd_validate,
    "info": _cmd_info,
    "prob": _cmd_prob,
    "sample": _cmd_sample,
    "equivalent": _cmd_equivalent,
    "minimize": _cmd_minimize,
    "dimension": _cmd_dimension,
    "reduce-gt": _cmd_reduce_gt,
    "msp": _cmd_msp,
    "epsilon": _cmd_epsilon,
    "reverse": _cmd_reverse,
    "smooth": _cmd_smooth,
    "fixtures": _cmd_fixtures,
}


def _execute(args) -> tuple[int, RunReport]:
    report = RunReport(command=args.cmd)
    try:
        code = _HANDLERS[args.cmd](args, report)
    except MspClosureError as exc:
        report.add("error", str(exc))
        return 1, report
    except (VatworldError, OSError) as exc:
        report.add("error", str(exc))
        return 2, report
    return code, report


def run(argv) -> tuple[int, RunReport]:
    """Parse and execute; returns (exit code, report).  Raises SystemExit(2)
    on unparseable arguments, matching argparse behavior."""
    args = _parser().parse_args(argv)
    return _execute(args)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    code, report = _execute(args)
    if args.format == "machine":
        sys.stdout.write(report.to_json())
    else:
        sys.stdout.write(report.to_text())
    return code


if __name__ == "__main__":
    sys.exit(main())
