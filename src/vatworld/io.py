"""Self-describing JSON file formats with canonical, byte-stable writers.

A machine file lists only the nonzero kernel entries as (from, action,
output, to, prob) records in a fixed sort order; floats are emitted with
Python's shortest round-tripping repr, so read -> write is byte-identical
for any file this module wrote.
"""

from __future__ import annotations

import json

import numpy as np

from .core import Alphabet, GeneralizedTransducer, History, Policy, Transducer
from .errors import StructureError


def _require(doc: dict, key: str, kind, where: str):
    if key not in doc:
        raise StructureError(f"{where}: missing field {key!r}")
    value = doc[key]
    if kind is not None and not isinstance(value, kind):
        raise StructureError(f"{where}: field {key!r} has the wrong type")
    return value


# ---------------------------------------------------------------------------
# Transducer files
# ---------------------------------------------------------------------------


def kernel_records(t: Transducer, kernel: np.ndarray, walk: tuple[int, ...]) -> list[dict]:
    """The nonzero entries of ``kernel[a, y, to, from]`` as (from, action, output,
    to, prob) records, in the row-major order of the axes listed in ``walk``."""
    view = kernel.transpose(walk)
    spots = np.nonzero(view)
    a, y, i, j = (spots[walk.index(axis)].tolist() for axis in range(4))
    return [
        {
            "from": t.states[src],
            "action": t.actions.symbols[act],
            "output": t.outputs.symbols[out],
            "to": t.states[dst],
            "prob": p,
        }
        for src, act, out, dst, p in zip(j, a, y, i, view[spots].tolist())
    ]


def transducer_to_doc(t: Transducer) -> dict:
    return {
        "name": t.name,
        "states": list(t.states),
        "actions": list(t.actions.symbols),
        "outputs": list(t.outputs.symbols),
        "initial": [float(x) for x in t.initial],
        "kernel": kernel_records(t, t.kernel, walk=(3, 0, 1, 2)),
    }


def transducer_from_doc(doc: dict, where: str = "transducer") -> Transducer:
    if not isinstance(doc, dict):
        raise StructureError(f"{where}: expected an object at the top level")
    name = _require(doc, "name", str, where)
    states = _require(doc, "states", list, where)
    actions = _require(doc, "actions", list, where)
    outputs = _require(doc, "outputs", list, where)
    initial = _require(doc, "initial", list, where)
    records = _require(doc, "kernel", list, where)
    state_idx = {str(s): k for k, s in enumerate(states)}
    act = Alphabet(actions)
    out = Alphabet(outputs)
    n = len(states)
    kernel = np.zeros((len(act), len(out), n, n))
    for k, rec in enumerate(records):
        spot = f"{where}: kernel[{k}]"
        if not isinstance(rec, dict):
            raise StructureError(f"{spot}: expected an object")
        src = str(_require(rec, "from", None, spot))
        dst = str(_require(rec, "to", None, spot))
        if src not in state_idx:
            raise StructureError(f"{spot}: unknown state {src!r}")
        if dst not in state_idx:
            raise StructureError(f"{spot}: unknown state {dst!r}")
        a = act.index(_require(rec, "action", None, spot))
        y = out.index(_require(rec, "output", None, spot))
        prob = _require(rec, "prob", (int, float), spot)
        kernel[a, y, state_idx[dst], state_idx[src]] = float(prob)
    return Transducer(name, states, act, out, kernel, initial)


# ---------------------------------------------------------------------------
# Generalized-transducer files
# ---------------------------------------------------------------------------


def generalized_to_doc(g: GeneralizedTransducer) -> dict:
    matrices = []
    for a in range(len(g.actions)):
        for y in range(len(g.outputs)):
            matrices.append(
                {
                    "action": g.actions.symbols[a],
                    "output": g.outputs.symbols[y],
                    "rows": [[float(x) for x in row] for row in g.matrices[a, y]],
                }
            )
    return {
        "dims": g.dims,
        "actions": list(g.actions.symbols),
        "outputs": list(g.outputs.symbols),
        "u": [float(x) for x in g.u],
        "v": [float(x) for x in g.v],
        "matrices": matrices,
    }


def generalized_from_doc(doc: dict, where: str = "generalized transducer") -> GeneralizedTransducer:
    if not isinstance(doc, dict):
        raise StructureError(f"{where}: expected an object at the top level")
    dims = _require(doc, "dims", int, where)
    act = Alphabet(_require(doc, "actions", list, where))
    out = Alphabet(_require(doc, "outputs", list, where))
    u = _require(doc, "u", list, where)
    v = _require(doc, "v", list, where)
    mats = np.zeros((len(act), len(out), dims, dims))
    seen = set()
    for k, rec in enumerate(_require(doc, "matrices", list, where)):
        spot = f"{where}: matrices[{k}]"
        a = act.index(_require(rec, "action", None, spot))
        y = out.index(_require(rec, "output", None, spot))
        rows = _require(rec, "rows", list, spot)
        arr = np.asarray(rows, dtype=float)
        if arr.shape != (dims, dims):
            raise StructureError(f"{spot}: rows must be {dims}x{dims}")
        mats[a, y] = arr
        seen.add((a, y))
    if len(seen) != len(act) * len(out):
        raise StructureError(f"{where}: needs one matrix per (action, output) pair")
    return GeneralizedTransducer(dims, act, out, mats, u, v)


# ---------------------------------------------------------------------------
# History and policy files
# ---------------------------------------------------------------------------


def history_to_doc(h: History) -> dict:
    return {"actions": list(h.actions), "outputs": list(h.outputs)}


def history_from_doc(doc: dict, where: str = "history") -> History:
    return History(
        _require(doc, "actions", list, where),
        _require(doc, "outputs", list, where),
    )


def policy_from_doc(doc: dict, where: str = "policy") -> Policy:
    kind = _require(doc, "kind", str, where)
    if kind == "uniform":
        return Policy.uniform()
    if kind == "weighted":
        return Policy.weighted(_require(doc, "weights", list, where))
    if kind == "table":
        entries = _require(doc, "entries", list, where)
        table = {}
        for k, rec in enumerate(entries):
            spot = f"{where}: entries[{k}]"
            h = History(
                _require(rec, "actions", list, spot),
                _require(rec, "outputs", list, spot),
            )
            table[h] = _require(rec, "dist", list, spot)
        return Policy.from_table(table)
    raise StructureError(f"{where}: unknown policy kind {kind!r}")


# ---------------------------------------------------------------------------
# Text round trip
# ---------------------------------------------------------------------------


def dumps(doc: dict) -> str:
    """Canonical text form: fixed key order (insertion), two-space indent."""
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def loads(text: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise StructureError(f"malformed document: {exc}") from exc


def save_transducer(t: Transducer, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(transducer_to_doc(t)))


def load_transducer(path) -> Transducer:
    with open(path, "r", encoding="utf-8") as fh:
        return transducer_from_doc(loads(fh.read()), where=str(path))


def save_generalized(g: GeneralizedTransducer, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(generalized_to_doc(g)))


def load_generalized(path) -> GeneralizedTransducer:
    with open(path, "r", encoding="utf-8") as fh:
        return generalized_from_doc(loads(fh.read()), where=str(path))


def load_history(path) -> History:
    with open(path, "r", encoding="utf-8") as fh:
        return history_from_doc(loads(fh.read()), where=str(path))


def load_policy(path) -> Policy:
    with open(path, "r", encoding="utf-8") as fh:
        return policy_from_doc(loads(fh.read()), where=str(path))
