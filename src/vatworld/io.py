"""Self-describing JSON file formats with canonical, byte-stable writers.

A machine file lists only the nonzero kernel entries as (from, action,
output, to, prob) records in a fixed sort order; floats are emitted with
Python's shortest round-tripping repr, so read -> write is byte-identical
for any file this module wrote.  Files in any JSON layout load.
"""

from __future__ import annotations

import hashlib
import json
import operator
import os
import stat

import numpy as np

from .core import Alphabet, GeneralizedTransducer, History, Policy, Transducer
from .errors import StructureError

_FLOAT_MAX = float(np.finfo(float).max)  # JSON integers can lie past it


def _require(doc: dict, key: str, kind, where: str):
    """doc[key], refused unless doc is an object and doc[key] is a ``kind``;
    true and false are not numbers."""
    if not isinstance(doc, dict):
        raise StructureError(f"{where}: expected an object")
    if key not in doc:
        raise StructureError(f"{where}: missing field {key!r}")
    value = doc[key]
    if kind is not None and (isinstance(value, bool) or not isinstance(value, kind)):
        raise StructureError(f"{where}: field {key!r} has the wrong type")
    return value


def _require_numbers(doc: dict, key: str, where: str) -> list:
    """doc[key] as a list of numbers: strings, true and false are refused."""
    return _numbers(_require(doc, key, list, where), f"field {key!r}", where)


def _symbol(alphabet: Alphabet, rec: dict, key: str, where: str) -> int:
    """The index of rec[key] in ``alphabet``; an unknown symbol names ``where``."""
    label = _require(rec, key, None, where)
    try:
        return alphabet.index(label)
    except StructureError as exc:
        raise StructureError(f"{where}: {exc}") from None


def _numbers(items: list, what: str, where: str) -> list:
    """``items``, refused unless each is a number a float holds (true and false are not)."""
    for k, x in enumerate(items):
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise StructureError(f"{where}: {what} item {k} is not a number: {x!r}")
        if isinstance(x, int) and not -_FLOAT_MAX <= x <= _FLOAT_MAX:
            raise StructureError(f"{where}: {what} item {k} is past the float range")
    return items


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
    initial = _require_numbers(doc, "initial", where)
    records = _require(doc, "kernel", list, where)
    state_idx = {str(s): k for k, s in enumerate(states)}
    act = Alphabet(actions)
    out = Alphabet(outputs)
    n = len(states)
    kernel = np.zeros((len(act), len(out), n, n))
    columns = _kernel_columns(records, state_idx, act, out, n)
    cells, probs = columns or _kernel_by_record(records, state_idx, act, out, where)
    kernel[cells] = probs
    return Transducer(name, states, act, out, kernel, initial)


_FIELDS = [operator.itemgetter(key) for key in ("from", "action", "output", "to", "prob")]
_NUMBER_TYPES = frozenset((int, float))


def _kernel_columns(records: list, state_idx: dict, act: Alphabet, out: Alphabet, n: int):
    """The records' kernel cells, as index arrays (action, output, to, from),
    and their probabilities, read field by field; None when a record is not
    an object with known labels and a number that a float holds, or when two
    records name one cell.  Labels match through ``str()``, as the
    alphabets' do."""
    if not {dict}.issuperset(map(type, records)):
        return None
    try:
        src, action, output, dst, prob = (list(map(field, records)) for field in _FIELDS)
    except KeyError:
        return None
    i = list(map(state_idx.get, map(str, dst)))
    j = list(map(state_idx.get, map(str, src)))
    if None in i or None in j:
        return None
    try:
        a, y = act.indices(action), out.indices(output)
    except StructureError:
        return None
    kinds = set(map(type, prob))
    if not _NUMBER_TYPES.issuperset(kinds):
        return None
    if int in kinds and not all(-_FLOAT_MAX <= p <= _FLOAT_MAX for p in prob if type(p) is int):
        return None
    cells = tuple(np.array(col, dtype=np.intp) for col in (a, y, i, j))
    flat = np.sort(np.ravel_multi_index(cells, (len(act), len(out), n, n)))
    if np.any(flat[1:] == flat[:-1]):
        return None
    return cells, np.array(prob, dtype=float)


def _kernel_by_record(records: list, state_idx: dict, act: Alphabet, out: Alphabet, where: str):
    """``_kernel_columns`` one record at a time: a StructureError names the
    first record that is refused, or that repeats an earlier record's cell."""
    first: dict = {}  # kernel cell -> the record listing it
    probs = []
    for k, rec in enumerate(records):
        spot = f"{where}: kernel[{k}]"
        if not isinstance(rec, dict):
            raise StructureError(f"{spot}: expected an object")
        src, dst = (str(_require(rec, key, None, spot)) for key in ("from", "to"))
        for label in (src, dst):
            if label not in state_idx:
                raise StructureError(f"{spot}: unknown state {label!r}")
        a = _symbol(act, rec, "action", spot)
        y = _symbol(out, rec, "output", spot)
        prob = _require(rec, "prob", (int, float), spot)
        if isinstance(prob, int) and not -_FLOAT_MAX <= prob <= _FLOAT_MAX:
            raise StructureError(f"{spot}: field 'prob' is past the float range")
        cell = (a, y, state_idx[dst], state_idx[src])
        if first.setdefault(cell, k) != k:
            raise StructureError(f"{spot}: same (from, action, output, to) as kernel[{first[cell]}]")
        probs.append(prob)
    return tuple(np.array(list(first), dtype=np.intp).reshape(-1, 4).T), np.array(probs, dtype=float)


# ---------------------------------------------------------------------------
# Generalized-transducer files
# ---------------------------------------------------------------------------


def generalized_to_doc(g: GeneralizedTransducer) -> dict:
    matrices = [
        {"action": action, "output": output, "rows": g.matrices[a, y].tolist()}
        for a, action in enumerate(g.actions.symbols)
        for y, output in enumerate(g.outputs.symbols)
    ]
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
    if dims < 1:
        raise StructureError(f"{where}: dims must be positive")
    act = Alphabet(_require(doc, "actions", list, where))
    out = Alphabet(_require(doc, "outputs", list, where))
    u = _require_numbers(doc, "u", where)
    v = _require_numbers(doc, "v", where)
    mats = np.zeros((len(act), len(out), dims, dims))
    seen: dict = {}  # (action, output) -> the matrix listing it
    for k, rec in enumerate(_require(doc, "matrices", list, where)):
        spot = f"{where}: matrices[{k}]"
        a = _symbol(act, rec, "action", spot)
        y = _symbol(out, rec, "output", spot)
        rows = _require(rec, "rows", list, spot)
        if len(rows) != dims or not all(isinstance(r, list) and len(r) == dims for r in rows):
            raise StructureError(f"{spot}: rows must be {dims}x{dims}")
        for i, row in enumerate(rows):
            _numbers(row, f"rows[{i}]", spot)
        if seen.setdefault((a, y), k) != k:
            raise StructureError(f"{spot}: same (action, output) as matrices[{seen[a, y]}]")
        mats[a, y] = rows
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
        return Policy.weighted(_require_numbers(doc, "weights", where))
    if kind == "table":
        entries = _require(doc, "entries", list, where)
        table = {}
        for k, rec in enumerate(entries):
            spot = f"{where}: entries[{k}]"
            acts, outs = _require(rec, "actions", list, spot), _require(rec, "outputs", list, spot)
            try:
                h = History(acts, outs)
            except StructureError as exc:  # unequal lengths
                raise StructureError(f"{spot}: {exc}") from None
            dist = _require_numbers(rec, "dist", spot)
            if h in table:
                raise StructureError(f"{spot}: same (actions, outputs) as entries[{list(table).index(h)}]")
            table[h] = dist
        return Policy.from_table(table)
    raise StructureError(f"{where}: unknown policy kind {kind!r}")


# ---------------------------------------------------------------------------
# Text round trip
# ---------------------------------------------------------------------------


def dumps(doc: dict) -> str:
    """Canonical text form: ``json.dumps(doc, ensure_ascii=False)`` plus a
    newline, on one line, keys in insertion order."""
    return json.dumps(doc, ensure_ascii=False) + "\n"


def loads(text: str) -> dict:
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer of too many digits
        raise StructureError(f"malformed document: {exc}") from exc


def read_doc(path) -> tuple[object, str]:
    """The document in the file at ``path`` and the SHA-256 of its bytes, from one
    read, decoded as text mode does (UTF-8, universal newlines)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise StructureError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    text = text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text
    return loads(text), hashlib.sha256(raw).hexdigest()


def write_doc(doc, path) -> None:
    """Write ``doc``'s canonical text over ``path`` (0o666 less the umask if new), then cut a
    regular file at its end; inode, links and mode stay, nothing is synced, a failed write empties it."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    try:
        view = memoryview(dumps(doc).encode("utf-8"))
        while view:
            view = view[os.write(fd, view) :]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))
    except BaseException:
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, 0)
        raise
    finally:
        os.close(fd)


def save_transducer(t: Transducer, path) -> None:
    write_doc(transducer_to_doc(t), path)


def load_transducer(path) -> Transducer:
    return transducer_from_doc(read_doc(path)[0], where=str(path))


def save_generalized(g: GeneralizedTransducer, path) -> None:
    write_doc(generalized_to_doc(g), path)


def load_generalized(path) -> GeneralizedTransducer:
    return generalized_from_doc(read_doc(path)[0], where=str(path))


def load_history(path) -> History:
    return history_from_doc(read_doc(path)[0], where=str(path))


def load_policy(path) -> Policy:
    return policy_from_doc(read_doc(path)[0], where=str(path))
