"""Mutated input documents through every command: an exit code, never a traceback.

The fixtures' machine documents, a trace each and a policy document are
mutated (wrong types, missing keys, duplicated records, huge integers,
non-finite values, ragged shapes) and their bytes edited (CRLF, bytes that
are not UTF-8, a byte-order mark, truncation).  Every command that reads the
mutated document must exit 0, 1 or 2 with no exception, and afterwards an
unmutated document must give the report it gave before any mutation.
"""

import copy
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vatworld import io as vio
from vatworld.cli import run
from vatworld.core import Policy
from vatworld.fixtures import ALL_FIXTURES
from vatworld.oracle import sample_trajectory

FIXTURES = sorted(ALL_FIXTURES)
ROLES = {  # the document mutated -> the commands that read it
    "machine": (
        "validate", "info", "prob", "sample", "equivalent", "minimize", "dimension",
        "reduce-gt", "msp", "epsilon", "epsilon-histories", "reverse", "smooth",
    ),
    "trace": ("smooth",),
    "policy": ("sample", "reverse"),
}
JUNK = [
    None, True, False, "", "x", "0", [], {}, [1, 2], {"a": 1}, 0, 1, -1, 2, 0.5, -0.0,
    10**20, 10**400, -(10**400), "<digits>", math.nan, math.inf, -math.inf,
]
DIGITS = "9" * 5000  # an integer of more digits than int() parses
INDEX = st.integers(0, 10**6)
EDITS = st.lists(
    st.one_of(
        st.tuples(st.just("set"), INDEX, st.sampled_from(JUNK)),
        st.tuples(st.just("drop"), INDEX, st.none()),
        st.tuples(st.just("copy"), INDEX, st.none()),
        st.tuples(st.just("append"), INDEX, st.sampled_from(JUNK)),
    ),
    max_size=3,
)
BYTE_EDITS = st.tuples(st.sampled_from([None, "crlf", "not-utf8", "bom", "truncate"]), INDEX)


def _argv(name: str, files: dict) -> list:
    m, out = files["machine"], files["out"]
    return {
        "validate": ["validate", m],
        "info": ["info", m, "--depth", "3", "--pretty"],
        "prob": ["prob", m, "--actions", "0,0", "--outputs", "0,1"],
        "sample": ["sample", m, "--length", "4", "--policy", f"file:{files['policy']}"],
        "equivalent": ["equivalent", m, m, "--depth", "3"],
        "minimize": ["minimize", m, "--out", f"{out}/min.json"],
        "dimension": ["dimension", m],
        "reduce-gt": ["reduce-gt", m, "--both-sides", "--out", f"{out}/gt.json"],
        "msp": ["msp", m, "--max-states", "40", "--out", f"{out}/msp.json"],
        "epsilon": ["epsilon", m, "--max-states", "40", "--out", f"{out}/eps.json"],
        "epsilon-histories": ["epsilon", m, "--from-histories", "--hist-depth", "3", "--future-depth", "2"],
        "reverse": ["reverse", m, "--horizon", "3", "--policy", f"file:{files['policy']}", "--out", f"{out}/rev"],
        "smooth": ["smooth", m, "--trace", files["trace"]],
    }[name]


def _documents(name: str) -> dict:
    """The unmutated machine, trace and policy documents of one fixture."""
    t = ALL_FIXTURES[name]()
    actions, outputs, _ = sample_trajectory(t, Policy.uniform(), 4, 0)
    entry = {"actions": [actions[0]], "outputs": [outputs[0]], "dist": [1.0] + [0.0] * (len(t.actions) - 1)}
    return {
        "machine": vio.transducer_to_doc(t),
        "trace": {"actions": list(actions), "outputs": list(outputs)},
        "policy": {"kind": "table", "entries": [entry]},
    }


def _paths(node, prefix=()):
    """Every position in a document, the document itself first."""
    yield prefix
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _mutate(doc, edits):
    doc = copy.deepcopy(doc)
    for op, index, value in edits:
        paths = list(_paths(doc))
        path = paths[index % len(paths)]
        if not path:
            if op == "set":
                doc = value
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key, node = path[-1], parent[path[-1]]
        if op == "set":
            parent[key] = copy.deepcopy(value)
        elif op == "drop":
            del parent[key]
        elif op == "copy" and isinstance(parent, list):  # a duplicated record or row
            parent.insert(key, copy.deepcopy(node))
        elif op == "append" and isinstance(node, list):  # a ragged list
            node.append(copy.deepcopy(value))
        elif op == "append" and isinstance(node, dict):
            node["extra"] = copy.deepcopy(value)
    return doc


def _encode(doc, byte_edit) -> bytes:
    raw = json.dumps(doc, indent=2).replace('"<digits>"', DIGITS).encode("utf-8")
    op, index = byte_edit
    if op == "crlf":
        return raw.replace(b"\n", b"\r\n")
    if op == "not-utf8":
        k = index % (len(raw) + 1)
        return raw[:k] + b"\xff" + raw[k:]
    if op == "bom":
        return b"\xef\xbb\xbf" + raw
    if op == "truncate":
        return raw[: index % len(raw)]
    return raw


def _write_unmutated(files: dict, docs: dict) -> None:
    for role, doc in docs.items():
        vio.write_doc(doc, files[role])


class _Setup(dict):
    """A dict that a failing example prints by name, not as its 40 kB of contents."""

    def __repr__(self) -> str:
        return "setup"


@pytest.fixture(scope="module")
def setup(tmp_path_factory):
    """Per fixture: its files, its documents, and each command's report on them."""
    out = _Setup()
    for name in FIXTURES:
        base = tmp_path_factory.mktemp(name)
        files = {role: str(base / f"{role}.json") for role in ROLES}
        files["out"] = str(base)
        docs = _documents(name)
        _write_unmutated(files, docs)
        reports = {}
        for command in ROLES["machine"]:
            code, report = run(_argv(command, files))
            assert code in (0, 1)
            reports[command] = (code, report.to_json())
        out[name] = files, docs, reports
    return out


def test_unmutated_machine_files_are_the_programs_own(setup, tmp_path):
    for name in FIXTURES:
        files, _, _ = setup[name]
        vio.save_transducer(ALL_FIXTURES[name](), tmp_path / "m.json")
        with open(files["machine"], "rb") as fh:
            assert fh.read() == (tmp_path / "m.json").read_bytes()


@pytest.mark.parametrize("role", list(ROLES))
@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(FIXTURES),
    edits=EDITS,
    byte_edit=BYTE_EDITS,
    again=st.sampled_from(ROLES["machine"]),
)
def test_mutated_documents_exit_with_a_code(setup, role, name, edits, byte_edit, again):
    files, docs, reports = setup[name]
    try:
        with open(files[role], "wb") as fh:
            fh.write(_encode(_mutate(docs[role], edits), byte_edit))
        for command in ROLES[role]:
            code, report = run(_argv(command, files))
            assert code in (0, 1, 2), (command, report.to_json())
            if code == 2:
                assert report.verdicts[-1]["name"] == "error"
    finally:
        _write_unmutated(files, docs)
    code, report = run(_argv(again, files))
    assert (code, report.to_json()) == reports[again]


def _run_from_start(tmp_path, command: str, initial: list):
    """Run a command on delay-channel with the given initial law."""
    doc = vio.transducer_to_doc(ALL_FIXTURES["delay-channel"]())
    doc["initial"] = initial
    files = {role: str(tmp_path / f"{role}.json") for role in ROLES}
    files["out"] = str(tmp_path)
    vio.write_doc(doc, files["machine"])
    vio.write_doc({"actions": ["0"], "outputs": ["0"]}, files["trace"])
    vio.write_doc({"kind": "uniform"}, files["policy"])
    return run(_argv(command, files))


# Found by the mutations above: each ended in a traceback, or in a numpy
# warning that this suite turns into one.
@pytest.mark.parametrize(
    "command, message",
    [
        ("epsilon-histories", "delay-channel: no history has positive probability, the empty one included"),
    ],
)
def test_a_start_of_zero_mass_is_an_input_error(tmp_path, command, message):
    code, report = _run_from_start(tmp_path, command, [0.0, 0.0])
    assert code == 2
    assert report.verdicts == [{"name": "error", "value": message}]


STARTING = ["prob", "reduce-gt", "sample", "smooth"]  # the commands that run from the start


@pytest.mark.parametrize("command", STARTING)
def test_a_start_of_zero_mass_is_refused_by_name(tmp_path, command):
    code, report = _run_from_start(tmp_path, command, [0.0, 0.0])
    assert code == 2
    message = f"{tmp_path / 'machine.json'}: initial has no positive mass (it sums to 0)"
    assert report.verdicts == [{"name": "error", "value": message}]


@pytest.mark.parametrize("command", STARTING)
def test_a_start_with_a_negative_entry_is_refused_by_name(tmp_path, command):
    code, report = _run_from_start(tmp_path, command, [1.5, -0.5])
    assert code == 2
    message = f"{tmp_path / 'machine.json'}: initial has a negative entry: -0.5"
    assert report.verdicts == [{"name": "error", "value": message}]
    code, _ = _run_from_start(tmp_path, command, [1.0, -0.0])
    assert code == 0


@pytest.mark.parametrize("command", ["info", "dimension", "minimize", "equivalent", "reverse"])
def test_structural_commands_read_a_start_with_a_negative_entry(tmp_path, command):
    code, report = _run_from_start(tmp_path, command, [1.5, -0.5])
    assert code in (0, 1), report.to_json()


def test_sampling_a_column_of_zero_mass_is_an_input_error(tmp_path):
    doc = vio.transducer_to_doc(ALL_FIXTURES["delay-channel"]())
    del doc["kernel"][1]  # action 1 in state s0 now has no (output, next state) law
    vio.write_doc(doc, tmp_path / "m.json")
    code, report = run(["sample", str(tmp_path / "m.json"), "--policy", "weighted:0,1"])
    assert code == 2
    assert report.verdicts == [
        {"name": "error", "value": "cannot sample delay-channel: Probabilities contain NaN"}
    ]
