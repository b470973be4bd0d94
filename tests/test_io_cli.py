"""File formats, round-trip stability, CLI exit codes, and determinism."""

import copy
import errno
import hashlib
import json
import math
import os
import stat
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vatworld import cli
from vatworld import io as vio
from vatworld.beliefs import build_msp
from vatworld.cli import main, run
from vatworld.core import History, Transducer, make_card_deck
from vatworld.errors import StructureError
from vatworld.fixtures import ALL_FIXTURES
from vatworld.linalg_reduce import reduce_generalized
from vatworld.oracle import equivalent

from conftest import (
    PROPERTY_KINDS,
    loop_reverse_records,
    loop_transducer_from_doc,
    loop_transducer_to_doc,
    pair_machine,
    property_machine,
    random_transducer,
)


def _all_machines():
    out = [build() for build in ALL_FIXTURES.values()]
    out.append(make_card_deck(2, 2, "flip_shuffle"))
    out.append(make_card_deck(2, 2, "cyclic"))
    return out


class TestTransducerFormat:
    def test_round_trip_is_byte_identical(self, tmp_path):
        for t in _all_machines():
            path = tmp_path / f"{t.name}.json"
            vio.save_transducer(t, path)
            first = path.read_bytes()
            again = vio.load_transducer(path)
            vio.save_transducer(again, path)
            assert path.read_bytes() == first
            np.testing.assert_array_equal(again.kernel, t.kernel)
            np.testing.assert_array_equal(again.initial, t.initial)
            assert again.states == t.states

    def test_zero_entries_are_omitted(self, fix_a):
        doc = vio.transducer_to_doc(fix_a)
        assert len(doc["kernel"]) == 4  # one deterministic record per (a, s)
        assert all(rec["prob"] != 0.0 for rec in doc["kernel"])

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(PROPERTY_KINDS))
    def test_records_are_the_loop_records(self, seed, kind):
        t = property_machine(kind, seed)
        machines = [t, build_msp(t).machine] if kind in ("deck", "unifilar") else [t]
        for m in machines:
            assert vio.dumps(vio.transducer_to_doc(m)) == vio.dumps(loop_transducer_to_doc(m))
            for matrices in (m.kernel, m.kernel.transpose(0, 1, 3, 2)):
                got = vio.kernel_records(m, matrices, walk=(0, 1, 2, 3))
                assert vio.dumps(got) == vio.dumps(loop_reverse_records(m, matrices))

    def test_signed_zero_nan_and_inf_entries_walk_like_the_loop(self):
        kernel = np.zeros((2, 1, 3, 3))
        kernel[0, 0] = [[-0.0, np.nan, 0.5], [np.inf, 0.0, -np.inf], [1e-320, -0.0, 0.5]]
        kernel[1, 0, 2, 1] = -0.0
        t = Transducer("odd", ["a", "b", "c"], ["x", "y"], ["o"], kernel, [1.0, 0.0, 0.0])
        assert vio.dumps(vio.transducer_to_doc(t)) == vio.dumps(loop_transducer_to_doc(t))
        got = vio.kernel_records(t, kernel, walk=(0, 1, 2, 3))
        assert vio.dumps(got) == vio.dumps(loop_reverse_records(t, kernel))

    def test_unknown_state_rejected_with_location(self, fix_a):
        doc = vio.transducer_to_doc(fix_a)
        doc["kernel"][2]["to"] = "nope"
        with pytest.raises(StructureError) as err:
            vio.transducer_from_doc(doc)
        assert "kernel[2]" in str(err.value)
        assert "nope" in str(err.value)

    def test_numeric_labels_load_as_their_strings(self):
        labels = {"states": [0, 1.5, None], "actions": [10, True], "outputs": [-1, 2.0]}
        t = random_transducer(np.random.default_rng(3), n=3)
        texts = ([str(x) for x in field] for field in labels.values())
        t = Transducer("numeric", *texts, t.kernel, t.initial)
        text = vio.dumps(vio.transducer_to_doc(t))
        doc = vio.transducer_to_doc(t)
        number = {str(x): x for field in labels.values() for x in field}
        for rec in doc["kernel"]:
            for key in ("from", "action", "output", "to"):
                rec[key] = number[rec[key]]
        doc.update(labels)
        assert vio.dumps(vio.transducer_to_doc(vio.transducer_from_doc(doc, "m.json"))) == text
        assert vio.dumps(vio.transducer_to_doc(loop_transducer_from_doc(doc, "m.json"))) == text

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        edits=st.lists(
            st.tuples(
                st.sampled_from(["replace", "drop", "set", "copy"]),
                st.integers(0, 40),
                st.integers(0, 40),
                st.sampled_from(["from", "action", "output", "to", "prob"]),
                st.sampled_from(
                    [5, None, "x", [], 0, 1, 2, 1.0, 0.5, -0.0, "0", "1", "9", True,
                     10**300, 10**400, -(10**400), float("nan"), float("inf"), {}]
                ),
            ),
            max_size=3,
        ),
    )
    def test_edited_records_load_or_fail_as_the_record_loop(self, seed, edits):
        # labels that are numbers as text, so that numbers match them through str()
        t = property_machine("dense", seed)
        digits = [[str(k) for k in range(size)] for size in (t.n, len(t.actions), len(t.outputs))]
        t = Transducer("edited", *digits, t.kernel, t.initial)
        doc = vio.transducer_to_doc(t)
        records = doc["kernel"]
        for op, k, k2, key, value in edits:
            k %= len(records)
            if op == "replace":
                records[k] = value
            elif op == "copy":
                records.insert(k2 % (len(records) + 1), copy.deepcopy(records[k]))
            elif isinstance(records[k], dict):
                if op == "drop":
                    records[k].pop(key, None)
                else:
                    records[k][key] = value

        def outcome(read):
            try:
                return vio.dumps(vio.transducer_to_doc(read(copy.deepcopy(doc), "m.json")))
            except StructureError as exc:
                return f"StructureError: {exc}"

        assert outcome(vio.transducer_from_doc) == outcome(loop_transducer_from_doc)

    def test_malformed_text_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(StructureError):
            vio.load_transducer(path)


class TestGeneralizedFormat:
    def test_round_trip_byte_identical(self, tmp_path, fix_c):
        g = reduce_generalized(fix_c)
        path = tmp_path / "reduced.json"
        vio.save_generalized(g, path)
        first = path.read_bytes()
        again = vio.load_generalized(path)
        vio.save_generalized(again, path)
        assert path.read_bytes() == first
        assert equivalent(again, fix_c, depth=6, tol=1e-8).equivalent

    def test_missing_matrix_rejected(self, fix_c):
        g = reduce_generalized(fix_c)
        doc = vio.generalized_to_doc(g)
        doc["matrices"] = doc["matrices"][:-1]
        with pytest.raises(StructureError):
            vio.generalized_from_doc(doc)

    def test_repeated_matrix_rejected(self, fix_c):
        doc = vio.generalized_to_doc(reduce_generalized(fix_c))
        doc["matrices"].append(dict(doc["matrices"][1], rows=np.zeros((doc["dims"],) * 2).tolist()))
        last = len(doc["matrices"]) - 1
        wrong = rf"^g.json: matrices\[{last}\]: same \(action, output\) as matrices\[1\]$"
        with pytest.raises(StructureError, match=wrong):
            vio.generalized_from_doc(doc, "g.json")


class TestHistoryAndPolicyFiles:
    def test_history_round_trip(self, tmp_path):
        h = History(("1", "0"), ("0", "1"))
        path = tmp_path / "h.json"
        path.write_text(vio.dumps(vio.history_to_doc(h)))
        assert vio.load_history(path) == h

    def test_policy_kinds(self, tmp_path):
        for doc in (
            {"kind": "uniform"},
            {"kind": "weighted", "weights": [0.25, 0.75]},
            {
                "kind": "table",
                "entries": [{"actions": [], "outputs": [], "dist": [1.0, 0.0]}],
            },
        ):
            path = tmp_path / "p.json"
            path.write_text(vio.dumps(doc))
            policy = vio.load_policy(path)
            dist = policy.action_dist(History.empty(), 2)
            assert dist.sum() == pytest.approx(1.0)
        with pytest.raises(StructureError):
            vio.policy_from_doc({"kind": "nonsense"})


def _numbers_field(field: str, bad, fix_a, fix_c):
    """(reader, document, where) with item 0 of ``field`` replaced by ``bad``."""
    if field == "initial":
        doc = vio.transducer_to_doc(fix_a)
        doc["initial"][0] = bad
        return vio.transducer_from_doc, doc, "m.json"
    if field in ("u", "v"):
        doc = vio.generalized_to_doc(reduce_generalized(fix_c))
        doc[field][0] = bad
        return vio.generalized_from_doc, doc, "g.json"
    if field == "weights":
        return vio.policy_from_doc, {"kind": "weighted", "weights": [bad, 1]}, "p.json"
    entry = {"actions": [], "outputs": [], "dist": [bad, 1]}
    return vio.policy_from_doc, {"kind": "table", "entries": [entry]}, "p.json"


class TestNonNumbersAreRefused:
    @pytest.mark.parametrize("bad", ["a", "0.5", True, None, [0.5]])
    @pytest.mark.parametrize("field", ["initial", "u", "v", "weights", "dist"])
    def test_list_item(self, fix_a, fix_c, field, bad):
        read, doc, where = _numbers_field(field, bad, fix_a, fix_c)
        with pytest.raises(StructureError) as err:
            read(doc, where)
        assert str(err.value).startswith(where)
        assert str(err.value).endswith(f"field {field!r} item 0 is not a number: {bad!r}")

    @pytest.mark.parametrize("bad", [True, False])
    def test_kernel_prob_is_no_bool(self, fix_a, bad):
        doc = vio.transducer_to_doc(fix_a)
        doc["kernel"][1]["prob"] = bad
        wrong = r"^m.json: kernel\[1\]: field 'prob' has the wrong type$"
        with pytest.raises(StructureError, match=wrong):
            vio.transducer_from_doc(doc, "m.json")


_HUGE = 10**400  # a JSON integer no float holds


class TestHugeIntegersAreRefused:
    @pytest.mark.parametrize("bad", [_HUGE, -_HUGE])
    @pytest.mark.parametrize("field", ["initial", "u", "v", "weights", "dist"])
    def test_list_item(self, fix_a, fix_c, field, bad):
        read, doc, where = _numbers_field(field, bad, fix_a, fix_c)
        with pytest.raises(StructureError) as err:
            read(doc, where)
        assert str(err.value).startswith(where)
        assert str(err.value).endswith(f"field {field!r} item 0 is past the float range")

    def test_kernel_prob(self, fix_a):
        doc = vio.transducer_to_doc(fix_a)
        doc["kernel"][1]["prob"] = _HUGE
        wrong = r"^m.json: kernel\[1\]: field 'prob' is past the float range$"
        with pytest.raises(StructureError, match=wrong):
            vio.transducer_from_doc(doc, "m.json")

    def test_matrix_row_item(self, fix_c):
        doc = vio.generalized_to_doc(reduce_generalized(fix_c))
        doc["matrices"][1]["rows"][0][1] = -_HUGE
        wrong = r"^g.json: matrices\[1\]: rows\[0\] item 1 is past the float range$"
        with pytest.raises(StructureError, match=wrong):
            vio.generalized_from_doc(doc, "g.json")

    def test_the_largest_float_as_an_integer_still_loads(self, fix_a):
        doc = vio.transducer_to_doc(fix_a)
        doc["initial"][1] = int(np.finfo(float).max)
        assert vio.transducer_from_doc(doc, "m.json").initial[1] == np.finfo(float).max


class TestDuplicateKernelRecords:
    def test_a_split_record_is_refused(self, fix_a):
        doc = vio.transducer_to_doc(fix_a)
        first = doc["kernel"][0]
        doc["kernel"][0:1] = [dict(first, prob=0.25), dict(first, prob=0.75)]
        wrong = r"^m.json: kernel\[1\]: same \(from, action, output, to\) as kernel\[0\]$"
        with pytest.raises(StructureError, match=wrong):
            vio.transducer_from_doc(doc, "m.json")

    def test_a_repeat_later_in_the_list_names_the_first(self, fix_a):
        doc = vio.transducer_to_doc(fix_a)
        doc["kernel"].append(dict(doc["kernel"][2]))
        wrong = rf"^m.json: kernel\[{len(doc['kernel']) - 1}\]: .* as kernel\[2\]$"
        with pytest.raises(StructureError, match=wrong):
            vio.transducer_from_doc(doc, "m.json")


_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-(2**90), 2**90)
    | st.floats()
    | st.floats().map(np.float64)
    | st.sampled_from([0.0, -0.0, float("nan"), float("inf"), -float("inf"), 1e-320, 1e308])
    | st.text()
    | st.sampled_from(["", "é\u00a0ß", "\u2028\u4e2d", "\"\\/\b\f\n\r\t", "\x00\x1f\x7f"])
    | st.sampled_from(["\U0001f600", "]", "[", "],", "],\n    [", "x]", "[y"])
)
_JSON_DOCS = st.recursive(
    _JSON_SCALARS,
    lambda kids: st.lists(kids, max_size=6)
    | st.lists(kids, max_size=6).map(tuple)
    | st.dictionaries(st.text(max_size=4), kids, max_size=6),
    max_leaves=40,
)
_JSON_ROWS = st.lists(
    st.lists(_JSON_SCALARS, max_size=4) | st.tuples(_JSON_SCALARS, _JSON_SCALARS), max_size=5
)
# kernel-record-like lists: keys that look like record boundaries, non-string
# keys, empty records, and long lists
_JSON_KEYS = st.text(max_size=4) | st.sampled_from(["", "}", "{", "},\n    {"])
_JSON_RECORDS = st.lists(
    st.dictionaries(_JSON_KEYS, _JSON_SCALARS, max_size=4)
    | st.dictionaries(st.integers(0, 3), _JSON_SCALARS, max_size=2),
    max_size=6,
) | st.lists(st.dictionaries(st.text(max_size=3), _JSON_SCALARS, min_size=1, max_size=5), max_size=70)


class TestCanonicalText:
    """``dumps`` is ``json.dumps`` with ``ensure_ascii=False``, on one line."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        doc=_JSON_DOCS
        | _JSON_ROWS
        | _JSON_RECORDS
        | st.dictionaries(st.text(max_size=2), _JSON_ROWS | _JSON_RECORDS | _JSON_DOCS, max_size=3)
    )
    def test_same_bytes_as_json_dumps(self, doc):
        assert vio.dumps(doc) == json.dumps(doc, ensure_ascii=False) + "\n"

    @pytest.mark.parametrize(
        "doc",
        [
            {},
            [],
            (),
            {"a": [], "b": {}, "c": [[], {}]},
            [[[1]], {"k": ()}],
            "top",
            -0.0,
            10**40,
            None,
            {1: 2, 2.5: "x", True: None, None: 1.0, float("nan"): -1},
            {1: [2], -0.0: {}, False: {"z": [{}]}, None: [1, {2: 3}]},
            [[1, 2.5], (None, "x")],
            {"m": [["],", "a"], ["[", "]"], ["x]", "[y"], ["],\n      [", 0]]},
            [[1], []],
            [[], [1]],
            [[1], [[2]]],
        ],
    )
    def test_empty_containers_bare_scalars_and_scalar_keys(self, doc):
        assert vio.dumps(doc) == json.dumps(doc, ensure_ascii=False) + "\n"

    def test_unserializable_items_raise_as_json_does(self):
        for doc in ([1, np.int64(2)], {"a": {"b": np.arange(2)}}, {(1, 2): 3}, {"a": [{(1,): 2}]}):
            with pytest.raises(TypeError):
                json.dumps(doc, ensure_ascii=False)
            with pytest.raises(TypeError):
                vio.dumps(doc)

    def test_a_self_containing_document_raises_as_json_does(self):
        doc: dict = {"a": [1]}
        doc["a"].append(doc)
        with pytest.raises(ValueError, match="Circular reference"):
            json.dumps(doc, ensure_ascii=False)
        with pytest.raises(ValueError, match="Circular reference"):
            vio.dumps(doc)


class TestIndentedFilesStillLoad:
    """A file in the two-space indented layout of earlier versions loads to
    the same object as its one-line copy, and re-writes to the one-line text."""

    @staticmethod
    def _old_and_new(tmp_path, doc):
        old, new = tmp_path / "old.json", tmp_path / "new.json"
        old.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        vio.write_doc(doc, new)
        assert old.read_bytes() != new.read_bytes()
        assert vio.dumps(vio.read_doc(old)[0]).encode("utf-8") == new.read_bytes()
        return old, new

    def test_machine_file(self, tmp_path):
        old, new = self._old_and_new(tmp_path, vio.transducer_to_doc(make_card_deck(2, 2, "flip_shuffle")))
        t, same = vio.load_transducer(old), vio.load_transducer(new)
        assert (t.kernel.tobytes(), t.initial.tobytes()) == (same.kernel.tobytes(), same.initial.tobytes())
        vio.save_transducer(t, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == new.read_bytes()

    def test_reduced_machine_file(self, tmp_path):
        g = reduce_generalized(ALL_FIXTURES["mixture-hmm"](), both_sides=True)
        old, new = self._old_and_new(tmp_path, vio.generalized_to_doc(g))
        got, same = vio.load_generalized(old), vio.load_generalized(new)
        for x, y in ((got.matrices, same.matrices), (got.u, same.u), (got.v, same.v)):
            assert x.tobytes() == y.tobytes()
        vio.save_generalized(got, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == new.read_bytes()

    def test_history_file(self, tmp_path):
        h = History(("1", "0", "1"), ("0", "1", "1"))
        old, new = self._old_and_new(tmp_path, vio.history_to_doc(h))
        assert vio.load_history(old) == vio.load_history(new) == h
        vio.write_doc(vio.history_to_doc(vio.load_history(old)), tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == new.read_bytes()

    def test_policy_file(self, tmp_path):
        entries = [
            {"actions": [], "outputs": [], "dist": [0.25, 0.75]},
            {"actions": ["1"], "outputs": ["0"], "dist": [1.0, 0.0]},
        ]
        old, new = self._old_and_new(tmp_path, {"kind": "table", "entries": entries})
        got, same = vio.load_policy(old), vio.load_policy(new)
        assert got.describe() == same.describe() == "table:2 entries, uniform fallback"
        assert [(h, d.tobytes()) for h, d in got.table.items()] == [
            (h, d.tobytes()) for h, d in same.table.items()
        ]


_BAD_DIST_ENTRY = {"actions": [], "outputs": [], "dist": ["x", 1]}


@pytest.fixture
def machine_files(tmp_path):
    paths = {}
    for t in _all_machines():
        p = tmp_path / f"{t.name}.json"
        vio.save_transducer(t, p)
        paths[t.name] = str(p)
    return paths


class TestCli:
    def test_equivalent_parity_machines_exit_zero(self, machine_files):
        code, report = run(
            [
                "equivalent",
                machine_files["parity-flip"],
                machine_files["parity-flip-redundant"],
                "--depth",
                "8",
            ]
        )
        assert code == 0
        assert {"name": "equivalent", "value": True} in report.verdicts

    def test_reverse_delay_channel_exit_one_with_witness(self, machine_files):
        code, report = run(["reverse", machine_files["delay-channel"], "--horizon", "3"])
        assert code == 1
        names = {v["name"] for v in report.verdicts}
        assert "witness" in names

    def test_reverse_answers_at_horizon_16_on_the_pair_machine(self, tmp_path):
        # 3**15 action prefixes at the last time: an exhaustive walk is refused
        path = str(tmp_path / "pair.json")
        vio.save_transducer(pair_machine(), path)
        code, report = run(["reverse", path, "--horizon", "16"])
        assert code == 0, report.verdicts
        assert report.verdicts == [
            {"name": "reversible", "value": True},
            {"name": "route", "value": "level-span"},
        ]

    @pytest.mark.parametrize(
        "argv",
        [
            ["equivalent", "parity-flip", "delay-channel", "--depth", "-1"],
            ["reverse", "delay-channel", "--horizon", "-2"],
            ["reverse", "delay-channel", "--horizon", "-2", "--out", "rev"],
            ["info", "mixture-hmm", "--depth", "-1"],
            ["info", "mixture-hmm", "--depth", "0"],
            ["epsilon", "parity-flip", "--from-histories", "--future-depth", "-1"],
        ],
        ids=[
            "equivalent-depth",
            "reverse-horizon",
            "reverse-horizon-out",
            "info-depth",
            "info-depth-zero",
            "epsilon-future-depth",
        ],
    )
    def test_out_of_range_depth_exit_two(self, machine_files, tmp_path, argv):
        argv = [machine_files.get(a, a) for a in argv]
        argv = [str(tmp_path / a) if a == "rev" else a for a in argv]
        code, report = run(argv)
        assert code == 2
        assert report.verdicts[-1]["name"] == "error"
        assert report.artifacts == []

    @pytest.mark.parametrize(
        "argv, what",
        [
            (["info", "parity-flip", "--depth", "600"], "memory-class check"),
            (["epsilon", "parity-flip", "--from-histories", "--hist-depth", "600"], "history clustering"),
        ],
        ids=["info-depth", "epsilon-hist-depth"],
    )
    def test_depth_past_the_float_range_is_refused(self, machine_files, argv, what):
        # 4**600 words overflow a float; the budget must refuse, not raise.
        code, report = run([machine_files.get(a, a) for a in argv])
        assert code == 2
        assert report.verdicts[-1] == {
            "name": "error",
            "value": f"{what} would visit 1*4**600 ~1.72e+361 words, over the budget of "
            "10000000; raise VATWORLD_BUDGET to proceed",
        }

    @pytest.mark.parametrize("raw", ["inf", "1e400"])
    def test_infinite_budget_runs_info(self, machine_files, monkeypatch, raw):
        monkeypatch.setenv("VATWORLD_BUDGET", raw)
        code, report = run(["info", machine_files["parity-flip"]])
        assert code == 0
        assert {v["name"]: v["value"] for v in report.verdicts}["memory_class"] == "FullyObservable"

    def test_validate_malformed_file_exit_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{this is not json")
        code, report = run(["validate", str(bad)])
        assert code == 2
        assert report.verdicts[-1]["name"] == "error"

    def test_validate_good_and_broken(self, machine_files, tmp_path):
        code, _ = run(["validate", machine_files["parity-flip"]])
        assert code == 0
        with open(machine_files["parity-flip"], encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["kernel"][0]["prob"] = 0.9
        broken = tmp_path / "broken.json"
        broken.write_text(vio.dumps(doc))
        code, report = run(["validate", str(broken)])
        assert code == 1

    @pytest.mark.parametrize(
        "command",
        [
            "validate", "msp", "epsilon", "info", "prob", "sample", "equivalent",
            "minimize", "dimension", "reduce-gt", "reverse", "smooth",
        ],
    )
    def test_nan_kernel_record_is_refused_by_name(self, machine_files, tmp_path, command):
        with open(machine_files["parity-flip"], encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["kernel"][0]["prob"] = float("nan")
        broken = tmp_path / "nan.json"
        broken.write_text(vio.dumps(doc))
        trace = tmp_path / "trace.json"
        trace.write_text(vio.dumps({"actions": ["1"], "outputs": ["0"]}))
        extra = {
            "prob": ["--actions", "1", "--outputs", "0"],
            "equivalent": [str(broken)],
            "smooth": ["--trace", str(trace)],
        }
        code, report = run([command, str(broken)] + extra.get(command, []))
        rec = doc["kernel"][0]
        entry = f"({rec['output']}, {rec['to']} | {rec['action']}, {rec['from']})"
        named = f"kernel entry {entry} = nan is not finite"
        if command == "validate":
            assert code == 1
            got = {v["name"]: v["value"] for v in report.verdicts}
            assert got["valid"] is False and got["violations"][0] == named
        else:
            assert code == 2
            assert report.verdicts[-1]["value"].endswith(named)

    @pytest.mark.parametrize("where", ["kernel", "initial"])
    @pytest.mark.parametrize("value", [float("inf"), float("-inf")])
    def test_infinite_entry_is_refused_before_sampling(self, machine_files, tmp_path, where, value):
        with open(machine_files["mixture-hmm"], encoding="utf-8") as fh:
            doc = json.load(fh)
        if where == "kernel":
            doc["kernel"][0]["prob"] = value
        else:
            doc["initial"][0] = value
        broken = tmp_path / "inf.json"
        broken.write_text(vio.dumps(doc))
        code, report = run(["sample", str(broken)])
        assert code == 2
        assert report.verdicts[-1]["value"].endswith(f"= {value} is not finite")

    def test_sample_on_a_negative_entry_is_an_input_error(self, machine_files, tmp_path):
        with open(machine_files["mixture-hmm"], encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["kernel"][0]["prob"] = -0.25
        broken = tmp_path / "negative.json"
        broken.write_text(vio.dumps(doc))
        code, report = run(["sample", str(broken), "--length", "50"])
        assert code == 2
        assert report.verdicts[-1] == {
            "name": "error",
            "value": "cannot sample mixture-hmm: Probabilities are not non-negative",
        }

    @pytest.mark.parametrize("spec", ["weighted:nan,0.5", "weighted:one,half"])
    def test_sample_on_a_bad_weighted_policy_is_an_input_error(self, machine_files, spec):
        code, report = run(["sample", machine_files["parity-flip"], "--policy", spec])
        assert code == 2
        assert report.verdicts[-1]["name"] == "error"

    @pytest.mark.parametrize(
        "argv",
        [
            [*argv, f"--tol={value}"]
            for argv in (
                ["validate", "parity-flip"],
                ["info", "parity-flip"],
                ["equivalent", "parity-flip", "delay-channel"],
                ["minimize", "parity-flip"],
                ["dimension", "mixture-hmm"],
                ["reduce-gt", "mixture-hmm"],
                ["msp", "parity-flip"],
                ["epsilon", "parity-flip"],
                ["reverse", "card-deck-2r2b-flip-shuffle"],
            )
            for value in ("nan", "inf", "-inf", "-1e-9")
        ]
        + [
            ["sample", "parity-flip", "--length", "-3"],
            ["msp", "parity-flip", "--max-states", "0"],
            ["epsilon", "parity-flip", "--max-states", "0"],
        ],
        ids=" ".join,
    )
    def test_out_of_range_number_exit_two(self, machine_files, capsys, argv):
        assert main([machine_files.get(a, a) for a in argv]) == 2
        out, err = capsys.readouterr()
        assert "must be at least" in out or "expected a finite number at least 0" in err

    @pytest.mark.parametrize(
        "command, policy",
        [
            ("validate", None),
            ("sample", None),
            ("sample", {"kind": "weighted", "weights": ["x", 1]}),
            ("sample", {"kind": "table", "entries": [_BAD_DIST_ENTRY]}),
            ("reverse", {"kind": "table", "entries": [_BAD_DIST_ENTRY]}),
        ],
        ids=["validate-initial", "sample-initial", "sample-weights", "sample-dist", "reverse-dist"],
    )
    def test_non_number_in_a_file_exit_two(self, machine_files, tmp_path, command, policy):
        path, extra = machine_files["parity-flip"], []
        if policy is None:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            doc["initial"] = ["x", 1]
            path = tmp_path / "bad.json"
            path.write_text(vio.dumps(doc))
        else:
            (tmp_path / "policy.json").write_text(vio.dumps(policy))
            extra = ["--policy", f"file:{tmp_path / 'policy.json'}"]
        code, report = run([command, str(path)] + extra)
        assert code == 2
        assert report.verdicts[-1]["value"].endswith("item 0 is not a number: 'x'")

    @pytest.mark.parametrize(
        "command, field",
        [
            ("info", "initial"),
            ("info", "prob"),
            ("sample", "weights"),
            ("sample", "dist"),
            ("reverse", "dist"),
        ],
    )
    def test_huge_integer_in_a_file_exit_two(self, machine_files, tmp_path, command, field):
        path, extra = machine_files["parity-flip"], []
        if field in ("initial", "prob"):
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            if field == "initial":
                doc["initial"][0] = _HUGE
            else:
                doc["kernel"][0]["prob"] = _HUGE
            path = tmp_path / "big.json"
            path.write_text(vio.dumps(doc))
        else:
            entry = {"actions": [], "outputs": [], "dist": [_HUGE, 1]}
            policy = {"kind": "weighted", "weights": [_HUGE, 1]}
            if field == "dist":
                policy = {"kind": "table", "entries": [entry]}
            (tmp_path / "policy.json").write_text(vio.dumps(policy))
            extra = ["--policy", f"file:{tmp_path / 'policy.json'}"]
        code, report = run([command, str(path)] + extra)
        assert code == 2
        assert report.verdicts[-1]["value"].endswith("is past the float range")

    def test_integer_of_too_many_digits_exit_two(self, machine_files, tmp_path):
        with open(machine_files["parity-flip"], encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["initial"][0] = "DIGITS"
        path = tmp_path / "digits.json"
        path.write_text(vio.dumps(doc).replace('"DIGITS"', "1" + "0" * 5000))
        code, report = run(["info", str(path)])
        assert code == 2
        message = report.verdicts[-1]["value"]  # where int() caps its digits, or else
        assert message.startswith("malformed document") or message.endswith("float range")

    def test_duplicate_kernel_record_exit_two(self, machine_files, tmp_path):
        with open(machine_files["parity-flip"], encoding="utf-8") as fh:
            doc = json.load(fh)
        first = doc["kernel"][0]  # s0 -0/0-> s0 with prob 1, split in two
        doc["kernel"][0:1] = [dict(first, prob=0.25), dict(first, prob=0.75)]
        path = tmp_path / "dup.json"
        path.write_text(vio.dumps(doc))
        code, report = run(["validate", str(path)])
        assert code == 2
        assert report.verdicts == [
            {
                "name": "error",
                "value": f"{path}: kernel[1]: same (from, action, output, to) as kernel[0]",
            }
        ]

    def test_info_reports_classes(self, machine_files):
        code, report = run(["info", machine_files["parity-flip"], "--pretty"])
        assert code == 0
        got = {v["name"]: v["value"] for v in report.verdicts if v["name"] != "edge"}
        assert got["moore_class"] == "IOMoore"
        assert got["memory_class"] == "FullyObservable"
        assert got["unifilar"] is True
        edges = [v["value"] for v in report.verdicts if v["name"] == "edge"]
        assert any("|" in e and ":" in e for e in edges)

    def test_prob_command(self, machine_files):
        code, report = run(
            ["prob", machine_files["mixture-hmm"], "--actions", "0", "--outputs", "1"]
        )
        assert code == 0
        assert report.verdicts[0]["value"] == pytest.approx(0.53)

    def test_prob_reports_the_log_probability_after_it(self, machine_files):
        code, report = run(
            ["prob", machine_files["mixture-hmm"], "--actions", "0,0", "--outputs", "1,1"]
        )
        assert code == 0
        names = [v["name"] for v in report.verdicts]
        assert names == ["word_probability", "log_probability"]
        p, log_p = (v["value"] for v in report.verdicts)
        assert log_p == pytest.approx(np.log(p), abs=1e-12)

    def test_prob_of_an_impossible_word_from_a_possible_start(self, machine_files):
        argv = ["prob", machine_files["parity-flip"], "--actions", "1,0", "--outputs", "0,0"]
        code, report = run(argv)
        assert code == 0
        assert report.verdicts == [
            {"name": "word_probability", "value": 0.0},
            {"name": "log_probability", "value": -math.inf},
        ]
        assert '"value": -Infinity' in report.to_json()

    def test_prob_past_the_float_range_reads_inf(self, tmp_path):
        # a kernel that is not stochastic can give a word a probability above 1
        doc = {
            "name": "doubling", "states": ["s"], "actions": ["a"], "outputs": ["y"], "initial": [1.0],
            "kernel": [{"from": "s", "action": "a", "output": "y", "to": "s", "prob": 2.0}],
        }
        vio.write_doc(doc, tmp_path / "m.json")
        word = ",".join(["a"] * 1100), ",".join(["y"] * 1100)
        code, report = run(["prob", str(tmp_path / "m.json"), "--actions", word[0], "--outputs", word[1]])
        assert code == 0
        p, log_p = (v["value"] for v in report.verdicts)
        assert p == math.inf and log_p == pytest.approx(1100 * math.log(2.0))

    def test_sample_determinism(self, machine_files):
        argv = ["sample", machine_files["mixture-hmm"], "--length", "20", "--seed", "5"]
        code1, rep1 = run(argv)
        code2, rep2 = run(argv)
        assert code1 == code2 == 0
        assert rep1.verdicts == rep2.verdicts
        assert rep1.inputs == rep2.inputs

    def test_minimize_writes_equivalent_machine(self, machine_files, tmp_path):
        out = tmp_path / "min.json"
        code, report = run(
            ["minimize", machine_files["parity-flip-redundant"], "--out", str(out)]
        )
        assert code == 0
        got = {v["name"]: v["value"] for v in report.verdicts}
        assert got["states_after"] == 2
        reduced = vio.load_transducer(out)
        assert reduced.n == 2

    def test_minimize_keeps_labels_distinct_when_a_joined_label_is_taken(self, tmp_path):
        # a and b are bisimilar, and joining them as "a+b" repeats the third state's label
        edges = [("a", "0", "a"), ("b", "0", "b"), ("a+b", "1", "a+b")]
        doc = {
            "name": "clash",
            "states": ["a", "b", "a+b"],
            "actions": ["go"],
            "outputs": ["0", "1"],
            "initial": [1.0, 0.0, 0.0],
            "kernel": [{"from": j, "action": "go", "output": y, "to": i, "prob": 1.0} for j, y, i in edges],
        }
        src, out = tmp_path / "clash.json", tmp_path / "min.json"
        src.write_text(vio.dumps(doc))
        code, report = run(["minimize", str(src), "--out", str(out)])
        assert code == 0, report.verdicts
        got = {v["name"]: v["value"] for v in report.verdicts}
        assert got["partition"] == [["a", "b"], ["a+b"]]
        reduced = vio.load_transducer(out)
        assert reduced.states == ("a+b#2", "a+b")
        assert equivalent(reduced, vio.load_transducer(src)).equivalent
        assert run(["epsilon", str(src)])[0] == 0

    def test_dimension_command(self, machine_files):
        code, report = run(["dimension", machine_files["mixture-hmm"]])
        assert code == 0
        got = {v["name"]: v["value"] for v in report.verdicts}
        assert got["canonical_dimension"] == 2

    def test_span_commands_answer_on_3r3b_deck(self, tmp_path):
        # 20 states: far too many words to enumerate, few span directions
        deck, small = str(tmp_path / "deck.json"), str(tmp_path / "deck.min.json")
        vio.save_transducer(make_card_deck(3, 3, "cyclic"), deck)
        assert run(["minimize", deck, "--out", small])[0] == 0
        for argv in (
            ["dimension", deck],
            ["reduce-gt", deck, "--both-sides"],
            ["equivalent", deck, small],
        ):
            code, report = run(argv)
            assert code == 0, report.verdicts
        assert {"name": "equivalent", "value": True} in report.verdicts

    def test_reduce_gt_round_trip(self, machine_files, tmp_path):
        out = tmp_path / "gt.json"
        code, report = run(["reduce-gt", machine_files["mixture-hmm"], "--out", str(out)])
        assert code == 0
        g = vio.load_generalized(out)
        assert g.dims == 2

    def test_msp_writes_payloads(self, machine_files, tmp_path):
        out = tmp_path / "msp.json"
        code, report = run(
            ["msp", machine_files["parity-flip-redundant"], "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert "state_payloads" in doc
        assert len(doc["state_payloads"]) == 2

    def test_msp_non_closing_exit_one(self, machine_files):
        code, report = run(["msp", machine_files["mixture-hmm"], "--max-states", "100"])
        assert code == 1
        assert report.verdicts[-1]["name"] == "error"

    def test_epsilon_both_routes(self, machine_files, tmp_path):
        out = tmp_path / "eps.json"
        code, report = run(
            ["epsilon", machine_files["parity-flip-redundant"], "--out", str(out)]
        )
        assert code == 0
        got = {v["name"]: v["value"] for v in report.verdicts}
        assert got["states"] == 2
        code, report = run(
            [
                "epsilon",
                machine_files["parity-flip-redundant"],
                "--from-histories",
                "--hist-depth",
                "4",
                "--future-depth",
                "3",
            ]
        )
        assert code == 0
        got = {v["name"]: v["value"] for v in report.verdicts}
        assert got["states"] == 2 and got["stabilized"] is True

    @pytest.mark.parametrize("command", ["msp", "epsilon"])
    def test_invalid_source_exit_two(self, machine_files, tmp_path, command):
        with open(machine_files["parity-flip"], encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["kernel"][0]["prob"] = 0.7
        broken = tmp_path / "broken.json"
        broken.write_text(vio.dumps(doc))
        code, report = run(["validate", str(broken)])
        assert code == 1
        violation = report.verdicts[-1]["value"][0]
        code, report = run([command, str(broken)])
        assert code == 2
        assert report.verdicts[-1]["name"] == "error"
        assert report.verdicts[-1]["value"].endswith(violation)

    @pytest.mark.parametrize("command", ["msp", "epsilon"])
    def test_pruned_mass_past_the_source_tolerance_is_certified(self, tmp_path, command):
        # Valid at 2e-3, but the pruned y branch (0.0009 <= tol) leaves the
        # one belief's column at 0.9976: off by 0.0024, within tol of its link.
        kernel = np.zeros((1, 2, 2, 2))
        kernel[0, 0, 0, 0], kernel[0, 0, 1, 1], kernel[0, 1, 0, 1] = 0.9985, 0.9976, 0.0009
        path = tmp_path / "leaky.json"
        t = Transducer("leaky", ["a", "b"], ["go"], ["x", "y"], kernel, [0, 1])
        vio.save_transducer(t, path)
        code, report = run([command, str(path), "--tol", "1e-3"])
        assert code == 0
        got = {v["name"]: v["value"] for v in report.verdicts}
        assert got.get("belief_states", got.get("states")) == 1
        if command == "epsilon":
            assert got["faithfulness_residual"] == pytest.approx(0.0009, rel=1e-9)

    @pytest.mark.parametrize("command", ["msp", "epsilon"])
    @pytest.mark.parametrize(
        "entries, tol",
        [
            # column a sums to 1.015 (valid at 2e-2): the x update merges into
            # the start belief and leaves emit * 0.00995 = 0.0101 > tol
            ({(0, 0, 0): 1.00995, (0, 1, 0): 0.00505}, "1e-2"),
            # a -5e-10 entry (valid at 1e-9) is a pruned branch of mass 5e-10
            ({(0, 0, 0): 1.0, (1, 1, 0): -5e-10}, "0"),
            # the pruned y branch emits 0.01 but carries L1 mass 0.05
            ({(0, 0, 0): 0.99, (1, 0, 0): 0.03, (1, 1, 0): -0.02}, "1e-2"),
        ],
    )
    def test_a_source_valid_only_within_tolerance_is_certified(self, tmp_path, command, entries, tol):
        kernel = np.zeros((1, 2, 2, 2))
        kernel[0, 0, 1, 1] = 1.0
        for (y, i, j), p in entries.items():
            kernel[0, y, i, j] = p
        path = tmp_path / "leaky.json"
        vio.save_transducer(Transducer("leaky", ["a", "b"], ["go"], ["x", "y"], kernel, [1, 0]), path)
        code, report = run([command, str(path), "--tol", tol])
        assert code == 0
        got = {v["name"]: v["value"] for v in report.verdicts}
        assert got.get("belief_states", got.get("states")) == 1

    def test_epsilon_reports_the_faithfulness_residual(self, machine_files):
        code, report = run(["epsilon", machine_files["parity-flip-redundant"]])
        assert code == 0
        got = {v["name"]: v["value"] for v in report.verdicts}
        assert "checked_depth" not in got
        assert 0.0 <= got["faithfulness_residual"] <= 1e-12

    def test_epsilon_on_a_near_tie_machine_at_tol_1e_3(self, tmp_path):
        # Tolerance near-ties leave states a second refinement would merge;
        # the result is still certified and faithful.
        t = property_machine("dense", 24)
        src, out = tmp_path / "dense.json", tmp_path / "eps.json"
        vio.save_transducer(t, src)
        code, report = run(["epsilon", str(src), "--tol", "1e-3", "--out", str(out)])
        assert code == 0
        got = {v["name"]: v["value"] for v in report.verdicts}
        assert got["states"] == 67
        assert got["faithfulness_residual"] <= 3e-3
        assert equivalent(vio.load_transducer(out), t, 2 * t.n, 1e-3).equivalent

    def test_reverse_writes_kernel_slices(self, machine_files, tmp_path):
        prefix = str(tmp_path / "rev")
        code, report = run(
            ["reverse", machine_files["parity-flip"], "--horizon", "3", "--out", prefix]
        )
        assert code == 0
        assert len(report.artifacts) == 3
        for p in report.artifacts:
            with open(p, encoding="utf-8") as fh:
                doc = json.load(fh)
            assert "kernel" in doc and "defined" in doc and doc["policy"] == "uniform"

    def test_smooth_command(self, machine_files, tmp_path):
        trace = tmp_path / "trace.json"
        trace.write_text(vio.dumps({"actions": ["1", "1"], "outputs": ["0", "1"]}))
        code, report = run(
            ["smooth", machine_files["parity-flip"], "--trace", str(trace)]
        )
        assert code == 0
        got = {v["name"]: v["value"] for v in report.verdicts}
        assert got["posteriors"] == [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]

    def test_smooth_takes_no_policy(self, machine_files, tmp_path):
        # smoothing conditions on the trace, so a policy would change nothing
        trace = tmp_path / "trace.json"
        trace.write_text(vio.dumps({"actions": ["1"], "outputs": ["0"]}))
        argv = ["smooth", machine_files["parity-flip"], "--trace", str(trace), "--policy", "bogus"]
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2

    def test_smooth_impossible_trace_exit_two(self, machine_files, tmp_path):
        trace = tmp_path / "trace.json"
        trace.write_text(vio.dumps({"actions": ["0"], "outputs": ["1"]}))
        code, _ = run(["smooth", machine_files["parity-flip"], "--trace", str(trace)])
        assert code == 2

    def test_fixtures_command_materializes_files(self, tmp_path):
        code, report = run(["fixtures", "--dir", str(tmp_path)])
        assert code == 0
        assert len(report.artifacts) == 6
        for p in report.artifacts:
            assert os.path.exists(p)
            vio.load_transducer(p)  # parses

    def test_unknown_symbol_in_prob_exit_two(self, machine_files):
        code, _ = run(
            ["prob", machine_files["parity-flip"], "--actions", "7", "--outputs", "0"]
        )
        assert code == 2

    def test_report_text_and_json_shapes(self, machine_files):
        code, report = run(["dimension", machine_files["parity-flip"]])
        text = report.to_text()
        assert "canonical_dimension: 2" in text
        doc = json.loads(report.to_json())
        assert doc["command"] == "dimension"
        assert {"name": "canonical_dimension", "value": 2} in doc["verdicts"]


def _generalized_doc(fix_c) -> dict:
    return vio.generalized_to_doc(reduce_generalized(fix_c))


class TestNonObjectsAreRefused:
    @pytest.mark.parametrize(
        "command, policy, trace",
        [
            ("sample", {"kind": "table", "entries": [5]}, None),
            ("reverse", {"kind": "table", "entries": [5]}, None),
            ("sample", 5, None),
            ("smooth", None, 5),
            ("smooth", None, [["1"], ["0"]]),
        ],
        ids=["sample-entry", "reverse-entry", "sample-policy", "smooth-trace", "smooth-list-trace"],
    )
    def test_cli_input_error(self, machine_files, tmp_path, command, policy, trace):
        argv = [command, machine_files["parity-flip"]]
        if policy is not None:
            (tmp_path / "p.json").write_text(vio.dumps(policy))
            argv += ["--policy", f"file:{tmp_path / 'p.json'}"]
            where = str(tmp_path / "p.json") + (": entries[0]" if isinstance(policy, dict) else "")
        else:
            (tmp_path / "h.json").write_text(vio.dumps(trace))
            argv += ["--trace", str(tmp_path / "h.json")]
            where = str(tmp_path / "h.json")
        code, report = run(argv)
        assert code == 2
        assert report.verdicts[-1] == {"name": "error", "value": f"{where}: expected an object"}

    @pytest.mark.parametrize("bad", [5, "x", None, [1.0]])
    def test_generalized_matrix_entry(self, fix_c, bad):
        doc = _generalized_doc(fix_c)
        doc["matrices"][1] = bad
        with pytest.raises(StructureError, match=r"^g.json: matrices\[1\]: expected an object$"):
            vio.generalized_from_doc(doc, "g.json")

    @pytest.mark.parametrize("bad", [5, "x", [], None])
    def test_history_and_policy_documents(self, bad):
        for read in (vio.history_from_doc, vio.policy_from_doc):
            with pytest.raises(StructureError, match=r"^f.json: expected an object$"):
                read(bad, "f.json")


class TestGeneralizedMatrixRows:
    @pytest.mark.parametrize("bad", ["x", "0.5", True, None, [0.5], {}])
    def test_row_item_is_a_number(self, fix_c, bad):
        doc = _generalized_doc(fix_c)
        doc["matrices"][1]["rows"][1][0] = bad
        with pytest.raises(StructureError) as err:
            vio.generalized_from_doc(doc, "g.json")
        assert str(err.value) == f"g.json: matrices[1]: rows[1] item 0 is not a number: {bad!r}"

    @pytest.mark.parametrize(
        "reshape",
        [
            lambda rows: [rows[0] + [0.0], rows[1]],
            lambda rows: [rows[0][:1], rows[1]],
            lambda rows: rows[:1],
            lambda rows: rows + [rows[0]],
            lambda rows: [rows[0], 0.5],
            lambda rows: [x for row in rows for x in row],
        ],
        ids=["long-row", "short-row", "missing-row", "extra-row", "scalar-row", "flat"],
    )
    def test_rows_are_dims_by_dims(self, fix_c, reshape):
        doc = _generalized_doc(fix_c)
        assert doc["dims"] == 2
        doc["matrices"][0]["rows"] = reshape(doc["matrices"][0]["rows"])
        with pytest.raises(StructureError, match=r"^g.json: matrices\[0\]: rows must be 2x2$"):
            vio.generalized_from_doc(doc, "g.json")

    @pytest.mark.parametrize("dims", [0, -1])
    def test_dims_is_positive(self, fix_c, dims):
        doc = _generalized_doc(fix_c)
        doc["dims"] = dims
        with pytest.raises(StructureError, match=r"^g.json: dims must be positive$"):
            vio.generalized_from_doc(doc, "g.json")

    def test_integer_entries_load_as_floats(self, fix_c):
        doc = _generalized_doc(fix_c)
        doc["matrices"][0]["rows"] = [[1, 0], [0, 1]]
        g = vio.generalized_from_doc(doc, "g.json")
        np.testing.assert_array_equal(g.matrices[0, 0], np.eye(2))


class TestOneParserPerProcess:
    """run and main share one parser; nothing carries over from call to call."""

    def test_the_parser_is_built_once(self):
        assert cli._parser() is cli._parser()
        assert cli.build_parser() is not cli.build_parser()

    def test_an_out_path_does_not_carry_over(self, machine_files, tmp_path):
        out = tmp_path / "msp.json"
        code, report = run(["msp", machine_files["parity-flip-redundant"], "--out", str(out)])
        assert code == 0 and report.artifacts == [str(out)]
        out.unlink()
        code, report = run(["msp", machine_files["parity-flip-redundant"]])
        assert code == 0 and report.artifacts == []
        assert not out.exists()

    def test_format_does_not_carry_over(self, machine_files, capsys):
        argv = ["dimension", machine_files["parity-flip"]]
        assert main(["--format", "machine"] + argv) == 0
        assert json.loads(capsys.readouterr().out)["command"] == "dimension"
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("command: dimension\n")

    def test_a_usage_error_after_a_success_exits_two(self, machine_files):
        argv = ["info", machine_files["parity-flip"]]
        assert main(argv) == 0
        assert main(["info"]) == 2
        assert main(argv + ["--tol", "nan"]) == 2
        with pytest.raises(SystemExit) as exc:
            run(["bogus"])
        assert exc.value.code == 2
        assert main(argv) == 0

    def test_changing_a_built_parser_leaves_main_alone(self, machine_files, capsys):
        mine = cli.build_parser()
        mine.add_argument("--extra", default="x")
        mine.set_defaults(format="machine")
        argv = ["dimension", machine_files["parity-flip"]]
        assert mine.parse_args(argv).format == "machine"
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("command: dimension\n")
        assert main(["--extra", "y"] + argv) == 2


def _crlf_copy(path, tmp_path, name: str):
    """A copy of ``path`` with CRLF line endings."""
    with open(path, "rb") as fh:
        raw = fh.read()
    assert b"\r" not in raw
    out = tmp_path / name
    out.write_bytes(raw.replace(b"\n", b"\r\n"))
    return out


class TestOneReadPerInput:
    def test_digests_are_of_the_raw_bytes(self, machine_files, tmp_path):
        trace = tmp_path / "trace.json"
        trace.write_text(vio.dumps({"actions": ["1", "1"], "outputs": ["0", "1"]}))
        lf = run(["smooth", machine_files["parity-flip"], "--trace", str(trace)])[1]
        machine = _crlf_copy(machine_files["parity-flip"], tmp_path, "m-crlf.json")
        trace_crlf = _crlf_copy(trace, tmp_path, "t-crlf.json")
        code, report = run(["smooth", str(machine), "--trace", str(trace_crlf)])
        assert code == 0
        assert report.inputs == {
            str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in (machine, trace_crlf)
        }
        assert report.verdicts == lf.verdicts

    @pytest.mark.parametrize(
        "fault",
        [
            lambda text: text.replace('"states"', ',"states"', 1),
            lambda text: text.replace('"kernel"', '"ker\nnel"', 1),
            lambda text: text[:-10],
        ],
        ids=["comma", "newline-in-string", "truncated"],
    )
    def test_a_malformed_crlf_file_reads_as_text_mode(self, machine_files, tmp_path, fault):
        with open(machine_files["parity-flip"], encoding="utf-8") as fh:
            bad = fault(fh.read())
        lf = tmp_path / "bad.json"
        lf.write_bytes(bad.encode("utf-8"))
        crlf = _crlf_copy(lf, tmp_path, "bad-crlf.json")
        with pytest.raises(StructureError) as err:
            vio.load_transducer(crlf)
        for path in (lf, crlf):
            code, report = run(["info", str(path)])
            assert code == 2
            assert report.verdicts[-1]["value"] == str(err.value)


class TestOneReaderAndWriter:
    def test_read_doc_is_the_document_and_the_digest_of_the_bytes(self, machine_files):
        path = machine_files["parity-flip"]
        with open(path, "rb") as fh:
            raw = fh.read()
        assert vio.read_doc(path) == (json.loads(raw), hashlib.sha256(raw).hexdigest())

    def test_write_doc_writes_the_canonical_text(self, fix_a, tmp_path):
        doc = vio.transducer_to_doc(fix_a)
        vio.write_doc(doc, tmp_path / "m.json")
        assert (tmp_path / "m.json").read_bytes() == vio.dumps(doc).encode("utf-8")

    def test_the_cli_opens_no_file_itself(self):
        with open(cli.__file__, encoding="utf-8") as fh:
            assert "open(" not in fh.read()


class TestWriteInPlace:
    """write_doc writes over an existing file and cuts it where the text ends:
    the bytes are a fresh write's, and the path keeps open(path, "w")'s meaning."""

    def _fresh(self, doc, tmp_path) -> bytes:
        vio.write_doc(doc, tmp_path / "fresh.json")
        return (tmp_path / "fresh.json").read_bytes()

    def test_shorter_and_longer_rewrites_give_a_fresh_writes_bytes(self, fix_a, tmp_path):
        small = vio.transducer_to_doc(fix_a)
        large = vio.transducer_to_doc(make_card_deck(2, 2, "flip_shuffle"))
        path = tmp_path / "out.json"
        for doc in (large, small, large, large):
            vio.write_doc(doc, path)
            assert path.read_bytes() == self._fresh(doc, tmp_path)

    def test_the_cli_cuts_a_longer_file(self, machine_files, tmp_path):
        out = tmp_path / "over.json"
        out.write_bytes(Path(machine_files["card-deck-2r2b-flip-shuffle"]).read_bytes())
        fresh = tmp_path / "small.json"
        for path in (fresh, out):
            assert run(["minimize", machine_files["parity-flip-redundant"], "--out", str(path)])[0] == 0
        assert out.read_bytes() == fresh.read_bytes()

    def test_a_hard_link_sees_the_new_bytes_and_inode_and_mode_stay(self, fix_a, fix_c, tmp_path):
        path, link = tmp_path / "out.json", tmp_path / "link.json"
        vio.write_doc(vio.transducer_to_doc(fix_c), path)
        os.chmod(path, 0o640)
        os.link(path, link)
        before = os.stat(path)
        vio.write_doc(vio.transducer_to_doc(fix_a), path)
        after = os.stat(path)
        assert link.read_bytes() == path.read_bytes() == self._fresh(vio.transducer_to_doc(fix_a), tmp_path)
        assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)
        assert stat.S_IMODE(after.st_mode) == 0o640

    def test_a_symlinked_out_writes_through_to_its_target(self, machine_files, tmp_path):
        target, link = tmp_path / "target.json", tmp_path / "link.json"
        target.write_text("old and longer than nothing\n" * 100)
        link.symlink_to(target)
        assert run(["minimize", machine_files["parity-flip-redundant"], "--out", str(link)])[0] == 0
        assert link.is_symlink()
        assert vio.load_transducer(target).n == 2

    def test_out_to_the_null_device_exits_zero(self, machine_files):
        assert run(["msp", machine_files["parity-flip"], "--out", os.devnull])[0] == 0

    @pytest.mark.parametrize("where", ["directory", "missing directory"])
    def test_an_unwritable_out_exits_2_with_the_os_error_text(self, machine_files, tmp_path, where):
        out = tmp_path if where == "directory" else tmp_path / "missing" / "out.json"
        with pytest.raises(OSError) as err:
            open(out, "w")
        code, report = run(["msp", machine_files["parity-flip"], "--out", str(out)])
        assert code == 2
        assert report.verdicts[-1] == {"name": "error", "value": str(err.value)}

    def test_a_write_that_raises_part_way_leaves_an_empty_file(self, machine_files, tmp_path, monkeypatch):
        out = tmp_path / "out.json"
        out.write_bytes(Path(machine_files["card-deck-2r2b-flip-shuffle"]).read_bytes())
        real_write, calls = os.write, []

        def half_then_full_disk(fd, data):
            calls.append(len(data))
            if len(calls) > 1:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return real_write(fd, data[: len(data) // 2])

        monkeypatch.setattr(os, "write", half_then_full_disk)
        code, report = run(["minimize", machine_files["parity-flip-redundant"], "--out", str(out)])
        monkeypatch.undo()
        assert code == 2
        assert len(calls) == 2
        assert report.verdicts[-1]["value"] == str(OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)))
        assert out.read_bytes() == b""

    def test_a_new_file_gets_0o666_less_the_umask(self, fix_a, tmp_path):
        old = os.umask(0o002)
        try:
            vio.write_doc(vio.transducer_to_doc(fix_a), tmp_path / "new.json")
        finally:
            os.umask(old)
        assert stat.S_IMODE(os.stat(tmp_path / "new.json").st_mode) == 0o666 & ~0o002


def _not_utf8(path, tmp_path, name: str) -> str:
    """A copy of ``path`` whose bytes start with ff fe, which UTF-8 never does."""
    with open(path, "rb") as fh:
        raw = fh.read()
    out = tmp_path / name
    out.write_bytes(b"\xff\xfe" + raw)
    return str(out)


class TestNonUtf8InputIsAnInputError:
    def test_read_doc(self, machine_files, tmp_path):
        bad = _not_utf8(machine_files["parity-flip"], tmp_path, "m.json")
        with pytest.raises(StructureError) as err:
            vio.read_doc(bad)
        assert str(err.value) == f"{bad}: not UTF-8 text (invalid start byte at byte 0)"
        with pytest.raises(StructureError, match="not UTF-8 text"):
            vio.load_transducer(bad)

    @pytest.mark.parametrize("role", ["machine", "trace", "policy"])
    def test_cli(self, machine_files, tmp_path, role):
        machine = machine_files["parity-flip"]
        trace = tmp_path / "h.json"
        trace.write_text(vio.dumps({"actions": ["1", "1"], "outputs": ["0", "1"]}))
        policy = tmp_path / "p.json"
        policy.write_text(vio.dumps({"kind": "weighted", "weights": [0.25, 0.75]}))
        if role == "machine":
            bad = _not_utf8(machine, tmp_path, "bad.json")
            argv = ["info", bad]
        elif role == "trace":
            bad = _not_utf8(trace, tmp_path, "bad.json")
            argv = ["smooth", machine, "--trace", bad]
        else:
            bad = _not_utf8(policy, tmp_path, "bad.json")
            argv = ["sample", machine, "--policy", f"file:{bad}"]
        code, report = run(argv)
        assert code == 2
        assert report.verdicts == [
            {"name": "error", "value": f"{bad}: not UTF-8 text (invalid start byte at byte 0)"}
        ]
        assert bad not in report.inputs


class TestPolicyFileDigest:
    @pytest.mark.parametrize("command", ["sample", "reverse"])
    def test_the_policy_file_is_an_input(self, machine_files, tmp_path, command):
        machine = machine_files["parity-flip"]
        policy = tmp_path / "p.json"
        policy.write_text(vio.dumps({"kind": "weighted", "weights": [0.25, 0.75]}))
        code, report = run([command, machine, "--policy", f"file:{policy}"])
        same = run([command, machine, "--policy", "weighted:0.25,0.75"])[1]
        assert code == 0
        assert report.inputs == {
            machine: hashlib.sha256(Path(machine).read_bytes()).hexdigest(),
            str(policy): hashlib.sha256(policy.read_bytes()).hexdigest(),
        }
        assert (report.parameters, report.verdicts) == (same.parameters, same.verdicts)

    @pytest.mark.parametrize("command", ["sample", "reverse"])
    @pytest.mark.parametrize("spec", ["uniform", "weighted:0.25,0.75"])
    def test_other_policies_add_no_input(self, machine_files, command, spec):
        machine = machine_files["parity-flip"]
        report = run([command, machine, "--policy", spec])[1]
        assert list(report.inputs) == [machine]
        assert report.parameters["policy"] == spec


class TestUnknownLabelsNameWhereTheyAre:
    @pytest.mark.parametrize("key", ["action", "output"])
    def test_kernel_record(self, machine_files, tmp_path, key):
        doc = vio.transducer_to_doc(ALL_FIXTURES["parity-flip"]())
        doc["kernel"][1][key] = "zz"
        path = tmp_path / "m.json"
        vio.write_doc(doc, path)
        expected = f"{path}: kernel[1]: symbol 'zz' not in alphabet ('0', '1')"
        with pytest.raises(StructureError) as err:
            vio.load_transducer(path)
        assert str(err.value) == expected
        code, report = run(["info", str(path)])
        assert code == 2
        assert report.verdicts[-1] == {"name": "error", "value": expected}

    @pytest.mark.parametrize("key, alphabet", [("action", "('0',)"), ("output", "('0', '1')")])
    def test_generalized_matrix(self, fix_c, key, alphabet):
        doc = _generalized_doc(fix_c)
        doc["matrices"][1][key] = "zz"
        with pytest.raises(StructureError) as err:
            vio.generalized_from_doc(doc, "g.json")
        assert str(err.value) == f"g.json: matrices[1]: symbol 'zz' not in alphabet {alphabet}"

    @pytest.mark.parametrize("field", ["actions", "outputs"])
    def test_smooth_trace(self, machine_files, tmp_path, field):
        trace = {"actions": ["1", "1"], "outputs": ["0", "1"]}
        trace[field] = ["1", "zz"]
        path = tmp_path / "h.json"
        path.write_text(vio.dumps(trace))
        code, report = run(["smooth", machine_files["parity-flip"], "--trace", str(path)])
        assert code == 2
        assert report.verdicts == [
            {"name": "error", "value": f"{path}: symbol 'zz' not in alphabet ('0', '1')"}
        ]


class TestNegativeBeliefIsRefused:
    @pytest.mark.parametrize("command", ["msp", "epsilon"])
    def test_parity_flip_with_a_negative_start(self, tmp_path, command):
        # valid within tol 1e-2, but its first belief is no law
        doc = vio.transducer_to_doc(ALL_FIXTURES["parity-flip"]())
        doc["initial"] = [1.015, -0.015]
        path = tmp_path / "m.json"
        vio.write_doc(doc, path)
        code, report = run([command, str(path), "--tol", "1e-2", "--out", str(tmp_path / "o.json")])
        assert code == 2
        assert report.verdicts == [{"name": "error", "value": "belief has a negative entry: -0.015"}]
        assert not (tmp_path / "o.json").exists()


class TestPolicyLawsAtTheCli:
    @pytest.mark.parametrize("command", ["sample", "reverse"])
    def test_weights_off_one_exit_two(self, machine_files, command):
        code, report = run([command, machine_files["parity-flip"], "--policy", "weighted:0.5,0.6"])
        assert code == 2
        assert report.verdicts == [{"name": "error", "value": "weighted policy sums to 1.1, not 1"}]

    @pytest.mark.parametrize("command", ["sample", "reverse"])
    def test_a_table_label_in_braces_is_named_not_formatted(self, machine_files, tmp_path, command):
        entry = {"actions": ["{x}"], "outputs": ["0"], "dist": [0.5, 0.6]}
        path = tmp_path / "p.json"
        vio.write_doc({"kind": "table", "entries": [entry]}, path)
        code, report = run([command, machine_files["parity-flip"], "--policy", f"file:{path}"])
        assert code == 2
        message = "table entry for History(actions=('{x}',), outputs=('0',)) sums to 1.1, not 1"
        assert report.verdicts == [{"name": "error", "value": message}]

    @pytest.mark.parametrize(
        "spec, doc, text",
        [
            ("uniform", None, "uniform"),
            ("weighted:0.25,0.75", None, "weighted:0.25,0.75"),
            ("file", {"kind": "uniform"}, "uniform"),
            ("file", {"kind": "weighted", "weights": [0.25, 0.75]}, "weighted:0.25,0.75"),
            ("file", {"kind": "table", "entries": []}, "table:0 entries, uniform fallback"),
            (
                "file",
                {"kind": "table", "entries": [{"actions": ["1"], "outputs": ["0"], "dist": [1, 0]}]},
                "table:1 entries, uniform fallback",
            ),
        ],
    )
    @pytest.mark.parametrize("command", ["sample", "reverse"])
    def test_describe_is_stamped_as_before(self, machine_files, tmp_path, command, spec, doc, text):
        if doc is not None:
            vio.write_doc(doc, tmp_path / "p.json")
            spec = f"file:{tmp_path / 'p.json'}"
        code, report = run([command, machine_files["parity-flip"], "--policy", spec])
        assert code == 0
        assert report.parameters["policy"] == text


class TestPolicySizesAreCheckedBeforeAnyWork:
    @pytest.mark.parametrize(
        "policy, message",
        [
            ("weighted:0.2,0.3,0.5", "policy 'weighted:0.2,0.3,0.5': weights has 3 entries, the machine has 2 actions"),
            ({"kind": "weighted", "weights": [0.2, 0.3, 0.5]}, "weights has 3 entries, the machine has 2 actions"),
            (
                {"kind": "table", "entries": [{"actions": ["0"], "outputs": [], "dist": [1, 0]}]},
                "entries[0]: history needs equally many actions and outputs, got 1 vs 0",
            ),
        ],
        ids=["weighted-spec", "weighted-file", "table-entry"],
    )
    @pytest.mark.parametrize("command, out", [("sample", False), ("reverse", False), ("reverse", True)])
    def test_refused_naming_the_spec_or_the_file(self, machine_files, tmp_path, policy, message, command, out):
        spec = policy
        if isinstance(policy, dict):
            path = tmp_path / "p.json"
            vio.write_doc(policy, path)
            spec, message = f"file:{path}", f"{path}: {message}"
        argv = [command, machine_files["parity-flip"], "--policy", spec]
        code, report = run(argv + (["--out", str(tmp_path / "rev")] if out else []))
        assert code == 2
        assert report.verdicts == [{"name": "error", "value": message}]
        assert report.artifacts == [] and not list(tmp_path.glob("rev*"))


class TestPolicyTableEntriesAreChecked:
    @pytest.mark.parametrize(
        "entries, message",
        [
            (
                [{"actions": [], "outputs": [], "dist": [1, 0]}, {"actions": [], "outputs": [], "dist": [0, 1]}],
                "entries[1]: same (actions, outputs) as entries[0]",
            ),
            (
                [{"actions": ["1"], "outputs": ["0"], "dist": [1, 0]}, {"actions": ["nope"], "outputs": ["0"], "dist": [1, 0]}],
                "entries[1]: symbol 'nope' not in alphabet ('0', '1')",
            ),
            (
                [{"actions": ["1"], "outputs": ["{y}"], "dist": [1, 0]}],
                "entries[0]: symbol '{y}' not in alphabet ('0', '1')",
            ),
            (
                [{"actions": [], "outputs": [], "dist": [0.5, 0.25, 0.25]}],
                "entries[0]: dist has 3 weights, the machine has 2 actions",
            ),
        ],
        ids=["repeated-key", "unknown-action", "unknown-output", "wrong-size-dist"],
    )
    @pytest.mark.parametrize("command", ["sample", "reverse"])
    def test_refused_naming_the_file_and_the_entry(self, machine_files, tmp_path, command, entries, message):
        path = tmp_path / "p.json"
        vio.write_doc({"kind": "table", "entries": entries}, path)
        argv = [command, machine_files["parity-flip"], "--policy", f"file:{path}"]
        code, report = run(argv + (["--out", str(tmp_path / "rev")] if command == "reverse" else []))
        assert code == 2
        assert report.verdicts == [{"name": "error", "value": f"{path}: {message}"}]
        assert report.artifacts == []

    def test_the_library_reads_a_repeated_key_by_entry(self):
        entry = {"actions": ["1"], "outputs": ["0"], "dist": [1, 0]}
        doc = {"kind": "table", "entries": [entry, {**entry, "actions": ["0"]}, entry]}
        with pytest.raises(StructureError) as err:
            vio.policy_from_doc(doc, "p.json")
        assert str(err.value) == "p.json: entries[2]: same (actions, outputs) as entries[0]"


class TestReduceGtStartMass:
    def test_a_start_of_partial_mass_is_refused_by_name(self, tmp_path):
        doc = vio.transducer_to_doc(ALL_FIXTURES["delay-channel"]())
        doc["initial"] = [0.25, 0.25]
        path = tmp_path / "m.json"
        vio.write_doc(doc, path)
        code, report = run(["reduce-gt", str(path), "--out", str(tmp_path / "gt.json")])
        assert code == 2
        assert report.verdicts == [{"name": "error", "value": f"{path}: initial sums to 0.5, not 1"}]
        assert not (tmp_path / "gt.json").exists()

    def test_a_valid_machine_is_still_reduced(self, machine_files, tmp_path):
        out = tmp_path / "gt.json"
        code, report = run(["reduce-gt", machine_files["delay-channel"], "--out", str(out)])
        assert code == 0
        reduced = vio.load_generalized(out)
        assert {"name": "dims_after", "value": reduced.dims} in report.verdicts
