"""File formats, round-trip stability, CLI exit codes, and determinism."""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vatworld import io as vio
from vatworld.beliefs import build_msp
from vatworld.cli import run
from vatworld.core import History, Transducer, make_card_deck
from vatworld.errors import StructureError
from vatworld.fixtures import ALL_FIXTURES
from vatworld.linalg_reduce import reduce_generalized
from vatworld.oracle import equivalent

from conftest import (
    PROPERTY_KINDS,
    loop_reverse_records,
    loop_transducer_to_doc,
    pair_machine,
    property_machine,
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


class TestCanonicalText:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        doc=_JSON_DOCS
        | _JSON_ROWS
        | st.dictionaries(st.text(max_size=2), _JSON_ROWS | _JSON_DOCS, max_size=3)
    )
    def test_same_bytes_as_json_dumps(self, doc):
        assert vio.dumps(doc) == json.dumps(doc, indent=2, ensure_ascii=False) + "\n"

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
        assert vio.dumps(doc) == json.dumps(doc, indent=2, ensure_ascii=False) + "\n"

    def test_unserializable_items_raise_as_json_does(self):
        for doc in ([1, np.int64(2)], {"a": {"b": np.arange(2)}}, {(1, 2): 3}, {"a": [{(1,): 2}]}):
            with pytest.raises(TypeError):
                json.dumps(doc, indent=2)
            with pytest.raises(TypeError):
                vio.dumps(doc)


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

    @pytest.mark.parametrize("command", ["validate", "msp", "epsilon"])
    def test_nan_kernel_record_is_refused_by_name(self, machine_files, tmp_path, command):
        with open(machine_files["parity-flip"], encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["kernel"][0]["prob"] = float("nan")
        broken = tmp_path / "nan.json"
        broken.write_text(vio.dumps(doc))
        code, report = run([command, str(broken)])
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
