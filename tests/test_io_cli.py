"""File formats, round-trip stability, CLI exit codes, and determinism."""

import json
import os

import numpy as np
import pytest

from vatworld import io as vio
from vatworld.cli import run
from vatworld.core import History, make_card_deck
from vatworld.errors import StructureError
from vatworld.fixtures import ALL_FIXTURES
from vatworld.linalg_reduce import reduce_generalized
from vatworld.oracle import equivalent


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
