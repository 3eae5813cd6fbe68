"""Command-line interface: exit codes, output shapes, config handling."""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import pytest

from rwdetect.capture import parse_packet_csv, write_packet_csv
from rwdetect.cli import run
from rwdetect.classifiers import MODEL_MAGIC, read_model
from rwdetect.conversation import aggregate, conversations_to_csv
from rwdetect.eval import REPORT_CSV_HEADER

from conftest import make_conversation, make_packet


def flow_packets(t0, src, sport, dst, dport, n, size):
    return [
        make_packet(t0 + 0.1 * i, src=src, sport=sport, dst=dst,
                    dport=dport, wire_bytes=size)
        for i in range(n)
    ]


@pytest.fixture
def workspace(tmp_path):
    """Packet CSV, two conversation CSVs, and a labeled dataset CSV."""
    packets = (
        flow_packets(1.0, "10.0.0.7", 1111, "10.0.0.8", 80, n=2, size=100)
        + flow_packets(2.0, "192.168.1.4", 2222, "192.168.1.5", 443,
                       n=6, size=900)
    )
    (tmp_path / "packets.csv").write_text(write_packet_csv(packets))

    ransom = [
        make_conversation(port_a=1000 + i, packets_ab=3, bytes_ab=3000 + i,
                          packets_ba=2, bytes_ba=2000, rel_start=float(i))
        for i in range(12)
    ]
    benign = [
        make_conversation(port_a=1000 + i, rel_start=float(i))
        for i in range(12)
    ]
    (tmp_path / "ransom.csv").write_text(conversations_to_csv(ransom))
    (tmp_path / "benign.csv").write_text(conversations_to_csv(benign))

    code = run(["label", "--ransomware", str(tmp_path / "ransom.csv"),
                "--benign", str(tmp_path / "benign.csv"),
                "-o", str(tmp_path / "data.csv")])
    assert code == 0
    return tmp_path


def trained_model_path(workspace) -> str:
    model_path = workspace / "model.bin"
    if not model_path.exists():
        code = run(["train", str(workspace / "data.csv"), "--kind", "j48",
                    "-o", str(model_path)])
        assert code == 0
    return str(model_path)


class TestExtract:
    def test_matches_library_output(self, tmp_path, capsys):
        packets = flow_packets(0.0, "10.0.0.1", 5, "10.0.0.2", 6, n=3,
                               size=64)
        source = tmp_path / "packets.csv"
        source.write_text(write_packet_csv(packets))
        out = tmp_path / "conv.csv"

        assert run(["extract", str(source), "-o", str(out)]) == 0
        expected = conversations_to_csv(
            aggregate(parse_packet_csv(source.read_text())))
        assert out.read_text() == expected
        err = capsys.readouterr().err
        assert "config: command=extract" in err
        assert "extract: 3 packets -> 1 conversations" in err

    def test_stdout_by_default(self, tmp_path, capsys):
        source = tmp_path / "packets.csv"
        source.write_text(write_packet_csv([make_packet(1.0)]))
        assert run(["extract", str(source)]) == 0
        stdout = capsys.readouterr().out
        assert stdout.startswith("protocol,address_a,")

    def test_strict_rejects_bad_rows(self, tmp_path, capsys):
        source = tmp_path / "packets.csv"
        source.write_text(
            write_packet_csv([make_packet(1.0)]) + "bad,row\n")
        assert run(["extract", str(source)]) == 1
        assert run(["extract", str(source), "--lenient"]) == 0
        err = capsys.readouterr().err
        assert "skipped 1 malformed" in err


class TestLabel:
    def test_dataset_has_both_labels(self, workspace):
        text = (workspace / "data.csv").read_text()
        lines = text.strip().split("\n")
        assert len(lines) == 25     # header + 12 + 12
        assert lines[0].endswith(",label")
        assert sum(1 for l in lines if l.endswith(",ransomware")) == 12
        assert sum(1 for l in lines if l.endswith(",benign")) == 12

    def test_no_inputs_is_usage_error(self, capsys):
        assert run(["label", "-o", "-"]) == 1
        assert "error:" in capsys.readouterr().err


class TestTrain:
    def test_writes_loadable_model(self, workspace, capsys):
        path = trained_model_path(workspace)
        model = read_model(path)
        assert model.kind.value == "DecisionTreeJ48"
        err = capsys.readouterr().err
        assert "train: DecisionTreeJ48 on 24 samples" in err

    def test_retrain_byte_identical(self, workspace):
        data = str(workspace / "data.csv")
        a, b = workspace / "a.bin", workspace / "b.bin"
        assert run(["train", data, "--kind", "knn", "-o", str(a)]) == 0
        assert run(["train", data, "--kind", "knn", "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_param_override(self, workspace):
        data = str(workspace / "data.csv")
        out = workspace / "knn3.bin"
        assert run(["train", data, "--kind", "knn", "--param", "k=3",
                    "-o", str(out)]) == 0
        assert read_model(out).hyperparams.k == 3

    def test_bad_param_values_exit_1(self, workspace, capsys):
        data = str(workspace / "data.csv")
        out = str(workspace / "junk.bin")
        assert run(["train", data, "--kind", "knn", "--param", "depth=3",
                    "-o", out]) == 1
        assert run(["train", data, "--kind", "knn", "--param", "k=abc",
                    "-o", out]) == 1
        assert run(["train", data, "--kind", "knn", "--param", "k=0",
                    "-o", out]) == 1
        err = capsys.readouterr().err
        assert "error:" in err

    def test_unknown_kind_exit_1(self, workspace):
        assert run(["train", str(workspace / "data.csv"),
                    "--kind", "boosting", "-o", "-"]) == 1

    def test_seed_flows_into_hyperparams(self, workspace):
        data = str(workspace / "data.csv")
        out = workspace / "seeded.bin"
        assert run(["train", data, "--kind", "forest", "--seed", "7",
                    "-o", str(out)]) == 0
        assert read_model(out).hyperparams.seed == 7


class TestEval:
    def test_holdout_csv_row(self, workspace, capsys):
        assert run(["eval", str(workspace / "data.csv"),
                    "--kind", "knn"]) == 0
        captured = capsys.readouterr()
        lines = captured.out.strip().split("\n")
        assert lines[0] == ",".join(REPORT_CSV_HEADER)
        assert len(lines) == 2
        assert lines[1].startswith("KNearestNeighbor,")
        assert "config: command=eval" in captured.err
        assert "seed=42" in captured.err

    def test_kfold_prints_folds_to_stderr(self, workspace, capsys):
        assert run(["eval", str(workspace / "data.csv"), "--kind", "j48",
                    "--split", "kfold", "--k", "3"]) == 0
        captured = capsys.readouterr()
        assert captured.err.count(": accuracy=") == 3
        assert len(captured.out.strip().split("\n")) == 2

    def test_json_format(self, workspace, capsys):
        assert run(["eval", str(workspace / "data.csv"), "--kind", "bayes",
                    "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 1
        assert rows[0]["classifier"] == "BayesNetwork"

    def test_seed_override_echoed(self, workspace, capsys):
        assert run(["eval", str(workspace / "data.csv"), "--kind", "knn",
                    "--seed", "7"]) == 0
        assert "seed=7" in capsys.readouterr().err

    def test_malformed_dataset_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "data.csv"
        bad.write_text("these,are,not\nthe,right,columns\n")
        assert run(["eval", str(bad), "--kind", "knn"]) == 1
        assert "error:" in capsys.readouterr().err


class TestBench:
    def test_all_kinds_table(self, workspace, capsys):
        assert run(["bench", str(workspace / "data.csv"),
                    "--kinds", "all"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == ",".join(REPORT_CSV_HEADER)
        assert [l.split(",")[0] for l in lines[1:]] == [
            "KNearestNeighbor", "MultilayerPerceptron", "DecisionTreeJ48",
            "RandomForest", "SupportVectorMachine", "BayesNetwork",
        ]

    def test_kind_subset_keeps_user_order(self, workspace, capsys):
        assert run(["bench", str(workspace / "data.csv"),
                    "--kinds", "bayes,knn"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert [l.split(",")[0] for l in lines[1:]] == [
            "BayesNetwork", "KNearestNeighbor"]


class TestDetect:
    def capture_csv(self, tmp_path) -> str:
        packets = (
            flow_packets(1.0, "10.0.0.7", 1111, "10.0.0.8", 80, n=2,
                         size=100)
            + flow_packets(2.0, "192.168.1.4", 2222, "192.168.1.5", 443,
                           n=6, size=900)
        )
        path = tmp_path / "live.csv"
        path.write_text(write_packet_csv(packets))
        return str(path)

    def test_jsonl_alerts(self, workspace, capsys):
        model = trained_model_path(workspace)
        assert run(["detect", self.capture_csv(workspace),
                    "--model", model, "--interval", "30"]) == 0
        captured = capsys.readouterr()
        lines = captured.out.strip().split("\n")
        assert len(lines) == 1
        alert = json.loads(lines[0])
        assert alert["address_a"] == "192.168.1.4"
        assert alert["label"] == "ransomware"
        assert "detect: 8 packets in 1 windows" in captured.err
        assert "1 alerts" in captured.err

    def test_text_alerts(self, workspace, capsys):
        model = trained_model_path(workspace)
        assert run(["detect", self.capture_csv(workspace),
                    "--model", model, "--text"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("ALERT window=0 tcp 192.168.1.4:2222")

    def test_rerun_writes_identical_files(self, workspace):
        model = trained_model_path(workspace)
        capture = self.capture_csv(workspace)
        a, b = workspace / "a.jsonl", workspace / "b.jsonl"
        assert run(["detect", capture, "--model", model, "-o", str(a)]) == 0
        assert run(["detect", capture, "--model", model, "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_model_exit_1(self, workspace):
        assert run(["detect", self.capture_csv(workspace),
                    "--model", str(workspace / "nope.bin")]) == 1

    def test_resealed_bad_tree_exit_1(self, workspace):
        blob = Path(trained_model_path(workspace)).read_bytes()
        head = len(MODEL_MAGIC) + 6
        payload = json.loads(blob[head:-32])
        root = payload["params"]["nodes"][0]
        assert root[0] >= 0                     # the root splits
        root[0] = 40                            # no such feature
        body = json.dumps(payload).encode()
        resealed = blob[:head - 4] + struct.pack(">I", len(body)) + body
        path = workspace / "resealed.bin"
        path.write_bytes(resealed + hashlib.sha256(resealed).digest())
        assert run(["detect", self.capture_csv(workspace),
                    "--model", str(path)]) == 1

    def test_resealed_narrow_svm_exit_1(self, workspace, capsys):
        model = workspace / "svm.bin"
        assert run(["train", str(workspace / "data.csv"), "--kind", "svm",
                    "--param", "iterations=200", "-o", str(model)]) == 0
        blob = model.read_bytes()
        head = len(MODEL_MAGIC) + 6
        payload = json.loads(blob[head:-32])
        payload["params"]["weights"] = [1.0, 2.0]     # 2 features, not 13
        body = json.dumps(payload).encode()
        resealed = blob[:head - 4] + struct.pack(">I", len(body)) + body
        model.write_bytes(resealed + hashlib.sha256(resealed).digest())
        assert run(["detect", self.capture_csv(workspace),
                    "--model", str(model)]) == 1
        assert "model payload structure invalid" in capsys.readouterr().err


class TestConfigFile:
    def test_config_supplies_flags(self, workspace, capsys):
        cfg = workspace / "run.cfg"
        cfg.write_text("# defaults\nseed = 7\nkind = knn\n")
        assert run(["eval", str(workspace / "data.csv"),
                    "--config", str(cfg)]) == 0
        captured = capsys.readouterr()
        assert "seed=7" in captured.err
        assert captured.out.strip().split("\n")[1].startswith(
            "KNearestNeighbor,")

    def test_explicit_flags_beat_config(self, workspace, capsys):
        cfg = workspace / "run.cfg"
        cfg.write_text("seed=7\nkind=knn\n")
        assert run(["eval", str(workspace / "data.csv"),
                    "--config", str(cfg), "--seed", "9"]) == 0
        assert "seed=9" in capsys.readouterr().err

    def test_config_bool_flag(self, workspace, capsys):
        source = workspace / "mixed.csv"
        source.write_text(
            write_packet_csv([make_packet(1.0)]) + "garbage\n")
        cfg = workspace / "run.cfg"
        cfg.write_text("lenient=true\n")
        assert run(["extract", str(source), "--config", str(cfg)]) == 0
        assert "skipped 1 malformed" in capsys.readouterr().err

    def test_config_cannot_nest(self, workspace):
        cfg = workspace / "run.cfg"
        cfg.write_text(f"config={cfg}\n")
        assert run(["eval", str(workspace / "data.csv"), "--kind", "knn",
                    "--config", str(cfg)]) == 1

    def test_unknown_config_key_is_usage_error(self, workspace):
        cfg = workspace / "run.cfg"
        cfg.write_text("verbosity=high\n")
        assert run(["eval", str(workspace / "data.csv"), "--kind", "knn",
                    "--config", str(cfg)]) == 1


class TestExitCodes:
    def test_no_arguments_is_usage_error(self, capsys):
        assert run([]) == 1
        assert "usage:" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert run(["extract", "x.csv", "--loud"]) == 1

    def test_missing_input_file(self, tmp_path, capsys):
        assert run(["extract", str(tmp_path / "absent.csv")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_version_exit_0(self, capsys):
        assert run(["--version"]) == 0
        out = capsys.readouterr().out
        assert "rwdetect 0.1.0" in out
        assert "model format v1" in out

    def test_help_exit_0(self, capsys):
        assert run(["--help"]) == 0
        assert "extract" in capsys.readouterr().out

    def test_internal_error_exit_2(self, tmp_path, capsys, monkeypatch):
        source = tmp_path / "packets.csv"
        source.write_text(write_packet_csv([make_packet(1.0)]))

        def boom(*args, **kwargs):
            raise RuntimeError("synthetic fault")

        monkeypatch.setattr("rwdetect.cli.aggregate", boom)
        assert run(["extract", str(source)]) == 2
        assert "unexpected error" in capsys.readouterr().err
