"""Command-line interface: exit codes, output shapes, config handling."""

from __future__ import annotations

import hashlib
import json
import re
import struct
import subprocess
import sys
import types
from pathlib import Path

import pytest

import rwdetect.classifiers.base
import rwdetect.cli
from rwdetect.capture import parse_packet_csv
from rwdetect.cli import run
from rwdetect.classifiers import MODEL_MAGIC, load_model, predict_many, read_model
from rwdetect.classifiers import mlp, model_io
from rwdetect.classifiers.base import MAX_COUNT
from rwdetect.conversation import aggregate, conversations_to_csv
from rwdetect.eval import REPORT_CSV_HEADER
from rwdetect.features import DATASET_CSV_HEADER, Label, read_dataset_csv, write_dataset_csv

from conftest import (
    CLOSE_VALUES,
    INTEGER_HYPERPARAMS,
    SCORING_HAZARDS,
    build_pcap,
    deadline,
    ether_frame,
    make_conversation,
    make_packet,
    model_trees,
    packet_csv,
    subprocess_env,
    tcp_udp_frame,
)


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
    (tmp_path / "packets.csv").write_text(packet_csv(packets))

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


#: ``rwdetect train`` flags that keep the slow families' training short.
QUICK_TRAIN = {"svm": ["--param", "iterations=200"], "mlp": ["--param", "epochs=25"],
               "forest": ["--param", "trees=4"]}


def reseal(source, edit, target=None) -> str:
    """Write the model file ``source`` again, sealed, with ``edit`` applied
    to its parsed payload and the JSON re-spaced; returns the new path."""
    blob = Path(source).read_bytes()
    head = len(MODEL_MAGIC) + 6
    payload = json.loads(blob[head:-32])
    edit(payload)
    body = json.dumps(payload).encode()
    resealed = blob[:head - 4] + struct.pack(">I", len(body)) + body
    target = Path(target or source)
    target.write_bytes(resealed + hashlib.sha256(resealed).digest())
    return str(target)


class TestExtract:
    def test_matches_library_output(self, tmp_path, capsys):
        packets = flow_packets(0.0, "10.0.0.1", 5, "10.0.0.2", 6, n=3,
                               size=64)
        source = tmp_path / "packets.csv"
        source.write_text(packet_csv(packets))
        out = tmp_path / "conv.csv"

        assert run(["extract", str(source), "-o", str(out)]) == 0
        expected = conversations_to_csv(
            aggregate(parse_packet_csv(source.read_text())[0]))
        assert out.read_text() == expected
        err = capsys.readouterr().err
        assert "config: command=extract" in err
        assert "extract: 3 packets -> 1 conversations" in err

    def test_byte_order_mark(self, tmp_path):
        text = packet_csv(flow_packets(0.0, "10.0.0.1", 5, "10.0.0.2", 6,
                                             n=3, size=64))
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text)
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["extract", str(plain), "-o", str(a)]) == 0
        assert run(["extract", str(marked), "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_by_default(self, tmp_path, capsys):
        source = tmp_path / "packets.csv"
        source.write_text(packet_csv([make_packet(1.0)]))
        assert run(["extract", str(source)]) == 0
        stdout = capsys.readouterr().out
        assert stdout.startswith("protocol,address_a,")

    def test_strict_rejects_bad_rows(self, tmp_path, capsys):
        source = tmp_path / "packets.csv"
        source.write_text(
            packet_csv([make_packet(1.0)]) + "bad,row\n")
        assert run(["extract", str(source)]) == 1
        assert run(["extract", str(source), "--lenient"]) == 0
        err = capsys.readouterr().err
        assert "skipped 1 malformed" in err

    def test_oversized_field_is_a_row_error(self, tmp_path, capsys):
        """A field past the csv module's 131,072-character limit."""
        source = tmp_path / "big.csv"
        source.write_text(packet_csv([make_packet(1.0)])
                          + "2.0," + "1" * 131_073 + "\n"
                          + packet_csv([make_packet(3.0)]).split("\n", 1)[1])
        assert run(["extract", str(source)]) == 1
        assert "line 3: unreadable CSV row: field larger than field limit" in \
            capsys.readouterr().err
        assert run(["extract", str(source), "--lenient"]) == 0
        err = capsys.readouterr().err
        assert "extract: 2 packets -> 1 conversations (skipped 1 malformed" in err


class TestLabel:
    def test_dataset_has_both_labels(self, workspace):
        text = (workspace / "data.csv").read_text()
        lines = text.strip().split("\n")
        assert len(lines) == 25     # header + 12 + 12
        assert lines[0].endswith(",label")
        assert sum(1 for l in lines if l.endswith(",ransomware")) == 12
        assert sum(1 for l in lines if l.endswith(",benign")) == 12

    def test_byte_order_mark(self, workspace):
        marked = workspace / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + (workspace / "ransom.csv").read_bytes())
        assert run(["label", "--ransomware", str(marked),
                    "--benign", str(workspace / "benign.csv"),
                    "-o", str(workspace / "marked-data.csv")]) == 0
        assert ((workspace / "marked-data.csv").read_bytes()
                == (workspace / "data.csv").read_bytes())

    def test_no_inputs_is_usage_error(self, capsys):
        assert run(["label", "-o", "-"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_lenient_totals_past_the_count_range(self, tmp_path, capsys):
        # Recomputed from the directional fields, packets would be 2**63.
        path = tmp_path / "huge.csv"
        path.write_text(conversations_to_csv([]) + "6,1.1.1.1,1,2.2.2.2,2,5,10,"
                        "9223372036854775807,10,1,0,0.0,0.0\n")
        with pytest.warns(UserWarning, match="recomputed"):
            code = run(["label", "--lenient", "--ransomware", str(path), "-o", "-"])
        assert code == 1
        assert "line 2: recomputed totals outside" in capsys.readouterr().err

    def test_lenient_warnings_name_their_file(self, tmp_path):
        # Python shows a warning text from one code location once, so the
        # same line recomputed in two files once printed a single warning.
        row = "6,1.1.1.1,1,2.2.2.2,2,5,10,3,10,1,0,0.0,0.0\n"
        for name in ("a.csv", "b.csv"):
            (tmp_path / name).write_text(conversations_to_csv([]) + row)
        done = subprocess.run(
            [sys.executable, "-m", "rwdetect.cli", "label", "--lenient",
             "--ransomware", "a.csv", "--benign", "b.csv", "-o", "data.csv"],
            cwd=tmp_path, env=subprocess_env(), capture_output=True, text=True, timeout=60)
        assert done.returncode == 0
        warned = [line.split("ConversationCsvWarning: ", 1)[1]
                  for line in done.stderr.splitlines() if "ConversationCsvWarning: " in line]
        assert warned == [f"{name}: line 2: totals recomputed from directional fields"
                          for name in ("a.csv", "b.csv")]


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

    def test_bool_param_override(self, workspace):
        out = workspace / "forest.bin"
        assert run(["train", str(workspace / "data.csv"), "--kind", "forest",
                    "--param", "trees=3", "--param", "bootstrap=false",
                    "-o", str(out)]) == 0
        hp = read_model(out).hyperparams
        assert hp.bootstrap is False and hp.trees == 3

    @pytest.mark.parametrize("pair,message", [
        ("bootstrap=maybe", "bootstrap takes true or false"),
        ("trees", "--param expects key=value, got 'trees'"),
    ])
    def test_malformed_param_exit_1(self, workspace, capsys, pair, message):
        assert run(["train", str(workspace / "data.csv"), "--kind", "forest",
                    "--param", pair, "-o", str(workspace / "junk.bin")]) == 1
        assert message in capsys.readouterr().err
        assert not (workspace / "junk.bin").exists()

    def test_bad_param_value_exit_1_before_reading(self, tmp_path, capsys):
        # The dataset was once read first, so a missing file hid the option's error.
        assert run(["train", str(tmp_path / "absent.csv"), "--kind", "forest",
                    "--param", "trees=0"]) == 1
        assert capsys.readouterr().err.splitlines()[-1] == "error: trees must be at least 1"

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

    def test_float_param_override(self, workspace, capsys):
        data = str(workspace / "data.csv")
        out = workspace / "mlp.bin"
        assert run(["train", data, "--kind", "mlp", "--param", "learning_rate=0.05",
                    "--param", "epochs=25", "-o", str(out)]) == 0
        assert read_model(out).hyperparams.learning_rate == 0.05
        assert run(["train", data, "--kind", "mlp", "--param", "learning_rate=fast",
                    "-o", str(workspace / "junk.bin")]) == 1
        assert "learning_rate takes a number, got 'fast'" in capsys.readouterr().err
        assert not (workspace / "junk.bin").exists()

    @pytest.mark.parametrize("kind, pair", [
        ("knn", "k=\u0663"), ("knn", "k= 3 "), ("knn", "k=1_0"), ("knn", "k=3\n"),
        ("mlp", "learning_rate=0.0_5"), ("mlp", "learning_rate=\u0660.5"),
    ], ids=["arabic-indic-digit", "spaces", "underscore", "newline", "float-underscore",
            "float-arabic-indic-digit"])
    def test_param_number_not_written_as_in_a_csv_exit_1(self, workspace, capsys, kind, pair):
        # int and float alone also read these: k=3, k=10, learning_rate=0.05.
        out = workspace / "junk.bin"
        assert run(["train", str(workspace / "data.csv"), "--kind", kind,
                    "--param", pair, "-o", str(out)]) == 1
        key, value = pair.split("=", 1)
        assert capsys.readouterr().err.splitlines()[-1] == \
            f"error: {key} takes a number, got {value!r}"
        assert not out.exists()

    def test_param_numbers_in_ascii_forms(self, workspace):
        out = workspace / "mlp.bin"
        assert run(["train", str(workspace / "data.csv"), "--kind", "mlp",
                    "--param", "learning_rate=5e-2", "--param", "epochs=+25",
                    "-o", str(out)]) == 0
        hp = read_model(out).hyperparams
        assert (hp.learning_rate, hp.epochs) == (0.05, 25)

    def test_unknown_kind_exit_1(self, workspace):
        assert run(["train", str(workspace / "data.csv"),
                    "--kind", "boosting", "-o", "-"]) == 1

    def test_seed_flows_into_hyperparams(self, workspace):
        data = str(workspace / "data.csv")
        out = workspace / "seeded.bin"
        assert run(["train", data, "--kind", "forest", "--seed", "7",
                    "-o", str(out)]) == 0
        assert read_model(out).hyperparams.seed == 7

    @pytest.mark.parametrize("form", ["command-line", "config"])
    def test_param_seed_exit_1(self, workspace, capsys, form):
        # --seed is the only seed: --param seed=7 once won over --seed 3.
        config = workspace / "run.cfg"
        config.write_text("param=seed=7\n")
        flags = (["--param", "seed=7"] if form == "command-line"
                 else ["--config", str(config)])
        out = workspace / "junk.bin"
        assert run(["train", str(workspace / "data.csv"), "--kind", "knn", "--seed", "3",
                    *flags, "-o", str(out)]) == 1
        assert "error: the seed is set by --seed, not --param" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("params, message", [
        (["--kind", "svm", "--param", "c=1e308", "--param", "iterations=50"],
         "c=1e+308 gives the SVM no finite positive lambda on 24 rows"),
        (["--kind", "svm", "--param", "c=1e-320", "--param", "iterations=50"],
         "c=1e-320 gives the SVM no finite positive lambda on 24 rows"),
        (["--kind", "mlp", "--param", "learning_rate=1e308", "--param", "epochs=25"],
         "MultilayerPerceptron fitted no loadable model: non-finite number"),
        (["--kind", "bayes", "--param", "var_smoothing=1e308"],
         "BayesNetwork fitted no loadable model: non-finite number"),
    ], ids=["svm-huge-c", "svm-tiny-c", "mlp-huge-rate", "bayes-huge-smoothing"])
    def test_fit_the_model_file_cannot_hold_exit_1(self, workspace, capsys, params,
                                                   message):
        out = workspace / "junk.bin"
        assert run(["train", str(workspace / "data.csv"), *params, "-o", str(out)]) == 1
        assert capsys.readouterr().err.splitlines()[-1] == f"error: {message}"
        assert not out.exists()

    @pytest.mark.parametrize("kind,key", INTEGER_HYPERPARAMS,
                             ids=lambda v: getattr(v, "value", v))
    def test_integer_above_the_bound_exit_1(self, workspace, capsys, kind, key):
        out = workspace / "junk.bin"
        assert run(["train", str(workspace / "data.csv"), "--kind", kind.value,
                    "--param", f"{key}={MAX_COUNT + 1}", "-o", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == f"error: {key} must be at most {MAX_COUNT}"
        assert not out.exists()

    def test_fit_out_of_memory_exit_1(self, workspace, capsys, monkeypatch):
        # Raised by a stub: a real allocation this large would strain the host.
        def fit(x, y, hp):
            raise MemoryError("Unable to allocate 104. TiB for an array")

        monkeypatch.setattr(mlp, "fit", fit)
        out = workspace / "junk.bin"
        assert run(["train", str(workspace / "data.csv"), "--kind", "mlp",
                    "-o", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == \
            "error: Unable to allocate 104. TiB for an array"
        assert not out.exists()

    def test_serializes_the_model_once(self, workspace, capsys, monkeypatch):
        seals = []
        seal = model_io.seal
        monkeypatch.setattr(model_io, "seal", lambda *args: seals.append(args) or seal(*args))
        out = workspace / "forest.bin"
        assert run(["train", str(workspace / "data.csv"), "--kind", "forest",
                    "--param", "trees=3", "-o", str(out)]) == 0
        assert len(seals) == 1
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert f"model {digest[:12]} -> {out}" in capsys.readouterr().err

    @pytest.mark.parametrize("a, b", CLOSE_VALUES, ids=["adjacent", "overflow"])
    @pytest.mark.parametrize("kind", ["j48", "forest"])
    def test_cut_between_close_values_separates(self, tmp_path, kind, a, b):
        # Durations a < b whose midpoint is not below b: the threshold is a.
        data = tmp_path / "data.csv"
        data.write_text("\n".join([",".join(DATASET_CSV_HEADER)] + [
            f"6,10.0.0.1,1000,10.0.0.2,80,3,280,2,200,1,80,0.0,{duration!r},{label}"
            for duration, label in [(a, "benign"), (a, "benign"),
                                    (b, "ransomware"), (b, "ransomware")]]) + "\n")
        out = tmp_path / "model.bin"
        with deadline(30):
            assert run(["train", str(data), "--kind", kind, "-o", str(out)]) == 0
        model = read_model(out)
        dataset = read_dataset_csv(data.read_text())
        assert predict_many(model, dataset.x)[0].tolist() == [0, 0, 1, 1]
        splits = [row for rows in model_trees(model) for row in rows if row[0] >= 0]
        assert splits and all(row[:2] == [12, a] for row in splits)


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

    @pytest.mark.parametrize("command", [["eval", "--kind", "j48"],
                                         ["bench", "--kinds", "j48"]])
    @pytest.mark.parametrize("split, unread", [
        (["--split", "kfold", "--k", "3", "--train-ratio", "0.5"], "--train-ratio"),
        (["--split", "kfold", "--train-ratio", "0.8"], "--train-ratio"),
        (["--k", "3"], "--k"),
        (["--split", "holdout", "--train-ratio", "0.5", "--k", "10"], "--k"),
    ], ids=["kfold-train-ratio", "kfold-default-train-ratio", "holdout-k",
            "holdout-default-k"])
    def test_option_the_split_does_not_read_exit_1(self, workspace, capsys, command, split,
                                                    unread):
        assert run([command[0], str(workspace / "data.csv"), *command[1:], *split]) == 1
        err = capsys.readouterr().err
        assert f"rwdetect {command[0]}: error: {unread} does not apply to --split" in err
        assert "config:" not in err

    def test_option_the_split_does_not_read_from_config_exit_1(self, workspace, tmp_path,
                                                                capsys):
        config = tmp_path / "run.cfg"
        config.write_text("k=3\n")
        assert run(["eval", str(workspace / "data.csv"), "--kind", "j48",
                    "--config", str(config)]) == 1
        assert "error: --k does not apply to --split holdout" in capsys.readouterr().err

    @pytest.mark.parametrize("split, echoed, not_echoed", [
        ([], "train_ratio=0.8 seed=42", " k="),
        (["--train-ratio", "0.5"], "train_ratio=0.5 seed=42", " k="),
        (["--split", "kfold"], "split=kfold k=10 seed=42", "train_ratio"),
        (["--split", "kfold", "--k", "3"], "split=kfold k=3 seed=42", "train_ratio"),
    ], ids=["holdout", "holdout-given", "kfold", "kfold-given"])
    def test_echo_lists_the_option_the_split_reads(self, workspace, capsys, split, echoed,
                                                   not_echoed):
        assert run(["eval", str(workspace / "data.csv"), "--kind", "j48", *split]) == 0
        echo = next(line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("config:"))
        assert echoed in echo and not_echoed not in echo

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

    def test_seed_reaches_the_models(self, workspace, trained_models):
        assert run(["eval", str(workspace / "data.csv"), "--kind", "forest",
                    "--seed", "7"]) == 0
        assert [model.hyperparams.seed for model in trained_models] == [7]

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    @pytest.mark.parametrize("command", [["eval", "--kind", "knn"],
                                         ["bench", "--kinds", "knn"]])
    def test_seed_outside_u64_exit_1(self, workspace, capsys, command, seed):
        assert run([command[0], str(workspace / "data.csv"), *command[1:],
                    "--seed", seed]) == 1
        assert "error: seed must fit an unsigned 64-bit int" in capsys.readouterr().err

    def test_zero_address_features(self, tmp_path, capsys):
        # The classes differ in their addresses alone.
        ransom = [make_conversation(address_a=f"203.0.113.{i}", address_b="203.0.113.200",
                                    port_a=1000 + i, rel_start=float(i)) for i in range(20)]
        benign = [make_conversation(address_a=f"10.0.0.{i}", address_b="10.0.0.200",
                                    port_a=1000 + i, rel_start=float(i)) for i in range(20)]
        data = tmp_path / "data.csv"
        data.write_text(write_dataset_csv([(ransom, Label.RANSOMWARE),
                                           (benign, Label.BENIGN)]))
        accuracy = {}
        for flags in ([], ["--zero-address-features"]):
            assert run(["eval", str(data), "--kind", "knn", "--format", "json", *flags]) == 0
            [row] = json.loads(capsys.readouterr().out)
            accuracy[bool(flags)] = row["accuracy"]
        assert accuracy[False] == 1.0
        assert accuracy[True] <= 0.5

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

    def test_seed_reaches_every_model(self, workspace, trained_models):
        assert run(["bench", str(workspace / "data.csv"), "--kinds", "forest,mlp",
                    "--seed", "7"]) == 0
        seeds = [(model.kind.value, model.hyperparams.seed) for model in trained_models]
        assert seeds == [("RandomForest", 7), ("MultilayerPerceptron", 7)]

    @pytest.mark.parametrize("kinds, named", [("knn,knn", "KNearestNeighbor"),
                                              ("bayes,forest,RandomForest", "RandomForest")],
                             ids=["alias-twice", "alias-and-name"])
    def test_repeated_kind_exit_1_before_reading(self, tmp_path, capsys, kinds, named):
        # A repeated kind was once fitted twice and reported in two rows.
        assert run(["bench", str(tmp_path / "absent.csv"), "--kinds", kinds]) == 1
        err = capsys.readouterr().err
        assert f"error: --kinds lists {named} more than once" in err
        assert "config:" not in err


class TestDetect:
    def capture_csv(self, tmp_path) -> str:
        packets = (
            flow_packets(1.0, "10.0.0.7", 1111, "10.0.0.8", 80, n=2,
                         size=100)
            + flow_packets(2.0, "192.168.1.4", 2222, "192.168.1.5", 443,
                           n=6, size=900)
        )
        path = tmp_path / "live.csv"
        path.write_text(packet_csv(packets))
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

    @pytest.mark.parametrize("interval", ["0", "-5", "nan", "inf", "1e-320"])
    def test_bad_interval_exit_1(self, workspace, capsys, interval):
        model = trained_model_path(workspace)
        assert run(["detect", self.capture_csv(workspace), "--model", model,
                    "--interval", interval]) == 1
        assert capsys.readouterr().err.splitlines()[-1].startswith("error: ")

    def test_last_window_closing_past_the_largest_float_exit_1(self, workspace, capsys):
        # Both flows alert; the second window's close time, 2e308 s, once
        # rendered as ``"emitted_at": inf`` with exit 0.
        packets = (flow_packets(0.0, "192.168.1.4", 2222, "192.168.1.5", 443, n=6, size=900)
                   + flow_packets(1.79e308, "192.168.1.6", 2222, "192.168.1.7", 443,
                                  n=6, size=900))
        path = workspace / "far.csv"
        path.write_text(packet_csv(packets))
        model = trained_model_path(workspace)
        assert run(["detect", str(path), "--model", model, "--interval", "1e308"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1].startswith("error: ")
        assert "past the largest float" in captured.err
        # The largest float puts both flows in window 0, which closes at it.
        assert run(["detect", str(path), "--model", model,
                    "--interval", repr(sys.float_info.max)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [json.loads(line)["emitted_at"] for line in lines] == [sys.float_info.max] * 2

    def test_bad_interval_exit_1_before_reading(self, tmp_path, capsys):
        # The model and capture were once read first, so a missing file hid
        # the option's error.
        assert run(["detect", str(tmp_path / "absent.pcap"), "--model",
                    str(tmp_path / "absent.model"), "--interval", "0"]) == 1
        assert (capsys.readouterr().err.splitlines()[-1]
                == "error: window interval must be a positive finite number")

    def test_missing_model_exit_1(self, workspace):
        assert run(["detect", self.capture_csv(workspace),
                    "--model", str(workspace / "nope.bin")]) == 1

    @pytest.mark.parametrize("payload", [b"[" * 100_000, b"9" * 5_000],
                             ids=["too-deep", "huge-integer"])
    def test_resealed_unparseable_json_exit_1(self, workspace, capsys, payload):
        head = MODEL_MAGIC + struct.pack(">HI", 1, len(payload)) + payload
        path = workspace / "resealed.bin"
        path.write_bytes(head + hashlib.sha256(head).digest())
        assert run(["detect", self.capture_csv(workspace), "--model", str(path)]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_resealed_bad_tree_exit_1(self, workspace):
        def edit(payload):
            root = payload["params"]["nodes"][0]
            assert root[0] >= 0                 # the root splits
            root[0] = 40                        # no such feature

        path = reseal(trained_model_path(workspace), edit, workspace / "resealed.bin")
        assert run(["detect", self.capture_csv(workspace), "--model", path]) == 1

    def test_resealed_boolean_threshold_exit_1(self, workspace, capsys):
        def edit(payload):
            root = payload["params"]["nodes"][0]
            assert root[0] >= 0                 # the root splits
            root[1] = True                      # a threshold must be a float

        path = reseal(trained_model_path(workspace), edit, workspace / "resealed.bin")
        assert run(["detect", self.capture_csv(workspace), "--model", path]) == 1
        assert "expected a float, got True" in capsys.readouterr().err

    def test_resealed_narrow_svm_exit_1(self, workspace, capsys):
        model = workspace / "svm.bin"
        assert run(["train", str(workspace / "data.csv"), "--kind", "svm",
                    "--param", "iterations=200", "-o", str(model)]) == 0
        reseal(model, lambda payload: payload["params"].update(
            weights=[1.0, 2.0]))                # 2 features, not 13
        assert run(["detect", self.capture_csv(workspace),
                    "--model", str(model)]) == 1
        assert "model payload structure invalid" in capsys.readouterr().err

    def test_resealed_forest_features_used_exit_1(self, workspace, capsys):
        model = workspace / "forest.bin"
        assert run(["train", str(workspace / "data.csv"), "--kind", "forest",
                    "--param", "trees=3", "-o", str(model)]) == 0
        def edit(payload):
            used = payload["params"]["features_used"]
            used[0] = sorted(set(range(13)) - set(used[0]))  # not what tree 0 splits on

        reseal(model, edit)
        assert run(["detect", self.capture_csv(workspace),
                    "--model", str(model)]) == 1
        assert "features_used disagrees with the trees" in capsys.readouterr().err

    @pytest.mark.parametrize("kind,key,value,message", [
        ("mlp", "hidden_units", 3, "w1 has 16 hidden units, hyperparameters say 3"),
        ("forest", "trees", 7, "3 trees, hyperparameters say 7"),
    ], ids=["mlp-hidden-units", "forest-trees"])
    def test_resealed_hyperparams_disagreeing_with_the_state_exit_1(
            self, workspace, capsys, kind, key, value, message):
        model = workspace / "model.bin"
        assert run(["train", str(workspace / "data.csv"), "--kind", kind, "--param",
                    {"mlp": "epochs=10", "forest": "trees=3"}[kind], "-o", str(model)]) == 0
        reseal(model, lambda payload: payload["hyperparams"].update({key: value}))
        assert run(["detect", self.capture_csv(workspace),
                    "--model", str(model)]) == 1
        assert message in capsys.readouterr().err

    def test_resealed_fractional_k_exit_1(self, workspace, capsys):
        model = workspace / "knn.bin"
        assert run(["train", str(workspace / "data.csv"), "--kind", "knn",
                    "-o", str(model)]) == 0
        reseal(model, lambda payload: payload["hyperparams"].update(k=2.5))
        assert run(["detect", self.capture_csv(workspace),
                    "--model", str(model)]) == 1
        assert "k must be int" in capsys.readouterr().err

    def test_resealed_string_zero_addresses_exit_1(self, workspace, capsys):
        path = reseal(trained_model_path(workspace),
                      lambda payload: payload.update(zero_addresses="no"),  # bool("no") is True
                      workspace / "resealed.bin")
        assert run(["detect", self.capture_csv(workspace), "--model", path]) == 1
        assert "zero_addresses must be bool, got 'no'" in capsys.readouterr().err

    @pytest.mark.parametrize("level", ["top", "params", "scaler"])
    def test_resealed_unknown_key_exit_1(self, workspace, capsys, level):
        model = workspace / "knn.bin"
        assert run(["train", str(workspace / "data.csv"), "--kind", "knn",
                    "-o", str(model)]) == 0
        reseal(model, lambda payload: (payload if level == "top" else payload[level])
               .update(extra=1.0))
        assert run(["detect", self.capture_csv(workspace), "--model", str(model)]) == 1
        assert "unknown key 'extra'" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["knn", "mlp", "j48", "forest", "svm", "bayes"])
    def test_resealed_missing_hyperparam_exit_1(self, workspace, capsys, kind):
        model = workspace / f"{kind}.bin"
        assert run(["train", str(workspace / "data.csv"), "--kind", kind,
                    *QUICK_TRAIN.get(kind, []), "-o", str(model)]) == 0
        for key in vars(read_model(model).hyperparams):
            path = reseal(model, lambda payload: payload["hyperparams"].pop(key),
                          workspace / f"{kind}-without-{key}.bin")
            assert run(["detect", self.capture_csv(workspace), "--model", path]) == 1
            assert f"missing key '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("kind,edit,message", SCORING_HAZARDS.values(),
                             ids=SCORING_HAZARDS)
    def test_resealed_scoring_hazard_exit_1(self, workspace, capsys, kind, edit, message):
        model = workspace / f"{kind}.bin"
        assert run(["train", str(workspace / "data.csv"), "--kind", kind,
                    *QUICK_TRAIN.get(kind, []), "-o", str(model)]) == 0
        reseal(model, edit)
        assert run(["detect", self.capture_csv(workspace), "--model", str(model)]) == 1
        err = capsys.readouterr().err
        assert "model payload structure invalid" in err and re.search(message, err)

    @pytest.mark.parametrize("respaced", [False, True], ids=["as-written", "respaced"])
    def test_alert_fingerprint_is_the_model_file_hash(self, workspace, respaced):
        model = trained_model_path(workspace)
        if respaced:
            model = reseal(model, lambda payload: None, workspace / "respaced.bin")
        out = workspace / "alerts.jsonl"
        assert run(["detect", self.capture_csv(workspace), "--model", model,
                    "-o", str(out)]) == 0
        digest = hashlib.sha256(Path(model).read_bytes()).hexdigest()
        alerts = [json.loads(line) for line in out.read_text().splitlines()]
        assert alerts and {a["model_fingerprint"] for a in alerts} == {digest}


def pinned_capture() -> list:
    """Twelve seconds of a small site's packets, read with ``--interval 10``.

    Window 0 holds 10.0.0.9 and 10.0.0.10, whose string order is the
    reverse of their numeric order, 10.0.0.9 on two ports, replies in
    both directions, and a conversation opened by its numerically higher
    endpoint.  The 192.168.1.x flow crosses into window 1.
    """
    def exchange(t0, a, b, n, size, protocol=6):
        return [make_packet(t0 + 0.25 * i, *(a + b if i % 3 != 1 else b + a),
                            protocol, size + i) for i in range(n)]

    server = ("10.0.0.1", 445)
    return sorted(
        exchange(0.0, ("10.0.0.10", 1000), server, 6, 900)
        + exchange(0.5, ("10.0.0.9", 1000), server, 7, 950)
        + exchange(0.5, ("10.0.0.9", 1001), server, 5, 1000)
        + exchange(1.0, ("10.0.0.9", 1002), server, 2, 60)
        + exchange(2.0, ("10.0.0.2", 53), ("10.0.0.9", 5353), 6, 700, protocol=17)
        + exchange(8.0, ("192.168.1.5", 443), ("192.168.1.4", 2222), 16, 1200),
        key=lambda p: p.timestamp)


class TestPinnedAlertStream:
    """The bytes ``rwdetect detect`` writes for a fixed capture and model."""

    @pytest.mark.parametrize("text,sha256", [
        (False, "e9101093283d7d6357e93c62aee9092a167b6e01f8ea1f0e03ea7f72f47b8c81"),
        (True, "4604f1959956c2f2042dc04797e6d9855ee4a4658583ed7980ae1bdec2c2d86f"),
    ], ids=["json", "text"])
    def test_alert_bytes(self, workspace, text, sha256):
        capture = workspace / "pinned.csv"
        capture.write_text(packet_csv(pinned_capture()))
        out = workspace / "alerts.out"
        assert run(["detect", str(capture), "--model", trained_model_path(workspace),
                    "--interval", "10", "-o", str(out)] + ["--text"] * text) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 6
        endpoints = ([line.split()[3] for line in lines] if text else
                     ["{address_a}:{port_a}".format(**json.loads(line)) for line in lines])
        # 10.0.0.9 comes before 10.0.0.10: keys compare addresses by value
        assert endpoints[:3] == ["10.0.0.9:1000", "10.0.0.9:1001", "10.0.0.10:1000"]
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256

    def test_pcap_alert_bytes(self, workspace, capsys):
        """``pinned_capture`` as a pcap, with an ARP frame, a VLAN-tagged
        copy of one packet and a non-first fragment mixed in."""
        packets = pinned_capture()
        frames = [(p.timestamp, tcp_udp_frame(p.src_addr, p.dst_addr, p.protocol,
                                              p.src_port, p.dst_port), p.wire_bytes)
                  for p in packets]
        tagged = packets[3]
        frames += [
            (0.1, ether_frame(bytes(28), ethertype=0x0806)),
            (tagged.timestamp + 0.125, tcp_udp_frame(
                tagged.src_addr, tagged.dst_addr, tagged.protocol,
                tagged.src_port, tagged.dst_port, vlan_tags=1), 1400),
            (3.0, tcp_udp_frame("10.0.0.9", "10.0.0.1", 6, 1000, 445, flags_frag=185)),
        ]
        capture = workspace / "pinned.pcap"
        capture.write_bytes(build_pcap(sorted(frames, key=lambda f: f[0])))
        out = workspace / "alerts.jsonl"
        assert run(["detect", str(capture), "--model", trained_model_path(workspace),
                    "--interval", "10", "-o", str(out)]) == 0
        err = capsys.readouterr().err
        assert f"detect: {len(packets) + 1} packets in 2 windows" in err
        assert "(skipped 0 malformed, 1 non-IP, 1 unsupported)" in err
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "3e47036ca2d56e8746dd24e70dc8120b4c0bd8953469d4ae4f7b4fd6f4cf2c57")


class TestSkipReport:
    """extract and detect name each skip reason of the capture they load."""

    @pytest.fixture
    def mixed_pcap(self, tmp_path):
        tcp = tcp_udp_frame("10.0.0.7", "10.0.0.8", 6, 1111, 80)
        frames = [
            (1.0, ether_frame(bytes(28), ethertype=0x0806)),     # ARP
            (1.5, tcp_udp_frame("10.0.0.7", "10.0.0.8", 1, 0, 0)),   # ICMP
            (2.0, tcp), (2.5, tcp), (3.0, tcp),
        ]
        path = tmp_path / "mixed.pcap"
        path.write_bytes(build_pcap(frames)[:-10])    # the last record is cut
        return str(path)

    @staticmethod
    def assert_skips(err):
        assert "(skipped 0 malformed, 1 non-IP, 1 unsupported; truncated_record)" in err

    def test_extract(self, mixed_pcap, capsys):
        assert run(["extract", mixed_pcap]) == 0
        err = capsys.readouterr().err
        assert "extract: 2 packets -> 1 conversations" in err
        self.assert_skips(err)

    def test_detect(self, workspace, mixed_pcap, capsys):
        assert run(["detect", mixed_pcap, "--model",
                    trained_model_path(workspace)]) == 0
        err = capsys.readouterr().err
        assert "detect: 2 packets in 1 windows" in err
        self.assert_skips(err)

    def test_pcapng_exit_1(self, tmp_path, capsys):
        path = tmp_path / "wire.pcapng"
        path.write_bytes(struct.pack("<IIIHHqI", 0x0A0D0D0A, 28, 0x1A2B3C4D,
                                     1, 0, -1, 28))
        assert run(["extract", str(path)]) == 1
        err = capsys.readouterr().err
        assert "neither a classic pcap file nor UTF-8 packet CSV" in err


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
            packet_csv([make_packet(1.0)]) + "garbage\n")
        cfg = workspace / "run.cfg"
        cfg.write_text("lenient=true\n")
        assert run(["extract", str(source), "--config", str(cfg)]) == 0
        assert "skipped 1 malformed" in capsys.readouterr().err

    def test_config_equals_form(self, workspace, capsys):
        cfg = workspace / "run.cfg"
        cfg.write_text("seed=7\nkind=knn\n")
        assert run(["eval", str(workspace / "data.csv"), f"--config={cfg}"]) == 0
        assert "seed=7" in capsys.readouterr().err

    @pytest.mark.parametrize("line,message", [
        ("lenient", "config line is not key=value: 'lenient'"),
        ("lenient=yes", "config key 'lenient' takes true or false, got 'yes'"),
    ])
    @pytest.mark.parametrize("form", ["separate", "equals"])
    def test_malformed_config_line_exit_1(self, workspace, capsys, line, message, form):
        cfg = workspace / "run.cfg"
        cfg.write_text(line + "\n")
        flags = ["--config", str(cfg)] if form == "separate" else [f"--config={cfg}"]
        assert run(["extract", str(workspace / "packets.csv"), *flags]) == 1
        assert message in capsys.readouterr().err

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


class TestNumberFlags:
    """A number flag reads ASCII only, as a CSV number does, with no
    whitespace or ``_``: int and float alone read each value below, and
    each once ran as the number it spells."""

    #: (argv before the flag, the flag, its argparse type) of every number flag.
    FLAGS = {
        "seed": (["train", "data.csv", "--kind", "knn"], "--seed", "int"),
        "k": (["eval", "data.csv", "--kind", "knn", "--split", "kfold"], "--k", "int"),
        "train-ratio": (["eval", "data.csv", "--kind", "knn"], "--train-ratio", "float"),
        "interval": (["detect", "packets.csv", "--model", "model.bin"], "--interval", "float"),
    }
    VALUES = {"seed": ("\u0664\u0662", " 42", "4_2"), "k": ("\u0663", "3 ", "1_0"),
              "train-ratio": ("\u0660.5", "0.5\t", "0.7_5"),
              "interval": ("\u0661\u0660", " 10", "1_0")}

    def argv(self, workspace, flag: str) -> list[str]:
        """The argv before ``flag``, its files in ``workspace``."""
        trained_model_path(workspace)
        return [str(workspace / arg) if arg.endswith((".csv", ".bin")) else arg
                for arg in self.FLAGS[flag][0]]

    def refused(self, err: str, flag: str, value: str) -> bool:
        _, option, type_name = self.FLAGS[flag]
        return err.splitlines()[-1].endswith(
            f"error: argument {option}: invalid {type_name} value: {value!r}")

    @pytest.mark.parametrize("flag, value", [
        (flag, value) for flag, values in VALUES.items() for value in values])
    def test_not_written_as_in_a_csv_exit_1(self, workspace, capsys, flag, value):
        out = workspace / "out"
        assert run(self.argv(workspace, flag) + [self.FLAGS[flag][1], value,
                                                 "-o", str(out)]) == 1
        assert self.refused(capsys.readouterr().err, flag, value)
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["seed", "interval"])
    def test_config_value_not_written_as_in_a_csv_exit_1(self, workspace, capsys, flag):
        value = self.VALUES[flag][0]
        cfg = workspace / "run.cfg"
        cfg.write_text(f"{flag}={value}\n")
        assert run(self.argv(workspace, flag) + ["--config", str(cfg)]) == 1
        assert self.refused(capsys.readouterr().err, flag, value)


#: One argv per subcommand, its file arguments relative to ``workspace``.
SUBCOMMANDS = {
    "extract": ["extract", "packets.csv"],
    "label": ["label", "--ransomware", "ransom.csv", "--benign", "benign.csv"],
    "train": ["train", "data.csv", "--kind", "j48"],
    "eval": ["eval", "data.csv", "--kind", "knn"],
    "bench": ["bench", "data.csv", "--kinds", "knn,j48,bayes", "--format", "json"],
    "detect": ["detect", "packets.csv", "--model", "model.bin", "--interval", "30"],
}


class TestOutputRule:
    """``-o`` means the same for every subcommand: absent or ``-`` is stdout,
    anything else a file, with the same bytes."""

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_stdout_and_file_bytes_agree(self, workspace, capsysbinary, monkeypatch,
                                         command):
        trained_model_path(workspace)
        monkeypatch.chdir(workspace)
        # Reports carry the training time; hold it at 0.
        monkeypatch.setattr(rwdetect.classifiers.base, "time",
                            types.SimpleNamespace(perf_counter=lambda: 0.0))
        argv = SUBCOMMANDS[command]
        outputs = []
        for flags in ([], ["-o", "-"]):
            assert run(argv + flags) == 0
            outputs.append(capsysbinary.readouterr().out)
        assert run(argv + ["-o", "out.bin"]) == 0
        outputs.append((workspace / "out.bin").read_bytes())
        assert capsysbinary.readouterr().out == b""
        assert outputs[0] and outputs[0] == outputs[1] == outputs[2]
        assert not (workspace / "-").exists()
        if command == "train":
            assert load_model(outputs[0]).kind.value == "DecisionTreeJ48"
        if command == "detect":
            assert json.loads(outputs[0])["address_a"] == "192.168.1.4"


#: ``rwdetect`` under the POSIX locale with UTF-8 mode off, where the
#: locale's encoding is ASCII, and in UTF-8 mode.
LOCALES = {"posix": {"LC_ALL": "POSIX", "PYTHONUTF8": "0"},
           "utf-8": {"LC_ALL": "C.UTF-8", "PYTHONUTF8": "1"}}


def run_in_locale(locale: str, argv: list[str]) -> tuple[int, bytes, list[bytes]]:
    """Exit code, stdout bytes and ``error:`` lines of ``rwdetect`` in a
    fresh interpreter under ``LOCALES[locale]``."""
    env = {key: value for key, value in subprocess_env().items()
           if not key.startswith(("LC_", "PYTHONIOENCODING", "PYTHONUTF8"))}
    env.update(LOCALES[locale])
    done = subprocess.run([sys.executable, "-m", "rwdetect.cli", *argv], env=env,
                          capture_output=True, timeout=60)
    errors = [line for line in done.stderr.splitlines() if line.startswith(b"error:")]
    return done.returncode, done.stdout, errors


class TestLocale:
    """Text inputs decode as UTF-8 whatever the locale, after one optional BOM."""

    CASES = {
        "bom-dataset": ["train", "bom-data.csv", "--kind", "j48"],
        "bom-conversations": ["label", "--ransomware", "bom-ransom.csv"],
        "latin1-dataset": ["train", "latin1-data.csv", "--kind", "j48"],
        "bom-config": ["train", "data.csv", "--config", "run.cfg"],
    }

    @pytest.fixture
    def inputs(self, workspace):
        bom = b"\xef\xbb\xbf"
        data = (workspace / "data.csv").read_bytes()
        (workspace / "bom-data.csv").write_bytes(bom + data)
        (workspace / "bom-ransom.csv").write_bytes(bom + (workspace / "ransom.csv").read_bytes())
        lines = data.split(b"\n")
        lines[2] = lines[2].replace(b"10.0.0.1", b"10.0.0.\xe9", 1)
        (workspace / "latin1-data.csv").write_bytes(b"\n".join(lines))
        (workspace / "run.cfg").write_bytes(bom + "# réglage\nkind = j48\n".encode())
        return workspace

    @pytest.mark.parametrize("case", CASES)
    def test_same_result_in_every_locale(self, inputs, case):
        argv = [str(inputs / arg) if arg.endswith((".csv", ".cfg")) else arg
                for arg in self.CASES[case]]
        posix, utf8 = (run_in_locale(locale, argv) for locale in LOCALES)
        assert posix == utf8
        code, stdout, errors = posix
        if case == "latin1-dataset":
            assert (code, stdout) == (1, b"")
            assert errors == [f"error: line 3: {inputs / 'latin1-data.csv'}: "
                              "byte 0xe9 is not UTF-8".encode()]
            return
        assert code == 0 and stdout and not errors
        if argv[0] == "train":      # the model of the plain dataset
            assert run(["train", str(inputs / "data.csv"), "--kind", "j48",
                        "-o", str(inputs / "plain.bin")]) == 0
            assert stdout == (inputs / "plain.bin").read_bytes()


class TestExitCodes:
    def test_no_arguments_is_usage_error(self, capsys):
        assert run([]) == 1
        assert "usage:" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert run(["extract", "x.csv", "--loud"]) == 1

    def test_usage_error_message_is_argparse_own(self, workspace, capsys):
        assert run(["eval", str(workspace / "data.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: rwdetect eval ")
        assert err.splitlines()[-1] == (
            "rwdetect eval: error: the following arguments are required: --kind")

    def test_prefix_of_an_option_is_a_usage_error(self, workspace, capsys):
        # --conf once passed argparse as --config, and the file went unread.
        cfg = workspace / "run.cfg"
        cfg.write_text("seed=7\n")
        data = str(workspace / "data.csv")
        assert run(["eval", data, "--kind", "knn", "--conf", str(cfg)]) == 1
        assert run(["eval", data, "--kind", "knn", "--train", "0.7"]) == 1
        err = capsys.readouterr().err
        assert "unrecognized arguments: --conf" in err
        assert "unrecognized arguments: --train 0.7" in err

    @pytest.mark.parametrize("command", [
        ["extract", "packets.csv"], ["label", "--benign", "benign.csv"],
        ["detect", "packets.csv", "--model", "model.bin"]])
    def test_seed_only_where_something_is_drawn(self, workspace, capsys, command):
        argv = [str(workspace / arg) if arg.endswith((".csv", ".bin")) else arg
                for arg in command]
        trained_model_path(workspace)
        assert run(argv + ["-o", str(workspace / "out")]) == 0
        assert run(argv + ["--seed", "3", "-o", str(workspace / "out")]) == 1
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err

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
        source.write_text(packet_csv([make_packet(1.0)]))

        def boom(*args, **kwargs):
            raise RuntimeError("synthetic fault")

        monkeypatch.setattr("rwdetect.cli.aggregate", boom)
        assert run(["extract", str(source)]) == 2
        assert "unexpected error" in capsys.readouterr().err
