"""Every subcommand, over mutated inputs and options, exits 0 or 1, never 2.

``cli.run`` is driven end to end with valid inputs spliced at random
(pcap, packet, conversation and dataset CSV, config files, model files
with a broken seal or a resealed mutated payload) and with options drawn
around their edges: ``-o`` absent, ``-`` or a file, ``--param`` keys
with extreme finite values, ``--interval``, ``--split``, ``--k`` and
``--train-ratio``.  A model ``train`` writes must load, and each JSON
alert line ``detect`` writes must be strict JSON.  Hyperparameters
that only cost time or memory (a billion SVM iterations) are out of
scope, so the keys that scale the work draw small values.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import struct
import warnings
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwdetect.classifiers import (
    KIND_ALIASES,
    MODEL_MAGIC,
    ClassifierKind,
    ForestParams,
    MlpParams,
    SvmParams,
    default_hyperparams,
    load_model,
    save_model,
    train,
)
from rwdetect.cli import run
from rwdetect.conversation import conversations_to_csv
from rwdetect.features import Label, read_dataset_csv, write_dataset_csv

from conftest import (
    build_pcap,
    deadline,
    make_conversation,
    make_packet,
    packet_csv,
    tcp_udp_frame,
)

BOM = b"\xef\xbb\xbf"

#: Byte strings that a splice inserts: separators, a BOM, non-UTF-8 bytes.
SPLICES = st.one_of(st.binary(max_size=3), st.sampled_from(
    [b",", b"\n", b"\r", b'"', b"-", b"e", b"9" * 25, BOM, b"\xe9", b"\xff", b"\x00"]))


def spliced(data: bytes):
    """``data`` as it is (most often), behind a BOM, or with one span replaced."""
    return st.one_of(
        st.sampled_from([data, data, BOM + data]),
        st.tuples(st.integers(0, len(data)), st.integers(0, 4), SPLICES).map(
            lambda t: data[:t[0]] + t[2] + data[t[0] + t[1]:]),
    )


def sealed(body: bytes) -> bytes:
    head = MODEL_MAGIC + struct.pack(">HI", 1, len(body)) + body
    return head + hashlib.sha256(head).digest()


#: Values a resealed payload leaf is replaced with.
ODD_VALUES = [1.7e308, -1.7e308, 1e-320, 0.0, -1.0, 0.5, 2, -1, 2 ** 64, True,
              None, "x", [], {}, [1.0] * 14]


def leaves(obj, path=()):
    """Paths to every leaf of a parsed payload, lists truncated to three items."""
    items = (obj.items() if isinstance(obj, dict)
             else enumerate(obj[:3]) if isinstance(obj, list) else None)
    if not items:
        yield path
        return
    for key, value in items:
        yield from leaves(value, path + (key,))


@st.composite
def model_bytes(draw, blob: bytes) -> bytes:
    """A model file with a broken seal or a resealed, mutated payload."""
    body = blob[len(MODEL_MAGIC) + 6:-32]
    how = draw(st.sampled_from(["intact", "seal", "splice", "leaf"]))
    if how == "intact":
        return blob
    if how == "seal":
        at = draw(st.integers(0, len(blob) - 1))
        return blob[:at] + bytes([blob[at] ^ draw(st.integers(1, 255))]) + blob[at + 1:]
    if how == "splice":
        return sealed(draw(spliced(body)))
    payload = json.loads(body)
    path = draw(st.sampled_from(list(leaves(payload))))
    target = payload
    for key in path[:-1]:
        target = target[key]
    if path:
        target[path[-1]] = draw(st.sampled_from(ODD_VALUES))
    return sealed(json.dumps(payload).encode())


NUMBERS = st.one_of(
    st.sampled_from(["0", "-0.0", "-1", "1e308", "1.7976931348623157e308", "1e-320",
                     "5e-324", "1e300", "nan", "inf", "-inf", "x", ""]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)
COUNTS = st.one_of(st.sampled_from(["0", "-1", "1", str(2 ** 64), "1.5", "x"]),
                   st.integers(-3, 30).map(str))
BIG_COUNTS = st.one_of(COUNTS, st.integers(-2 ** 70, 2 ** 70).map(str))

#: ``--param`` values by key; the keys that scale the fit stay small.
PARAM_VALUES = {
    "k": BIG_COUNTS, "min_leaf": BIG_COUNTS, "features_per_split": BIG_COUNTS,
    "hidden_units": COUNTS, "epochs": COUNTS, "iterations": COUNTS, "trees": COUNTS,
    "c": NUMBERS, "learning_rate": NUMBERS, "var_smoothing": NUMBERS,
    "bootstrap": st.sampled_from(["true", "false", "maybe"]),
    "seed": COUNTS, "depth": COUNTS,
}
#: Each family's own ``--param`` keys, float-valued families first (Hypothesis
#: draws the first choices of a ``sampled_from`` the most).
FAMILY_KEYS = {alias: [f.name for f in fields(default_hyperparams(KIND_ALIASES[alias]))
                       if f.name != "seed"]
               for alias in ["svm", "mlp", "bayes", "knn", "j48", "forest"]}
#: The flag that keeps a slow family's training short, given before the drawn ones.
QUICK = {"svm": ["--param", "iterations=50"], "mlp": ["--param", "epochs=10"],
         "forest": ["--param", "trees=3"]}

#: Config lines each subcommand reads, then lines no subcommand takes.
CONFIG_LINES = {
    "train": ["kind=knn", "seed=7", "param=k=3", "zero-address-features=true"],
    "extract": ["lenient=true", "lenient=false"],
    "label": ["lenient=true"],
    "eval": ["seed=7", "format=json", "kind=bayes"],
    "bench": ["seed=7", "kinds=bayes", "format=json"],
    "detect": ["interval=5", "text=true"],
}
ODD_CONFIG_LINES = ["# réglage", "", "output=-", "param=seed=7", "lenient=maybe",
                    "garbage", "config=x"]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> dict:
    """Valid bytes of every input kind, and one sealed model per family."""
    packets = [make_packet(0.1 * i, src="10.0.0.7", sport=1111 + i % 2, dst="10.0.0.8",
                           dport=445, wire_bytes=100 + 40 * i) for i in range(8)]
    ransom = [make_conversation(port_a=1000 + i, packets_ab=3, bytes_ab=3000 + i,
                                packets_ba=2, bytes_ba=2000, rel_start=float(i))
              for i in range(8)]
    benign = [make_conversation(port_a=1000 + i, rel_start=float(i)) for i in range(8)]
    dataset = write_dataset_csv([(ransom, Label.RANSOMWARE), (benign, Label.BENIGN)])
    quick = {ClassifierKind.SVM: SvmParams(iterations=50),
             ClassifierKind.MLP: MlpParams(epochs=10),
             ClassifierKind.RANDOM_FOREST: ForestParams(trees=3)}
    return {
        "dir": tmp_path_factory.mktemp("cli-fuzz"),
        "packets": packet_csv(packets).encode(),
        "pcap": build_pcap([(p.timestamp, tcp_udp_frame(
            p.src_addr, p.dst_addr, p.protocol, p.src_port, p.dst_port), p.wire_bytes)
            for p in packets]),
        "conversations": conversations_to_csv(ransom).encode(),
        "dataset": dataset.encode(),
        "models": [save_model(train(kind, read_dataset_csv(dataset),
                                    quick.get(kind, default_hyperparams(kind))))
                   for kind in ClassifierKind],
    }


def often(value, *others):
    """``value`` in two draws of three or more, else one of ``others``."""
    return st.sampled_from([value, value, *others])


@st.composite
def invocation(draw, inputs) -> tuple[list[str], dict[str, bytes]]:
    """An argv and the files it names, relative to the working directory."""
    command = draw(st.sampled_from(list(CONFIG_LINES)))
    files: dict[str, bytes] = {}
    flag = lambda name, values: draw(st.lists(values, max_size=1).map(
        lambda got: [name, *got] if got else []))
    if command == "extract":
        files["input"] = draw(spliced(inputs[draw(st.sampled_from(["packets", "pcap"]))]))
        argv = [command, "input", *draw(st.sampled_from([[], ["--lenient"]]))]
    elif command == "detect":
        files["input"] = draw(spliced(inputs[draw(st.sampled_from(["packets", "pcap"]))]))
        files["model"] = draw(model_bytes(draw(st.sampled_from(inputs["models"]))))
        argv = [command, "input", "--model", "model", *flag("--interval", NUMBERS),
                *draw(st.sampled_from([[], ["--text"]]))]
    elif command == "label":
        files["input"] = draw(spliced(inputs["conversations"]))
        argv = [command, draw(st.sampled_from(["--ransomware", "--benign"])), "input",
                *draw(st.sampled_from([[], ["--lenient"]]))]
    else:
        files["input"] = draw(spliced(inputs["dataset"]))
        argv = [command, "input", *flag("--seed", COUNTS),
                *draw(st.sampled_from([[], ["--zero-address-features"]]))]
        if command == "train":
            kind = draw(st.sampled_from(list(FAMILY_KEYS)))
            keys = st.sampled_from(FAMILY_KEYS[kind] * 3 + ["seed", "depth"])
            params = draw(st.lists(keys.flatmap(
                lambda key: PARAM_VALUES[key].map(lambda value: f"{key}={value}")),
                min_size=1, max_size=2))
            argv += ["--kind", kind, *QUICK.get(kind, []),
                     *(f for p in params for f in ("--param", p))]
        else:   # eval and bench train default models: only the fast families
            kinds = often("knn", "j48", "bayes", "boosting")
            argv += (["--kind", draw(kinds)] if command == "eval" else
                     ["--kinds", draw(st.lists(kinds, min_size=1, max_size=3).map(",".join))])
            reads = {"holdout": ("--train-ratio", NUMBERS), "kfold": ("--k", COUNTS)}
            split, other = draw(st.permutations(list(reads)))
            argv += ["--split", split, *flag(*reads[split]),
                     *(flag(*reads[other]) if draw(often(False, True)) else []),
                     *flag("--format", st.sampled_from(["csv", "json"]))]
    if draw(often(False, True)):
        lines = st.sampled_from(CONFIG_LINES[command] * 2 + ODD_CONFIG_LINES)
        files["run.cfg"] = draw(spliced("\n".join(draw(st.lists(lines, max_size=3)))
                                        .encode() + b"\n"))
        argv += ["--config", "run.cfg"]
    argv += draw(st.sampled_from([[], ["-o", "-"], ["-o", "out"]]))
    return argv, files


@given(data=st.data())
@settings(max_examples=300)
def test_every_subcommand_exits_0_or_1(inputs, data):
    argv, files = data.draw(invocation(inputs))
    workdir = inputs["dir"]
    for path in workdir.iterdir():
        path.unlink()
    for name, content in files.items():
        (workdir / name).write_bytes(content)
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    with deadline(20), pytest.MonkeyPatch.context() as patch, warnings.catch_warnings(), \
            contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(io.StringIO()) as stderr:
        patch.chdir(workdir)
        warnings.simplefilter("ignore", UserWarning)     # lenient CSV notices
        code = run(argv)
    assert code in (0, 1), stderr.getvalue()
    assert not (workdir / "-").exists()
    if code != 0 or argv[0] not in ("train", "detect"):
        return
    written = ((workdir / "out").read_bytes() if argv[-2:] == ["-o", "out"]
               else stdout.buffer.getvalue())
    if argv[0] == "train":
        load_model(written)
    elif "text=True" not in stderr.getvalue():     # detect echoes its settings
        for line in written.decode().splitlines():
            json.loads(line, parse_constant=reject_constant)


def reject_constant(name: str):
    """``json.loads``'s hook for ``NaN`` and the infinities, which JSON lacks."""
    raise ValueError(f"{name} is not JSON")
