"""Command-line interface.

Subcommands: extract, label, train, eval, bench, detect.  Results go to
stdout (or ``-o``); progress, the effective-configuration echo and
warnings go to stderr.  Exit codes: 0 success, 1 expected failures (bad
usage, unreadable input, malformed data), 2 unexpected internal errors.

A ``--config`` file holds ``key=value`` lines that act as extra flags
for the subcommand; flags given on the command line win.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import __version__
from .capture import PCAP_MAGICS, parse_packet_csv, parse_packet_csv_lenient, parse_pcap
from .classifiers import (
    ALL_KINDS,
    KIND_ALIASES,
    MODEL_FORMAT_VERSION,
    ClassifierKind,
    default_hyperparams,
    kind_from_name,
    model_fingerprint,
    read_model,
    train,
    write_model,
)
from .conversation import aggregate, conversations_to_csv, csv_to_conversations
from .detect import (
    WindowSpec,
    alert_to_json,
    alert_warning_line,
    detect_stream,
    read_packet_source,
)
from .errors import InvalidHyperparams, RwdetectError
from .eval import SplitSpec, benchmark, evaluate, render_report_csv, render_report_json
from .features import Label, dataset_fingerprint, read_dataset_csv, write_dataset_csv

#: store_true options a config file may set with key=true / key=false.
_BOOL_FLAGS = {"lenient", "zero-address-features", "text"}


class _UsageError(Exception):
    def __init__(self, message: str, parser: argparse.ArgumentParser):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):   # argparse would sys.exit(2); we want exit 1
        raise _UsageError(message, self)


def _read_config_args(path: str) -> list[str]:
    """Turn a key=value config file into an equivalent flag list."""
    extra: list[str] = []
    for raw_line in Path(path).read_text().splitlines():
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InvalidHyperparams(f"config line is not key=value: {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key == "config":
            raise InvalidHyperparams("config files cannot nest")
        if key in _BOOL_FLAGS:
            if value.lower() not in ("true", "false"):
                raise InvalidHyperparams(
                    f"config key {key!r} takes true or false, got {value!r}"
                )
            if value.lower() == "true":
                extra.append(f"--{key}")
        else:
            extra.extend([f"--{key}", value])
    return extra


def _splice_config(argv: list[str]) -> list[str]:
    path = None
    for i, arg in enumerate(argv):
        if arg == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif arg.startswith("--config="):
            path = arg.split("=", 1)[1]
    if path is None or not argv:
        return argv
    # Insert right after the subcommand so explicit flags win.
    return argv[:1] + _read_config_args(path) + argv[1:]


def _echo_config(command: str, **settings) -> None:
    parts = " ".join(f"{k}={v}" for k, v in settings.items())
    print(f"config: command={command} {parts}", file=sys.stderr)


def _write_text(path: str | None, text: str) -> None:
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _load_packets(path: str, lenient: bool):
    """(packets, skipped_malformed, skipped_unsupported, note) from any source."""
    data = Path(path).read_bytes()
    if data[:4] in PCAP_MAGICS:
        records, summary = parse_pcap(data)
        note = f" ({summary.error})" if summary.truncated else ""
        skipped = (summary.packets_skipped_non_ip
                   + summary.packets_skipped_unsupported_protocol)
        return records, 0, skipped, note
    text = data.decode("utf-8")
    if lenient:
        records, bad = parse_packet_csv_lenient(text)
        return records, bad, 0, ""
    return parse_packet_csv(text), 0, 0, ""


def _cmd_extract(args) -> int:
    _echo_config("extract", input=args.input, lenient=args.lenient,
                 seed=args.seed)
    packets, malformed, unsupported, note = _load_packets(args.input,
                                                          args.lenient)
    conversations = aggregate(packets)
    _write_text(args.output, conversations_to_csv(conversations))
    print(
        f"extract: {len(packets)} packets -> {len(conversations)} "
        f"conversations (skipped {malformed} malformed, {unsupported} "
        f"unsupported){note}",
        file=sys.stderr,
    )
    return 0


def _cmd_label(args) -> int:
    _echo_config("label", ransomware=len(args.ransomware),
                 benign=len(args.benign), lenient=args.lenient, seed=args.seed)
    if not args.ransomware and not args.benign:
        raise InvalidHyperparams("need at least one --ransomware or --benign file")
    sets = [
        (csv_to_conversations(Path(path).read_text(), strict=not args.lenient), label)
        for paths, label in ((args.ransomware, Label.RANSOMWARE),
                             (args.benign, Label.BENIGN))
        for path in paths
    ]
    _write_text(args.output, write_dataset_csv(sets))
    total = sum(len(convs) for convs, _ in sets)
    print(f"label: wrote {total} samples", file=sys.stderr)
    return 0


def _parse_params(kind: ClassifierKind, seed: int, pairs: list[str]):
    hp = default_hyperparams(kind, seed=seed)
    if not pairs:
        return hp
    fields = {f.name: f.type for f in dataclasses.fields(hp)}
    overrides = {}
    for pair in pairs:
        if "=" not in pair:
            raise InvalidHyperparams(f"--param expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        if key not in fields:
            raise InvalidHyperparams(
                f"{type(hp).__name__} has no parameter {key!r}"
            )
        current = getattr(hp, key)
        if isinstance(current, bool):
            if value.lower() not in ("true", "false"):
                raise InvalidHyperparams(f"{key} takes true or false")
            overrides[key] = value.lower() == "true"
        else:
            try:
                overrides[key] = int(value) if isinstance(current, int) \
                    else float(value)
            except ValueError:
                raise InvalidHyperparams(
                    f"{key} takes a number, got {value!r}") from None
    return dataclasses.replace(hp, **overrides)


def _cmd_train(args) -> int:
    kind = kind_from_name(args.kind)
    hp = _parse_params(kind, args.seed, args.param)
    _echo_config("train", kind=kind.value, seed=hp.seed,
                 zero_addresses=args.zero_address_features,
                 params=dataclasses.asdict(hp))
    dataset = read_dataset_csv(Path(args.input).read_text())
    model = train(kind, dataset, hp,
                  zero_addresses=args.zero_address_features)
    write_model(args.output, model)
    print(
        f"train: {kind.value} on {len(dataset)} samples in "
        f"{model.training_time:.6f}s, dataset {model.train_fingerprint[:12]}, "
        f"model {model_fingerprint(model)[:12]} -> {args.output}",
        file=sys.stderr,
    )
    return 0


def _split_spec(args) -> SplitSpec:
    if args.split == "holdout":
        return SplitSpec.holdout(train_ratio=args.train_ratio, seed=args.seed)
    return SplitSpec.kfold(k=args.k, seed=args.seed)


def _render(rows, fmt: str) -> str:
    if fmt == "json":
        return render_report_json(rows)
    return render_report_csv(rows)


def _cmd_eval(args) -> int:
    kind = kind_from_name(args.kind)
    spec = _split_spec(args)
    _echo_config("eval", kind=kind.value, split=args.split,
                 train_ratio=args.train_ratio, k=args.k, seed=args.seed,
                 format=args.format,
                 zero_addresses=args.zero_address_features)
    dataset = read_dataset_csv(Path(args.input).read_text())
    result = evaluate(kind, dataset, spec,
                      zero_addresses=args.zero_address_features)
    if len(result.folds) > 1:
        for i, fold in enumerate(result.folds):
            print(
                f"fold {i}: accuracy="
                f"{'n/a' if fold.accuracy is None else f'{fold.accuracy:.4f}'}",
                file=sys.stderr,
            )
    row = result.folds[0] if len(result.folds) == 1 else result.mean
    _write_text(args.output, _render([row], args.format))
    return 0


def _cmd_bench(args) -> int:
    if args.kinds == "all":
        kinds = list(ALL_KINDS)
    else:
        kinds = [kind_from_name(part) for part in args.kinds.split(",")]
    spec = _split_spec(args)
    _echo_config("bench", kinds=",".join(k.value for k in kinds),
                 split=args.split, train_ratio=args.train_ratio, k=args.k,
                 seed=args.seed, format=args.format,
                 zero_addresses=args.zero_address_features)
    dataset = read_dataset_csv(Path(args.input).read_text())
    print(f"bench: dataset {dataset_fingerprint(dataset)[:12]}, "
          f"{len(dataset)} samples", file=sys.stderr)
    rows = benchmark(kinds, dataset, spec,
                     zero_addresses=args.zero_address_features)
    _write_text(args.output, _render(rows, args.format))
    return 0


def _cmd_detect(args) -> int:
    _echo_config("detect", model=args.model, interval=args.interval,
                 text=args.text, seed=args.seed)
    model = read_model(args.model)
    packets, malformed, unsupported, note = _load_packets(args.input,
                                                          lenient=True)
    spec = WindowSpec(interval=args.interval)

    out = sys.stdout if args.output in (None, "-") else open(args.output, "w")
    try:
        def sink(alert):
            line = alert_warning_line(alert) if args.text else alert_to_json(alert)
            out.write(line + "\n")

        summary = detect_stream(packets, model, spec, sink,
                                skipped_malformed=malformed)
    finally:
        if out is not sys.stdout:
            out.close()
    print(
        f"detect: {summary.packets} packets in {summary.windows} windows -> "
        f"{summary.conversations} conversations, {summary.alerts} alerts "
        f"(skipped {summary.skipped_malformed} malformed, "
        f"{summary.skipped_unsupported + unsupported} unsupported){note}",
        file=sys.stderr,
    )
    return 0


def _add_common(parser: _Parser) -> None:
    parser.add_argument("--seed", type=int, default=42,
                        help="deterministic seed (default 42)")
    parser.add_argument("--config", help="key=value file of extra flags")
    parser.add_argument("-o", "--output", default=None,
                        help="output path (default stdout)")


def _add_split(parser: _Parser) -> None:
    parser.add_argument("--split", choices=("holdout", "kfold"),
                        default="holdout")
    parser.add_argument("--train-ratio", type=float, default=0.8,
                        help="holdout training fraction (default 0.8)")
    parser.add_argument("--k", type=int, default=10,
                        help="cross-validation folds (default 10)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--zero-address-features", action="store_true",
                        help="train with the two address features zeroed")


def build_parser() -> _Parser:
    parser = _Parser(prog="rwdetect",
                     description="Conversation-level ransomware traffic "
                                 "detection toolkit")
    parser.add_argument(
        "--version", action="version",
        version=f"rwdetect {__version__} (model format v{MODEL_FORMAT_VERSION})",
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("extract", help="capture or packet CSV -> conversation CSV")
    p.add_argument("input", help="pcap file or packet CSV")
    p.add_argument("--lenient", action="store_true",
                   help="skip malformed CSV rows instead of failing")
    _add_common(p)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("label", help="conversation CSVs -> labeled dataset CSV")
    p.add_argument("--ransomware", action="append", default=[],
                   metavar="CSV", help="conversation CSV of ransomware traffic")
    p.add_argument("--benign", action="append", default=[],
                   metavar="CSV", help="conversation CSV of benign traffic")
    p.add_argument("--lenient", action="store_true",
                   help="recompute inconsistent totals instead of failing")
    _add_common(p)
    p.set_defaults(func=_cmd_label)

    p = sub.add_parser("train", help="dataset CSV -> model file")
    p.add_argument("input", help="labeled dataset CSV")
    p.add_argument("--kind", required=True,
                   help=f"classifier kind ({', '.join(KIND_ALIASES)} "
                        "or canonical name)")
    p.add_argument("--param", action="append", default=[], metavar="KEY=VALUE",
                   help="hyperparameter override (repeatable)")
    p.add_argument("--zero-address-features", action="store_true",
                   help="train with the two address features zeroed")
    _add_common(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate one classifier kind")
    p.add_argument("input", help="labeled dataset CSV")
    p.add_argument("--kind", required=True)
    _add_split(p)
    _add_common(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("bench", help="compare classifier kinds on one split")
    p.add_argument("input", help="labeled dataset CSV")
    p.add_argument("--kinds", default="all",
                   help="'all' or comma-separated kinds (default all)")
    _add_split(p)
    _add_common(p)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("detect", help="run windowed detection over a capture")
    p.add_argument("input", help="pcap file or packet CSV")
    p.add_argument("--model", required=True, help="trained model file")
    p.add_argument("--interval", type=float, default=60.0,
                   help="window length in seconds (default 60)")
    p.add_argument("--text", action="store_true",
                   help="emit human-readable alert lines instead of JSON")
    _add_common(p)
    p.set_defaults(func=_cmd_detect)
    return parser


def run(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _splice_config(argv)
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        exc.parser.print_usage(sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:   # argparse --help / --version paths
        return int(exc.code or 0)
    except (RwdetectError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:    # pragma: no cover - defensive
        print(f"unexpected error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
