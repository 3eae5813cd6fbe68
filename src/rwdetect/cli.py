"""Command-line interface.

Subcommands: extract, label, train, eval, bench, detect.  Results go to
stdout (or ``-o``); progress, the effective-configuration echo and
warnings go to stderr.  Exit codes: 0 success, 1 expected failures (bad
usage, unreadable input, malformed data, a fit the host has no memory
for), 2 unexpected internal errors.

Options are spelled in full.  ``--seed`` (``train``, ``eval``, ``bench``),
the only seed, seeds the split and every model.  A ``--config`` file holds
``key=value`` lines that act as extra flags for the subcommand; flags given
on the command line win.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import sys
import warnings
from pathlib import Path

from . import __version__
from .capture import CaptureSummary
from .classifiers import (
    ALL_KINDS,
    KIND_ALIASES,
    MODEL_FORMAT_VERSION,
    ClassifierKind,
    default_hyperparams,
    kind_from_name,
    model_fingerprint,
    read_model,
    save_model,
    train,
    validate_hyperparams,
)
from .conversation import (
    ConversationCsvWarning,
    aggregate,
    conversations_to_csv,
    csv_to_conversations,
)
from .detect import (
    WindowSpec,
    alert_to_json,
    alert_warning_line,
    detect_stream,
    load_packets,
)
from .errors import InvalidHyperparams, RowError, RwdetectError
from .eval import SplitSpec, benchmark, evaluate, render_report_csv, render_report_json
from .features import Label, dataset_fingerprint, read_dataset_csv, write_dataset_csv

#: store_true options a config file may set with key=true / key=false.
_BOOL_FLAGS = {"lenient", "zero-address-features", "text"}


def _read_text(path: str) -> str:
    """A text input as strict UTF-8, whatever the locale."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise RowError(line, f"{path}: byte 0x{data[exc.start]:02x} is not UTF-8") from None


def _output(path: str | None):
    """Where results go, as bytes: stdout without ``-o`` or with ``-o -``, else the file."""
    if path in (None, "-"):
        return contextlib.nullcontext(sys.stdout.buffer)
    return open(path, "wb")


def _read_config_args(path: str) -> list[str]:
    """Turn a key=value config file into an equivalent flag list."""
    extra: list[str] = []
    for raw_line in _read_text(path).removeprefix("\ufeff").splitlines():
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


def _skip_clause(c: CaptureSummary) -> str:
    """What loading skipped, counted by reason, and the truncation kind if any."""
    truncation = f"; {c.error}" if c.error else ""
    return (f"(skipped {c.rows_skipped_malformed} malformed, {c.packets_skipped_non_ip} "
            f"non-IP, {c.packets_skipped_unsupported_protocol} unsupported{truncation})")


def _cmd_extract(args) -> int:
    _echo_config("extract", input=args.input, lenient=args.lenient)
    packets, capture = load_packets(args.input, args.lenient)
    conversations = aggregate(packets)
    with _output(args.output) as out:
        out.write(conversations_to_csv(conversations).encode())
    print(f"extract: {len(packets)} packets -> {len(conversations)} "
          f"conversations {_skip_clause(capture)}", file=sys.stderr)
    return 0


def _read_conversations(path: str, lenient: bool) -> list:
    """``csv_to_conversations`` of one file, each warning naming the file."""
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ConversationCsvWarning)
            return csv_to_conversations(_read_text(path), strict=not lenient)
    finally:    # outside the recording context, which would record these too
        for w in caught:    # Python shows one text from one place once
            warnings.warn(f"{path}: {w.message}", w.category)


def _cmd_label(args) -> int:
    _echo_config("label", ransomware=len(args.ransomware),
                 benign=len(args.benign), lenient=args.lenient)
    if not args.ransomware and not args.benign:
        raise InvalidHyperparams("need at least one --ransomware or --benign file")
    sets = [
        (_read_conversations(path, args.lenient), label)
        for paths, label in ((args.ransomware, Label.RANSOMWARE),
                             (args.benign, Label.BENIGN))
        for path in paths
    ]
    with _output(args.output) as out:
        out.write(write_dataset_csv(sets).encode())
    total = sum(len(convs) for convs, _ in sets)
    print(f"label: wrote {total} samples", file=sys.stderr)
    return 0


def _number(cast):
    """``cast``, ``int`` or ``float``, of a number written as in a CSV: ``cast``
    alone also reads other scripts' digits, whitespace and ``_``."""
    def read(text: str):
        if not text.isascii() or "_" in text or any(c.isspace() for c in text):
            raise ValueError(text)
        return cast(text)
    read.__name__ = cast.__name__   # argparse names the type in its message
    return read


def _parse_params(kind: ClassifierKind, seed: int, pairs: list[str]):
    hp = default_hyperparams(kind, seed=seed)
    fields = {f.name: f.type for f in dataclasses.fields(hp)}
    overrides = {}
    for pair in pairs:
        if "=" not in pair:
            raise InvalidHyperparams(f"--param expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        if key == "seed":
            raise InvalidHyperparams("the seed is set by --seed, not --param")
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
                overrides[key] = _number(type(current))(value)
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
    validate_hyperparams(kind, hp)
    dataset = read_dataset_csv(_read_text(args.input))
    model = train(kind, dataset, hp,
                  zero_addresses=args.zero_address_features)
    with _output(args.output) as out:
        out.write(save_model(model))
    print(
        f"train: {kind.value} on {len(dataset)} samples in "
        f"{model.training_time:.6f}s, dataset {model.train_fingerprint[:12]}, "
        f"model {model_fingerprint(model)[:12]} -> {args.output or '-'}",
        file=sys.stderr,
    )
    return 0


def _split_spec(command: str, args, **settings) -> SplitSpec:
    """The split spec of ``eval`` or ``bench``, once their configuration is
    echoed.  A holdout reads ``--train-ratio`` and k-fold ``--k``; the
    other option, given, is a usage error."""
    read, unread = ("train_ratio", "k") if args.split == "holdout" else ("k", "train_ratio")
    if getattr(args, unread) is not None:
        args.usage_error(f"--{unread.replace('_', '-')} does not apply to --split {args.split}")
    given = {} if getattr(args, read) is None else {read: getattr(args, read)}
    spec = SplitSpec(method=args.split, seed=args.seed, **given)
    _echo_config(command, **settings, split=args.split, **{read: getattr(spec, read)},
                 seed=args.seed, format=args.format,
                 zero_addresses=args.zero_address_features)
    return spec


#: The report renderer of each ``--format``.
_RENDER = {"csv": render_report_csv, "json": render_report_json}


def _cmd_eval(args) -> int:
    kind = kind_from_name(args.kind)
    spec = _split_spec("eval", args, kind=kind.value)
    dataset = read_dataset_csv(_read_text(args.input))
    result = evaluate(kind, dataset, spec, zero_addresses=args.zero_address_features)
    if len(result.folds) > 1:
        for i, fold in enumerate(result.folds):
            print(
                f"fold {i}: accuracy="
                f"{'n/a' if fold.accuracy is None else f'{fold.accuracy:.4f}'}",
                file=sys.stderr,
            )
    with _output(args.output) as out:
        out.write(_RENDER[args.format]([result.row]).encode())
    return 0


def _cmd_bench(args) -> int:
    if args.kinds == "all":
        kinds = list(ALL_KINDS)
    else:
        kinds = [kind_from_name(part) for part in args.kinds.split(",")]
        if len(set(kinds)) < len(kinds):
            repeated = max(kinds, key=kinds.count)
            raise InvalidHyperparams(f"--kinds lists {repeated.value} more than once")
    spec = _split_spec("bench", args, kinds=",".join(k.value for k in kinds))
    dataset = read_dataset_csv(_read_text(args.input))
    print(f"bench: dataset {dataset_fingerprint(dataset)[:12]}, "
          f"{len(dataset)} samples", file=sys.stderr)
    rows = benchmark(kinds, dataset, spec, zero_addresses=args.zero_address_features)
    with _output(args.output) as out:
        out.write(_RENDER[args.format](rows).encode())
    return 0


def _cmd_detect(args) -> int:
    _echo_config("detect", model=args.model, interval=args.interval,
                 text=args.text)
    spec = WindowSpec(interval=args.interval)
    model = read_model(args.model)
    packets, capture = load_packets(args.input, lenient=True)
    render = alert_warning_line if args.text else alert_to_json
    with _output(args.output) as out:
        summary = detect_stream(packets, model, spec,
                                lambda alert: out.write((render(alert) + "\n").encode()))
    print(f"detect: {summary.packets} packets in {summary.windows} windows -> "
          f"{summary.conversations} conversations, {summary.alerts} alerts "
          f"{_skip_clause(capture)}", file=sys.stderr)
    return 0


def _add_training(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=_number(int), default=42,
                        help="seed of every random draw (default 42)")
    parser.add_argument("--zero-address-features", action="store_true",
                        help="train with the two address features zeroed")


def _add_split(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--split", choices=("holdout", "kfold"),
                        default="holdout")
    parser.add_argument("--train-ratio", type=_number(float),
                        help="holdout training fraction (default 0.8)")
    parser.add_argument("--k", type=_number(int),
                        help="k-fold cross-validation folds (default 10)")
    parser.add_argument("--format", choices=tuple(_RENDER), default="csv")
    parser.set_defaults(usage_error=parser.error)
    _add_training(parser)


def _add_subcommand(sub, name: str, func, help: str) -> argparse.ArgumentParser:
    """The parser of one subcommand, with the options every subcommand takes.
    Like the top-level parser, it takes no prefix of an option, as
    ``_splice_config`` takes none of ``--config``."""
    parser = sub.add_parser(name, help=help, allow_abbrev=False)
    parser.add_argument("--config", help="key=value file of extra flags")
    parser.add_argument("-o", "--output", default=None,
                        help="output path (default stdout)")
    parser.set_defaults(func=func)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rwdetect", allow_abbrev=False,
                                     description="Conversation-level ransomware "
                                                 "traffic detection toolkit")
    parser.add_argument(
        "--version", action="version",
        version=f"rwdetect {__version__} (model format v{MODEL_FORMAT_VERSION})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _add_subcommand(sub, "extract", _cmd_extract,
                        "capture or packet CSV -> conversation CSV")
    p.add_argument("input", help="pcap file or packet CSV")
    p.add_argument("--lenient", action="store_true",
                   help="skip malformed CSV rows instead of failing")

    p = _add_subcommand(sub, "label", _cmd_label,
                        "conversation CSVs -> labeled dataset CSV")
    p.add_argument("--ransomware", action="append", default=[],
                   metavar="CSV", help="conversation CSV of ransomware traffic")
    p.add_argument("--benign", action="append", default=[],
                   metavar="CSV", help="conversation CSV of benign traffic")
    p.add_argument("--lenient", action="store_true",
                   help="recompute inconsistent totals instead of failing")

    p = _add_subcommand(sub, "train", _cmd_train, "dataset CSV -> model file")
    p.add_argument("input", help="labeled dataset CSV")
    p.add_argument("--kind", required=True,
                   help=f"classifier kind ({', '.join(KIND_ALIASES)} "
                        "or canonical name)")
    p.add_argument("--param", action="append", default=[], metavar="KEY=VALUE",
                   help="hyperparameter override (repeatable)")
    _add_training(p)

    p = _add_subcommand(sub, "eval", _cmd_eval, "evaluate one classifier kind")
    p.add_argument("input", help="labeled dataset CSV")
    p.add_argument("--kind", required=True)
    _add_split(p)

    p = _add_subcommand(sub, "bench", _cmd_bench,
                        "compare classifier kinds on one split")
    p.add_argument("input", help="labeled dataset CSV")
    p.add_argument("--kinds", default="all",
                   help="'all' or comma-separated kinds (default all)")
    _add_split(p)

    p = _add_subcommand(sub, "detect", _cmd_detect,
                        "run windowed detection over a capture")
    p.add_argument("input", help="pcap file or packet CSV")
    p.add_argument("--model", required=True, help="trained model file")
    p.add_argument("--interval", type=_number(float), default=60.0,
                   help="window length in seconds (default 60)")
    p.add_argument("--text", action="store_true",
                   help="emit human-readable alert lines instead of JSON")
    return parser


def run(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _splice_config(argv)
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:   # argparse: 0 after --help / --version, 2 on bad usage
        return 1 if exc.code else 0
    except (RwdetectError, OSError, MemoryError) as exc:   # MemoryError: a fit too large
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:    # pragma: no cover - defensive
        print(f"unexpected error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(run())
