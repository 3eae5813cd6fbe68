#!/usr/bin/env python3
"""rwdetect benchmark: one command, three workloads, correctness checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; rwdetect is imported from ``src/`` and
scratch files go to ``.bench/``.  Inputs are generated in-process from
``--seed``.  Each workload is a closed loop in one process: one operation
at a time while the next one should end within ``--seconds``, and at
least three, with BLAS pinned to one thread.  Set-ups run in a forked
child each, which the loop waits for.

Workloads (sizes in ``workloads.py``):

* ``replay-scan``: a 600 s capture of 3.9k short flows (1-3 packets per
  conversation) from 300 hosts, SMB/445 sweeps included, replayed like
  ``rwdetect detect`` through a 100-tree random forest with 60 s windows.
  Per-conversation work dominates.
* ``replay-bulk``: the same site and model, 900 flows of 60-140
  packets.  Per-packet work dominates; classification is under a tenth.
* ``train-compare``: two labelled captures of about 750 conversations
  each through ``extract``, ``label`` and ``bench`` (all six families,
  holdout), then a save and load of every family's model.

End-to-end metrics (``--trace 0``).  The VM this was built on runs the
same code up to 2x slower for seconds to minutes at a time, so every
timing is in seconds at reference speed: scaled by a reference kernel
timed between the set-ups and between the operations (see ``speed``).
The raw timings of every set-up, operation and kernel run are in the
environment block.

* ``setup_s``: generating the inputs, training the replay model and
  writing the files; median of at least three set-ups, scaled by the
  reference kernel timed after each.
* ``pkts_per_s``: capture frames per second, from opening the input
  files to the last output: the last alert line on a replay, the last
  model loaded on train-compare.
* ``first_alert_s``: seconds until the first result: the first alert
  reaching the sink on a replay, the first row of the comparison table
  on train-compare.
* ``compare_s``: seconds per operation: one comparison on train-compare,
  one replay on the replays.
* ``alert_recall``, ``alert_fpr``, ``accuracy_mean``: exact quality
  figures; on a replay per (window, conversation) against the
  generator's labels; on train-compare means across the six families of
  each loaded model's recall and false-positive rate on 3k labelled
  conversations of the same site (``workloads.SCORING_FLOWS``, scored
  outside the timing) and of the comparison table's holdout accuracy.
* ``peak_rss_mb``: the process's peak resident set size over the
  operations; set-up memory stays in its child process.

``attempted`` and ``failed`` count operations; a failed one (exception
or mismatch) contributes no timing.  A JSON environment block (machine,
versions, seeds, input sizes, every sample) is printed before the result
line.

``--trace 1`` alternates untraced and traced operations, then prints the
per-layer metrics of ``layers.PER_LAYER`` and writes every span to
``.bench/``.  Layers the workload's own operation does not call are
measured by a probe on the same site: the replays run train-compare on
their model's labelled captures, and train-compare replays its
ransomware capture through the forest it trained.  A figure the
operation measures wins over the probe's, except that a kind's fit,
save, load and size figures come from one model: the operation's when
it trains that kind, the probe's otherwise (so on the replays every
``classifiers.*`` figure but the forest's ``predict_us_per_query``
describes the probe's models).  Peak memory per layer comes from one
more replay under ``tracemalloc``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import speed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench"
WORKLOADS = ("replay-scan", "replay-bulk", "train-compare")
#: Set-ups per run: at least this many, and at least this many seconds.
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
#: Operations per measured run, whatever ``--seconds`` is, so that every
#: timing is a mean of at least this many samples.
MIN_OPS = 3
BLAS_THREADS = 1
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def git_revision() -> str | None:
    """HEAD's commit from ``.git`` files, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def peak_rss_mb() -> float:
    """The process's peak resident set size so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def in_child(path: Path, fn, *args):
    """``fn(*args)`` computed in a forked child and returned through ``path``.

    The process runs no other thread (BLAS is pinned to one), so forking
    it is safe.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            path.write_bytes(pickle.dumps(fn(*args)))
            code = 0
        except Exception:
            traceback.print_exc(file=sys.stderr)
        finally:
            sys.stderr.flush()
            os._exit(code)
    _pid, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"{fn.__name__} failed in its child process")
    result = pickle.loads(path.read_bytes())
    path.unlink()
    return result


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


class Runner:
    """Set-up, operation and checks of one workload, and what they recorded."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        import workloads as wl
        self.wl = wl
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.replay = workload != "train-compare"
        self.inputs = None
        self.setup_fingerprint = None
        self.setup_s: list[float] = []
        self.reference_s: list[float] = []   # see measure()
        self.setup_reference_s: list[float] = []
        self.errors: list[str] = []
        self.reference = None     # output fingerprints of the first operation
        self.quality = None
        self.report = None        # train-compare's comparison table
        self.first = None         # train-compare's first result, scored last
        self.setup_peak_rss_mb = None

    def setup(self):
        """Build the inputs once more; they must equal the previous set-up's.

        The set-up runs in a forked child, so the memory it takes never
        counts in this process's peak RSS, which then covers only the
        operations.  The reference kernel (``speed``) runs after it, for
        ``speed.SHARE`` of its time.
        """
        started = time.perf_counter()
        if self.replay:
            inputs = in_child(self.workdir / "inputs.pickle", self.wl.setup_replay,
                              self.workload, self.seed, self.workdir)
            fingerprint = (inputs.model_sha, inputs.frames, len(inputs.truth))
        else:
            inputs = in_child(self.workdir / "inputs.pickle", self.wl.setup_compare,
                              self.seed, self.workdir)
            fingerprint = (inputs.frames, tuple(len(t) for t in inputs.truth))
        self.setup_s.append(time.perf_counter() - started)
        self.setup_reference_s += speed.reference_s(speed.SHARE * self.setup_s[-1])
        self.wl.expect(self.setup_fingerprint in (None, fingerprint),
                       "set-up is not deterministic")
        self.inputs, self.setup_fingerprint = inputs, fingerprint
        return inputs

    def run(self):
        """One operation, the part that is timed and traced."""
        inputs = self.inputs
        if self.replay:
            return self.wl.replay(inputs.pcap, inputs.model, inputs.alerts)
        return self.wl.compare(inputs.pcaps, inputs.workdir)

    def check(self, result) -> dict:
        """Check one operation's outputs; returns its timings."""
        wl, inputs = self.wl, self.inputs
        if self.replay:
            wl.check_replay(inputs, result)
            out = (wl.sha256_file(inputs.alerts),)
            if self.reference is None:
                self.quality = wl.score_alerts(inputs, inputs.alerts)
                wl.expect(self.quality["alerts"] == result.summary.alerts,
                          "alert lines and the detection summary disagree")
            timings = {"compare_s": result.seconds,
                       "pkts_per_s": inputs.frames / result.seconds,
                       "first_alert_s": result.first_alert_s}
        else:
            wl.check_compare(inputs, result)
            if self.reference is None:
                self.first = result
                self.report = json.loads(wl.evaluation.render_report_json(result.rows))
            out = (tuple(sorted(result.models.items())),
                   tuple((r.classifier, r.tpr, r.fpr, r.accuracy)
                         for r in result.rows))
            timings = {"compare_s": result.seconds,
                       "pkts_per_s": inputs.frames / result.seconds,
                       "first_alert_s": result.first_row_s}
        if self.reference is None:
            self.reference = out
        wl.expect(out == self.reference, "output differs from the first operation's")
        return timings

    def final_check(self) -> None:
        """Checks and scoring after the run, outside its peak RSS."""
        if self.replay:
            self.wl.check_conversations(self.inputs)
        else:
            self.quality = self.wl.score_compare(self.inputs, self.first)

    def sizes(self) -> dict:
        inputs = self.inputs
        if self.replay:
            return {"frames": inputs.frames, "packets": inputs.packets,
                    "skipped_frames": inputs.skipped,
                    "conversations": len(inputs.truth),
                    "model_bytes": inputs.model_bytes}
        models = dict(self.reference[0]) if self.reference else {}
        return {"frames": inputs.frames,
                "conversations": [len(t) for t in inputs.truth],
                "dataset_rows": sum(len(t) for t in inputs.truth),
                "model_bytes": {k: len(v) for k, v in models.items()},
                "model_sha256": {k: hashlib.sha256(v).hexdigest()
                                 for k, v in models.items()}}


def measure(runner: Runner, seconds: float, samples: list, wrap=None,
            min_ops: int = MIN_OPS) -> int:
    """Run operations while the next one should end within ``seconds``.

    At least ``min_ops`` operations run; ``wrap`` is entered around the
    timed part of each.  Garbage left by the previous operation is
    collected before each, outside the timing.  The reference kernel
    (``speed``) runs before the first operation and after each one, for
    ``speed.SHARE`` of its time, and its times go to
    ``runner.reference_s``.  A failed operation is logged and counted in
    ``runner.errors``.  Returns how many were attempted.
    """
    start = time.perf_counter()
    attempted = 0
    longest = 0.0
    runner.reference_s += speed.reference_s(0.0)
    while (attempted < min_ops
           or time.perf_counter() - start + longest <= seconds):
        attempted += 1
        gc.collect()
        began = time.perf_counter()
        cpu = time.process_time()
        timings = None
        try:
            if wrap is None:
                result = runner.run()
            else:
                with wrap():
                    result = runner.run()
            cpu = time.process_time() - cpu
            timings = runner.check(result)
        except Exception as exc:   # counted as a failed operation
            runner.errors.append(f"{type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
        if timings is not None:
            samples.append(dict(timings, cpu_s=cpu))
        runner.reference_s += speed.reference_s(
            speed.SHARE * (time.perf_counter() - began))
        longest = max(longest, time.perf_counter() - began)
    return attempted


def at_reference_speed(runner: Runner, samples: list, key: str) -> float:
    """The operations' mean ``key`` in seconds at reference speed (``speed``)."""
    return (statistics.fmean(s[key] for s in samples)
            * speed.NOMINAL_S / statistics.fmean(runner.reference_s))


def environment(args, runner: Runner, samples: list) -> dict:
    import numpy
    site = runner.wl.SITE_SEED
    return {
        "workload": args.workload,
        "seed": args.seed,
        "derived_seeds": {"site": [site, 0], "replay_model": [site, 1],
                          "replay_capture": [args.seed, 2],
                          "compare_captures": [args.seed, 3]},
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {v: os.environ[v] for v in BLAS_VARIABLES},
        "git_revision": git_revision(),
        "platform": platform.platform(),
        "input_sizes": runner.sizes(),
        "setup_s": runner.setup_s,
        "setup_reference_s": runner.setup_reference_s,
        "reference_s": runner.reference_s,
        "setup_peak_rss_mb": runner.setup_peak_rss_mb,
        "samples": samples,
        "errors": runner.errors,
        "quality": runner.quality,
        "comparison": runner.report,
    }


def run_untraced(args, runner: Runner) -> tuple[dict, int, bool, list]:
    """End-to-end metrics: (metrics, attempted, correct, samples)."""
    while (len(runner.setup_s) < SETUP_REPEATS
           or sum(runner.setup_s) < SETUP_SECONDS):
        runner.setup()
    runner.setup_peak_rss_mb = peak_rss_mb()
    samples = []
    attempted = measure(runner, args.seconds, samples)
    rss = peak_rss_mb()
    if not samples:
        raise RuntimeError(f"every operation failed: {runner.errors[0]}")
    correct = not runner.errors
    try:
        runner.final_check()
    except runner.wl.CheckFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        correct = False

    metrics = {"setup_s": metric(
        statistics.median(runner.setup_s) * speed.NOMINAL_S
        / statistics.fmean(runner.setup_reference_s), "s")}
    compare_s = at_reference_speed(runner, samples, "compare_s")
    metrics["pkts_per_s"] = metric(runner.inputs.frames / compare_s, "1/s")
    metrics["first_alert_s"] = metric(
        at_reference_speed(runner, samples, "first_alert_s"), "s")
    metrics["compare_s"] = metric(compare_s, "s")
    for name in ("alert_recall", "alert_fpr", "accuracy_mean"):
        metrics[name] = metric(runner.quality[name], "ratio")
    metrics["peak_rss_mb"] = metric(rss, "MB")
    return metrics, attempted, correct, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for variable in BLAS_VARIABLES:
        os.environ[variable] = str(BLAS_THREADS)
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    try:
        import rwdetect
    except ImportError as exc:
        print(f"error: rwdetect is not importable from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 1
    if Path(rwdetect.__file__).resolve().parent != ROOT / "src" / "rwdetect":
        print(f"error: rwdetect imported from {rwdetect.__file__}, not from "
              f"{ROOT / 'src'}", file=sys.stderr)
        return 1

    workdir = OUT_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(args.workload, args.seed, workdir)
        if args.trace:
            import layers
            values, attempted, correct, samples = layers.run_traced(
                args, runner, measure, OUT_DIR)
            metrics = {name: metric(values[name], unit)
                       for name, unit in layers.PER_LAYER.items()}
        else:
            metrics, attempted, correct, samples = run_untraced(args, runner)
        print(json.dumps({"environment": environment(args, runner, samples)}))
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(runner.errors), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
