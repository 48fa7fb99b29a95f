#!/usr/bin/env python3
"""Benchmark of tempoguard's two user-facing commands, end to end and per layer.

One workload per process (so peak RSS belongs to it), closed loop, one caller:

    python3 bench/run.py --workload train-4x --seed 1 --seconds 36 --trace 0

Every workload in both trace modes, each in a fresh process, with a summary:

    python3 bench/run.py --all --seed 1 --seconds 36 [--record bench/results/NAME.json]

The program is driven through `tempoguard.cli.run([...])` in-process from the
source tree next to this directory; it only sees the files the workload
generates. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibration
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "segments_per_s": "1/s",
    "accuracy": "ratio",
    "peak_rss_mb": "MB",
}
OVERHEAD = "trace.overhead_ratio"
UNITS = {
    **END_TO_END,
    **{metric: unit for metric, (unit, _, _) in tracer.METRICS.items()},
    OVERHEAD: "ratio",
}

SETUP_SAMPLES = 21  # fresh processes per run, after one warm-up
MIN_PASSES = 3  # timed passes per trace mode, even past --seconds
STOP_AFTER_S = 120  # start no pass after this, whatever the minimum

# Runs in a fresh interpreter: import the program, load what detect loads.
SETUP_CHILD = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import tempoguard.cli
from tempoguard import mining, training
if len(sys.argv) > 2:
    from pathlib import Path
    ref = Path(sys.argv[2])
    mining.patterns_from_json((ref / "patterns.json").read_text(encoding="utf-8"))
    training.models_from_json((ref / "models.json").read_text(encoding="utf-8"))
took = time.perf_counter() - start
if not tempoguard.cli.__file__.startswith(sys.argv[1]):
    sys.exit("imported tempoguard from " + tempoguard.cli.__file__)
print(repr(took))
"""


class Tally:
    """Operations attempted and failed; a failed check counts as a failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def run(self, what: str, fn, *args):
        """fn(*args), or None after reporting why it failed."""
        self.attempted += 1
        try:
            return fn(*args)
        except workloads.CheckFailed as exc:
            print(f"FAILED {what}: {exc}", file=sys.stderr)
        except Exception:  # a crash in the program or its checks is one failed operation
            print(f"FAILED {what}:\n{traceback.format_exc()}", file=sys.stderr)
        self.failed += 1
        return None


class Clock:
    """Host-speed factor for the operation just timed, from the calibration
    loop run right before and right after it (see calibration.py)."""

    def __init__(self) -> None:
        self._last = calibration.seconds()

    def factor(self) -> float:
        now = calibration.seconds()
        factor = calibration.REFERENCE_S / ((self._last + now) / 2)
        self._last = now
        return factor


def import_program():
    sys.path.insert(0, str(SRC))
    from tempoguard import cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"bench: imported tempoguard from {cli.__file__}, not {SRC}")
    return cli


def run_cli(cli, argv: list[str], trace: tracer.Tracer | None = None) -> str:
    """One `tempoguard` command in-process; returns what it printed."""
    out, err = io.StringIO(), io.StringIO()
    span = trace.span(tracer.RUN_SPAN) if trace else contextlib.nullcontext()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
        code = cli.run(argv)
    if code != 0:
        raise workloads.CheckFailed(f"tempoguard {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def reference_session(cli, ref: Path, trace: tracer.Tracer | None = None) -> None:
    """Seed-42 default pipeline, then detect on its own log; checked byte for byte."""
    with trace.installed() if trace else contextlib.nullcontext():
        run_cli(cli, ["pipeline", "--workdir", str(ref)], trace)
        run_cli(
            cli,
            ["detect", "--models", str(ref / "models.json"), "--patterns", str(ref / "patterns.json"),
             "--log", str(ref / "sim_log.csv"), "--out", str(ref / "verdicts.jsonl")],
            trace,
        )  # fmt: skip
    workloads.check_reference(ref)


def setup_sample(reference: Path | None) -> float:
    argv = [sys.executable, "-I", "-c", SETUP_CHILD, str(SRC)]
    if reference is not None:
        argv.append(str(reference))
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise workloads.CheckFailed(f"set-up process failed: {proc.stderr.strip()}")
    return float(proc.stdout)


def one_pass(cli, work, trace: tracer.Tracer | None) -> tuple[float, float]:
    """Run and check one pass; returns (seconds, accuracy)."""
    work.before_pass()
    gc.collect()
    with trace.installed() if trace else contextlib.nullcontext():
        start = time.perf_counter()
        printed = run_cli(cli, work.argv, trace)
        took = time.perf_counter() - start
    accuracy = work.check(printed)
    if trace is not None:
        segments = trace.figures()["ingest.segments"]
        if segments != work.segments:
            raise workloads.CheckFailed(f"{segments} segments, generator wrote {work.segments} runs")
    return took, accuracy


def measure(name: str, seed: int, seconds: int, traced: bool) -> dict:
    """One run of one workload: set-up, reference check, then timed passes."""
    began = time.perf_counter()
    cli = import_program()
    scratch = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        tally = Tally()
        trace = tracer.Tracer() if traced else None
        ref = scratch / "reference"
        clock = Clock()
        tally.run("reference check", reference_session, cli, ref, trace)
        if trace is not None:
            # For layers that the workload's passes never reach.
            fallback, fallback_spans = trace.figures(clock.factor()), trace.reached()

        models = None if name == "train-4x" else ref
        tally.run("set-up warm-up", setup_sample, models)
        clock = Clock()
        setups = []
        for _ in range(SETUP_SAMPLES):
            took = tally.run("set-up", setup_sample, models)
            factor = clock.factor()
            if took is not None:
                setups.append(took * factor)

        work = tally.run("input generation", workloads.prepare, name, scratch, seed, ref)
        times: dict[bool, list[float]] = {False: [], True: []}
        unscaled: list[float] = []
        layers: list[dict[str, float]] = []
        accuracies = set()
        if work is not None:
            deadline = time.perf_counter() + seconds
            clock = Clock()
            k = 0
            while time.perf_counter() - began < STOP_AFTER_S:
                with_trace = traced and k % 2 == 1
                short = len(times[False]) < MIN_PASSES or (traced and len(times[True]) < MIN_PASSES)
                if time.perf_counter() >= deadline and (tally.failed or not short):
                    break
                done = tally.run(f"pass {k}", one_pass, cli, work, trace if with_trace else None)
                factor = clock.factor()
                if done is not None:
                    took, accuracy = done
                    times[with_trace].append(took * factor)
                    accuracies.add(accuracy)
                    if with_trace:
                        layers.append(trace.figures(factor))
                    else:
                        unscaled.append(took)
                k += 1
        if len(accuracies) > 1:
            tally.attempted += 1
            tally.failed += 1
            print(f"FAILED determinism: passes gave accuracies {sorted(accuracies)}", file=sys.stderr)

        metrics: dict[str, dict] = {}

        def put(metric: str, value: float) -> None:
            metrics[metric] = {"value": value, "unit": UNITS[metric]}

        if not traced:
            if setups:
                put("setup_s", statistics.median(setups))
            if times[False]:
                pass_s = statistics.median(times[False])
                put("pass_s", pass_s)
                put("segments_per_s", work.segments / pass_s)
            if accuracies:
                put("accuracy", min(accuracies))
            put("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        elif layers:
            for metric, (_, _, span) in tracer.METRICS.items():
                if span in trace.reached() or span not in fallback_spans:
                    put(metric, statistics.median(f[metric] for f in layers))
                else:
                    put(metric, fallback[metric])
            if times[False]:
                put(OVERHEAD, statistics.median(times[True]) / statistics.median(times[False]))

        for metric, entry in metrics.items():
            print(f"{name}\t{metric}\t{entry['value']:.6g}\t{entry['unit']}")
        if unscaled:
            print(f"{name}\tunscaled pass\t{statistics.median(unscaled):.6g}\ts\t({len(unscaled)} passes)")
        print(
            f"{name}\terror_rate\t{tally.failed / tally.attempted:.6g}\tratio"
            f"\t({tally.failed} of {tally.attempted} operations failed)"
        )
        return {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": metrics,
        }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.parent.rmdir()


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))


def cpu_model() -> str:
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def run_all(seed: int, seconds: int, record: str | None) -> int:
    """Every workload, untraced then traced, each in its own process."""
    results: dict[str, dict] = {}
    for name in workloads.WORKLOADS:
        for traced in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(traced)]  # fmt: skip
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} (trace {traced}) exited {proc.returncode}", file=sys.stderr)
                return 1
            sys.stdout.write("\n".join(lines[:-1]) + "\n")
            results.setdefault(name, {})["traced" if traced else "untraced"] = json.loads(lines[-1])
    ok = all(r["correct"] for runs in results.values() for r in runs.values())
    if record:
        meta = {
            "date_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "cpu": cpu_model(),
            "src_lines": src_lines(),
            "seed": seed,
            "seconds": seconds,
        }
        Path(record).parent.mkdir(parents=True, exist_ok=True)
        Path(record).write_text(
            json.dumps({"meta": meta, "workloads": results}, indent=2) + "\n", encoding="utf-8"
        )
    print(json.dumps({"correct": ok, "workloads": list(results)}))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload, both trace modes")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=36, help="timed loop length per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="with --all: write the results and metadata here")
    args = parser.parse_args(argv)
    if not (SRC / "tempoguard" / "cli.py").is_file():
        print(f"bench: no tempoguard source tree at {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if args.all:
        return run_all(args.seed, args.seconds, args.record)
    if args.workload is None:
        parser.error("give --workload NAME or --all")
    print(json.dumps(measure(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
