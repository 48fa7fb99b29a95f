"""Per-layer spans around the program's public functions, installed from outside.

Each wrapped function is one layer boundary. A span's self time is its
duration minus the time of the spans it encloses. A function is wrapped under
every name that refers to it, so copies made by `from x import f` (such as
`training.score` and `evaluation.score`) are traced as well as `scoring.score`.
`uninstall` puts every original back.
"""

from __future__ import annotations

import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns


def _count(counter: str, amount):
    def hook(tracer: Tracer, args: tuple, result) -> None:
        tracer.counts[counter] += amount(args, result)

    return hook


def _length(args: tuple, result) -> int:
    return len(result)


def _one(args: tuple, result) -> int:
    return 1


def _pair(tracer: Tracer, args: tuple, result) -> None:
    # Only references are kept here; key sequences are compared after the pass.
    tracer.aligned.append((args[0], args[1]))


_parsed = _count("ingest.parse_events", _length)
# Outputs are ASCII, so characters are bytes.
_written = _count("ingest.write_bytes", _length)
_forged_one = _count("forge.instances", _one)

# (module, function, span, hook run on each return)
WRAPPED = (
    ("ingest", "parse_log", "ingest.parse", _parsed),
    ("ingest", "parse_log_jsonl", "ingest.parse", _parsed),
    ("ingest", "segment", "ingest.segment", _count("ingest.segments", _length)),
    ("ingest", "serialize_log", "ingest.write", _written),
    ("ingest", "instances_to_jsonl", "ingest.write", _written),
    ("simulate", "generate", "simulate.generate", None),
    ("mining", "mine_patterns", "mining.mine", _count("mining.patterns", _length)),
    ("forge", "augment_normals", "forge.forge", _count("forge.instances", _length)),
    ("forge", "make_anomaly_seq", "forge.forge", _forged_one),
    ("forge", "make_anomaly_ti", "forge.forge", _forged_one),
    ("training", "train", "training.train", None),
    (
        "training",
        "best_interval",
        "training.best_interval",
        _count("training.best_interval_rows", lambda args, result: len(args[0])),
    ),
    ("scoring", "score", "scoring.score", None),
    ("scoring", "align", "scoring.align", _pair),
    ("evaluation", "select_pattern", "evaluation.route", None),
    ("evaluation", "classify", "evaluation.classify", None),
    ("evaluation", "build_report", "evaluation.report", None),
    ("evaluation", "render_report", "evaluation.report", None),
    ("cli", "train_models", "cli.train_models", None),
    ("cli", "run_pipeline", "cli.pipeline", None),
)

# The benchmark's own span around each `cli.run` call.
RUN_SPAN = "cli.run"

# Per-layer metric -> (unit, better, span it belongs to).
METRICS = {
    "ingest.parse_s": ("s", "lower", "ingest.parse"),
    "ingest.parse_events": ("count", "higher", "ingest.parse"),
    "ingest.segment_s": ("s", "lower", "ingest.segment"),
    "ingest.segments": ("count", "higher", "ingest.segment"),
    "ingest.write_s": ("s", "lower", "ingest.write"),
    "ingest.write_bytes": ("bytes", "lower", "ingest.write"),
    "simulate.generate_s": ("s", "lower", "simulate.generate"),
    "mining.mine_s": ("s", "lower", "mining.mine"),
    "mining.patterns": ("count", "higher", "mining.mine"),
    "forge.forge_s": ("s", "lower", "forge.forge"),
    "forge.instances": ("count", "higher", "forge.forge"),
    "training.train_s": ("s", "lower", "training.train"),
    "training.best_interval_s": ("s", "lower", "training.best_interval"),
    "training.best_interval_calls": ("count", "lower", "training.best_interval"),
    "training.best_interval_rows": ("count", "lower", "training.best_interval"),
    "scoring.score_s": ("s", "lower", "scoring.score"),
    "scoring.score_calls": ("count", "lower", "scoring.score"),
    "scoring.align_s": ("s", "lower", "scoring.align"),
    "scoring.align_calls": ("count", "lower", "scoring.align"),
    "scoring.align_repeat_ratio": ("ratio", "higher", "scoring.align"),
    "evaluation.route_s": ("s", "lower", "evaluation.route"),
    "evaluation.route_calls": ("count", "lower", "evaluation.route"),
    "evaluation.classify_s": ("s", "lower", "evaluation.classify"),
    "evaluation.scores_per_segment": ("count", "lower", "evaluation.route"),
    "evaluation.report_s": ("s", "lower", "evaluation.report"),
    "cli.train_models_s": ("s", "lower", "cli.train_models"),
    "cli.pipeline_self_s": ("s", "lower", "cli.pipeline"),
    "cli.run_self_s": ("s", "lower", RUN_SPAN),
}


class Tracer:
    """Spans and counters for one pass at a time; `reset` starts the next."""

    def __init__(self) -> None:
        self._patched: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.self_ns: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.aligned: list[tuple[object, object]] = []
        self._open: list[int] = []  # time covered by child spans, per open span

    @contextmanager
    def span(self, name: str):
        self._open.append(0)
        start = perf_counter_ns()
        try:
            yield
        finally:
            took = perf_counter_ns() - start
            self.self_ns[name] += took - self._open.pop()
            self.calls[name] += 1
            if self._open:
                self._open[-1] += took

    def _wrap(self, fn, name: str, hook):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Record one pass: fresh figures, wrappers in place until it ends."""
        self.reset()
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def install(self) -> None:
        """Wrap every WRAPPED function under each name bound to it in the package."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        package = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "tempoguard"]
        for module_name, function, name, hook in WRAPPED:
            original = getattr(sys.modules[f"tempoguard.{module_name}"], function)
            wrapper = self._wrap(original, name, hook)
            for module in package:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def figures(self, time_scale: float = 1.0) -> dict[str, float]:
        """Every per-layer metric since `reset`; self times multiplied by time_scale."""
        distinct = len({(p.keys, i.key_sequence()) for p, i in self.aligned})
        align_calls = self.calls["scoring.align"]
        route_calls = self.calls["evaluation.route"]
        values = {
            "training.best_interval_calls": self.calls["training.best_interval"],
            "scoring.score_calls": self.calls["scoring.score"],
            "scoring.align_calls": align_calls,
            "scoring.align_repeat_ratio": 1 - distinct / align_calls if align_calls else 0.0,
            "evaluation.route_calls": route_calls,
            "evaluation.scores_per_segment": (
                self.calls["scoring.score"] / route_calls if route_calls else 0.0
            ),
        }
        for metric, (unit, _, span) in METRICS.items():
            if unit == "s":
                values[metric] = self.self_ns[span] / 1e9 * time_scale
            elif metric not in values:
                values[metric] = self.counts[metric]
        return values

    def reached(self) -> set[str]:
        """Spans entered since `reset`."""
        return {name for name, n in self.calls.items() if n}
