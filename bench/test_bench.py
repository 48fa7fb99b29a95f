"""Self-tests of the benchmark: seeded inputs, trace counts, wrapper removal.

    python3 bench/test_bench.py
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _functions(modules) -> dict[tuple[str, str], object]:
    return {
        (module.__name__, attr): value
        for module in modules
        for attr, value in vars(module).items()
        if callable(value)
    }


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for noisy in (False, True):
            self.assertEqual(
                workloads.generate_runs(7, 40, noisy), workloads.generate_runs(7, 40, noisy)
            )
            self.assertNotEqual(
                workloads.generate_runs(7, 40, noisy), workloads.generate_runs(8, 40, noisy)
            )

    def test_every_run_stays_one_segment(self):
        gap_ms = workloads.GAP_SECONDS * 1000
        for noisy in (False, True):
            runs, events = workloads.generate_runs(3, 300, noisy)
            sizes = [1]
            for (a, *_), (b, *_) in zip(events, events[1:]):
                self.assertLessEqual(a, b)
                if b - a >= gap_ms:
                    sizes.append(0)
                sizes[-1] += 1
            self.assertEqual(len(sizes), len(runs))
            self.assertGreaterEqual(min(sizes), 2)
            labels = {run.label for run in runs}
            self.assertEqual(labels, {"normal", "anomaly_seq", "anomaly_ti"})


class TraceTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.cli = run.import_program()
        cls.scratch = run.ROOT / ".bench_work" / f"test-{os.getpid()}"
        cls.scratch.mkdir(parents=True)
        cls.reference = cls.scratch / "reference"
        run.reference_session(cls.cli, cls.reference)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            cls.scratch.parent.rmdir()

    def traced_pass(self, name: str) -> tuple[object, dict[str, float]]:
        """One traced pass; the program's functions are the originals afterwards."""
        package = [m for n, m in sys.modules.items() if n.split(".")[0] == "tempoguard"]
        before = _functions(package)
        work = workloads.prepare(name, self.scratch, 5, self.reference)
        trace = tracer.Tracer()
        run.one_pass(self.cli, work, trace)
        self.assertEqual(_functions(package), before)
        return work, trace.figures()

    def test_counts_add_up_on_detect_38k(self):
        patterns = json.loads((self.reference / "patterns.json").read_text(encoding="utf-8"))
        self.assertEqual(len(patterns), 3)
        work, figures = self.traced_pass("detect-38k")
        segments = figures["ingest.segments"]
        self.assertEqual(segments, len(work.runs))
        self.assertEqual(figures["evaluation.route_calls"], segments)
        self.assertEqual(figures["scoring.score_calls"], (len(patterns) + 1) * segments)
        self.assertEqual(figures["scoring.align_calls"], figures["scoring.score_calls"])
        self.assertGreater(figures["scoring.align_repeat_ratio"], 0.99)
        self.assertEqual(figures["ingest.parse_events"], work.events)

    def test_noisy_log_defeats_alignment_reuse(self):
        work, figures = self.traced_pass("detect-noisy")
        self.assertEqual(figures["ingest.segments"], len(work.runs))
        self.assertLessEqual(figures["scoring.align_repeat_ratio"], 0.4)

    def test_value_imports_are_wrapped_and_restored(self):
        package = [m for n, m in sys.modules.items() if n.split(".")[0] == "tempoguard"]
        before = _functions(package)
        trace = tracer.Tracer()
        trace.install()
        try:
            for module in ("scoring", "training", "evaluation"):
                score = vars(sys.modules[f"tempoguard.{module}"])["score"]
                self.assertIs(score.__wrapped__, before[("tempoguard.scoring", "score")])
        finally:
            trace.uninstall()
        after = _functions(package)
        self.assertEqual(before.keys(), after.keys())
        for name, value in before.items():
            self.assertIs(after[name], value, name)

    def test_benchmark_file_lists_what_run_prints(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END
        )
        per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
        self.assertEqual({**run.END_TO_END, **per_layer}, run.UNITS)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
