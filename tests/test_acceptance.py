"""Acceptance checklist for the whole package.

Each test here guards one hard requirement and prints a [PASS]/[FAIL] line on
the terminal (outside pytest's capture) so a full run doubles as a checklist.
Reference values are computed with independent high-precision arithmetic or
exhaustive search, never with the code under test.
"""

from __future__ import annotations

import itertools
import random
import time
from bisect import bisect_left, bisect_right
from contextlib import contextmanager

import mpmath
import pytest

from conftest import brute_force_longest_match, make_instance, make_pattern
from tempoguard.cli import RunConfig, run, run_pipeline
from tempoguard.events import LABEL_ANOMALY_SEQ, LABEL_ANOMALY_TI, LABEL_NORMAL, intervals
from tempoguard.evaluation import ConfusionMatrix
from tempoguard.forge import smote_midpoint
from tempoguard.ingest import format_timestamp, parse_log, parse_log_jsonl, serialize_log
from tempoguard.mining import mine_patterns, patterns_from_json, patterns_to_json
from tempoguard.scoring import align, angle, score
from tempoguard.simulate import generate
from tempoguard.training import (
    ScoreModel,
    best_interval,
    models_from_json,
    models_to_json,
    train,
)

mpmath.mp.dps = 50


@pytest.fixture
def checklist(capsys):
    """Context manager that reports one [PASS]/[FAIL] line per criterion."""

    @contextmanager
    def record(name: str):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"[FAIL] {name}")
            raise
        with capsys.disabled():
            print(f"[PASS] {name}")

    return record


def reference_angle(u: tuple[float, ...], v: tuple[float, ...]) -> float:
    """50-digit evaluation of arccos(dot / (|u| |v|)), clamped."""
    mu = [mpmath.mpf(x) for x in u]
    mv = [mpmath.mpf(x) for x in v]
    dot = mpmath.fsum(a * b for a, b in zip(mu, mv))
    norm_u = mpmath.sqrt(mpmath.fsum(a * a for a in mu))
    norm_v = mpmath.sqrt(mpmath.fsum(b * b for b in mv))
    quotient = dot / (norm_u * norm_v)
    quotient = min(max(quotient, mpmath.mpf(-1)), mpmath.mpf(1))
    return float(mpmath.acos(quotient))


def test_angle_matches_high_precision_reference(checklist):
    with checklist("angle within 1e-9 of a 50-digit reference on 1000 pairs, under 1 s"):
        rng = random.Random(20211001)
        pairs = []
        for _ in range(1000):
            n = rng.randint(1, 10)
            u = tuple(1000.0 * (1.0 - rng.random()) for _ in range(n))  # (0, 1000]
            v = tuple(1000.0 * (1.0 - rng.random()) for _ in range(n))
            pairs.append((u, v))
        start = time.perf_counter()
        computed = [angle(u, v) for u, v in pairs]
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        for (u, v), theta in zip(pairs, computed):
            assert abs(theta - reference_angle(u, v)) <= 1e-9
        # the worked reference pair, frozen from the same 50-digit arithmetic
        assert abs(angle((10.0, 20.0), (500.0, 20.0)) - 1.0671700306708005) <= 1e-12


def test_perfect_match_scores_one_plus_alpha(checklist):
    with checklist("identical instance scores 1 + alpha within 1e-12 for alpha in {0,1,3,5}"):
        rng = random.Random(7)
        for _ in range(100):
            n = rng.randint(1, 10)
            letters = "".join(rng.choice("ABCDEFGH") for _ in range(n))
            gaps = [rng.randint(1, 1_000_000) for _ in range(n - 1)]
            pattern = make_pattern(letters, [float(g) for g in gaps])
            instance = make_instance(letters, gaps)
            for alpha in (0.0, 1.0, 3.0, 5.0):
                assert abs(score(pattern, instance).blend(alpha) - (1.0 + alpha)) <= 1e-12


def test_totals_ignore_uniform_time_scaling(checklist):
    with checklist("uniform speed-up by 0.5x/2x/50x shifts the total by under 1e-9"):
        rng = random.Random(11)
        for _ in range(50):
            n = rng.randint(2, 8)
            letters = "ABCDEFGH"[:n]
            gaps = [2 * rng.randint(1, 500_000) for _ in range(n - 1)]  # even, so 0.5x is whole
            pattern = make_pattern(letters, [float(g) for g in gaps])
            baseline = score(pattern, make_instance(letters, gaps)).blend(3.0)
            for c in (0.5, 2, 50):
                scaled = make_instance(letters, [int(g * c) for g in gaps])
                assert abs(score(pattern, scaled).blend(3.0) - baseline) < 1e-9


def test_alignment_equals_exhaustive_search(checklist):
    with checklist("alignment equals exhaustive maximum on every short deletion case"):
        for n in range(1, 7):
            for pattern_letters in itertools.product("AB", repeat=n):
                pattern_text = "".join(pattern_letters)
                pattern = make_pattern(pattern_text)
                for kept_mask in range(1, 1 << n):
                    instance_text = "".join(
                        pattern_text[k] for k in range(n) if kept_mask >> k & 1
                    )
                    instance = make_instance(instance_text)
                    matched = len(align(pattern, instance))
                    assert matched == brute_force_longest_match(pattern_text, instance_text)
                    assert matched == len(instance_text)


def test_midpoints_and_accuracy_arithmetic_are_exact(checklist):
    with checklist("interval midpoints and confusion accuracy are exact"):
        a = make_instance("ABC", [10_000, 20_000])
        b = make_instance("ABC", [20_000, 40_000])
        assert intervals(smote_midpoint(a, b)) == (15_000, 30_000)
        assert intervals(smote_midpoint(a, a)) == (10_000, 20_000)
        zero = make_instance("AB", [0])
        ten = make_instance("AB", [10])
        assert intervals(smote_midpoint(zero, ten)) == (5,)
        assert ConfusionMatrix(tp=36, fn=4, fp=3, tn=57).accuracy == 0.93


def oracle_best_accuracy(rows: list[tuple[str, float]], epsilon: float = 1e-9) -> float:
    """Try every candidate boundary pair; count accuracy with bisection."""
    normals = sorted(s for lbl, s in rows if lbl == LABEL_NORMAL)
    anomalies = sorted(s for lbl, s in rows if lbl != LABEL_NORMAL)
    candidates = sorted(
        {x for _, s in rows for x in (s - epsilon, s, s + epsilon)}
    )
    total = len(rows)
    best = 0.0
    for i, lo in enumerate(candidates):
        for hi in candidates[i:]:
            inside_norm = bisect_right(normals, hi) - bisect_left(normals, lo)
            inside_anom = bisect_right(anomalies, hi) - bisect_left(anomalies, lo)
            best = max(best, (inside_norm + len(anomalies) - inside_anom) / total)
    return best


def test_interval_selection_is_optimal(checklist):
    with checklist("interval selection matches exhaustive scan on 50 random tables"):
        labels = (LABEL_NORMAL, LABEL_ANOMALY_SEQ, LABEL_ANOMALY_TI)
        for table_seed in range(50):
            rng = random.Random(1000 + table_seed)
            rows = []
            for _ in range(rng.randint(1, 40)):
                value = rng.uniform(0.0, 5.0)
                if rng.random() < 0.5:
                    value = round(value, 1)  # force duplicate scores
                rows.append((rng.choice(labels), value))
            lo, hi, accuracy = best_interval(rows)
            assert lo <= hi
            assert accuracy == oracle_best_accuracy(rows)
        normals = [make_instance("ABC", [10_000, 20_000], label=LABEL_NORMAL)] * 3
        timing = [make_instance("ABC", [500_000, 20_000], label=LABEL_ANOMALY_TI)] * 2
        partial = [make_instance("AC", [30_000], label=LABEL_ANOMALY_SEQ)] * 2
        model = train(make_pattern("ABC", [10_000, 20_000]), normals + timing + partial)
        assert model.training_accuracy == 1.0


def test_pipeline_hits_detection_targets(checklist, tmp_path):
    with checklist("pipeline reaches 85% per activity (80% on timing anomalies) in under 10 s"):
        start = time.perf_counter()
        report = run_pipeline(RunConfig(workdir=str(tmp_path / "run")))
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0
        assert len(report["activities"]) == 3
        for entry in report["activities"]:
            assert entry["accuracy"] >= 0.85, entry["activity"]
        home = next(e for e in report["activities"] if e["activity"] == "Come back home")
        timing_row = next(r for r in home["rows"] if r["label"] == "Anomaly(ti)")
        assert timing_row["accuracy"] >= 0.80


def test_identical_seeds_give_identical_reports(checklist, tmp_path):
    with checklist("same seed produces byte-identical reports and artifacts"):
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        run_pipeline(RunConfig(workdir=str(dir_a)))
        run_pipeline(RunConfig(workdir=str(dir_b)))
        for name in (
            "sim_log.csv",
            "instances.jsonl",
            "patterns.json",
            "train_set.jsonl",
            "test_set.jsonl",
            "models.json",
            "report.json",
            "report.txt",
        ):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name


def test_telemetry_between_bursts_changes_no_verdict(checklist, tmp_path):
    with checklist("a temperature reading every 60 s leaves the 150 seed-42 verdicts as they are"):
        workdir = tmp_path / "run"
        run_pipeline(RunConfig(workdir=str(workdir)))
        header, *rows = (workdir / "sim_log.csv").read_text(encoding="utf-8").splitlines(True)
        times = [event.timestamp_ms for event in parse_log([header, *rows])]  # rows in time order
        readings = [
            (ms, f"{format_timestamp(ms)},T1,temperature,{20 + n % 50 / 10}\n")
            for n, ms in enumerate(range(times[0], times[-1] + 1, 60_000))
        ]
        merged = sorted([*zip(times, rows), *readings], key=lambda row: row[0])
        telemetry = tmp_path / "telemetry.csv"
        telemetry.write_text(header + "".join(row for _, row in merged), encoding="utf-8")
        verdicts = []
        for log in (workdir / "sim_log.csv", telemetry):
            out = tmp_path / f"{log.stem}.jsonl"
            models, patterns = workdir / "models.json", workdir / "patterns.json"
            argv = ["--log", str(log), "--models", str(models), "--patterns", str(patterns)]
            assert run(["detect", *argv, "--out", str(out)]) == 0
            verdicts.append(out.read_bytes())
        assert len(readings) > 1500
        assert len(verdicts[0].splitlines()) == 150
        assert verdicts[1] == verdicts[0]


def test_everything_survives_serialization(checklist):
    with checklist("logs, patterns, and models reload to equal values"):
        events = generate(RunConfig(instances_per_activity=5))
        assert parse_log(serialize_log(events, "csv")) == events
        assert parse_log_jsonl(serialize_log(events, "jsonl")) == events
        instances = [make_instance("ABC", [10, 20]) for _ in range(5)]
        patterns = [pattern for pattern, _ in mine_patterns(instances)]
        assert patterns_from_json(patterns_to_json(patterns)) == patterns
        models = [
            ScoreModel(activity="a", alpha=0.3, lo=1.1, hi=2.2, training_accuracy=0.98),
            ScoreModel(activity="b", alpha=3.0, lo=2.9, hi=3.1, training_accuracy=1.0),
        ]
        assert models_from_json(models_to_json(models)) == models
