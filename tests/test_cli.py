from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import logging
import math
import random
import re
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import digests, make_instance, make_pattern, seed42_digests
from tempoguard import cli, evaluation, forge, ingest, scoring, training
from tempoguard.cli import (
    PIPELINE_FILES,
    RunConfig,
    alpha_curve,
    build_parser,
    run,
    run_pipeline,
    train_models,
)
from tempoguard.events import LABEL_ANOMALY_SEQ, LABEL_NORMAL, MAX_TIMESTAMP_MS, ActivityInstance
from tempoguard.ingest import instances_from_jsonl, instances_to_jsonl
from tempoguard.scoring import ScoreBreakdown
from tempoguard.mining import patterns_from_json, patterns_to_json
from tempoguard.training import ALPHA_GRID, ScoreModel, models_from_json, models_to_json


HUGE = 10**400  # JSON reads this integer, but no float can hold it


def run_cli(*argv: str) -> int:
    return run(list(argv))


def test_help_exits_zero(capsys):
    assert run_cli("--help") == 0
    assert "simulate" in capsys.readouterr().out


def test_unknown_flag_is_a_usage_error(capsys):
    assert run_cli("pipeline", "--bogus") == 1
    assert "usage" in capsys.readouterr().err


def test_missing_subcommand_is_a_usage_error():
    assert run_cli() == 1


def test_missing_input_file_is_a_data_error(capsys):
    assert run_cli("ingest", "missing.csv") == 2
    assert "missing.csv" in capsys.readouterr().err


def test_malformed_log_is_a_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("timestamp,device,attribute,value\nnot-a-time,M1,motion,active\n")
    assert run_cli("ingest", str(bad)) == 2
    assert "not-a-time" in capsys.readouterr().err


def test_pre_epoch_log_row_is_a_data_error_naming_its_line(tmp_path, capsys):
    log = tmp_path / "log.csv"
    log.write_text("timestamp,device,attribute,value\n1969-12-31T23:59:59.500Z,M1,motion,active\n")
    assert run_cli("ingest", str(log)) == 2
    assert "line 2: timestamp '1969-12-31T23:59:59.500Z' is before 1970" in capsys.readouterr().err


def test_oversized_csv_field_is_a_data_error_not_a_traceback(tmp_path, capsys):
    log = tmp_path / "log.csv"
    log.write_text("timestamp,device,attribute,value\n1000," + "x" * 140_000 + ",motion,active\n")
    assert run_cli("ingest", str(log)) == 2
    assert "line 2: field larger than field limit" in capsys.readouterr().err


def test_output_clobbering_an_input_is_a_usage_error(tmp_path, capsys):
    log = tmp_path / "log.csv"
    log.write_text("timestamp,device,attribute,value\n1000,M1,motion,active\n2000,L1,switch,on\n")
    assert run_cli("ingest", str(log), "--out", str(log)) == 1
    assert "overwrite" in capsys.readouterr().err


def test_ingest_output_onto_a_directory_is_a_usage_error(tmp_path, capsys):
    log = tmp_path / "log.csv"
    log.write_text("timestamp,device,attribute,value\n1000,M1,motion,active\n2000,L1,switch,on\n")
    assert run_cli("ingest", str(log), "--out", str(tmp_path)) == 1
    captured = capsys.readouterr()
    assert captured.err == f"usage error: output path {str(tmp_path)!r} is a directory\n"
    assert captured.out == ""


def test_simulate_writes_a_parseable_log(tmp_path):
    out = tmp_path / "log.csv"
    assert run_cli("simulate", "--seed", "7", "--instances", "2", "--out", str(out)) == 0
    assert out.read_text().startswith("timestamp,device,attribute,value")


def test_stage_chain_from_log_to_models(tmp_path):
    log = tmp_path / "log.csv"
    inst = tmp_path / "instances.jsonl"
    pats = tmp_path / "patterns.json"
    assert run_cli("simulate", "--noise-sigma", "0.05", "--instances", "6", "--out", str(log)) == 0
    assert run_cli("ingest", str(log), "--out", str(inst)) == 0
    assert len(instances_from_jsonl(inst.read_text())) == 18
    assert run_cli("mine", str(inst), "--min-support", "6", "--out", str(pats)) == 0
    assert len(json.loads(pats.read_text())) == 3


def test_score_prints_the_perfect_match_total(tmp_path, capsys):
    log = tmp_path / "log.csv"
    inst = tmp_path / "instances.jsonl"
    pats = tmp_path / "patterns.json"
    run_cli("simulate", "--noise-sigma", "0", "--instances", "5", "--out", str(log))
    run_cli("ingest", str(log), "--out", str(inst))
    run_cli("mine", str(inst), "--out", str(pats))
    capsys.readouterr()
    assert run_cli("score", "--pattern", str(pats), "--log", str(log), "--alpha", "3") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["4.0"] * 15


def test_score_takes_patterns_like_the_other_commands_and_its_prefix(tmp_path, capsys):
    log, pats = tmp_path / "log.csv", tmp_path / "patterns.json"
    run_cli("simulate", "--instances", "5", "--out", str(log))
    pats.write_text(patterns_to_json([make_pattern("AB")]))
    printed = []
    for flag in ("--patterns", "--pattern"):
        capsys.readouterr()
        assert run_cli("score", flag, str(pats), "--log", str(log), "--alpha", "3") == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1] and len(printed[0].splitlines()) == 15


def _split(instances: Path, *flags: str) -> int:
    """`split` of `instances` into train.jsonl and test.jsonl beside it."""
    outs = ["--train-out", str(instances.parent / "train.jsonl")]
    outs += ["--test-out", str(instances.parent / "test.jsonl")]
    return run_cli("split", str(instances), *flags, *outs)


def _split_sets(instances: Path) -> list[list[ActivityInstance]]:
    return [
        instances_from_jsonl((instances.parent / name).read_text(encoding="utf-8"))
        for name in ("train.jsonl", "test.jsonl")
    ]


def _wrote_no_set(instances: Path) -> bool:
    return not any((instances.parent / name).exists() for name in ("train.jsonl", "test.jsonl"))


def _simulated_instances(tmp_path: Path, count: str) -> Path:
    log, inst = tmp_path / "log.csv", tmp_path / "instances.jsonl"
    assert run_cli("simulate", "--instances", count, "--out", str(log)) == 0
    assert run_cli("ingest", str(log), "--out", str(inst)) == 0
    return inst


def test_augment_writes_the_requested_count(tmp_path):
    inst = _simulated_instances(tmp_path, "4")
    sizes = ["--train-normal", "3", "--test-normal", "7", "--train-anomaly", "0"]
    assert _split(inst, "--min-support", "4", *sizes, "--test-anomaly", "0") == 0
    train, test = _split_sets(inst)
    assert (len(train), len(test)) == (3 * 3, 3 * 7)
    assert {i.label for i in train + test} == {LABEL_NORMAL}
    # 4 segments of each activity and 6 midpoints of two of them make its 10 normals.
    assert sum(i.source_id.startswith("smote:") for i in train + test) == 3 * 6


def test_forge_writes_seq_and_ti_anomalies(tmp_path):
    inst = _simulated_instances(tmp_path, "3")
    sizes = ["--train-normal", "0", "--test-normal", "0", "--train-anomaly", "5"]
    assert _split(inst, "--min-support", "3", *sizes, "--test-anomaly", "4") == 0
    train, test = _split_sets(inst)
    for labeled, count in ((train, 5), (test, 4)):
        labels = Counter(i.label for i in labeled)
        assert labels == {"anomaly_seq": 3 * count, "anomaly_ti": 3 * count}


@pytest.mark.parametrize(
    "argv", [[], ["--seed", "7", "--instances-per-activity", "120"]], ids=["seed42", "seed7x120"]
)
def test_split_on_a_runs_instances_writes_that_runs_sets(tmp_path, capsys, argv):
    workdir = tmp_path / "run"
    assert run_cli("pipeline", "--workdir", str(workdir), *argv) == 0
    inst = tmp_path / "instances.jsonl"
    inst.write_bytes((workdir / "instances.jsonl").read_bytes())
    assert _split(inst, *argv[:2]) == 0
    assert (tmp_path / "train.jsonl").read_bytes() == (workdir / "train_set.jsonl").read_bytes()
    assert (tmp_path / "test.jsonl").read_bytes() == (workdir / "test_set.jsonl").read_bytes()


def test_simulate_ingest_mine_split_train_evaluate_rewrite_a_run_at_another_gap(tmp_path, capsys):
    workdir, gap = tmp_path / "run", ["--gap-seconds", "700"]
    assert run_cli("pipeline", "--workdir", str(workdir), *gap) == 0
    stages = tmp_path / "stages"
    stages.mkdir()
    paths = {name: str(stages / name) for name in PIPELINE_FILES}
    assert run_cli("simulate", *gap, "--out", paths["sim_log.csv"]) == 0
    assert run_cli("ingest", paths["sim_log.csv"], *gap, "--out", paths["instances.jsonl"]) == 0
    assert run_cli("mine", paths["instances.jsonl"], "--out", paths["patterns.json"]) == 0
    outs = ["--train-out", paths["train_set.jsonl"], "--test-out", paths["test_set.jsonl"]]
    assert run_cli("split", paths["instances.jsonl"], *outs) == 0
    trained = ["--patterns", paths["patterns.json"], "--train-set", paths["train_set.jsonl"]]
    assert run_cli("train", *trained, "--out", paths["models.json"]) == 0
    capsys.readouterr()
    judged = ["--models", paths["models.json"], "--patterns", paths["patterns.json"]]
    argv = [*judged, "--test-set", paths["test_set.jsonl"], "--out", paths["report.json"]]
    assert run_cli("evaluate", *argv) == 0
    Path(paths["report.txt"]).write_text(capsys.readouterr().out, encoding="utf-8")
    assert digests(stages) == digests(workdir)
    assert digests(workdir)["sim_log.csv"] != seed42_digests()["sim_log.csv"]


def test_forge_on_an_empty_instance_file_is_a_data_error(tmp_path, capsys):
    # split mines its instances first, so an empty file is mine's error.
    empty = tmp_path / "instances.jsonl"
    empty.write_text("")
    assert run_cli("mine", str(empty)) == 2
    mined = capsys.readouterr().err
    assert mined.startswith("error: no pattern mined (segments: 0, distinct key sequences: 0)")
    assert _split(empty) == 2
    assert capsys.readouterr() == ("", mined)
    assert _wrote_no_set(empty)


def test_forge_ti_multiplier_past_any_log_span_is_a_data_error(small_run, tmp_path, capsys):
    inst = tmp_path / "instances.jsonl"
    inst.write_bytes((small_run / "instances.jsonl").read_bytes())
    assert _split(inst, "--ti-multiplier", "1e308") == 2
    captured = capsys.readouterr()
    assert re.fullmatch(
        r"error: instance '[^']+': ti_multiplier 1e\+308 stretches a \d+ ms interval past "
        rf"{MAX_TIMESTAMP_MS} ms\n",
        captured.err,
    )
    assert captured.out == ""
    assert _wrote_no_set(inst)


@pytest.mark.parametrize(
    "kind, pool, message",
    [
        ("seq", ["A"], "instance 'one': need at least 2 events to delete one"),
        ("ti", ["A"], "instance 'one': need at least 2 events to stretch an interval"),
        ("augment", ["AB", "AC"], "instance 'one': key sequence differs from 'zero''s"),
        ("pair", ["AB"],
         "instance 'one': the only pool instance; "
         "need at least 2 pool instances to draw a distinct pair"),
    ],
    ids=["seq", "ti", "augment", "pair"],
)
def test_forge_and_augment_errors_name_the_instance(tmp_path, capsys, kind, pool, message):
    ids = ["zero", "one"][-len(pool) :]
    instances = [make_instance(keys, source_id=i) for keys, i in zip(pool, ids)]
    rng = random.Random(0)
    # split tops up normals before it forges, and forges seq anomalies first, so only
    # a lone segment's pair and seq errors are reached through it
    if kind in ("seq", "pair"):
        inst = tmp_path / "instances.jsonl"
        inst.write_text(instances_to_jsonl(instances))
        flags = ["--min-support", "1"]
        if kind == "seq":
            sizes = ["--train-normal", "1", "--test-normal", "0", "--train-anomaly", "0"]
            flags += ["--min-len", "1", *sizes, "--test-anomaly", "1"]
        assert _split(inst, *flags) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert _wrote_no_set(inst)
        return
    with pytest.raises(ValueError) as raised:
        if kind == "ti":
            forge.make_anomalies("ti", instances, 1, RunConfig(), rng)
        else:  # split pools each mined key sequence apart, so only a library call mixes two
            forge.augment_normals(instances, 1, rng)
    assert str(raised.value) == message


@pytest.mark.parametrize(
    "flags, message",
    [
        ("--train-normal=0 --train-anomaly=0",
         "train_normal + train_anomaly must be >= 1, or no model can be trained"),
        ("--test-normal=0 --test-anomaly=0",
         "test_normal + test_anomaly must be >= 1, or nothing is evaluated"),
    ],
    ids=["train", "test"],
)
def test_split_rejects_an_empty_set_as_pipeline_does(small_run, tmp_path, capsys, flags, message):
    inst = tmp_path / "instances.jsonl"
    inst.write_bytes((small_run / "instances.jsonl").read_bytes())
    assert _split(inst, *flags.split()) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert _wrote_no_set(inst)


def test_split_onto_one_path_twice_is_a_usage_error(small_run, tmp_path, capsys):
    inst, out = tmp_path / "instances.jsonl", str(tmp_path / "sets.jsonl")
    inst.write_bytes((small_run / "instances.jsonl").read_bytes())
    assert run_cli("split", str(inst), "--train-out", out, "--test-out", out) == 1
    message = f"output path {out!r} would overwrite a file this run reads or writes"
    assert capsys.readouterr() == ("", f"usage error: {message}\n")
    assert list(tmp_path.iterdir()) == [inst]


def test_pipeline_writes_all_artifacts_and_report(tmp_path, capsys):
    workdir = tmp_path / "run"
    out = tmp_path / "report.json"
    code = run_cli(
        "pipeline", "--seed", "42", "--workdir", str(workdir), "--out", str(out)
    )
    assert code == 0
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
        assert (workdir / name).exists()
    report = json.loads(out.read_text())
    amounts = [r["amount"] for e in report["activities"] for r in e["rows"]]
    assert sum(amounts) == report["overall"]["amount"] == 300
    text = capsys.readouterr().out
    assert text.count("Testing results of activity:") == 3
    models = models_from_json((workdir / "models.json").read_text())
    assert len(models) == 3


BENCH = Path(__file__).resolve().parent.parent / "bench"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_seed42_artifacts_match_the_recorded_digests(tmp_path, capsys, monkeypatch):
    workdir = tmp_path / "run"
    assert run_cli("pipeline", "--workdir", str(workdir)) == 0
    capsys.readouterr()
    recorded = seed42_digests()
    assert digests(workdir) == recorded
    monkeypatch.syspath_prepend(str(BENCH))
    bench_digests = importlib.import_module("workloads").REFERENCE_DIGESTS
    for name in ("models.json", "report.json"):
        assert recorded[name] == bench_digests[name]


@pytest.mark.parametrize("size", [1, 7])
def test_writing_instances_in_slices_changes_no_byte(tmp_path, capsys, monkeypatch, size):
    monkeypatch.setattr(cli, "WRITE_SLICE", size)
    workdir = tmp_path / "run"
    assert run_cli("pipeline", "--workdir", str(workdir)) == 0
    capsys.readouterr()
    assert digests(workdir) == seed42_digests()
    # The seed-42 digests were recorded unsliced, so each standalone output must equal its file.
    log, inst = workdir / "sim_log.csv", workdir / "instances.jsonl"
    assert run_cli("ingest", str(log)) == 0
    assert capsys.readouterr().out.encode() == inst.read_bytes()
    assert run_cli("ingest", str(log), "--out", str(tmp_path / "instances.jsonl")) == 0
    assert (tmp_path / "instances.jsonl").read_bytes() == inst.read_bytes()
    assert _split(inst) == 0
    assert (workdir / "train.jsonl").read_bytes() == (workdir / "train_set.jsonl").read_bytes()
    assert (workdir / "test.jsonl").read_bytes() == (workdir / "test_set.jsonl").read_bytes()


def test_pipeline_encodes_at_most_a_slice_of_instances_per_call(tmp_path, capsys, monkeypatch):
    sizes = []
    encode = ingest.instances_to_jsonl

    def counting_encode(instances):
        sizes.append(len(instances))
        return encode(instances)

    monkeypatch.setattr(ingest, "instances_to_jsonl", counting_encode)
    workdir = tmp_path / "run"
    assert run_cli("pipeline", "--workdir", str(workdir)) == 0
    capsys.readouterr()
    lines = [len((workdir / name).read_bytes().splitlines()) for name in PIPELINE_FILES
             if name.endswith(".jsonl")]  # fmt: skip
    assert max(lines) > cli.WRITE_SLICE  # so one file is written in more than one slice
    assert max(sizes) <= cli.WRITE_SLICE
    assert sum(sizes) == sum(lines)


# Digests of the seed-42 outputs that are not workdir files, so not in seed42.sha256 (which
# CI checks against the workdir with `sha256sum --check --strict`): detect's stdout and
# --out on the run's own log and models, score --alpha 3's stdout and the --stats file.
SEED42_DETECT_STDOUT = "9d8a77c3bf174261fe845bffe3e8401db96db86567ec41ba930377fded7c7cdf"
SEED42_DETECT_OUT = "8567b49bf3aeefdb0c2c41d1cb739df5a37d9adaae197e766dc3e98e53290836"
SEED42_SCORE_ALPHA_3 = "cbfd69322f1d80c5f9e05a707913efcf2eab12461f783ecb2d340ce779e94dab"
SEED42_STATS = "71af978d1958090448864cc926f1994524ada78b86a77f454b4f8032d975b565"


def test_seed42_detect_score_and_stats_outputs_match_their_digests(tmp_path, capsys):
    workdir, stats, out = tmp_path / "run", tmp_path / "stats.json", tmp_path / "verdicts.jsonl"
    assert run_cli("pipeline", "--workdir", str(workdir), "--stats", str(stats)) == 0
    capsys.readouterr()
    log, patterns = str(workdir / "sim_log.csv"), str(workdir / "patterns.json")
    argv = ["--log", log, "--models", str(workdir / "models.json"), "--patterns", patterns]
    assert run_cli("detect", *argv, "--out", str(out)) == 0
    detected = capsys.readouterr().out
    assert run_cli("score", "--alpha", "3", "--log", log, "--pattern", patterns) == 0
    scored = capsys.readouterr().out
    assert _sha256(detected.encode("utf-8")) == SEED42_DETECT_STDOUT
    assert _sha256(out.read_bytes()) == SEED42_DETECT_OUT
    assert _sha256(scored.encode("utf-8")) == SEED42_SCORE_ALPHA_3
    assert _sha256(stats.read_bytes()) == SEED42_STATS


@pytest.mark.parametrize(
    "argv", [[], ["--seed", "7", "--instances-per-activity", "120"]], ids=["seed42", "seed7x120"]
)
def test_mine_on_a_runs_instances_writes_that_runs_patterns_file(tmp_path, capsys, argv):
    workdir, mined = tmp_path / "run", tmp_path / "mined.json"
    assert run_cli("pipeline", "--workdir", str(workdir), *argv) == 0
    assert run_cli("mine", str(workdir / "instances.jsonl"), "--out", str(mined)) == 0
    assert mined.read_bytes() == (workdir / "patterns.json").read_bytes()


def _alpha_curve_file(path: Path) -> list[dict]:
    return json.loads(path.read_text(encoding="utf-8"))["alpha_curve"]


def test_pipeline_stats_leaves_the_seed42_artifacts_as_they_are(tmp_path, capsys):
    workdir, stats = tmp_path / "run", tmp_path / "stats.json"
    assert run_cli("pipeline", "--workdir", str(workdir), "--stats", str(stats)) == 0
    capsys.readouterr()
    assert digests(workdir) == seed42_digests()
    rows = _alpha_curve_file(stats)
    assert len(rows) == 3 * len(ALPHA_GRID)
    assert all(
        list(row) == ["activity", "alpha", "lo", "hi", "train_accuracy", "test_accuracy"]
        for row in rows
    )


def test_pipeline_stats_row_at_each_model_alpha_is_that_model(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"ti_multiplier": 5}), encoding="utf-8")
    workdir, stats = tmp_path / "run", tmp_path / "stats.json"
    argv = ["--config", str(config), "--workdir", str(workdir), "--stats", str(stats)]
    assert run_cli("pipeline", *argv) == 0
    rows = _alpha_curve_file(stats)
    models = models_from_json((workdir / "models.json").read_text(encoding="utf-8"))
    assert len(models) == 3
    report = json.loads((workdir / "report.json").read_text(encoding="utf-8"))
    accuracy = {entry["activity"]: entry["accuracy"] for entry in report["activities"]}
    for model in models:
        (row,) = [r for r in rows if r["activity"] == model.activity and r["alpha"] == model.alpha]
        assert (row["lo"], row["hi"]) == (model.lo, model.hi)
        assert row["train_accuracy"] == model.training_accuracy
        # One routing rule: the curve groups the test set as the report does.
        assert row["test_accuracy"] == accuracy[model.activity]


def test_pipeline_stats_test_accuracy_is_classify_over_the_routed_test_set(tmp_path, capsys):
    workdir, stats = tmp_path / "run", tmp_path / "stats.json"
    argv = ["--workdir", str(workdir), "--instances-per-activity", "10", "--stats", str(stats)]
    assert run_cli("pipeline", *argv) == 0
    patterns = patterns_from_json((workdir / "patterns.json").read_text(encoding="utf-8"))
    test_set = instances_from_jsonl((workdir / "test_set.jsonl").read_text(encoding="utf-8"))
    pattern = patterns[0]
    group = [inst for inst, _ in evaluation.route(patterns, test_set)[pattern.name]]
    rows = [row for row in _alpha_curve_file(stats) if row["activity"] == pattern.name]
    assert len(rows) == len(ALPHA_GRID)
    assert len({row["test_accuracy"] for row in rows}) > 1
    for row in rows:
        model = ScoreModel(pattern.name, row["alpha"], row["lo"], row["hi"], row["train_accuracy"])
        report = evaluation.build_report([pattern], {pattern.name: model}, group)
        assert row["test_accuracy"] == report["overall"]["accuracy"]


def test_alpha_curve_skips_an_untrained_activity_and_has_no_accuracy_without_tests(
    small_run, tmp_path
):
    patterns = patterns_from_json((small_run / "patterns.json").read_text(encoding="utf-8"))
    (tmp_path / "patterns.json").write_text((small_run / "patterns.json").read_text())
    for name, keep in (("train_set.jsonl", 2), ("test_set.jsonl", 1)):
        labeled = instances_from_jsonl((small_run / name).read_text(encoding="utf-8"))
        groups = evaluation.route(patterns, labeled)
        kept = [inst for p in patterns[:keep] for inst, _ in groups[p.name]]
        (tmp_path / name).write_text(instances_to_jsonl(kept), encoding="utf-8")
    rows = alpha_curve(tmp_path)
    tested, untested = (p.name for p in patterns[:2])
    assert {row["activity"] for row in rows} == {tested, untested}
    for row in rows:
        assert (row["test_accuracy"] is None) == (row["activity"] == untested)


def _count_scores(monkeypatch) -> Counter:
    """Count score calls per instance through every module that scores."""
    calls = Counter()

    def counting_score(pattern, instance):
        calls[instance] += 1
        return scoring.score(pattern, instance)

    for module in (evaluation, training):
        monkeypatch.setattr(module, "score", counting_score)
    return calls


def test_alpha_curve_scores_each_instance_once_per_pattern(small_run, monkeypatch):
    patterns = patterns_from_json((small_run / "patterns.json").read_text(encoding="utf-8"))
    labeled = [
        instances_from_jsonl((small_run / name).read_text(encoding="utf-8"))
        for name in ("train_set.jsonl", "test_set.jsonl")
    ]
    calls = _count_scores(monkeypatch)
    assert alpha_curve(small_run)
    assert calls == Counter((labeled[0] + labeled[1]) * len(patterns))


def test_train_models_scores_each_instance_once_per_pattern(small_run, monkeypatch):
    patterns = patterns_from_json((small_run / "patterns.json").read_text(encoding="utf-8"))
    labeled = instances_from_jsonl((small_run / "train_set.jsonl").read_text(encoding="utf-8"))
    calls = _count_scores(monkeypatch)
    assert len(train_models(patterns, labeled)) == len(patterns)
    assert calls == Counter(labeled * len(patterns))


def test_select_pattern_routes_each_instance_and_segment_once(small_run, monkeypatch, capsys):
    patterns = patterns_from_json((small_run / "patterns.json").read_text(encoding="utf-8"))
    train_set, test_set = (
        instances_from_jsonl((small_run / name).read_text(encoding="utf-8"))
        for name in ("train_set.jsonl", "test_set.jsonl")
    )
    calls = Counter()
    select_pattern = evaluation.select_pattern

    def counting_select_pattern(patterns, instance):
        calls[instance] += 1
        return select_pattern(patterns, instance)

    monkeypatch.setattr(evaluation, "select_pattern", counting_select_pattern)
    models = train_models(patterns, train_set)
    assert calls == Counter(train_set)
    calls.clear()
    evaluation.build_report(patterns, {m.activity: m for m in models}, test_set)
    assert calls == Counter(test_set)
    calls.clear()
    log, pattern_file = small_run / "sim_log.csv", small_run / "patterns.json"
    assert run_cli("score", "--alpha", "1", "--log", str(log), "--pattern", str(pattern_file)) == 0
    segments = (small_run / "instances.jsonl").read_text(encoding="utf-8").count("\n")
    assert len(capsys.readouterr().out.splitlines()) == segments
    assert sorted(calls.values()) == [1] * segments


def test_pipeline_builds_each_key_sequence_once_in_mining_and_once_in_augment(
    tmp_path, monkeypatch
):
    calls = 0
    key_sequence = ActivityInstance.key_sequence

    def counting_key_sequence(self):
        nonlocal calls
        calls += 1
        return key_sequence(self)

    monkeypatch.setattr(ActivityInstance, "key_sequence", counting_key_sequence)
    run_pipeline(RunConfig(workdir=str(tmp_path / "run")))
    segments = (tmp_path / "run" / "instances.jsonl").read_text(encoding="utf-8").count("\n")
    # One per segment as mining groups it, one per pool member as augment_normals checks its pool.
    assert (segments, calls) == (150, 2 * segments)


def test_pipeline_with_an_empty_workdir_is_a_data_error_that_writes_nothing(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    assert run_cli("pipeline", "--workdir", "", "--instances-per-activity", "10") == 2
    assert capsys.readouterr().err == "error: workdir must be a non-empty path\n"
    assert list(tmp_path.iterdir()) == []


def test_pipeline_config_with_an_unknown_key_is_a_usage_error(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"bogus": 1}), encoding="utf-8")
    workdir, stats = tmp_path / "run", tmp_path / "stats.json"
    argv = ["--config", str(config), "--workdir", str(workdir), "--stats", str(stats)]
    assert run_cli("pipeline", *argv) == 1
    assert capsys.readouterr().err == "usage error: unknown config keys: bogus\n"
    assert not workdir.exists() and not stats.exists()


@pytest.mark.parametrize(
    "data, keys",
    [
        ({"alpha_step": 1}, "alpha_step"),
        ({"alpha_max": 2, "alpha_min": 0}, "alpha_max, alpha_min"),
    ],
)
def test_pipeline_config_with_an_alpha_grid_key_is_a_usage_error(tmp_path, capsys, data, keys):
    # The weight grid is training.ALPHA_GRID; no setting reshapes it.
    config = tmp_path / "config.json"
    config.write_text(json.dumps(data), encoding="utf-8")
    workdir = tmp_path / "run"
    assert run_cli("pipeline", "--config", str(config), "--workdir", str(workdir)) == 1
    assert capsys.readouterr().err == f"usage error: unknown config keys: {keys}\n"
    assert not workdir.exists()


@pytest.mark.parametrize("command, flag", [("pipeline", "--alpha-step"), ("train", "--alpha-max")])
def test_an_alpha_grid_flag_is_a_usage_error(tmp_path, capsys, command, flag):
    inputs = {
        "pipeline": ["--workdir", str(tmp_path / "run")],
        "train": ["--patterns=missing.json", "--train-set=missing.jsonl"],
    }[command]
    assert run_cli(command, *inputs, flag, "2", "--out", str(tmp_path / "out.json")) == 1
    assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag, other", [("--out", "--stats"), ("--stats", "--out")])
@pytest.mark.parametrize("target", [*PIPELINE_FILES, "config", "other output"])
def test_pipeline_output_onto_a_file_of_the_run_is_a_usage_error(
    tmp_path, capsys, flag, other, target
):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"instances_per_activity": 10}), encoding="utf-8")
    workdir, other_path = tmp_path / "run", tmp_path / "other.json"
    path = {"config": config, "other output": other_path}.get(target, workdir / target)
    argv = ["--config", str(config), "--workdir", str(workdir), other, str(other_path)]
    assert run_cli("pipeline", *argv, flag, str(path)) == 1
    captured = capsys.readouterr()
    message = f"usage error: output path {str(path)!r} would overwrite a file this run reads"
    assert captured.err.startswith(message)
    assert captured.out == ""
    assert not workdir.exists() and not other_path.exists()


@pytest.mark.parametrize("flag", ["--out", "--stats"])
def test_pipeline_output_onto_a_trained_model_file_keeps_the_models(
    small_run, tmp_path, capsys, flag
):
    workdir = tmp_path / "run"
    workdir.mkdir()
    models = workdir / MODELS
    models.write_bytes((small_run / MODELS).read_bytes())
    argv = ["--workdir", str(workdir), "--instances-per-activity", "10", flag, str(models)]
    assert run_cli("pipeline", *argv) == 1
    assert "would overwrite" in capsys.readouterr().err
    assert models.read_bytes() == (small_run / MODELS).read_bytes()
    assert list(workdir.iterdir()) == [models]


def test_pipeline_stats_into_a_missing_directory_is_a_usage_error(tmp_path, capsys):
    workdir, stats = tmp_path / "run", tmp_path / "nodir" / "stats.json"
    assert run_cli("pipeline", "--workdir", str(workdir), "--stats", str(stats)) == 1
    captured = capsys.readouterr()
    message = f"usage error: output path {str(stats)!r} is in a directory that does not exist\n"
    assert captured.err == message
    assert captured.out == ""
    assert not workdir.exists()


@pytest.mark.parametrize("flag", ["--out", "--stats"])
@pytest.mark.parametrize("target", ["existing directory", "workdir"])
def test_pipeline_output_onto_a_directory_is_a_usage_error(tmp_path, capsys, flag, target):
    workdir = tmp_path / "run"
    path = tmp_path if target == "existing directory" else workdir
    argv = ["--workdir", str(workdir), "--instances-per-activity", "10"]
    assert run_cli("pipeline", *argv, flag, str(path)) == 1
    captured = capsys.readouterr()
    assert captured.err == f"usage error: output path {str(path)!r} is a directory\n"
    assert captured.out == ""
    assert not workdir.exists()


def test_pipeline_output_may_go_into_the_workdir_it_creates(tmp_path, capsys):
    workdir = tmp_path / "new" / "run"
    stats, out = workdir / "stats.json", tmp_path / "new" / "report.json"
    argv = ["--workdir", str(workdir), "--instances-per-activity", "10"]
    assert run_cli("pipeline", *argv, "--stats", str(stats), "--out", str(out)) == 0
    capsys.readouterr()
    assert out.read_text() == (workdir / "report.json").read_text()
    assert "alpha_curve" in json.loads(stats.read_text())


def test_standalone_stages_reproduce_pipeline_artifacts(tmp_path, capsys):
    workdir = tmp_path / "run"
    run_cli("pipeline", "--workdir", str(workdir))
    capsys.readouterr()
    models_rerun = tmp_path / "models_rerun.json"
    assert (
        run_cli(
            "train",
            "--patterns",
            str(workdir / "patterns.json"),
            "--train-set",
            str(workdir / "train_set.jsonl"),
            "--out",
            str(models_rerun),
        )
        == 0
    )
    assert models_rerun.read_text() == (workdir / "models.json").read_text()
    report_rerun = tmp_path / "report_rerun.json"
    assert (
        run_cli(
            "evaluate",
            "--models",
            str(workdir / "models.json"),
            "--patterns",
            str(workdir / "patterns.json"),
            "--test-set",
            str(workdir / "test_set.jsonl"),
            "--out",
            str(report_rerun),
        )
        == 0
    )
    assert report_rerun.read_text() == (workdir / "report.json").read_text()
    assert capsys.readouterr().out == (workdir / "report.txt").read_text()


def test_detect_reports_one_verdict_per_segment(tmp_path, capsys):
    workdir = tmp_path / "run"
    run_cli("pipeline", "--workdir", str(workdir), "--instances", "10")
    capsys.readouterr()
    code = run_cli(
        "detect",
        "--models",
        str(workdir / "models.json"),
        "--patterns",
        str(workdir / "patterns.json"),
        "--log",
        str(workdir / "sim_log.csv"),
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 30
    assert all(line.split("\t")[2] in ("normal", "anomaly") for line in lines)


@pytest.fixture(scope="module")
def no_segments(tmp_path_factory):
    """Patterns, models and a log that detect loads and that hold no segment."""
    folder = tmp_path_factory.mktemp("empty")
    (folder / "patterns.json").write_text(patterns_to_json([make_pattern("A")]))
    (folder / "models.json").write_text(models_to_json([ScoreModel("A", 1.0, 0.0, 1.0, 1.0)]))
    (folder / "log.csv").write_text("timestamp,device,attribute,value\n")
    return folder


# Quotes, backslashes, control characters, non-ASCII and U+2028, and any other character.
_AWKWARD = st.text(
    st.one_of(st.sampled_from('"\\\t\n\r\x00\x1f\x7f\x85\u2028\u2029é漢😀'), st.characters()),
    max_size=6,
)


@given(
    activities=st.lists(_AWKWARD, min_size=1, max_size=3),
    verdicts=st.lists(
        st.tuples(
            _AWKWARD,
            st.integers(min_value=0, max_value=2),
            st.one_of(st.sampled_from(["normal", "anomaly"]), _AWKWARD),
            st.floats(allow_nan=False, allow_infinity=False),
        ),
        max_size=8,
    ),
)
def test_detect_lines_equal_json_dumps_and_a_tab_joined_print(no_segments, activities, verdicts):
    judged = [
        (
            make_instance("A", source_id=source_id),
            make_pattern("A", name=activities[k % len(activities)]),
            evaluation.Verdict(classification, total, ScoreBreakdown(1.0, 1.0, ((0, 0),))),
        )
        for source_id, k, classification, total in verdicts
    ]
    expected_out, expected_lines = io.StringIO(), []
    for inst, pattern, verdict in judged:
        record = {
            "source_id": inst.source_id,
            "activity": pattern.name,
            "classification": verdict.classification,
            "total": verdict.total,
        }
        expected_lines.append(json.dumps(record) + "\n")
        print(*record.values(), sep="\t", file=expected_out)
    out = no_segments / "verdicts.jsonl"
    argv = ["detect", "--log", str(no_segments / "log.csv"), "--out", str(out)]
    argv += ["--models", str(no_segments / "models.json")]
    argv += ["--patterns", str(no_segments / "patterns.json")]
    printed = io.StringIO()
    with mock.patch.object(evaluation, "judge", lambda *_: iter(judged)):
        with contextlib.redirect_stdout(printed):
            assert run(argv) == 0
    assert printed.getvalue() == expected_out.getvalue()
    assert out.read_bytes().decode("utf-8") == "".join(expected_lines)


def test_config_file_sets_values_and_flags_override(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"instances_per_activity": 8, "seed": 5}))
    workdir = tmp_path / "run"
    code = run_cli(
        "pipeline",
        "--config",
        str(config),
        "--workdir",
        str(workdir),
        "--instances",
        "10",
    )
    assert code == 0
    instances = instances_from_jsonl((workdir / "instances.jsonl").read_text())
    assert len(instances) == 30  # flag wins over the config file's 8


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"not_a_knob": 1}))
    assert run_cli("pipeline", "--config", str(config)) == 1
    assert "not_a_knob" in capsys.readouterr().err


@pytest.mark.parametrize(
    "data",
    [
        {"seed": "42"},
        {"seed": True},
        {"seed": 4.5},
        {"noise_sigma": False},
        {"gap_seconds": "120"},
        {"workdir": 7},
        {"min_support": None},
        {"gap_seconds": HUGE},
        {"ti_multiplier": HUGE},
    ],
)
def test_config_file_value_of_the_wrong_type_is_a_data_error(tmp_path, capsys, data):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(data))
    workdir = tmp_path / "run"
    assert run_cli("pipeline", "--config", str(config), "--workdir", str(workdir)) == 2
    err = capsys.readouterr().err
    assert repr(next(iter(data))) in err
    assert "Traceback" not in err
    assert not workdir.exists()


def test_config_file_float_fields_accept_integers(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"gap_seconds": 300, "seed": 7, "workdir": "w"}))
    cfg = RunConfig.from_sources(str(config), {})
    assert (cfg.gap_seconds, cfg.seed, cfg.workdir) == (300, 7, "w")


def test_config_file_integer_for_a_float_setting_runs_as_its_flag_does(tmp_path, capsys):
    # The error prints the multiplier the run holds: 12000000000.0 only if the file's
    # integer was read as a float.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"ti_multiplier": 12_000_000_000}))
    runs = {"file": ["--config", str(config)], "flag": ["--ti-multiplier", "1.2e10"]}
    errors = []
    for name, argv in runs.items():
        assert run_cli("pipeline", *argv, "--workdir", str(tmp_path / name)) == 2
        errors.append(capsys.readouterr().err)
        assert not (tmp_path / name).exists()
    assert errors[0] == errors[1]
    assert "ti_multiplier 12000000000.0 stretches a" in errors[0]


def test_config_file_value_that_a_flag_replaces_is_not_checked_alone(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"gap_seconds": 0, "instances_per_activity": 10}))
    argv = ["--config", str(config), "--gap-seconds", "120", "--workdir", str(tmp_path / "run")]
    assert run_cli("pipeline", *argv) == 0


@pytest.mark.parametrize(
    "flags, message",
    [
        ("--gap-seconds=0", "gap_seconds must be over 0.0005, a gap of 1 ms or more"),
        ("--noise-sigma=-1", "noise_sigma must be >= 0"),
        ("--train-normal=-5", "train_normal must be >= 0"),
        ("--test-anomaly=-3", "test_anomaly must be >= 0"),
        ("--ti-multiplier=1", "ti_multiplier must be > 1"),
        ("--train-normal=0 --train-anomaly=0",
         "train_normal + train_anomaly must be >= 1, or no model can be trained"),
        ("--test-normal=0 --test-anomaly=0",
         "test_normal + test_anomaly must be >= 1, or nothing is evaluated"),
        ("--gap-seconds=1e12",
         "gap_seconds (1000000000000.0) spaces runs 5000000000000000 ms apart, which puts the "
         "last event at 745001633050006363 ms, after 9999-12-31T23:59:59.999Z (253402300799999 ms)"),
        ("--ti-multiplier=1.2e10",
         "instance 'seg-0069': ti_multiplier 12000000000.0 stretches a 23939 ms interval past "
         "253402300799999 ms"),
    ],
    ids=[
        "gap_seconds=0", "noise_sigma=-1", "train_normal=-5", "test_anomaly=-3",
        "ti_multiplier=1",
        "train_normal=0,train_anomaly=0", "test_normal=0,test_anomaly=0", "gap_seconds=1e12",
        "ti_multiplier=1.2e10",
    ],
)
def test_pipeline_checks_its_settings_before_writing_anything(tmp_path, capsys, flags, message):
    workdir = tmp_path / "run"
    assert run_cli("pipeline", *flags.split(), "--workdir", str(workdir)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not workdir.exists()


def test_pipeline_spaces_instances_past_its_own_segmentation_gap(tmp_path):
    # Runs are a fixed number of segmentation gaps apart, so at any gap that keeps each run
    # whole, the segments and every result are the default run's; only timestamps move.
    seed42 = seed42_digests()
    for gap in ("700", "60", "30"):
        workdir = tmp_path / gap
        assert run_cli("pipeline", "--gap-seconds", gap, "--workdir", str(workdir)) == 0, gap
        written = digests(workdir)
        for name in (PATTERNS, MODELS, "report.json"):
            assert written[name] == seed42[name], (gap, name)


def test_train_models_logs_a_pattern_without_training_instances(caplog):
    patterns = [make_pattern("AB", [1000], name="ab"), make_pattern("XY", [1000], name="xy")]
    labeled = [make_instance("AB", [1000], label=LABEL_NORMAL) for _ in range(3)]
    labeled.append(make_instance("A", [], label=LABEL_ANOMALY_SEQ))
    with caplog.at_level(logging.WARNING, logger="tempoguard.cli"):
        models = train_models(patterns, labeled)
    assert [m.activity for m in models] == ["ab"]
    assert "no training instances routed to 'xy'" in caplog.text


def test_run_config_merges_defaults_and_overrides():
    cfg = RunConfig.from_sources(None, {"seed": 9, "workdir": None})
    assert cfg.seed == 9
    assert cfg.workdir == "tempoguard_run"


def test_run_pipeline_returns_the_report_dict(tmp_path):
    cfg = RunConfig(instances_per_activity=10, workdir=str(tmp_path / "w"))
    report = run_pipeline(cfg)
    assert {entry["activity"] for entry in report["activities"]} == {
        "Come back home",
        "Use toilet",
        "Go to work",
    }


def _changed_settings() -> tuple[RunConfig, list[str]]:
    """A RunConfig with every field off its default, and the flags that set it."""
    changed = {}
    for name, default in RunConfig._field_defaults.items():
        changed[name] = default + "-x" if isinstance(default, str) else default + 1
    flags = []
    for name, value in changed.items():
        flags += ["--" + name.replace("_", "-"), str(value)]
    return RunConfig(**changed), flags


def test_every_run_config_field_has_a_pipeline_flag():
    expected, flags = _changed_settings()
    args = build_parser().parse_args(["pipeline", *flags])
    assert RunConfig.from_sources(args.config, vars(args)) == expected


def test_help_shows_each_setting_default(capsys):
    assert run_cli("mine", "--help") == 0
    assert "(default: 5)" in capsys.readouterr().out


def test_flag_for_a_config_file_only_field_overrides_the_config_file(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"instances_per_activity": 10, "train_normal": 20}))
    workdir = tmp_path / "run"
    argv = ["pipeline", "--config", str(config), "--workdir", str(workdir), "--train-normal", "30"]
    assert run_cli(*argv) == 0
    train_set = instances_from_jsonl((workdir / "train_set.jsonl").read_text())
    assert len(train_set) == 3 * (30 + 10 + 10)  # per activity: normals, seq and ti anomalies


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("run")
    assert run(["pipeline", "--workdir", str(workdir), "--instances-per-activity", "10"]) == 0
    return workdir


def _put(data, value, *path):
    target = data
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value
    return data


MODELS, PATTERNS = "models.json", "patterns.json"


@pytest.mark.parametrize(
    "artifact, edit, message",
    [
        (MODELS, lambda m: [1], "model 1: the entry must be an object, not 1"),
        (MODELS, lambda m: "str", 'a model file must be an array, not "str"'),
        (MODELS, lambda m: [{"x": 1}], "model 1: 'activity' must be a string, not null"),
        (MODELS, lambda m: m[0], 'a model file must be an array, not {"activity": '),
        (MODELS, lambda m: [{"activity": "a"}], "model 1: 'alpha' must be a number, not null"),
        (MODELS, lambda m: _put(m, "3", 1, "alpha"), "model 2: 'alpha' must be a number, not \"3\""),
        (MODELS, lambda m: _put(m, True, 1, "alpha"), "model 2: 'alpha' must be a number, not true"),
        (MODELS, lambda m: _put(m, 7, 2, "activity"), "model 3: 'activity' must be a string, not 7"),
        (PATTERNS, lambda p: [1], "pattern 1: the entry must be an object, not 1"),
        (PATTERNS, lambda p: [{"name": "x"}], "pattern 1: 'keys' must be an array, not null"),
        (PATTERNS, lambda p: p[0], 'a pattern file must be an array, not {"name": '),
        (
            PATTERNS,
            lambda p: _put(p, 1, 0, "keys", 0, "device"),
            "pattern 1: 'device' must be a string, not 1",
        ),
        (
            PATTERNS,
            lambda p: _put(p, [5], 0, "keys"),
            "pattern 1: each of 'keys' must be an object, not 5",
        ),
        (
            PATTERNS,
            lambda p: _put(p, 5.0, 1, "support"),
            "pattern 2: 'support' must be an integer, not 5.0",
        ),
        (
            PATTERNS,
            lambda p: _put(p, True, 2, "mean_intervals_ms", 0),
            "pattern 3: each of 'mean_intervals_ms' must be a number, not true",
        ),
        (
            MODELS,
            lambda m: _put(m, HUGE, 1, "alpha"),
            "model 2: 'alpha' must be a number that fits in a float, not 1000",
        ),
        (
            PATTERNS,
            lambda p: _put(p, HUGE, 0, "mean_intervals_ms", 1),
            "pattern 1: each of 'mean_intervals_ms' must be a number that fits in a float, not 10",
        ),
    ],
    ids=[
        "model-entry-not-object",
        "model-file-not-array",
        "model-activity-missing",
        "model-file-lone-object",
        "model-alpha-missing",
        "model-alpha-string",
        "model-alpha-bool",
        "model-activity-int",
        "pattern-entry-not-object",
        "pattern-keys-missing",
        "pattern-file-lone-object",
        "pattern-device-int",
        "pattern-key-not-object",
        "pattern-support-float",
        "pattern-interval-bool",
        "model-alpha-too-large",
        "pattern-interval-too-large",
    ],
)
def test_wrongly_typed_model_or_pattern_file_is_a_data_error(
    small_run, tmp_path, capsys, artifact, edit, message
):
    bad = tmp_path / artifact
    bad.write_text(json.dumps(edit(json.loads((small_run / artifact).read_text()))))
    files = {name: str(bad if name == artifact else small_run / name) for name in (MODELS, PATTERNS)}
    argv = ["--models", files[MODELS], "--patterns", files[PATTERNS]]
    assert run_cli("detect", *argv, "--log", str(small_run / "sim_log.csv")) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "artifact, edit, message",
    [
        (MODELS, lambda m: _put(m, math.nan, 0, "lo"), "model 1: lo must be a finite number"),
        (
            MODELS,
            lambda m: _put(m, math.inf, 1, "alpha"),
            "model 2: alpha must be a finite number",
        ),
        (
            PATTERNS,
            lambda p: _put(p, math.inf, 0, "mean_intervals_ms", 1),
            "pattern 1: mean_intervals_ms must be finite and non-negative",
        ),
    ],
    ids=["model-lo-nan", "model-alpha-infinity", "pattern-interval-infinity"],
)
def test_non_finite_number_in_a_model_or_pattern_file_is_a_data_error(
    small_run, tmp_path, capsys, artifact, edit, message
):
    bad = tmp_path / artifact
    bad.write_text(json.dumps(edit(json.loads((small_run / artifact).read_text()))))
    assert "NaN" in bad.read_text() or "Infinity" in bad.read_text()
    files = {name: str(bad if name == artifact else small_run / name) for name in (MODELS, PATTERNS)}
    argv = ["--models", files[MODELS], "--patterns", files[PATTERNS]]
    assert run_cli("detect", *argv, "--log", str(small_run / "sim_log.csv")) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_pattern_longer_than_any_log_is_a_data_error_not_a_nan_total(small_run, tmp_path, capsys):
    patterns = json.loads((small_run / PATTERNS).read_text())
    assert patterns[0]["name"] == "Come back home"
    patterns[0]["mean_intervals_ms"] = [1e308] * len(patterns[0]["mean_intervals_ms"])
    (tmp_path / PATTERNS).write_text(json.dumps(patterns))
    steps = patterns[0]["keys"][:2] + patterns[0]["keys"][3:]  # the third step is missing
    rows = [f"{1000 * n},{k['device']},{k['attribute']},{k['state']}" for n, k in enumerate(steps)]
    log = tmp_path / "log.csv"
    log.write_text("\n".join(["timestamp,device,attribute,value", *rows]) + "\n")
    out = tmp_path / "verdicts.jsonl"
    argv = ["--models", str(small_run / MODELS), "--patterns", str(tmp_path / PATTERNS)]
    assert run_cli("detect", *argv, "--log", str(log), "--out", str(out)) == 2
    captured = capsys.readouterr()
    message = f"pattern 1: mean_intervals_ms must sum to at most {MAX_TIMESTAMP_MS} ms"
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("alpha", ["nan", "inf", "-0.1"])
def test_score_with_a_negative_or_non_finite_alpha_is_a_data_error(small_run, capsys, alpha):
    argv = ["--pattern", str(small_run / PATTERNS), "--log", str(small_run / "sim_log.csv")]
    assert run_cli("score", *argv, "--alpha", alpha) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: alpha must be a finite number >= 0, not {alpha}\n"
    assert captured.out == ""


def test_detect_with_no_model_for_a_routed_activity_is_a_data_error(small_run, tmp_path, capsys):
    models = json.loads((small_run / MODELS).read_text())
    missing = models.pop()["activity"]
    (tmp_path / MODELS).write_text(json.dumps(models))
    out = tmp_path / "verdicts.jsonl"
    argv = ["--models", str(tmp_path / MODELS), "--patterns", str(small_run / PATTERNS)]
    assert run_cli("detect", *argv, "--log", str(small_run / "sim_log.csv"), "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: no trained model for activity {missing!r}\n"
    assert not out.exists()


def test_detect_prints_each_verdict_as_it_is_made(small_run, tmp_path, capsys):
    argv = ["--patterns", str(small_run / PATTERNS), "--log", str(small_run / "sim_log.csv")]
    assert run_cli("detect", "--models", str(small_run / MODELS), *argv) == 0
    verdicts = capsys.readouterr().out.splitlines(keepends=True)
    # The activity seen last for the first time: segments before it route elsewhere.
    first_seen = {}
    for n, line in enumerate(verdicts):
        first_seen.setdefault(line.split("\t")[1], n)
    missing, stop = max(first_seen.items(), key=lambda item: item[1])
    assert stop > 0
    models = [m for m in json.loads((small_run / MODELS).read_text()) if m["activity"] != missing]
    (tmp_path / MODELS).write_text(json.dumps(models))
    out = tmp_path / "verdicts.jsonl"
    assert run_cli("detect", "--models", str(tmp_path / MODELS), *argv, "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.out == "".join(verdicts[:stop])
    assert captured.err == f"error: no trained model for activity {missing!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["detect", "evaluate"])
def test_output_into_a_missing_directory_is_a_usage_error_before_any_verdict(
    small_run, tmp_path, capsys, command
):
    out = tmp_path / "nodir" / "out.json"
    argv = _judge_argv(command, small_run, small_run / MODELS, small_run / PATTERNS)
    assert run_cli(*argv, "--out", str(out)) == 1
    captured = capsys.readouterr()
    message = f"usage error: output path {str(out)!r} is in a directory that does not exist\n"
    assert captured.err == message
    assert captured.out == ""


def test_detect_output_onto_a_directory_is_a_usage_error_before_any_verdict(
    small_run, tmp_path, capsys
):
    argv = _judge_argv("detect", small_run, small_run / MODELS, small_run / PATTERNS)
    assert run_cli(*argv, "--out", str(tmp_path)) == 1
    captured = capsys.readouterr()
    assert captured.err == f"usage error: output path {str(tmp_path)!r} is a directory\n"
    assert captured.out == ""


def test_evaluate_with_an_unlabeled_test_instance_is_a_data_error_naming_it(
    small_run, tmp_path, capsys
):
    test_set = instances_from_jsonl((small_run / "test_set.jsonl").read_text())
    test_set[5] = test_set[5]._replace(label="unlabeled")
    (tmp_path / "test_set.jsonl").write_text(instances_to_jsonl(test_set))
    argv = ["--models", str(small_run / MODELS), "--patterns", str(small_run / PATTERNS)]
    assert run_cli("evaluate", *argv, "--test-set", str(tmp_path / "test_set.jsonl")) == 2
    captured = capsys.readouterr()
    assert f"unlabeled instance {test_set[5].source_id!r}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command, flag", [("train", "--train-set"), ("evaluate", "--test-set")])
def test_train_and_evaluate_name_the_first_unlabeled_instance_in_the_file(
    small_run, tmp_path, capsys, command, flag
):
    patterns = patterns_from_json((small_run / PATTERNS).read_text())
    labeled = instances_from_jsonl((small_run / "test_set.jsonl").read_text())
    late, early = (
        next(i for i in labeled if i.key_sequence() == p.keys) for p in (patterns[-1], patterns[0])
    )
    # The first unlabeled instance in the file routes to a later activity than the second.
    unlabeled = [late._replace(label="unlabeled"), *labeled, early._replace(label="unlabeled")]
    (tmp_path / "set.jsonl").write_text(instances_to_jsonl(unlabeled))
    argv = ["--patterns", str(small_run / PATTERNS), flag, str(tmp_path / "set.jsonl")]
    if command == "evaluate":
        argv += ["--models", str(small_run / MODELS)]
    assert run_cli(command, *argv) == 2
    what = {"train": "training", "evaluate": "evaluation"}[command]
    captured = capsys.readouterr()
    assert captured.err == f"error: unlabeled instance {late.source_id!r} in {what} set\n"
    assert captured.out == ""


def test_evaluate_on_an_empty_test_set_is_a_data_error(small_run, tmp_path, capsys):
    empty, out = tmp_path / "empty.jsonl", tmp_path / "report.json"
    empty.write_text("")
    argv = ["--models", str(small_run / MODELS), "--patterns", str(small_run / PATTERNS)]
    assert run_cli("evaluate", *argv, "--test-set", str(empty), "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: evaluation set is empty\n"
    assert captured.out == ""
    assert not out.exists()


def test_train_on_an_empty_train_set_is_a_data_error(small_run, tmp_path, capsys):
    empty, out = tmp_path / "empty.jsonl", tmp_path / MODELS
    empty.write_text("")
    argv = ["--patterns", str(small_run / PATTERNS), "--train-set", str(empty), "--out", str(out)]
    assert run_cli("train", *argv) == 2
    assert capsys.readouterr().err == "error: training set is empty\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "score", "detect", "evaluate"])
def test_an_empty_pattern_file_is_a_data_error_before_any_other_file_is_read(
    small_run, tmp_path, capsys, command
):
    empty, missing = tmp_path / "patterns.json", str(tmp_path / "missing")
    empty.write_text("[]")
    argv = {
        "train": ["--train-set", missing],
        "score": ["--log", missing, "--alpha", "1"],
        "detect": ["--log", missing, "--models", str(small_run / MODELS)],
        "evaluate": ["--test-set", missing, "--models", str(small_run / MODELS)],
    }[command]
    assert run_cli(command, "--patterns", str(empty), *argv) == 2
    assert capsys.readouterr().err == "error: a pattern file must hold at least one pattern\n"


@pytest.mark.parametrize("command", ["detect", "evaluate"])
def test_an_empty_model_file_is_a_data_error_before_the_log_or_test_set_is_read(
    small_run, tmp_path, capsys, command
):
    empty, missing = tmp_path / MODELS, str(tmp_path / "missing")
    empty.write_text("[]")
    data = {"detect": "--log", "evaluate": "--test-set"}[command]
    argv = ["--models", str(empty), "--patterns", str(small_run / PATTERNS), data, missing]
    assert run_cli(command, *argv) == 2
    assert capsys.readouterr().err == "error: a model file must hold at least one model\n"


def _judge_argv(command: str, run_dir, models, patterns) -> list[str]:
    data = ["--log", str(run_dir / "sim_log.csv")]
    if command == "evaluate":
        data = ["--test-set", str(run_dir / "test_set.jsonl")]
    return [command, "--models", str(models), "--patterns", str(patterns), *data]


@pytest.mark.parametrize("command", ["detect", "evaluate"])
def test_patterns_file_repeating_a_name_is_a_data_error(small_run, tmp_path, capsys, command):
    patterns = json.loads((small_run / PATTERNS).read_text())
    patterns[1]["name"] = patterns[0]["name"]
    (tmp_path / PATTERNS).write_text(json.dumps(patterns))
    assert run_cli(*_judge_argv(command, small_run, small_run / MODELS, tmp_path / PATTERNS)) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: pattern 2: duplicate name {patterns[0]['name']!r}\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["detect", "evaluate"])
def test_models_file_repeating_an_activity_is_a_data_error(small_run, tmp_path, capsys, command):
    models = json.loads((small_run / MODELS).read_text())
    models.append({**models[0], "lo": 0.0, "hi": 0.0})
    (tmp_path / MODELS).write_text(json.dumps(models))
    assert run_cli(*_judge_argv(command, small_run, tmp_path / MODELS, small_run / PATTERNS)) == 2
    captured = capsys.readouterr()
    message = f"model {len(models)}: duplicate activity {models[0]['activity']!r}"
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "command, artifact",
    [("detect", PATTERNS), ("detect", MODELS), ("evaluate", PATTERNS), ("evaluate", MODELS),
     ("train", PATTERNS), ("score", PATTERNS)],
)  # fmt: skip
def test_byte_that_is_not_utf8_in_a_model_or_pattern_file_names_its_line_and_offset(
    small_run, tmp_path, capsys, command, artifact
):
    data = (small_run / artifact).read_bytes()
    (tmp_path / artifact).write_bytes(data + b"\xff")
    models, patterns = (tmp_path / a if a == artifact else small_run / a for a in (MODELS, PATTERNS))
    log, train_set = str(small_run / "sim_log.csv"), str(small_run / "train_set.jsonl")
    argv = {
        "train": ["train", "--patterns", str(patterns), "--train-set", train_set],
        "score": ["score", "--pattern", str(patterns), "--alpha", "1", "--log", log],
    }.get(command) or _judge_argv(command, small_run, models, patterns)
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    line = data.count(b"\n") + 1
    assert captured.err == f"error: line {line}: not UTF-8 (byte 0xff at offset {len(data)})\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, entry",
    [
        (["evaluate", "--models", "{bad}", "--patterns", "{run}/patterns.json",
          "--test-set", "{run}/test_set.jsonl"], "model 1"),
        (["train", "--patterns", "{bad}", "--train-set", "{run}/train_set.jsonl"], "pattern 1"),
    ],
    ids=["evaluate", "train"],
)
def test_wrongly_typed_artifact_is_a_data_error_for_evaluate_and_train(
    small_run, tmp_path, capsys, argv, entry
):
    bad = tmp_path / "bad.json"
    bad.write_text("[1]")
    assert run_cli(*(arg.format(run=small_run, bad=bad) for arg in argv)) == 2
    err = capsys.readouterr().err
    assert f"{entry}: the entry must be an object, not 1" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "name, text",
    [
        (
            "log.csv",
            "timestamp,device,attribute,value\n99999999999999999999,M1,motion,active\n",
        ),
        (
            "log.jsonl",
            '{"timestamp": 1000, "device": "M1", "attribute": "motion", "value": "on"}\n'
            '{"timestamp": 99999999999999999999, "device": "M1", "attribute": "m", "value": "on"}\n',
        ),
    ],
    ids=["csv", "jsonl"],
)
def test_epoch_milliseconds_past_year_9999_is_a_data_error_naming_its_line(
    tmp_path, capsys, name, text
):
    log = tmp_path / name
    log.write_text(text)
    assert run_cli("ingest", str(log)) == 2
    err = capsys.readouterr().err
    assert "line 2: timestamp '99999999999999999999' is after 9999-12-31T23:59:59.999Z" in err


_READING = '{"timestamp": "%s", "device": "T1", "attribute": "temperature", "value": 21.5}\n'


@pytest.mark.parametrize(
    "name, text, message",
    [
        (
            "log.csv",
            "timestamp,device,attribute,value\n1000,T1,temperature,21.5\n"
            "yesterday,T1,temperature,21.5\n",
            "line 3: unparseable timestamp 'yesterday'",
        ),
        (
            "log.csv",
            "timestamp,device,attribute,value\n1000,T1,temperature,21.5,x\n",
            "line 2: expected 4 non-empty columns, got ['1000', 'T1', 'temperature', '21.5', 'x']",
        ),
        (
            "log.jsonl",
            _READING % "1970-01-01T00:00:01Z" + _READING % "1969-12-31T23:59:59Z",
            "line 2: timestamp '1969-12-31T23:59:59Z' is before 1970-01-01T00:00:00Z",
        ),
        (
            "log.jsonl",
            _READING % "1970-01-01T00:00:01Z"
            + '{"timestamp": 2000, "device": ["T1"], "attribute": "t", "value": 21.5}\n',
            "line 2: 'device' must be a string, not [\"T1\"]",
        ),
    ],
    ids=["csv-time", "csv-columns", "jsonl-time", "jsonl-device"],
)
def test_a_bad_reading_is_a_data_error_naming_its_line(tmp_path, capsys, name, text, message):
    log = tmp_path / name
    log.write_text(text, encoding="utf-8")
    assert run_cli("ingest", str(log)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["split", "mine"])
def test_an_instance_of_readings_alone_with_an_unknown_label_is_a_data_error(
    tmp_path, capsys, command
):
    instances = tmp_path / "instances.jsonl"
    instances.write_text('{"label": "bogus", "events": [%s]}\n' % _READING.strip() % "1000")
    code = _split(instances) if command == "split" else run_cli("mine", str(instances))
    assert code == 2
    assert capsys.readouterr().err == "error: line 1: unknown label 'bogus'\n"
    assert _wrote_no_set(instances)


def test_train_writes_an_array_when_one_model_is_trained(small_run, tmp_path):
    one = tmp_path / "one_pattern.json"
    one.write_text(json.dumps(json.loads((small_run / PATTERNS).read_text())[:1]))
    out = tmp_path / MODELS
    argv = ["--patterns", str(one), "--train-set", str(small_run / "train_set.jsonl")]
    assert run_cli("train", *argv, "--out", str(out)) == 0
    data = json.loads(out.read_text())
    assert isinstance(data, list) and len(data) == 1


@pytest.mark.parametrize(
    "fields, message",
    [
        ('"device": null, "attribute": "a", "value": "on"', "'device' must be a string, not null"),
        ('"device": "M2", "attribute": 1, "value": "on"', "'attribute' must be a string, not 1"),
        ('"device": "M2", "attribute": "a"', "'value' must be a string or a number, not null"),
        ('"device": "M2", "attribute": "a", "value": true', "'value' must be a string or a number"),
    ],
    ids=["device-null", "attribute-int", "value-missing", "value-bool"],
)
def test_wrongly_typed_jsonl_log_field_is_a_data_error_naming_its_line(
    tmp_path, capsys, fields, message
):
    log = tmp_path / "log.jsonl"
    good = '{"timestamp": 1000, "device": "M1", "attribute": "motion", "value": "on"}'
    log.write_text(good + "\n" + '{"timestamp": 2000, ' + fields + "}\n")
    assert run_cli("ingest", str(log)) == 2
    err = capsys.readouterr().err
    assert f"line 2: {message}" in err
    assert "Traceback" not in err


def test_mining_no_pattern_is_a_data_error(tmp_path, capsys):
    log = tmp_path / "log.csv"
    log.write_text("timestamp,device,attribute,value\n1000,M1,motion,active\n2000,L1,switch,on\n")
    inst = tmp_path / "instances.jsonl"
    assert run_cli("ingest", str(log), "--out", str(inst)) == 0
    capsys.readouterr()
    assert run_cli("mine", str(inst)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "no pattern mined (segments: 1, distinct key sequences: 1)" in err
    assert _split(inst) == 2
    assert capsys.readouterr() == ("", err)
    assert _wrote_no_set(inst)
    workdir = tmp_path / "run"
    assert run_cli("pipeline", "--workdir", str(workdir), "--min-support", "1000") == 2
    assert "no pattern mined (segments: 150, distinct key sequences: 3)" in capsys.readouterr().err


def test_no_pattern_error_counts_the_key_sequences_left_once_numeric_events_are_dropped(
    tmp_path, capsys
):
    # Three bursts, each with its own temperature: 3 raw key sequences, 1 once readings go.
    rows = [
        f"{start},A,contact,open\n{start + 1000},T1,temperature,{reading}\n"
        f"{start + 2000},B,switch,on\n"
        for start, reading in zip((3_600_000, 7_200_000, 10_800_000), ("21", "21.5", "22"))
    ]
    log = tmp_path / "log.csv"
    log.write_text("timestamp,device,attribute,value\n" + "".join(rows), encoding="utf-8")
    inst = tmp_path / "instances.jsonl"
    assert run_cli("ingest", str(log), "--out", str(inst)) == 0
    assert len(instances_from_jsonl(inst.read_text(encoding="utf-8"))) == 3
    capsys.readouterr()
    assert run_cli("mine", str(inst), "--min-support", "5") == 2
    assert "no pattern mined (segments: 3, distinct key sequences: 1)" in capsys.readouterr().err


@pytest.mark.parametrize("token", ["１０００", "²"])
def test_timestamp_of_non_ascii_digits_is_a_data_error_naming_its_line(tmp_path, capsys, token):
    log = tmp_path / "log.csv"
    log.write_text(f"timestamp,device,attribute,value\n{token},M1,motion,active\n", "utf-8")
    assert run_cli("ingest", str(log)) == 2
    assert capsys.readouterr().err == f"error: line 2: unparseable timestamp {token!r}\n"


def test_error_quoting_a_huge_json_value_stays_short(tmp_path, capsys):
    log = tmp_path / "log.jsonl"
    device = json.dumps(["M1"] * 200_000)
    log.write_text('{"timestamp": 1000, "device": %s, "attribute": "m", "value": "on"}\n' % device)
    assert run_cli("ingest", str(log)) == 2
    err = capsys.readouterr().err
    assert len(err.encode("utf-8")) < 1024
    assert err.startswith("error: line 1: 'device' must be a string, not [")
    assert err.endswith("…\n")


def test_iso_time_past_year_9999_is_a_data_error_naming_its_line(tmp_path, capsys):
    log = tmp_path / "log.csv"
    log.write_text(
        "timestamp,device,attribute,value\n"
        "9999-12-31T23:30:00-01:30,M1,motion,active\n"
        "9999-12-31T23:30:05-01:30,M2,motion,active\n"
    )
    assert run_cli("ingest", str(log)) == 2
    err = capsys.readouterr().err
    assert "line 2: timestamp '9999-12-31T23:30:00-01:30' is after 9999-12-31T23:59:59.999Z" in err


def test_writing_a_time_past_year_9999_is_a_data_error_naming_the_instance(tmp_path, capsys):
    late = tmp_path / "late.jsonl"
    late.write_text(
        '{"source_id": "late-1", "label": "normal", "events": ['
        '{"timestamp": "9999-12-31T23:59:40Z", "device": "M1", "attribute": "motion", "value": "on"}, '
        '{"timestamp": "9999-12-31T23:59:50Z", "device": "L1", "attribute": "switch", "value": "on"}'
        "]}\n"
    )
    # One normal and one anomaly of each kind: the stretched one ends past year 9999.
    sizes = ["--train-normal", "1", "--test-normal", "0", "--train-anomaly", "0"]
    assert _split(late, "--min-support", "1", *sizes, "--test-anomaly", "1") == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert re.search(r"instance 'ti:late-1': timestamp \d+ ms is after 9999-12-31T23:59:59\.999Z", err)
    assert _wrote_no_set(late)


def test_a_midpoint_ending_past_year_9999_is_a_data_error_naming_it(tmp_path, capsys):
    # Same keys: "limit" ends at the last time a file can hold and "long" spans more, so a
    # midpoint that starts where "limit" starts ends past it.
    instances = [
        make_instance("AB", [1_000], t0=MAX_TIMESTAMP_MS - 1_000, source_id="limit"),
        make_instance("AB", [5_000], t0=1_000_000, source_id="long"),
    ]
    message = (
        f"instance 'smote:limit+long': timestamp {MAX_TIMESTAMP_MS + 2_000} ms is after "
        "9999-12-31T23:59:59.999Z"
    )
    with pytest.raises(ValueError) as raised:
        forge.smote_midpoint(*instances)
    assert str(raised.value) == message
    # Started where "long" starts, the midpoint ends well before year 9999.
    assert forge.smote_midpoint(*instances[::-1]).events[-1].timestamp_ms == 1_003_000
    inst = tmp_path / "instances.jsonl"
    inst.write_text(instances_to_jsonl(instances))
    assert _split(inst, "--min-support", "1") == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert _wrote_no_set(inst)


@pytest.mark.parametrize(
    "number, code, message",
    [
        ("1633093201000.0", 0, '"timestamp": "2021-10-01T13:00:01Z"'),
        ("NaN", 2, "line 2: timestamp 'NaN' is not a finite number"),
        ("-1.5", 2, "line 2: timestamp '-1.5' is before 1970-01-01T00:00:00Z"),
    ],
    ids=["fraction", "nan", "negative"],
)
def test_jsonl_number_timestamp_is_epoch_milliseconds(tmp_path, capsys, number, code, message):
    log = tmp_path / "log.jsonl"
    log.write_text(
        '{"timestamp": 1633093200000, "device": "M1", "attribute": "motion", "value": "on"}\n'
        f'{{"timestamp": {number}, "device": "L1", "attribute": "switch", "value": "on"}}\n'
    )
    assert run_cli("ingest", str(log)) == code
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    assert message in (err if code else out)


@pytest.mark.parametrize(
    "line, message",
    [
        ("[1, 2]", "line 1: an event must be an object, not [1, 2]"),
        (
            '{"device": "M1", "attribute": "motion", "value": "on"}',
            "line 1: timestamp must be a string or a number, not null",
        ),
    ],
    ids=["array", "timestamp-missing"],
)
def test_jsonl_line_of_the_wrong_shape_is_a_data_error(tmp_path, capsys, line, message):
    log = tmp_path / "log.jsonl"
    log.write_text(line + "\n")
    assert run_cli("ingest", str(log)) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def test_wrongly_typed_instance_file_is_a_data_error_naming_its_line(small_run, tmp_path, capsys):
    lines = (small_run / "test_set.jsonl").read_text().splitlines()
    bad = json.loads(lines[1])
    bad["source_id"] = 5
    test_set = tmp_path / "test_set.jsonl"
    test_set.write_text("\n".join([lines[0], json.dumps(bad), *lines[2:]]) + "\n")
    argv = ["--models", str(small_run / MODELS), "--patterns", str(small_run / PATTERNS)]
    assert run_cli("evaluate", *argv, "--test-set", str(test_set)) == 2
    err = capsys.readouterr().err
    assert "line 2: 'source_id' must be a string, not 5" in err
    assert "Traceback" not in err


def test_jsonl_integer_past_the_digit_limit_is_a_data_error_naming_its_line(tmp_path, capsys):
    log = tmp_path / "log.jsonl"
    log.write_text(
        '{"timestamp": 1000, "device": "M1", "attribute": "motion", "value": "on"}\n'
        '{"timestamp": %s, "device": "M1", "attribute": "motion", "value": "on"}\n' % ("9" * 5000)
    )
    assert run_cli("ingest", str(log)) == 2
    err = capsys.readouterr().err
    assert "error: line 2: invalid JSON (Exceeds the limit (4300 digits)" in err
    assert "Traceback" not in err


_DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize(
    "name, text, argv, message",
    [
        (
            "log.jsonl",
            '{"timestamp": 1000, "device": "M1", "attribute": "motion", "value": "on"}\n'
            + _DEEP + "\n",
            ["ingest", "{bad}"],
            "line 2: invalid JSON (maximum recursion depth exceeded",
        ),
        (
            MODELS,
            _DEEP,
            ["detect", "--models", "{bad}", "--patterns", "{run}/patterns.json",
             "--log", "{run}/sim_log.csv"],
            "model file: invalid JSON (maximum recursion depth exceeded",
        ),
        (
            "config.json",
            '{"seed": %s}' % _DEEP,
            ["pipeline", "--config", "{bad}", "--workdir", "{tmp}/run"],
            "config file: invalid JSON (maximum recursion depth exceeded",
        ),
    ],
    ids=["jsonl-log", "models", "config"],
)  # fmt: skip
def test_json_nested_too_deeply_is_a_data_error_not_a_traceback(
    small_run, tmp_path, capsys, name, text, argv, message
):
    bad = tmp_path / name
    bad.write_text(text)
    assert run_cli(*(arg.format(run=small_run, bad=bad, tmp=tmp_path) for arg in argv)) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def test_jsonl_log_device_holding_a_unicode_line_separator_is_one_line(tmp_path, capsys):
    events = [
        {"timestamp": 1000, "device": "Hall\u2028lamp", "attribute": "switch", "value": "on"},
        {"timestamp": 2000, "device": "M1", "attribute": "motion", "value": "active"},
    ]
    log = tmp_path / "log.jsonl"
    log.write_text("".join(json.dumps(e, ensure_ascii=False) + "\n" for e in events), "utf-8")
    out = tmp_path / "instances.jsonl"
    assert run_cli("ingest", str(log), "--out", str(out)) == 0
    (inst,) = instances_from_jsonl(out.read_text("utf-8"))
    assert [e.key.device for e in inst.events] == ["Hall\u2028lamp", "M1"]
