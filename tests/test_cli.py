from __future__ import annotations

import json
import logging
import math
import re
from dataclasses import fields, replace

import pytest

from conftest import make_instance, make_pattern
from test_sweep_alpha import _load_script
from tempoguard.cli import RunConfig, build_parser, run, run_pipeline, train_models
from tempoguard.events import LABEL_ANOMALY_SEQ, LABEL_NORMAL
from tempoguard.ingest import instances_from_jsonl, instances_to_jsonl
from tempoguard.simulate import builtin_specs
from tempoguard.training import models_from_json


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


def test_augment_writes_the_requested_count(tmp_path):
    inst = tmp_path / "instances.jsonl"
    out = tmp_path / "synthetic.jsonl"
    log = tmp_path / "log.csv"
    run_cli("simulate", "--instances", "4", "--out", str(log))
    run_cli("ingest", str(log), "--out", str(inst))
    pool = instances_from_jsonl(inst.read_text())
    one_activity = tmp_path / "one.jsonl"
    one_activity.write_text(instances_to_jsonl(pool[:4]))
    assert run_cli("augment", str(one_activity), "--count", "10", "--out", str(out)) == 0
    assert len(instances_from_jsonl(out.read_text())) == 10


def test_forge_alias_and_kinds(tmp_path):
    log = tmp_path / "log.csv"
    inst = tmp_path / "instances.jsonl"
    out = tmp_path / "anomalies.jsonl"
    run_cli("simulate", "--instances", "3", "--out", str(log))
    run_cli("ingest", str(log), "--out", str(inst))
    assert run_cli("forge", str(inst), "--kind", "seq", "--count", "5", "--out", str(out)) == 0
    seq = instances_from_jsonl(out.read_text())
    assert len(seq) == 5 and all(i.label == "anomaly_seq" for i in seq)
    assert (
        run_cli("forge-anomalies", str(inst), "--kind", "ti", "--count", "4", "--out", str(out))
        == 0
    )
    ti = instances_from_jsonl(out.read_text())
    assert len(ti) == 4 and all(i.label == "anomaly_ti" for i in ti)


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


def test_config_file_value_that_a_flag_replaces_is_not_checked_alone(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"alpha_min": 6, "instances_per_activity": 10}))
    argv = ["--config", str(config), "--alpha-max", "10", "--workdir", str(tmp_path / "run")]
    assert run_cli("pipeline", *argv) == 0


@pytest.mark.parametrize(
    "flag, message",
    [
        ("--gap-seconds=0", "gap_seconds must be over 0.0005, a gap of 1 ms or more"),
        ("--alpha-step=0", "alpha_step must be > 0"),
        ("--gap-seconds=700", "inter_instance_gap_ms (600000 ms) must exceed the segmentation "
         "gap, gap_seconds (700000 ms)"),
        ("--train-normal=-5", "train_normal must be >= 0"),
        ("--test-anomaly=-3", "test_anomaly must be >= 0"),
    ],
    ids=["gap_seconds=0", "alpha_step=0", "gap_seconds=700", "train_normal=-5", "test_anomaly=-3"],
)
def test_pipeline_checks_its_settings_before_writing_anything(tmp_path, capsys, flag, message):
    workdir = tmp_path / "run"
    assert run_cli("pipeline", flag, "--workdir", str(workdir)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not workdir.exists()


def test_pipeline_spaces_instances_past_its_own_segmentation_gap(tmp_path):
    argv = ["--gap-seconds=60", "--inter-instance-gap-ms=100000", "--instances=10"]
    assert run_cli("pipeline", *argv, "--workdir", str(tmp_path / "run")) == 0
    instances = instances_from_jsonl((tmp_path / "run" / "instances.jsonl").read_text())
    assert len(instances) == 30


def test_train_models_logs_a_pattern_without_training_instances(caplog):
    patterns = [make_pattern("AB", [1000], name="ab"), make_pattern("XY", [1000], name="xy")]
    labeled = [make_instance("AB", [1000], label=LABEL_NORMAL) for _ in range(3)]
    labeled.append(make_instance("A", [], label=LABEL_ANOMALY_SEQ))
    with caplog.at_level(logging.WARNING, logger="tempoguard.cli"):
        models = train_models(patterns, labeled, RunConfig())
    assert [m.activity for m in models] == ["ab"]
    assert "no training instances routed to 'xy'" in caplog.text


def test_run_config_merges_defaults_and_overrides():
    cfg = RunConfig.from_sources(None, {"seed": 9, "workdir": None})
    assert cfg.seed == 9
    assert cfg.workdir == "tempoguard_run"
    assert builtin_specs(cfg.noise_sigma) == builtin_specs()


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
    for f in fields(RunConfig):
        default = f.default
        changed[f.name] = default + "-x" if isinstance(default, str) else default + 1
    flags = []
    for name, value in changed.items():
        flags += ["--" + name.replace("_", "-"), str(value)]
    return RunConfig(**changed), flags


def test_every_run_config_field_has_a_pipeline_flag():
    expected, flags = _changed_settings()
    args = build_parser().parse_args(["pipeline", *flags])
    assert RunConfig.from_sources(args.config, vars(args)) == expected


class _Built(Exception):
    pass


def test_every_run_config_field_has_a_sweep_alpha_flag(tmp_path, monkeypatch):
    expected, flags = _changed_settings()
    expected = replace(expected, workdir=str(tmp_path / "run"))
    script = _load_script()
    built = []

    def capture(cfg):
        built.append(cfg)
        raise _Built

    monkeypatch.setattr(script, "run_pipeline", capture)
    with pytest.raises(_Built):
        script.main([*flags, "--workdir", expected.workdir])
    assert built == [expected]


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


@pytest.mark.parametrize("alpha", ["nan", "inf"])
def test_score_with_a_non_finite_alpha_is_a_data_error(small_run, capsys, alpha):
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
    workdir = tmp_path / "run"
    assert run_cli("pipeline", "--workdir", str(workdir), "--min-support", "1000") == 2
    assert "no pattern mined (segments: 150, distinct key sequences: 3)" in capsys.readouterr().err


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
    out = tmp_path / "ti.jsonl"
    assert run_cli("forge", str(late), "--kind", "ti", "--count", "1", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert re.search(r"instance 'ti:late-1': timestamp \d+ ms is after 9999-12-31T23:59:59\.999Z", err)
    assert not out.exists()


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
