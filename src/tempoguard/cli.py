"""Command-line front end: run any stage alone, or the whole pipeline.

Subcommands mirror the processing stages — simulate, ingest, mine, augment,
forge, train, score, detect, evaluate — plus `pipeline`, which chains them
and leaves every intermediate artifact in a working directory so any stage
can be re-run standalone with identical results.

Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import json
import logging
import random
import sys
from dataclasses import fields
from pathlib import Path

from tempoguard import evaluation, forge, ingest, mining, scoring, simulate, training
from tempoguard.config import CONFIG_TYPES, RunConfig, UsageError
from tempoguard.events import ActivityInstance, LABEL_NORMAL, with_label

logger = logging.getLogger(__name__)


def add_config_flags(parser: argparse.ArgumentParser, *names: str) -> None:
    """Add --<field-name> for each named RunConfig field (every field when none are named).

    Flags default to None, so only those given override the config file.
    """
    settings = {f.name: f for f in fields(RunConfig)}
    for name in names or settings:
        setting = settings[name]
        parser.add_argument(
            "--" + name.replace("_", "-"),
            type=CONFIG_TYPES[setting.type],
            metavar=setting.type.upper(),
            help=f"{setting.metadata.get('help', '')} (default: {setting.default})".lstrip(),
        )


def _read_text(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _write_or_print(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _guard_clobber(inputs: list[str | None], outputs: list[str | None]) -> None:
    taken = {Path(p).resolve() for p in inputs if p}
    for out in outputs:
        if out and Path(out).resolve() in taken:
            raise UsageError(f"output path {out!r} would overwrite an input")


def _load_log(path: str, fmt: str | None = None) -> list:
    text = _read_text(path)
    if fmt == "jsonl" or (fmt is None and path.endswith(".jsonl")):
        return ingest.parse_log_jsonl(text)
    return ingest.parse_log(text)


def _pick_sources(
    pool: list[ActivityInstance], count: int, rng: random.Random
) -> list[ActivityInstance]:
    """count distinct draws when the pool allows it, else with replacement."""
    if count <= len(pool):
        return rng.sample(pool, count)
    return [pool[rng.randrange(len(pool))] for _ in range(count)]


# ---------------------------------------------------------------- subcommands


def _cmd_simulate(args: argparse.Namespace, cfg: RunConfig) -> int:
    _guard_clobber([], [args.out])
    events = simulate.generate(simulate.builtin_specs(cfg.noise_sigma), cfg)
    _write_or_print(ingest.serialize_log(events, args.format), args.out)
    return 0


def _cmd_ingest(args: argparse.Namespace, cfg: RunConfig) -> int:
    _guard_clobber([args.log], [args.out])
    instances = ingest.segment(_load_log(args.log), cfg)
    _write_or_print(ingest.instances_to_jsonl(instances), args.out)
    return 0


def _mine(instances: list[ActivityInstance], cfg: RunConfig, names: dict | None = None) -> list:
    """mine_patterns at cfg's thresholds; mining no pattern at all is a data error."""
    patterns = mining.mine_patterns(instances, cfg, names)
    if not patterns:
        distinct = len({inst.key_sequence() for inst in instances})
        raise ValueError(
            f"no pattern mined (segments: {len(instances)}, distinct key sequences: "
            f"{distinct}); lower min_support or min_len, or add data"
        )
    return patterns


def _cmd_mine(args: argparse.Namespace, cfg: RunConfig) -> int:
    _guard_clobber([args.instances], [args.out])
    instances = ingest.instances_from_jsonl(_read_text(args.instances))
    _write_or_print(mining.patterns_to_json(_mine(instances, cfg)), args.out)
    return 0


def _cmd_augment(args: argparse.Namespace, cfg: RunConfig) -> int:
    _guard_clobber([args.instances], [args.out])
    pool = ingest.instances_from_jsonl(_read_text(args.instances))
    rng = random.Random(cfg.seed)
    synthetic = forge.augment_normals(pool, args.count, rng)
    _write_or_print(ingest.instances_to_jsonl(synthetic), args.out)
    return 0


def _cmd_forge(args: argparse.Namespace, cfg: RunConfig) -> int:
    _guard_clobber([args.instances], [args.out])
    pool = ingest.instances_from_jsonl(_read_text(args.instances))
    if not pool:
        raise ValueError(f"no instances in {args.instances}")
    rng = random.Random(cfg.seed)
    out: list[ActivityInstance] = []
    for src in _pick_sources(pool, args.count, rng):
        if args.kind == "seq":
            out.append(forge.make_anomaly_seq(src, rng))
        else:
            out.append(forge.make_anomaly_ti(src, cfg, rng))
    _write_or_print(ingest.instances_to_jsonl(out), args.out)
    return 0


def train_models(
    patterns: list, labeled: list[ActivityInstance], cfg: RunConfig
) -> list[training.ScoreModel]:
    """Route labeled instances to their best pattern and train each activity."""
    groups = evaluation.route(patterns, labeled)
    models = []
    for pattern in patterns:
        group = groups[pattern.name]
        if not group:
            logger.warning("no training instances routed to %r", pattern.name)
            continue
        models.append(training.train(pattern, group, cfg))
    return models


def _cmd_train(args: argparse.Namespace, cfg: RunConfig) -> int:
    _guard_clobber([args.patterns, args.train_set], [args.out])
    patterns = mining.patterns_from_json(_read_text(args.patterns))
    labeled = ingest.instances_from_jsonl(_read_text(args.train_set))
    models = train_models(patterns, labeled, cfg)
    if not models:
        raise ValueError("no models trained (no instances routed to any pattern)")
    _write_or_print(training.models_to_json(models), args.out)
    return 0


def _cmd_score(args: argparse.Namespace, cfg: RunConfig) -> int:
    patterns = mining.patterns_from_json(_read_text(args.pattern))
    events = _load_log(args.log)
    for inst in ingest.segment(events, cfg):
        pattern = evaluation.select_pattern(patterns, inst)
        breakdown = scoring.score(pattern, inst, args.alpha)
        print(breakdown.total)
    return 0


def _cmd_detect(args: argparse.Namespace, cfg: RunConfig) -> int:
    _guard_clobber([args.models, args.patterns, args.log], [args.out])
    patterns = mining.patterns_from_json(_read_text(args.patterns))
    models = {m.activity: m for m in training.models_from_json(_read_text(args.models))}
    events = _load_log(args.log)
    records = []
    for inst, pattern, verdict in evaluation.judge(patterns, models, ingest.segment(events, cfg)):
        record = {
            "source_id": inst.source_id,
            "activity": pattern.name,
            "classification": verdict.classification,
            "total": verdict.breakdown.total,
        }
        records.append(record)
        print(*record.values(), sep="\t")
    if args.out:
        Path(args.out).write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return 0


def _cmd_evaluate(args: argparse.Namespace, cfg: RunConfig) -> int:
    _guard_clobber([args.models, args.patterns, args.test_set], [args.out])
    patterns = mining.patterns_from_json(_read_text(args.patterns))
    models = {m.activity: m for m in training.models_from_json(_read_text(args.models))}
    labeled = ingest.instances_from_jsonl(_read_text(args.test_set))
    report = evaluation.build_report(patterns, models, labeled)
    sys.stdout.write(evaluation.render_report(report))
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


def run_pipeline(cfg: RunConfig) -> dict:
    """simulate → ingest → mine → augment → forge → train → evaluate.

    Writes sim_log.csv, instances.jsonl, patterns.json, train_set.jsonl,
    test_set.jsonl, models.json, report.json, and report.txt under
    cfg.workdir, then returns the report dict. The settings are checked
    before the first file is written.
    """
    if cfg.inter_instance_gap_ms <= cfg.gap_ms:
        raise ValueError(
            f"inter_instance_gap_ms ({cfg.inter_instance_gap_ms} ms) must exceed the "
            f"segmentation gap, gap_seconds ({cfg.gap_ms} ms)"
        )
    specs = simulate.builtin_specs(cfg.noise_sigma)
    workdir = Path(cfg.workdir)
    workdir.mkdir(parents=True, exist_ok=True)

    events = simulate.generate(specs, cfg)
    (workdir / "sim_log.csv").write_text(ingest.serialize_log(events, "csv"), encoding="utf-8")

    instances = ingest.segment(events, cfg)
    (workdir / "instances.jsonl").write_text(
        ingest.instances_to_jsonl(instances), encoding="utf-8"
    )

    patterns = _mine(instances, cfg, simulate.spec_name_map(specs))
    (workdir / "patterns.json").write_text(mining.patterns_to_json(patterns), encoding="utf-8")

    rng_augment = random.Random(cfg.seed + 1)
    rng_forge = random.Random(cfg.seed + 2)
    rng_split = random.Random(cfg.seed + 3)
    normal_target = cfg.train_normal + cfg.test_normal
    anomalies_per_type = cfg.train_anomaly + cfg.test_anomaly
    train_set: list[ActivityInstance] = []
    test_set: list[ActivityInstance] = []
    for pattern in patterns:
        originals = [
            with_label(inst, LABEL_NORMAL)
            for inst in instances
            if inst.key_sequence() == pattern.keys
        ]
        synthetic = forge.augment_normals(
            originals, max(0, normal_target - len(originals)), rng_augment
        )
        normals = originals + synthetic
        rng_split.shuffle(normals)
        normals = normals[:normal_target]
        seq_anomalies = [
            forge.make_anomaly_seq(src, rng_forge)
            for src in _pick_sources(originals, anomalies_per_type, rng_forge)
        ]
        ti_anomalies = [
            forge.make_anomaly_ti(src, cfg, rng_forge)
            for src in _pick_sources(originals, anomalies_per_type, rng_forge)
        ]
        train_set += (
            normals[: cfg.train_normal]
            + seq_anomalies[: cfg.train_anomaly]
            + ti_anomalies[: cfg.train_anomaly]
        )
        test_set += (
            normals[cfg.train_normal :]
            + seq_anomalies[cfg.train_anomaly :]
            + ti_anomalies[cfg.train_anomaly :]
        )
    (workdir / "train_set.jsonl").write_text(
        ingest.instances_to_jsonl(train_set), encoding="utf-8"
    )
    (workdir / "test_set.jsonl").write_text(ingest.instances_to_jsonl(test_set), encoding="utf-8")

    models = train_models(patterns, train_set, cfg)
    (workdir / "models.json").write_text(training.models_to_json(models), encoding="utf-8")

    report = evaluation.build_report(patterns, {m.activity: m for m in models}, test_set)
    (workdir / "report.json").write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    (workdir / "report.txt").write_text(evaluation.render_report(report), encoding="utf-8")
    return report


def _cmd_pipeline(args: argparse.Namespace, cfg: RunConfig) -> int:
    _guard_clobber([args.config], [args.out])
    report = run_pipeline(cfg)
    sys.stdout.write(evaluation.render_report(report))
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


# -------------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tempoguard",
        description="Learn timing patterns of smart-home activities and flag anomalies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic device log")
    add_config_flags(p, "seed", "instances_per_activity", "noise_sigma")
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("ingest", help="segment a log into activity instances")
    p.add_argument("log", help="CSV or JSONL device log")
    add_config_flags(p, "gap_seconds", "min_segment_len")
    p.add_argument("--out", help="instances JSONL path (default: stdout)")
    p.set_defaults(handler=_cmd_ingest)

    p = sub.add_parser("mine", help="mine frequent sequences into patterns")
    p.add_argument("instances", help="instances JSONL")
    add_config_flags(p, "min_support", "min_len")
    p.add_argument("--out", help="patterns JSON path (default: stdout)")
    p.set_defaults(handler=_cmd_mine)

    p = sub.add_parser("augment", help="oversample normals by interval midpoints")
    p.add_argument("instances", help="instances JSONL (one shared key sequence)")
    p.add_argument("--count", type=int, required=True, help="synthetic instances to forge")
    add_config_flags(p, "seed")
    p.add_argument("--out", help="synthetic instances JSONL path (default: stdout)")
    p.set_defaults(handler=_cmd_augment)

    p = sub.add_parser(
        "forge", aliases=["forge-anomalies"], help="synthesize anomalous instances"
    )
    p.add_argument("instances", help="normal instances JSONL")
    p.add_argument("--kind", choices=("seq", "ti"), required=True,
                   help="seq: delete one event; ti: stretch one interval")
    p.add_argument("--count", type=int, required=True)
    add_config_flags(p, "ti_multiplier", "seed")
    p.add_argument("--out", help="anomalies JSONL path (default: stdout)")
    p.set_defaults(handler=_cmd_forge)

    p = sub.add_parser("train", help="sweep the timing weight and fit score intervals")
    p.add_argument("--patterns", required=True, help="patterns JSON")
    p.add_argument("--train-set", required=True, help="labeled instances JSONL")
    add_config_flags(p, "alpha_min", "alpha_max", "alpha_step", "boundary_epsilon")
    p.add_argument("--out", help="model JSON path (default: stdout)")
    p.set_defaults(handler=_cmd_train)

    p = sub.add_parser("score", help="print total scores for each log segment")
    p.add_argument("--pattern", required=True, help="patterns JSON")
    p.add_argument("--log", required=True, help="CSV or JSONL device log")
    p.add_argument("--alpha", type=float, required=True, help="timing weight")
    add_config_flags(p, "gap_seconds", "min_segment_len")
    p.set_defaults(handler=_cmd_score)

    p = sub.add_parser("detect", help="classify log segments as normal or anomaly")
    p.add_argument("--models", required=True, help="trained models JSON")
    p.add_argument("--patterns", required=True, help="patterns JSON")
    p.add_argument("--log", required=True, help="CSV or JSONL device log")
    add_config_flags(p, "gap_seconds", "min_segment_len")
    p.add_argument("--out", help="verdicts JSONL path (optional)")
    p.set_defaults(handler=_cmd_detect)

    p = sub.add_parser("evaluate", help="confusion matrix over a labeled test set")
    p.add_argument("--models", required=True, help="trained models JSON")
    p.add_argument("--patterns", required=True, help="patterns JSON")
    p.add_argument("--test-set", required=True, help="labeled instances JSONL")
    p.add_argument("--out", help="JSON report path (optional)")
    p.set_defaults(handler=_cmd_evaluate)

    p = sub.add_parser("pipeline", help="run every stage end to end")
    p.add_argument("--config", help="JSON config file (flags override it)")
    add_config_flags(p)
    p.add_argument("--out", help="JSON report path (optional)")
    p.set_defaults(handler=_cmd_pipeline)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.handler(args, RunConfig.from_sources(vars(args).get("config"), vars(args)))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
