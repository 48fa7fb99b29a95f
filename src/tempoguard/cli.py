"""Command-line front end: run any stage alone, or the whole pipeline.

Subcommands mirror the processing stages — simulate, ingest, mine, split,
train, score, detect, evaluate — plus `pipeline`, which chains them and
leaves every intermediate artifact in a working directory; each of those
files is what one stage writes when re-run standalone with the same settings.

Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

from tempoguard import evaluation, forge, ingest, mining, simulate, training
from tempoguard.config import SETTINGS, RunConfig, UsageError
from tempoguard.events import ActivityInstance, require_labeled


def add_config_flags(parser: argparse.ArgumentParser, *names: str) -> None:
    """Add --<field-name> for each named RunConfig field (every field when none are named).

    Flags default to None, so only those given override the config file.
    """
    for name in names or SETTINGS:
        kind, default, text = SETTINGS[name]
        parser.add_argument(
            "--" + name.replace("_", "-"),
            type=kind,
            metavar=kind.__name__.upper(),
            help=f"{text} (default: {default})",
        )


def _parse_file(parse, path: str | Path):
    """parse(lines) over the file at `path`, opened as text and read one line at a time.

    The file is read with universal newlines. A byte that is not UTF-8 is a
    data error that names its line and file offset, and it is the error
    reported whatever else is wrong in the file; a pipe, which cannot be read
    again, reports the first error it meets. Logs and instance, pattern and
    model files are all read here.
    """
    with open(path, encoding="utf-8") as lines:
        try:
            return parse(lines)
        except ValueError as exc:  # a UnicodeDecodeError too
            # A bad byte anywhere in the file wins over any other error, so which
            # error is reported does not depend on where the decoder's chunks end.
            where = _not_utf8(lines.buffer) if lines.seekable() else None  # a pipe reads once
            if where:
                raise ValueError(where) from None
            if isinstance(exc, UnicodeDecodeError):  # exc.start counts from the chunk, not the file
                raise ValueError(f"not UTF-8 (byte 0x{exc.object[exc.start]:02x})") from None
            raise


def _not_utf8(binary) -> str | None:
    """'line N: not UTF-8 (byte 0xXX at offset M)' for a binary file's first non-UTF-8 byte.

    The file is read again from its start. Lines are counted as universal
    newlines count them: a CR LF, a lone CR and a LF each end one.
    """
    binary.seek(0)
    offset = breaks = 0
    for chunk in binary:  # split after each LF, a byte no multi-byte character holds
        try:
            chunk.decode("utf-8")
        except UnicodeDecodeError as exc:
            # Any CR before the bad byte is a lone CR: the chunk's one LF comes after it.
            line = breaks + chunk.count(b"\r", 0, exc.start) + 1
            byte, at = chunk[exc.start], offset + exc.start
            return f"line {line}: not UTF-8 (byte 0x{byte:02x} at offset {at})"
        offset += len(chunk)
        breaks += chunk.count(b"\n") + chunk.count(b"\r") - chunk.count(b"\r\n")
    return None


def _write_or_print(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _guard_clobber(inputs: list, outputs: list[str | None], makes: Path | None = None) -> None:
    """Reject an output path that is a directory, an input or another output, or in no directory.

    `makes` is a directory that the run creates, with its parents, before it
    writes an output.
    """
    taken = {Path(p).resolve() for p in inputs if p}
    made = makes.resolve() if makes else None
    for out in filter(None, outputs):
        if (path := Path(out).resolve()).is_dir() or path == made:
            raise UsageError(f"output path {out!r} is a directory")
        if path in taken:
            raise UsageError(f"output path {out!r} would overwrite a file this run reads or writes")
        if not (path.parent.is_dir() or made and made.is_relative_to(path.parent)):
            raise UsageError(f"output path {out!r} is in a directory that does not exist")
        taken.add(path)


def _load_log(path: str) -> list:
    parse = ingest.parse_log_jsonl if path.endswith(".jsonl") else ingest.parse_log
    return _parse_file(parse, path)


def _load_records(from_json, path: str | Path) -> list:
    """from_json(text) over the whole file at `path`, read by _parse_file like every data file."""
    return _parse_file(lambda lines: from_json(lines.read()), path)


# ---------------------------------------------------------------- subcommands


def _cmd_simulate(args: argparse.Namespace, cfg: RunConfig) -> int:
    _guard_clobber([], [args.out])
    events = simulate.generate(cfg)
    _write_or_print(ingest.serialize_log(events, args.format), args.out)
    return 0


def _cmd_ingest(args: argparse.Namespace, cfg: RunConfig) -> int:
    _guard_clobber([args.log], [args.out])
    instances = ingest.segment(_load_log(args.log), cfg)
    _write_or_print(ingest.instances_to_jsonl(instances), args.out)
    return 0


def _cmd_mine(args: argparse.Namespace, cfg: RunConfig) -> int:
    _guard_clobber([args.instances], [args.out])
    instances = _parse_file(ingest.instances_from_jsonl, args.instances)
    patterns = [pattern for pattern, _ in mining.mine_patterns(instances, cfg)]
    _write_or_print(mining.patterns_to_json(patterns), args.out)
    return 0


def _cmd_split(args: argparse.Namespace, cfg: RunConfig) -> int:
    _guard_clobber([args.instances], [args.train_out, args.test_out])
    instances = _parse_file(ingest.instances_from_jsonl, args.instances)
    train_set, test_set = forge.split_sets(mining.mine_patterns(instances, cfg), cfg)
    # Both are encoded before either is written: one that cannot be leaves neither file.
    train_text, test_text = map(ingest.instances_to_jsonl, (train_set, test_set))
    Path(args.train_out).write_text(train_text, encoding="utf-8")
    Path(args.test_out).write_text(test_text, encoding="utf-8")
    return 0


def train_models(
    patterns: list, labeled: list[ActivityInstance], cfg: RunConfig
) -> list[training.ScoreModel]:
    """Route labeled instances to their best pattern and fit each activity's model.

    Each instance is scored once per pattern, while it is routed; training
    blends the breakdown of the pattern it routes to.
    """
    groups = evaluation.route(patterns, labeled)
    models = []
    for pattern in patterns:
        group = groups[pattern.name]
        if not group:
            import logging  # here, not at the top: only a warning needs it (README "Startup")

            logging.getLogger(__name__).warning("no training instances routed to %r", pattern.name)
            continue
        models.append(training.fit(pattern.name, group, cfg))
    return models


def _cmd_train(args: argparse.Namespace, cfg: RunConfig) -> int:
    _guard_clobber([args.patterns, args.train_set], [args.out])
    patterns = _load_records(mining.patterns_from_json, args.patterns)
    labeled = _parse_file(ingest.instances_from_jsonl, args.train_set)
    require_labeled(labeled, "training")
    models = train_models(patterns, labeled, cfg)
    _write_or_print(training.models_to_json(models), args.out)
    return 0


def _cmd_score(args: argparse.Namespace, cfg: RunConfig) -> int:
    if not 0 <= args.alpha < math.inf:
        raise ValueError(f"alpha must be a finite number >= 0, not {args.alpha!r}")
    patterns = _load_records(mining.patterns_from_json, args.patterns)
    events = _load_log(args.log)
    for inst in ingest.segment(events, cfg):
        _, breakdown = evaluation.select_pattern(patterns, inst)
        print(breakdown.blend(args.alpha))
    return 0


def _cmd_detect(args: argparse.Namespace, cfg: RunConfig) -> int:
    _guard_clobber([args.models, args.patterns, args.log], [args.out])
    patterns = _load_records(mining.patterns_from_json, args.patterns)
    models = {m.activity: m for m in _load_records(training.models_from_json, args.models)}
    events = _load_log(args.log)
    lines = []  # the --out file, written whole once the last verdict is made
    # (activity, classification) -> the encoded text between the source id and the total
    tails: dict[tuple[str, str], str] = {}
    write = sys.stdout.write
    for inst, pattern, verdict in evaluation.judge(patterns, models, ingest.segment(events, cfg)):
        source_id, activity, classification = inst.source_id, pattern.name, verdict.classification
        total = repr(verdict.total)  # always finite, so the text json.dumps writes
        if args.out:
            tail = tails.get((activity, classification))
            if tail is None:
                record = {"activity": activity, "classification": classification, "total": 0}
                tail = tails[activity, classification] = ", " + json.dumps(record)[1:-2]
            # encode_basestring_ascii is what json.dumps applies to a str by default.
            head = '{"source_id": ' + encode_basestring_ascii(source_id)
            lines.append(head + tail + total + "}\n")
        write(f"{source_id}\t{activity}\t{classification}\t{total}\n")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as out:
            out.writelines(lines)
    return 0


def _cmd_evaluate(args: argparse.Namespace, cfg: RunConfig) -> int:
    _guard_clobber([args.models, args.patterns, args.test_set], [args.out])
    patterns = _load_records(mining.patterns_from_json, args.patterns)
    models = {m.activity: m for m in _load_records(training.models_from_json, args.models)}
    labeled = _parse_file(ingest.instances_from_jsonl, args.test_set)
    report = evaluation.build_report(patterns, models, labeled)
    sys.stdout.write(evaluation.render_report(report))
    if args.out:
        Path(args.out).write_text(evaluation.report_to_json(report), encoding="utf-8")
    return 0


# The files run_pipeline writes under its workdir, in the order it writes them.
PIPELINE_FILES = (
    "sim_log.csv", "instances.jsonl", "patterns.json", "train_set.jsonl",
    "test_set.jsonl", "models.json", "report.json", "report.txt",
)


def run_pipeline(cfg: RunConfig) -> dict:
    """simulate → ingest → mine → split → train → evaluate.

    Writes the PIPELINE_FILES under cfg.workdir, then returns the report
    dict. The log is made, segmented, mined and split into the training and
    test sets (forge.split_sets) before the workdir is made. So a run that
    one of those stages rejects, such as a ti_multiplier that stretches an
    interval past any log span, or settings that leave a set empty, leaves
    no workdir and no file.
    """
    events = simulate.generate(cfg)
    instances = ingest.segment(events, cfg)
    mined = mining.mine_patterns(instances, cfg)
    patterns = [pattern for pattern, _ in mined]
    train_set, test_set = forge.split_sets(mined, cfg)

    workdir = Path(cfg.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    (workdir / "sim_log.csv").write_text(ingest.serialize_log(events, "csv"), encoding="utf-8")
    (workdir / "instances.jsonl").write_text(
        ingest.instances_to_jsonl(instances), encoding="utf-8"
    )
    (workdir / "patterns.json").write_text(mining.patterns_to_json(patterns), encoding="utf-8")
    (workdir / "train_set.jsonl").write_text(
        ingest.instances_to_jsonl(train_set), encoding="utf-8"
    )
    (workdir / "test_set.jsonl").write_text(ingest.instances_to_jsonl(test_set), encoding="utf-8")

    models = train_models(patterns, train_set, cfg)
    (workdir / "models.json").write_text(training.models_to_json(models), encoding="utf-8")

    report = evaluation.build_report(patterns, {m.activity: m for m in models}, test_set)
    (workdir / "report.json").write_text(evaluation.report_to_json(report), encoding="utf-8")
    (workdir / "report.txt").write_text(evaluation.render_report(report), encoding="utf-8")
    return report


def alpha_curve(workdir: Path, cfg: RunConfig) -> list[dict]:
    """training.curve's rows for each activity with training instances, from a pipeline workdir.

    The training and test sets are routed as train_models routes them, and
    the curve blends the breakdowns that routing made.
    """
    patterns = _load_records(mining.patterns_from_json, workdir / "patterns.json")
    train, test = (
        evaluation.route(patterns, _parse_file(ingest.instances_from_jsonl, workdir / name))
        for name in ("train_set.jsonl", "test_set.jsonl")
    )
    fields = ("alpha", "lo", "hi", "train_accuracy", "test_accuracy")
    return [
        {"activity": pattern.name, **dict(zip(fields, row))}
        for pattern in patterns
        if train[pattern.name]
        for row in training.curve(train[pattern.name], test[pattern.name], cfg)
    ]


def _cmd_pipeline(args: argparse.Namespace, cfg: RunConfig) -> int:
    workdir = Path(cfg.workdir)
    if args.out or args.stats:  # a run that writes neither resolves no path
        artifacts = [workdir / name for name in PIPELINE_FILES]
        _guard_clobber([args.config, *artifacts], [args.out, args.stats], makes=workdir)
    report = run_pipeline(cfg)
    sys.stdout.write(evaluation.render_report(report))
    if args.out:
        Path(args.out).write_text(evaluation.report_to_json(report), encoding="utf-8")
    if args.stats:
        stats = {"alpha_curve": alpha_curve(workdir, cfg)}
        Path(args.stats).write_text(json.dumps(stats, indent=2) + "\n", encoding="utf-8")
    return 0


# -------------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tempoguard",
        description="Learn timing patterns of smart-home activities and flag anomalies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic device log")
    add_config_flags(p, "seed", "instances_per_activity", "noise_sigma", "gap_seconds")
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

    p = sub.add_parser("split", help="forge labeled training and test sets from instances")
    p.add_argument("instances", help="instances JSONL, mined as `mine` mines it")
    add_config_flags(p, "min_support", "min_len", "seed", "ti_multiplier", "train_normal",
                     "test_normal", "train_anomaly", "test_anomaly")
    p.add_argument("--train-out", required=True, help="training set JSONL path")
    p.add_argument("--test-out", required=True, help="test set JSONL path")
    p.set_defaults(handler=_cmd_split)

    p = sub.add_parser("train", help="sweep the timing weight and fit score intervals")
    p.add_argument("--patterns", required=True, help="patterns JSON")
    p.add_argument("--train-set", required=True, help="labeled instances JSONL")
    add_config_flags(p, "alpha_min", "alpha_max", "alpha_step")
    p.add_argument("--out", help="model JSON path (default: stdout)")
    p.set_defaults(handler=_cmd_train)

    p = sub.add_parser("score", help="print total scores for each log segment")
    p.add_argument("--patterns", required=True, help="patterns JSON")
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
    p.add_argument("--stats", help="JSON path for the alpha curve of each activity (optional)")
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
