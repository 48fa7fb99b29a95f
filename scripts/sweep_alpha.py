#!/usr/bin/env python3
"""Sweep the timing weight and chart train/test accuracy per activity.

Runs the full pipeline into a working directory (or reuses one that already
has its artifacts), then, for every weight on the grid, refits the score
interval on the training split and measures accuracy on the test split.
Settings come from the `--config` file and the flags `tempoguard pipeline`
takes, flags over the file, so the refit uses the workdir's training settings.
Results land in a CSV; pass --plot for a PNG when matplotlib is available.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from tempoguard import evaluation, ingest, mining, training
from tempoguard.cli import RunConfig, UsageError, add_config_flags, run_pipeline

ARTIFACTS = ("patterns.json", "train_set.jsonl", "test_set.jsonl")


def sweep(workdir: Path, cfg: RunConfig) -> list[dict]:
    patterns = mining.patterns_from_json((workdir / "patterns.json").read_text("utf-8"))
    train_set = ingest.instances_from_jsonl((workdir / "train_set.jsonl").read_text("utf-8"))
    test_set = ingest.instances_from_jsonl((workdir / "test_set.jsonl").read_text("utf-8"))
    train_groups = evaluation.route(patterns, train_set)
    test_groups = evaluation.route(patterns, test_set)

    sweeps = [training.sweep(pattern, train_groups[pattern.name], cfg) for pattern in patterns]
    rows = []
    for grid_point in zip(*sweeps):  # one weight, every pattern
        for pattern, (alpha, lo, hi, train_acc) in zip(patterns, grid_point):
            model = training.ScoreModel(
                activity=pattern.name, alpha=alpha, lo=lo, hi=hi, training_accuracy=train_acc
            )
            test = [(i, evaluation.classify(model, pattern, i)) for i in test_groups[pattern.name]]
            rows.append(
                {
                    "alpha": round(alpha, 6),
                    "activity": pattern.name,
                    "train_accuracy": train_acc,
                    "test_accuracy": evaluation.evaluate(test)["accuracy"],
                    "lo": lo,
                    "hi": hi,
                }
            )
    return rows


def write_csv(rows: list[dict], path: Path) -> None:
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def maybe_plot(rows: list[dict], path: Path) -> bool:
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not installed; skipping plot", file=sys.stderr)
        return False
    activities = sorted({r["activity"] for r in rows})
    fig, ax = plt.subplots(figsize=(7, 4))
    for name in activities:
        pts = [r for r in rows if r["activity"] == name]
        ax.plot([r["alpha"] for r in pts], [r["test_accuracy"] for r in pts], label=name)
    ax.set_xlabel("timing weight")
    ax.set_ylabel("test accuracy")
    ax.set_ylim(0.0, 1.05)
    ax.legend()
    fig.tight_layout()
    fig.savefig(path, dpi=120)
    return True


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", help="pipeline JSON config file (flags override it)")
    add_config_flags(parser)
    parser.add_argument("--out", default=None, help="CSV path (default <workdir>/alpha_sweep.csv)")
    parser.add_argument("--plot", default=None, help="optional PNG path (needs matplotlib)")
    args = parser.parse_args(argv)

    try:
        cfg = RunConfig.from_sources(args.config, vars(args))
    except (UsageError, OSError, ValueError) as exc:
        parser.error(str(exc))
    workdir = Path(cfg.workdir)
    if not all((workdir / name).exists() for name in ARTIFACTS):
        print(f"building pipeline artifacts under {workdir}", file=sys.stderr)
        run_pipeline(cfg)

    rows = sweep(workdir, cfg)
    out = Path(args.out) if args.out else workdir / "alpha_sweep.csv"
    write_csv(rows, out)
    print(f"wrote {len(rows)} rows to {out}", file=sys.stderr)
    if args.plot and maybe_plot(rows, Path(args.plot)):
        print(f"wrote plot to {args.plot}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
