"""scripts/sweep_alpha.py refits with the settings the workdir was trained with."""

from __future__ import annotations

import csv
import importlib.util
import json
from pathlib import Path

import pytest

from tempoguard.cli import run
from tempoguard.training import models_from_json

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "sweep_alpha.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("sweep_alpha", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_rows_at_each_model_alpha_reproduce_the_trained_interval(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"boundary_epsilon": 0.001}), encoding="utf-8")
    workdir = tmp_path / "run"
    assert run(["pipeline", "--config", str(config), "--workdir", str(workdir)]) == 0

    out = tmp_path / "sweep.csv"
    argv = ["--config", str(config), "--workdir", str(workdir), "--out", str(out)]
    assert _load_script().main(argv) == 0

    with out.open(encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    models = models_from_json((workdir / "models.json").read_text(encoding="utf-8"))
    assert models
    for model in models:
        (row,) = [
            r
            for r in rows
            if r["activity"] == model.activity and float(r["alpha"]) == round(model.alpha, 6)
        ]
        assert (float(row["lo"]), float(row["hi"])) == (model.lo, model.hi)


def test_unknown_config_key_is_a_usage_error(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"bogus": 1}), encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        _load_script().main(["--config", str(config), "--workdir", str(tmp_path / "run")])
    assert exc.value.code == 2
    assert "unknown config keys: bogus" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()
