"""Seeded inputs for the benchmark workloads and the checks on their outputs.

The program only ever sees the files written here. The detect logs are built
by this module's own generator, which also keeps the ground truth (activity
and label of every run), so verdicts are judged against what was generated,
not against a second run of the program's code.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass
from pathlib import Path

# The seed-42 default pipeline's artifacts, and `detect` on its own log with
# its own models: all must stay byte-identical.
REFERENCE_DIGESTS = {
    "models.json": "3261add4b1c0990abaf2e506b6b4693a18880750bde0e232c6f42c7e77fdce11",
    "report.json": "83b12739dc7fccd14b45c50f8847cb0588656978b88df0f19b6be5ee059a6afd",
    "verdicts.jsonl": "8567b49bf3aeefdb0c2c41d1cb739df5a37d9adaae197e766dc3e98e53290836",
}

# Runs of the three built-in activities: (device, attribute, state, base gap
# before the event in ms). Same table the seed-42 models were trained on.
ACTIVITIES = {
    "Come back home": (
        ("C1", "contact", "open", 0),
        ("M2", "motion", "active", 3_000),
        ("L1", "switch", "on", 1_000),
        ("C1", "contact", "closed", 4_000),
        ("M1", "motion", "active", 6_000),
        ("L2", "switch", "on", 1_000),
    ),
    "Use toilet": (
        ("M5", "motion", "active", 0),
        ("L5", "switch", "on", 1_000),
        ("C5", "contact", "closed", 3_000),
        ("V", "switch", "on", 1_000),
        ("C5", "contact", "open", 12_000),
        ("M5", "motion", "inactive", 8_000),
        ("L5", "switch", "off", 21_000),
        ("V", "switch", "off", 1_000),
    ),
    "Go to work": (
        ("C2", "contact", "open", 0),
        ("L4", "switch", "on", 1_000),
        ("M4", "motion", "active", 3_000),
        ("M3", "motion", "active", 5_000),
        ("L3", "switch", "on", 1_000),
    ),
}

# A second resident's devices, none of which appears in any pattern.
NOISE_KEYS = tuple(
    (device, attribute, state)
    for device, attribute, states in (
        ("M6", "motion", ("active", "inactive")),
        ("M7", "motion", ("active", "inactive")),
        ("L6", "switch", ("on", "off")),
        ("L7", "switch", ("on", "off")),
        ("C3", "contact", ("open", "closed")),
        ("TV", "switch", ("on", "off")),
    )
    for state in states
)

START_MS = 1_635_724_800_000  # 2021-11-01T00:00:00Z
RUN_GAP_MS = 600_000  # idle time between runs, well above the segmentation gap
JITTER_SIGMA = 0.10
JITTER_CLAMP = 0.30  # keeps the longest stretched gap far below GAP_SECONDS
TI_MULTIPLIER = 5
SEQ_SHARE = 0.10
TI_SHARE = 0.10
# Longest possible stretched gap: 21 s * 1.3 * 5 = 137 s; runs are 600 s apart.
GAP_SECONDS = 300

DETECT_RUNS_PER_ACTIVITY = 2000

TRAIN_4X = {
    "instances_per_activity": 200,
    "train_normal": 160,
    "test_normal": 240,
    "train_anomaly": 40,
    "test_anomaly": 80,
}


class CheckFailed(Exception):
    """A pass ran but its outputs are wrong."""


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_reference(workdir: Path) -> None:
    for name, digest in REFERENCE_DIGESTS.items():
        if sha256(workdir / name) != digest:
            raise CheckFailed(f"seed-42 {name} differs from the recorded reference")


def _iso(ms: int) -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(ms // 1000)) + f".{ms % 1000:03d}Z"


@dataclass(frozen=True)
class Run:
    """Ground truth for one generated burst."""

    activity: str
    label: str  # "normal", "anomaly_seq" or "anomaly_ti"


def generate_runs(
    seed: int, runs_per_activity: int, noisy: bool
) -> tuple[list[Run], list[tuple[int, str, str, str]]]:
    """Shuffled runs of every activity, a tenth forged per anomaly kind.

    Returns the ground truth and the time-ordered (ms, device, attribute,
    state) events. With `noisy`, 2-4 events of unrelated devices are
    interleaved at random times inside each burst.
    """
    rng = random.Random(f"tempoguard-bench:{seed}:{runs_per_activity}:{noisy}")
    order = [name for name in ACTIVITIES for _ in range(runs_per_activity)]
    rng.shuffle(order)
    runs: list[Run] = []
    events: list[tuple[int, str, str, str]] = []
    now = START_MS
    for name in order:
        steps = ACTIVITIES[name]
        gaps = []
        for *_, base in steps[1:]:
            jitter = max(-JITTER_CLAMP, min(JITTER_CLAMP, rng.gauss(0, JITTER_SIGMA)))
            gaps.append(max(1, round(base * (1 + jitter))))
        draw = rng.random()
        if draw < SEQ_SHARE:
            label = "anomaly_seq"
        elif draw < SEQ_SHARE + TI_SHARE:
            label = "anomaly_ti"
        else:
            label = "normal"
        if label == "anomaly_ti":
            k = rng.randrange(len(gaps))
            gaps[k] *= TI_MULTIPLIER
        burst = [(now, *steps[0][:3])]
        for gap, step in zip(gaps, steps[1:]):
            burst.append((burst[-1][0] + gap, *step[:3]))
        if label == "anomaly_seq":
            del burst[rng.randrange(len(burst))]
        if noisy:
            first, last = burst[0][0], burst[-1][0]
            for _ in range(rng.randint(2, 4)):
                burst.append((rng.randint(first, last), *rng.choice(NOISE_KEYS)))
            burst.sort(key=lambda e: e[0])
        runs.append(Run(name, label))
        events += burst
        now = burst[-1][0] + RUN_GAP_MS
    return runs, events


def write_log(events: list[tuple[int, str, str, str]], path: Path, fmt: str) -> None:
    if fmt == "csv":
        lines = ["timestamp,device,attribute,value\n"]
        lines += [f"{_iso(ms)},{d},{a},{s}\n" for ms, d, a, s in events]
    else:
        lines = [
            json.dumps({"timestamp": _iso(ms), "device": d, "attribute": a, "value": s}) + "\n"
            for ms, d, a, s in events
        ]
    path.write_text("".join(lines), encoding="utf-8")


class TrainWorkload:
    """`tempoguard pipeline` at 4x the default data, seeded from --seed."""

    def __init__(self, workdir: Path, seed: int) -> None:
        config = workdir / "train-4x.json"
        config.write_text(json.dumps({"seed": seed, **TRAIN_4X}), encoding="utf-8")
        self.out = workdir / "train-4x"
        self.argv = ["pipeline", "--config", str(config), "--workdir", str(self.out)]
        self.segments = len(ACTIVITIES) * TRAIN_4X["instances_per_activity"]
        self.test_rows = len(ACTIVITIES) * (
            TRAIN_4X["test_normal"] + 2 * TRAIN_4X["test_anomaly"]
        )
        self._digests: dict[str, str] | None = None

    def before_pass(self) -> None:
        for name in ("models.json", "report.json", "instances.jsonl"):
            (self.out / name).unlink(missing_ok=True)

    def check(self, stdout: str) -> float:
        """Verify one pass's artifacts; return its test-set accuracy."""
        del stdout  # the report file carries what the printed tables show
        digests = {n: sha256(self.out / n) for n in ("models.json", "report.json")}
        if self._digests is None:
            self._digests = digests
        elif digests != self._digests:
            raise CheckFailed("the same config gave different artifacts on two passes")
        instances = (self.out / "instances.jsonl").read_text(encoding="utf-8").splitlines()
        if len(instances) != self.segments:
            raise CheckFailed(f"{len(instances)} segments, generator wrote {self.segments} runs")
        models = json.loads((self.out / "models.json").read_text(encoding="utf-8"))
        if len(models) != len(ACTIVITIES):
            raise CheckFailed(f"{len(models)} models for {len(ACTIVITIES)} activities")
        overall = json.loads((self.out / "report.json").read_text(encoding="utf-8"))["overall"]
        if overall["amount"] != self.test_rows:
            raise CheckFailed(f"report covers {overall['amount']} of {self.test_rows} test rows")
        return overall["accuracy"]


class DetectWorkload:
    """`tempoguard detect` on a generated log, with the seed-42 models."""

    def __init__(self, workdir: Path, seed: int, reference: Path, noisy: bool) -> None:
        fmt = "jsonl" if noisy else "csv"
        log = workdir / f"detect.{fmt}"
        self.runs, events = generate_runs(seed, DETECT_RUNS_PER_ACTIVITY, noisy)
        write_log(events, log, fmt)
        self.events = len(events)
        self.out = workdir / "verdicts.jsonl"
        self.argv = [
            "detect",
            "--models", str(reference / "models.json"),
            "--patterns", str(reference / "patterns.json"),
            "--log", str(log),
            "--gap-seconds", str(GAP_SECONDS),
            "--out", str(self.out),
        ]  # fmt: skip
        self.segments = len(self.runs)

    def before_pass(self) -> None:
        self.out.unlink(missing_ok=True)

    def check(self, stdout: str) -> float:
        """One verdict per generated run, routed to its activity; return accuracy."""
        verdicts = [
            json.loads(line) for line in self.out.read_text(encoding="utf-8").splitlines()
        ]
        if len(verdicts) != len(self.runs):
            raise CheckFailed(f"{len(verdicts)} verdicts for {len(self.runs)} generated runs")
        if len({v["source_id"] for v in verdicts}) != len(verdicts):
            raise CheckFailed("a segment got more than one verdict line")
        if stdout.count("\n") != len(verdicts):
            raise CheckFailed("printed verdicts differ from the --out file")
        correct = 0
        for k, (verdict, run) in enumerate(zip(verdicts, self.runs)):
            if verdict["activity"] != run.activity:
                raise CheckFailed(f"run {k} ({run.activity}) routed to {verdict['activity']}")
            if verdict["classification"] not in ("normal", "anomaly"):
                raise CheckFailed(f"run {k}: unknown class {verdict['classification']!r}")
            correct += (verdict["classification"] == "anomaly") == (run.label != "normal")
        return correct / len(verdicts)


WORKLOADS = ("train-4x", "detect-38k", "detect-noisy")


def prepare(name: str, workdir: Path, seed: int, reference: Path):
    """Write the inputs of one workload; return the object that runs and checks it."""
    if name == "train-4x":
        return TrainWorkload(workdir, seed)
    if name == "detect-38k":
        return DetectWorkload(workdir, seed, reference, noisy=False)
    if name == "detect-noisy":
        return DetectWorkload(workdir, seed, reference, noisy=True)
    raise ValueError(f"unknown workload {name!r}")
