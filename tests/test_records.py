"""Every record type: checked on construction and on _replace alike, and read-only.

ActivitySpec, the built-in activity table's plain record, is only read-only.
"""

from __future__ import annotations

import pytest

from conftest import key, make_instance, make_pattern
from tempoguard.config import RunConfig
from tempoguard.evaluation import ConfusionMatrix, Verdict
from tempoguard.events import Event
from tempoguard.scoring import score
from tempoguard.simulate import builtin_specs
from tempoguard.training import ScoreModel

# name -> (a valid record, a field value it must reject, the message that names it)
RECORDS = {
    "Event": (lambda: Event(1000, key("A")), {"key": ("A", "sensor", "on")}, "be an EventKey"),
    "ActivityInstance": (lambda: make_instance("AB"), {"label": "bogus"}, "unknown label"),
    "ActivityPattern": (lambda: make_pattern("AB"), {"support": 0}, "support must be >= 1"),
    "ConfusionMatrix": (lambda: ConfusionMatrix(1, 2, 3, 4), {"fp": -1}, "counts must be >= 0"),
    "ScoreModel": (lambda: ScoreModel("a", 1.0, 0.5, 1.5, 0.9), {"lo": 2.0}, "lo must be <= hi"),
    "RunConfig": (RunConfig, {"gap_seconds": 0}, "gap_seconds must be over 0.0005"),
}
_CASES = pytest.mark.parametrize("build, bad, message", RECORDS.values(), ids=list(RECORDS))

# name -> (a record, one of its fields)
FIELDS = {name: (build, next(iter(bad))) for name, (build, bad, _) in RECORDS.items()} | {
    "ActivitySpec": (lambda: builtin_specs()[0], "steps"),
    "ActivitySpec-name": (lambda: builtin_specs()[0], "name"),
}


@_CASES
def test_replace_rejects_what_construction_rejects(build, bad, message):
    record = build()
    with pytest.raises(ValueError, match=message):
        type(record)(**{**record._asdict(), **bad})
    with pytest.raises(ValueError, match=message):
        record._replace(**bad)
    assert record._replace() == record
    assert type(record)._make(record) == record


@pytest.mark.parametrize("build, name", FIELDS.values(), ids=list(FIELDS))
def test_a_field_cannot_be_set(build, name):
    record = build()
    with pytest.raises(AttributeError):
        setattr(record, name, getattr(record, name))
    assert record == build()


def test_replace_coerces_like_construction():
    inst = make_instance("AB")._replace(events=list(make_instance("BA").events))
    assert inst.events == make_instance("BA").events and isinstance(inst.events, tuple)
    pattern = make_pattern("AB")._replace(mean_intervals_ms=[7])
    assert pattern.mean_intervals_ms == (7.0,)


def test_a_replaced_pattern_numbers_its_own_keys():
    pattern = make_pattern("ABA")
    assert pattern.key_codes == (0, 1, 0)
    other = pattern._replace(keys=(key("C"), key("C"), key("D")))
    assert other.key_codes == (0, 0, 1)
    assert other.key_numbering == {key("C"): 0, key("D"): 1}
    assert pattern.key_codes == (0, 1, 0)


def test_verdict_is_read_only_and_compared_by_its_fields():
    breakdown = score(make_pattern("AB"), make_instance("AB"))
    verdict = Verdict("normal", 2.0, breakdown)
    assert verdict == Verdict("normal", 2.0, breakdown)
    assert hash(verdict) == hash(Verdict("normal", 2.0, breakdown))
    assert verdict != Verdict("anomaly", 2.0, breakdown)
    assert isinstance(verdict, tuple)
    assert Verdict._fields == ("classification", "total", "breakdown")
    for name in ("classification", "total", "breakdown", "other"):
        with pytest.raises(AttributeError):
            setattr(verdict, name, None)
        with pytest.raises(AttributeError):
            delattr(verdict, name)
    assert repr(verdict).startswith(
        "Verdict(classification='normal', total=2.0, breakdown=ScoreBreakdown("
    )
