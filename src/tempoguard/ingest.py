"""Event-log parsing, idle-gap segmentation, and the on-disk file formats.

The canonical log format is CSV with header ``timestamp,device,attribute,value``.
A three-column legacy form ``timestamp,device,value`` is accepted too; its
attribute is inferred from well-known state values (falling back to "state").
A JSON-lines twin carries the same four fields, one object per line.

Each parse call builds one EventKey per distinct (device, attribute, state)
and hands that same object to every event that carries it, so a large log
holds a few dozen keys, not one per row. Timestamps become epoch
milliseconds by exact integer arithmetic, never through a float.
"""

from __future__ import annotations

import csv
import io
import json
import math
from datetime import datetime, timedelta, timezone

from tempoguard.config import RunConfig
from tempoguard.events import (
    ActivityInstance,
    Event,
    EventKey,
    LABEL_UNLABELED,
    json_document,
    json_value,
)

LOG_HEADER = ("timestamp", "device", "attribute", "value")
LEGACY_HEADER = ("timestamp", "device", "value")

EPOCH_UTC = datetime(1970, 1, 1, tzinfo=timezone.utc)
EPOCH_NAIVE = datetime(1970, 1, 1)  # format_timestamp's base: naive, so no tz work per call
_ONE_MS = timedelta(milliseconds=1)
# 9999-12-31T23:59:59.999Z: the latest time format_timestamp can write.
MAX_TIMESTAMP_MS = 253_402_300_799_999

# Attribute inferred for the 3-column legacy form, keyed by the state value.
ATTRIBUTE_FOR_VALUE = {
    "active": "motion",
    "inactive": "motion",
    "open": "contact",
    "closed": "contact",
    "on": "switch",
    "off": "switch",
}


def parse_timestamp(token: str) -> int:
    """Parse one timestamp token to epoch milliseconds UTC.

    Accepted forms, all in ASCII: integer epoch milliseconds, ISO-8601
    (naive assumed UTC, trailing Z accepted), and "M/D/YYYY HH:MM:SS"
    interpreted as UTC. Sub-millisecond digits are floored. A time before
    1970-01-01T00:00:00Z or past MAX_TIMESTAMP_MS is rejected, whichever
    form it came in (an ISO offset can move a year-9999 time past it).
    """
    token = token.strip()
    if not token.isascii():  # int() and strptime also read other scripts' digits
        raise ValueError(f"unparseable timestamp {token!r}")
    if token.isdigit():
        ms = int(token)
    else:
        iso = token[:-1] + "+00:00" if token.endswith(("Z", "z")) else token
        try:
            dt = datetime.fromisoformat(iso)
        except ValueError:
            try:
                dt = datetime.strptime(token, "%m/%d/%Y %H:%M:%S")
            except ValueError:
                raise ValueError(f"unparseable timestamp {token!r}") from None
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
        ms = (dt - EPOCH_UTC) // _ONE_MS
    if not 0 <= ms <= MAX_TIMESTAMP_MS:
        raise ValueError(f"timestamp {token!r} is {_range_error(ms)}")
    return ms


def format_timestamp(ms: int) -> str:
    """ISO-8601 UTC with millisecond precision ("...T13:00:01Z" / "...T13:00:01.234Z").

    Raises ValueError for a time before 1970 or past MAX_TIMESTAMP_MS.
    """
    if not 0 <= ms <= MAX_TIMESTAMP_MS:
        raise ValueError(f"timestamp {ms} ms is {_range_error(ms)}")
    dt = EPOCH_NAIVE + timedelta(milliseconds=ms)
    return dt.isoformat(timespec="milliseconds" if ms % 1000 else "seconds") + "Z"


def _range_error(ms: int) -> str:
    """Why epoch milliseconds `ms`, outside 0..MAX_TIMESTAMP_MS, cannot be kept."""
    return "before 1970-01-01T00:00:00Z" if ms < 0 else "after 9999-12-31T23:59:59.999Z"


def _interned(keys: dict, device, attribute, state: str) -> EventKey:
    """The parse's one EventKey for (device, attribute, state), built on first sight.

    Only then are device and attribute checked to be strings: every key in
    `keys` passed that check, and no other JSON value equals a string.
    """
    ident = (device, attribute, state)
    try:
        key = keys.get(ident)
    except TypeError:  # a JSON array or object, unhashable; rejected below
        key = None
    if key is None:
        device = json_value(device, str, "'device'")
        key = keys[ident] = EventKey(device, json_value(attribute, str, "'attribute'"), state)
    return key


def _row_to_event(fields: list[str], legacy: bool, lineno: int, keys: dict) -> Event:
    expected = 3 if legacy else 4
    if len(fields) != expected or "" in fields:
        raise ValueError(f"line {lineno}: expected {expected} non-empty columns, got {fields!r}")
    try:
        ts = parse_timestamp(fields[0])
    except ValueError as exc:
        raise ValueError(f"line {lineno}: {exc}") from None
    if legacy:
        _, device, value = fields
        attribute = ATTRIBUTE_FOR_VALUE.get(value, "state")
    else:
        _, device, attribute, value = fields
    return Event(ts, _interned(keys, device, attribute, value), value)


def parse_log(text: str) -> list[Event]:
    """Parse CSV log content into time-ordered events.

    The header row is required. Out-of-order rows are stably sorted by
    timestamp, so equal timestamps keep file order.
    """
    reader = csv.reader(io.StringIO(text))
    events: list[Event] = []
    keys: dict[tuple[str, str, str], EventKey] = {}
    header: tuple[str, ...] | None = None
    legacy = False
    try:
        for fields in reader:  # line_num counts physical lines; a quoted field may span several
            lineno = reader.line_num
            fields = [f.strip() for f in fields]
            if not any(fields):
                continue
            if header is None:
                header = tuple(f.lower() for f in fields)
                if header == LOG_HEADER:
                    legacy = False
                elif header == LEGACY_HEADER:
                    legacy = True
                else:
                    raise ValueError(
                        f"line {lineno}: expected header {','.join(LOG_HEADER)} "
                        f"(or legacy {','.join(LEGACY_HEADER)}), got {','.join(header)}"
                    )
                continue
            events.append(_row_to_event(fields, legacy, lineno, keys))
    except csv.Error as exc:
        raise ValueError(f"line {reader.line_num}: {exc}") from None
    if header is None:
        raise ValueError("empty log: header row required")
    events.sort(key=lambda e: e.timestamp_ms)  # stable: ties keep file order
    return events


# The C scanner under json.loads; _json_lines calls it directly on each line.
_scan_once = json.JSONDecoder().scan_once


def _json_lines(text: str):
    """(line number, value) for each non-blank line of JSON-lines text.

    Lines end at "\n" only, so a U+2028 or U+0085 inside a string stays in
    its line. A line that is exactly one JSON value is decoded by the C
    scanner alone; any other line (JSON whitespace around the value, a BOM,
    trailing data, a scanner error) goes through json.loads, so every value
    and every error text is the one json.loads gives. A line that is only
    whitespace is skipped.
    """
    for lineno, line in enumerate(text.split("\n"), start=1):
        try:
            value, end = _scan_once(line, 0)
        except (StopIteration, ValueError, RecursionError):
            end = -1
        if end != len(line):
            if not line.strip():
                continue
            value = json_document(line, f"line {lineno}")
        yield lineno, value


def parse_log_jsonl(text: str) -> list[Event]:
    """Parse the JSON-lines twin of the CSV log format."""
    events: list[Event] = []
    keys: dict[tuple[str, str, str], EventKey] = {}
    for lineno, obj in _json_lines(text):
        try:
            events.append(_event_from_obj(obj, keys))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    events.sort(key=lambda e: e.timestamp_ms)
    return events


def _json_time(number: int | float) -> int:
    """A JSON-number timestamp as epoch milliseconds; a fraction part is floored."""
    if type(number) is float and not math.isfinite(number):
        raise ValueError(f"timestamp {json.dumps(number)!r} is not a finite number")
    ms = math.floor(number)
    if not 0 <= ms <= MAX_TIMESTAMP_MS:
        raise ValueError(f"timestamp {json.dumps(number)!r} is {_range_error(ms)}")
    return ms


def _event_from_obj(obj: dict, keys: dict) -> Event:
    if type(obj) is not dict:
        json_value(obj, dict, "an event")
    ts = obj.get("timestamp")
    if type(ts) is str:
        ts_ms = parse_timestamp(ts)
    else:  # a bool is rejected, not read as 1 ms
        ts_ms = _json_time(json_value(ts, (str, float), "timestamp"))
    value = obj.get("value")
    if type(value) is not str:  # a number becomes its str(): 21 -> "21", 21.5 -> "21.5"
        value = str(json_value(value, (str, float), "'value'"))
    return Event(ts_ms, _interned(keys, obj.get("device"), obj.get("attribute"), value), value)


def _event_to_obj(event: Event) -> dict:
    return {
        "timestamp": format_timestamp(event.timestamp_ms),
        "device": event.key.device,
        "attribute": event.key.attribute,
        "value": event.raw_value,
    }


def serialize_log(events: list[Event], fmt: str = "csv") -> str:
    """Render events back to log text; the inverse of parse_log / parse_log_jsonl."""
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(LOG_HEADER)
        for e in events:
            writer.writerow(
                [format_timestamp(e.timestamp_ms), e.key.device, e.key.attribute, e.raw_value]
            )
        return out.getvalue()
    if fmt == "jsonl":
        return "".join(json.dumps(_event_to_obj(e)) + "\n" for e in events)
    raise ValueError(f"unknown log format {fmt!r}")


def segment(events: list[Event], cfg: RunConfig | None = None) -> list[ActivityInstance]:
    """Split a time-ordered event list into activity instances at idle gaps.

    Consecutive events closer than cfg.gap_seconds share a segment; segments
    with fewer than cfg.min_segment_len events are dropped.
    """
    cfg = cfg or RunConfig()
    gap_ms = cfg.gap_ms
    instances: list[ActivityInstance] = []
    run: list[Event] = []

    def flush() -> None:
        if len(run) >= cfg.min_segment_len:
            instances.append(
                ActivityInstance(
                    events=tuple(run),
                    label=LABEL_UNLABELED,
                    source_id=f"seg-{len(instances):04d}",
                )
            )

    for event in events:
        gap = event.timestamp_ms - run[-1].timestamp_ms if run else 0
        if gap < 0:
            raise ValueError("events must be time-ordered before segmentation")
        if gap >= gap_ms:
            flush()
            run = []
        run.append(event)
    if run:
        flush()
    return instances


def instances_to_jsonl(instances: list[ActivityInstance]) -> str:
    """One JSON object per instance: {"source_id", "label", "events": [...]}."""
    lines = []
    for inst in instances:
        try:
            events = [_event_to_obj(e) for e in inst.events]
        except ValueError as exc:
            raise ValueError(f"instance {inst.source_id!r}: {exc}") from None
        lines.append(
            json.dumps({"source_id": inst.source_id, "label": inst.label, "events": events})
        )
    return "".join(line + "\n" for line in lines)


def instances_from_jsonl(text: str) -> list[ActivityInstance]:
    instances: list[ActivityInstance] = []
    keys: dict[tuple[str, str, str], EventKey] = {}
    for lineno, obj in _json_lines(text):
        try:
            obj = json_value(obj, dict, "an instance")
            events = json_value(obj.get("events"), list, "'events'")
            instances.append(
                ActivityInstance(
                    events=tuple(_event_from_obj(e, keys) for e in events),
                    label=json_value(obj.get("label", LABEL_UNLABELED), str, "'label'"),
                    source_id=json_value(obj.get("source_id", ""), str, "'source_id'"),
                )
            )
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return instances
