"""Event-log parsing, idle-gap segmentation, and the on-disk file formats.

The canonical log format is CSV with header ``timestamp,device,attribute,value``.
A three-column legacy form ``timestamp,device,value`` is accepted too; its
attribute is inferred from well-known state values (falling back to "state").
A JSON-lines twin carries the same four fields, one object per line.

Each parser takes the text itself or an iterable of its lines, such as an
open text file, and reads one line at a time, so parsing a file never holds
its text. Each parse call builds one EventKey per distinct (device,
attribute, state) and hands that same object to every event that carries
it, so a large log holds a few dozen keys and strings, not one per row.
Timestamps become epoch milliseconds by exact integer arithmetic, no float.

A numeric state ("21.5", any JSON number) is a sensor reading, not an event:
each reader checks one in full, drops it (and an instance of readings alone)
and warns once with the count. It is decided once per key, at interning.

The log readers work as the writers do: each call maps the text after a
line's timestamp, its tail, to the key that tail gave (None for a reading),
so a line with a tail seen before costs one timestamp parse (see parse_log
and parse_log_jsonl for when a tail may be kept).

The writers encode the fields of each distinct key once per call, with
json.dumps or csv.writer, and append that text to every event that
carries it, so only the timestamp is formatted per event.
The bytes are those json.dumps and csv.writer give for each whole object or
row. The CSV writer is given a CR LF row terminator, so that it quotes a
field holding a CR, and each row then ends in LF instead. The encoded keys
live as long as one call, and cli writes an instance file with one call per
slice of at most cli.WRITE_SLICE instances. A timestamp is built from
integer fields and no datetime: its "YYYY-MM-DDTHH:" prefix comes from a
cache keyed by the hour (at most HOUR_CACHE_SIZE hours), its minutes and
seconds from a 60-entry table, and its ".mmmZ" tail from a cache of at most
1000 values.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections.abc import Iterable
from datetime import datetime, timedelta, timezone
from functools import lru_cache
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import itemgetter

from tempoguard.config import RunConfig
from tempoguard.events import (
    ActivityInstance,
    Event,
    EventKey,
    LABEL_UNLABELED,
    MAX_TIMESTAMP_MS,
    MIN_ACTIVITY_EVENTS,
    check_tags,
    is_numeric_value,
    json_document,
    json_value,
)

LOG_HEADER = ("timestamp", "device", "attribute", "value")
LEGACY_HEADER = ("timestamp", "device", "value")

EPOCH_UTC = datetime(1970, 1, 1, tzinfo=timezone.utc)
ONE_MS = timedelta(milliseconds=1)
EPOCH_NAIVE = datetime(1970, 1, 1)  # _hour_prefix's base: naive, so no tz work per call
_UNSEEN = object()  # what a tail dict gives for a tail it lacks; a reading's tail holds None

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
    (naive assumed UTC, trailing Z or z accepted), and "M/D/YYYY HH:MM:SS"
    interpreted as UTC. Sub-millisecond digits are floored. A time before
    1970-01-01T00:00:00Z or past MAX_TIMESTAMP_MS is rejected, whichever
    form it came in (an ISO offset can move a year-9999 time past it).

    fromisoformat reads the token as it is first: it takes a trailing Z
    itself, so a log's usual token costs one C call. Only when that raises
    is a trailing Z or z rewritten to +00:00 and read again, and strptime
    comes last.
    """
    token = token.strip()
    if not token.isascii():  # int() and strptime also read other scripts' digits
        raise ValueError(f"unparseable timestamp {token!r}")
    if token.isdigit():
        ms = int(token)
    else:
        try:
            dt = datetime.fromisoformat(token)
        except ValueError:
            dt = _parse_slow(token)
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
        ms = (dt - EPOCH_UTC) // ONE_MS  # exact: timedelta // timedelta floors whole microseconds
    if not 0 <= ms <= MAX_TIMESTAMP_MS:
        raise ValueError(f"timestamp {token!r} is {_range_error(ms)}")
    return ms


def _parse_slow(token: str) -> datetime:
    """parse_timestamp's fallbacks for a stripped token that fromisoformat rejects."""
    if token.endswith(("Z", "z")):
        try:
            return datetime.fromisoformat(token[:-1] + "+00:00")
        except ValueError:
            pass
    try:
        return datetime.strptime(token, "%m/%d/%Y %H:%M:%S")
    except ValueError:
        raise ValueError(f"unparseable timestamp {token!r}") from None


# Distinct hours whose "YYYY-MM-DDTHH:" text _hour_prefix keeps: about 85 days,
# more than a 64x pipeline log spans (about 69), so a shuffled instance file evicts none.
HOUR_CACHE_SIZE = 2048

_TWO_DIGITS = [f"{n:02d}" for n in range(60)]


@lru_cache(maxsize=HOUR_CACHE_SIZE)
def _hour_prefix(hour: int) -> str:
    """The "YYYY-MM-DDTHH:" text of the hour that starts `hour` hours after the epoch."""
    return (EPOCH_NAIVE + timedelta(hours=hour)).isoformat()[:14]


@lru_cache(maxsize=None)  # frac is 0..999, so it holds at most 1000 strings
def _fraction_tail(frac: int) -> str:
    """The ".mmmZ" text for `frac` milliseconds past the second, or "Z" for none."""
    return f".{frac:03d}Z" if frac else "Z"


def format_timestamp(ms: int) -> str:
    """ISO-8601 UTC with millisecond precision ("...T13:00:01Z" / "...T13:00:01.234Z").

    Raises ValueError for a time that is not an integer, before 1970 or past
    MAX_TIMESTAMP_MS.
    """
    if type(ms) is not int:  # a bool is not a time either
        raise ValueError(f"timestamp {ms!r} ms is not an integer")
    if not 0 <= ms <= MAX_TIMESTAMP_MS:
        raise ValueError(f"timestamp {ms} ms is {_range_error(ms)}")
    hour, rest = divmod(ms, 3_600_000)
    minute, rest = divmod(rest, 60_000)
    second, frac = divmod(rest, 1000)
    return f"{_hour_prefix(hour)}{_TWO_DIGITS[minute]}:{_TWO_DIGITS[second]}{_fraction_tail(frac)}"


def _range_error(ms: int) -> str:
    """Why epoch milliseconds `ms`, outside 0..MAX_TIMESTAMP_MS, cannot be kept."""
    return "before 1970-01-01T00:00:00Z" if ms < 0 else "after 9999-12-31T23:59:59.999Z"


def _interned(keys: dict, device, attribute, state: str) -> EventKey | None:
    """The parse's one EventKey for (device, attribute, state), or None for a numeric reading.

    Decided on first sight, when device and attribute are checked to be strings
    and the key is built, a reading's too: every entry in `keys` passed those
    checks, and no other JSON value equals a string.
    """
    ident = (device, attribute, state)
    try:
        return keys[ident]
    except (KeyError, TypeError):  # unseen, or a JSON array or object: rejected below
        pass
    device = json_value(device, str, "'device'")
    key = EventKey(device, json_value(attribute, str, "'attribute'"), state)
    keys[ident] = None if is_numeric_value(state) else key
    return keys[ident]


def _warned(parsed: list, readings: int) -> list:
    """What a reader parsed, once one warning has counted the readings it dropped, if any."""
    if readings:
        import logging  # here, not at the top: only a warning needs it (README "Startup")
        logging.getLogger(__name__).warning("dropped %d numeric readings", readings)
    return parsed


def _row_to_event(fields: list[str], legacy: bool, lineno: int, keys: dict) -> Event | None:
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
    return (key := _interned(keys, device, attribute, value)) and Event(ts, key)


def _lines(source: str | Iterable[str]) -> Iterable[str]:
    """The lines of `source`: a str is read through io.StringIO, which ends lines at "\n" only."""
    return io.StringIO(source) if isinstance(source, str) else source


def parse_log(source: str | Iterable[str]) -> list[Event]:
    """Parse CSV log content (text, or its lines such as an open file) into time-ordered events.

    The header row is required; one byte-order mark before it is dropped.
    Out-of-order rows are stably sorted by timestamp, so equal timestamps
    keep file order.

    A one-line row whose text after its first comma (its tail) repeats that
    of an earlier one-line row reuses that row's key, so only its timestamp
    is parsed. Every other row is read by csv.reader, which may pull further
    lines for a quoted field that spans them.
    """
    lines = iter(_lines(source))
    events: list[Event] = []
    keys: dict[tuple[str, str, str], EventKey | None] = {}
    tails: dict[str, EventKey | None] = {}  # a checked one-line row's tail -> its key
    readings = 0
    limit = csv.field_size_limit()
    header: tuple[str, ...] | None = None
    legacy = False
    lineno = 0  # physical lines read; a quoted field may span several
    for line in lines:
        lineno += 1
        ts_text, _, tail = line.partition(",")
        # With no quote, CR or LF and within csv's field limit, ts_text is csv's whole first
        # field, and csv reads the tail into the same fields whatever ts_text holds.
        plain = (
            '"' not in ts_text
            and "\r" not in ts_text
            and "\n" not in ts_text
            and len(ts_text) <= limit
        )
        if plain and (key := tails.get(tail, _UNSEEN)) is not _UNSEEN:
            try:
                ts = parse_timestamp(ts_text)
                if key is not None:  # Event.__new__'s checks hold: ts is an int >= 0
                    events.append(tuple.__new__(Event, (ts, key)))
                else:  # a reading, checked and dropped
                    readings += 1
                continue
            except ValueError:
                pass  # csv.reader's path below names the error
        if lineno == 1:
            line = line.removeprefix("\ufeff")  # as a "CSV UTF-8" export begins
        # One row; a quoted field can pull further lines, which line_num counts.
        reader = csv.reader(chain((line,), lines))
        try:
            fields = next(reader)
        except csv.Error as exc:
            raise ValueError(f"line {lineno + reader.line_num - 1}: {exc}") from None
        lineno += reader.line_num - 1
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
        if event := _row_to_event(fields, legacy, lineno, keys):
            events.append(event)
        else:
            readings += 1
        if plain and reader.line_num == 1:
            tails[tail] = event and event.key  # None for a reading
    if header is None:
        raise ValueError("empty log: header row required")
    events.sort(key=itemgetter(0))  # stable: ties keep file order
    return _warned(events, readings)


# How the writers begin each JSON-lines log line: 15 characters, up to the timestamp's text.
_TIMESTAMP_HEAD = '{"timestamp": "'


def _json_lines(source: str | Iterable[str]):
    """(line number, json.loads of the line without its "\n") for each non-blank line.

    Lines end at "\n" only, so a U+2028 or U+0085 inside a string stays in
    its line. A line of only whitespace is skipped; an error names its line.
    """
    for lineno, line in enumerate(_lines(source), start=1):
        if line.strip():
            yield lineno, json_document(line.removesuffix("\n"), f"line {lineno}")


def parse_log_jsonl(source: str | Iterable[str]) -> list[Event]:
    """Parse the JSON-lines twin of the CSV log format (text, or its lines such as an open file).

    A line that begins as the writers begin one, with a string timestamp of
    printable characters and no backslash, and whose text from that
    string's closing quote (its tail) repeats that of an earlier such line,
    reuses that line's key, so only its timestamp is parsed. A tail is kept
    only if it holds no "timestamp" member of its own, which would win
    under json.loads. Every other line is json.loads of the line without its
    "\n", and a line of only whitespace is skipped.
    """
    events: list[Event] = []
    keys: dict[tuple[str, str, str], EventKey | None] = {}
    tails: dict[str, EventKey | None] = {}  # a checked line's tail -> its key
    readings = 0
    for lineno, line in enumerate(_lines(source), start=1):
        # With only printable characters and no backslash, the timestamp string ends at the
        # next quote, and json.loads reads it as written.
        plain = False
        if line.startswith(_TIMESTAMP_HEAD):
            end = line.find('"', 15)  # with none, the tail is one character: never kept
            ts_text, tail = line[15:end], line[end:]
            plain = "\\" not in ts_text and ts_text.isprintable()
            if plain and (key := tails.get(tail, _UNSEEN)) is not _UNSEEN:
                try:
                    ts = parse_timestamp(ts_text)
                    if key is not None:  # Event.__new__'s checks hold: ts is an int >= 0
                        events.append(tuple.__new__(Event, (ts, key)))
                    else:  # a reading, checked and dropped
                        readings += 1
                    continue
                except ValueError:
                    pass  # json.loads below names the error
        if not line.strip():
            continue
        obj = json_document(line.removesuffix("\n"), f"line {lineno}")
        try:
            event = _event_from_obj(obj, keys)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        if event:
            events.append(event)
        else:
            readings += 1
        if plain and tail[1:2] == "," and _no_timestamp_member(tail):
            tails[tail] = event and event.key  # None for a reading
    events.sort(key=itemgetter(0))
    return _warned(events, readings)


def _no_timestamp_member(tail: str) -> bool:
    """Whether the members after a line's timestamp, in its tail, surely hold no "timestamp".

    With no backslash in the tail, that name can only be written "timestamp",
    so the text alone decides; a value written so keeps the tail out too.
    """
    if "\\" not in tail:
        return '"timestamp"' not in tail
    return "timestamp" not in json.loads("{" + tail[2:])


def _json_time(number: int | float) -> int:
    """A JSON-number timestamp as epoch milliseconds; a fraction part is floored."""
    if type(number) is float and not math.isfinite(number):
        raise ValueError(f"timestamp {json.dumps(number)!r} is not a finite number")
    ms = math.floor(number)
    if not 0 <= ms <= MAX_TIMESTAMP_MS:
        raise ValueError(f"timestamp {json.dumps(number)!r} is {_range_error(ms)}")
    return ms


def _event_from_obj(obj: dict, keys: dict) -> Event | None:
    if type(obj) is not dict:
        json_value(obj, dict, "an event")
    ts = obj.get("timestamp")
    if type(ts) is str:
        ts_ms = parse_timestamp(ts)
    else:  # a bool is rejected, not read as 1 ms
        ts_ms = _json_time(json_value(ts, (str, float), "timestamp"))
    value = obj.get("value")
    if type(value) is not str:  # a number's str() ("21", "nan", "inf") makes it a reading
        value = str(json_value(value, (str, float), "'value'"))
    key = _interned(keys, obj.get("device"), obj.get("attribute"), value)
    # Event.__new__'s checks hold: ts_ms is an int >= 0, and key is an EventKey.
    return key and tuple.__new__(Event, (ts_ms, key))


def _events_json(events: Iterable[Event], tails: dict[EventKey, str]) -> list[str]:
    """The json.dumps text of each event's {"timestamp", "device", "attribute", "value"} object.

    `tails` maps each key to the encoded text after the timestamp, for one writer call.
    """
    out = []
    for ts, key in events:
        tail = tails.get(key)
        if tail is None:
            obj = {"device": key.device, "attribute": key.attribute, "value": key.state}
            tail = tails[key] = ", " + json.dumps(obj)[1:]
        out.append('{"timestamp": "' + format_timestamp(ts) + '"' + tail)
    return out


def serialize_log(events: list[Event], fmt: str) -> str:
    """Render events back to log text; the inverse of parse_log / parse_log_jsonl."""
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\r\n")
        writer.writerow(LOG_HEADER)
        rows = [out.getvalue()[:-2] + "\n"]
        tails: dict[EventKey, str] = {}  # key -> ",device,attribute,state\n"
        for ts, key in events:
            tail = tails.get(key)
            if tail is None:
                out.seek(0)
                out.truncate()
                writer.writerow(("", *key))
                tail = tails[key] = out.getvalue()[:-2] + "\n"
            rows.append(format_timestamp(ts) + tail)
        return "".join(rows)
    if fmt == "jsonl":
        return "".join(line + "\n" for line in _events_json(events, {}))
    raise ValueError(f"unknown log format {fmt!r}")


def segment(events: list[Event], cfg: RunConfig | None = None) -> list[ActivityInstance]:
    """Split a time-ordered event list into activity instances at idle gaps.

    Consecutive events closer than cfg.gap_seconds share a segment; segments
    with fewer than MIN_ACTIVITY_EVENTS events, too few to time, are dropped.
    """
    gap_ms = (cfg or RunConfig()).gap_ms
    instances: list[ActivityInstance] = []
    run: list[Event] = []
    last = 0  # times are >= 0: the first event is in order, and closing the empty run adds nothing

    def flush() -> None:
        if len(run) >= MIN_ACTIVITY_EVENTS:
            # ActivityInstance.__new__'s checks hold: run holds MIN_ACTIVITY_EVENTS >= 1 events in
            # time order (checked below), the label is valid and the source id a string.
            instances.append(
                tuple.__new__(
                    ActivityInstance, (tuple(run), LABEL_UNLABELED, f"seg-{len(instances):04d}")
                )
            )

    for event in events:
        ts = event.timestamp_ms
        if ts < last:
            raise ValueError("events must be time-ordered before segmentation")
        if ts - last >= gap_ms:
            flush()
            run = []
        run.append(event)
        last = ts
    flush()
    return instances


def instances_to_jsonl(instances: list[ActivityInstance]) -> str:
    """One JSON object per instance: {"source_id", "label", "events": [...]}."""
    lines = []
    tails: dict[EventKey, str] = {}
    for inst in instances:
        try:
            events = _events_json(inst.events, tails)
        except ValueError as exc:
            raise ValueError(f"instance {inst.source_id!r}: {exc}") from None
        # encode_basestring_ascii is what json.dumps applies to a str by default.
        head = '{"source_id": ' + encode_basestring_ascii(inst.source_id)
        head += ', "label": ' + encode_basestring_ascii(inst.label)
        lines.append(head + ', "events": [' + ", ".join(events) + "]}\n")
    return "".join(lines)


def instances_from_jsonl(source: str | Iterable[str]) -> list[ActivityInstance]:
    """Parse an instance file (text, or its lines such as an open file) in file order."""
    instances: list[ActivityInstance] = []
    keys: dict[tuple[str, str, str], EventKey | None] = {}
    readings = 0
    for lineno, obj in _json_lines(source):
        try:
            obj = json_value(obj, dict, "an instance")
            logged = json_value(obj.get("events"), list, "'events'")
            events = [e for raw in logged if (e := _event_from_obj(raw, keys)) is not None]
            label = json_value(obj.get("label", LABEL_UNLABELED), str, "'label'")
            source_id = json_value(obj.get("source_id", ""), str, "'source_id'")
            readings += len(logged) - len(events)
            if events or not logged:  # an empty "events" is still an error
                instances.append(ActivityInstance(tuple(events), label, source_id))
            else:  # only readings: the instance is dropped, but its tags are still checked
                check_tags(label, source_id)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return _warned(instances, readings)
