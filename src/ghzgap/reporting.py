"""Machine-readable report emission: JSON, CSV, and run manifests.

Both writers are the standard library's: a float is written as its
``repr``, the shortest text that parses back to the identical bit pattern,
and a non-finite float is refused rather than written to JSON. Reports
embed a manifest (command, parameter echo, seed, version, timestamp, and
for seeded runs the random-stream environment) so a payload can always be
traced back to the invocation that produced it.

`dumps_json` and `dumps_csv` return a whole report as text. `write_json` and
`write_csv` write the same text to a stream and take the rows of a table
report as an iterator, so a report of any length is written in constant
memory. Both read the rows BATCH_ROWS at a time, the first batch before
they write anything; `write_json` encodes and writes a batch at a time,
`write_csv` a row at a time.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import os
import time
from datetime import datetime, timezone
from fractions import Fraction
from typing import Any, Iterable, Iterator, Mapping, Optional, Sequence, TextIO

from .errors import DomainError

SCHEMA_VERSION = 1

#: Rows the writers read at a time; `write_json` encodes and writes them at once.
BATCH_ROWS = 4096

#: A table report's rows are flat objects one level inside the payload, so
#: indent=2 puts each key at six spaces. The C encoder (used only when
#: indent is None) with this item separator writes the keys' line breaks,
#: and one replace of `_ROW_BOUNDARY` writes the lines between two rows.
_ROW_SEPARATOR = ",\n      "
_ROW_BOUNDARY = "}" + _ROW_SEPARATOR + "{"


def _fraction_text(value: Any) -> str:
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    raise DomainError(f"cannot serialize {type(value).__name__} to JSON")


_ROW_ENCODER = json.JSONEncoder(
    separators=(_ROW_SEPARATOR, ": "), allow_nan=False, default=_fraction_text
)


def dumps_json(payload: Any) -> str:
    """JSON text, keys in insertion order; a Fraction becomes "n/d"."""
    # json.dump feeds the encoder's chunks to the buffer one at a time;
    # json.dumps would first collect them all in one list to join, which
    # doubles the peak memory of a large payload.
    buf = io.StringIO()
    try:
        json.dump(payload, buf, indent=2, allow_nan=False, default=_fraction_text)
    except ValueError as exc:
        raise DomainError(f"cannot serialize to JSON: {exc}") from exc
    return buf.getvalue()


def dumps_csv(columns: Sequence[str], rows: Iterable[Mapping[str, Any]]) -> str:
    """CSV text: header row plus one line per row dict, comma-delimited.

    A missing value or None is an empty cell; floats use the same repr as
    JSON.
    """
    buf = io.StringIO()
    write_csv(buf, columns, rows)
    return buf.getvalue()


def _batches(rows: Iterable[Any]) -> Iterator[list[Any]]:
    """Rows in lists of BATCH_ROWS, the last one shorter; none when empty.

    It keeps no batch it has handed out, so a writer that lets go of each
    batch before it asks for the next holds one at a time.
    """
    it = iter(rows)
    return iter(lambda: list(itertools.islice(it, BATCH_ROWS)), [])


def _encode_rows(batch: list[Mapping[str, Any]]) -> str:
    """The rows of `batch` as dumps_json writes them inside a list that is a
    top-level value, without the list's brackets and outer line breaks."""
    try:
        text = _ROW_ENCODER.encode(batch)
    except ValueError as exc:
        raise DomainError(f"cannot serialize to JSON: {exc}") from exc
    # An encoded string escapes every newline, so each raw newline in the
    # text is a separator and the boundary cannot occur inside a value.
    body = text[2:-2].replace(_ROW_BOUNDARY, "\n    },\n    {\n      ")
    return "{\n      " + body + "\n    }"


def write_json(out: TextIO, payload: dict[str, Any]) -> None:
    """Write dumps_json(payload) and a newline to `out`.

    When the payload's last value is an iterator, it is read as the rows of
    a list: flat, non-empty dicts. The first batch of rows is encoded before
    the first write, so an error in it leaves `out` untouched; later batches
    are encoded and written one at a time.
    """
    rows = next(reversed(payload.values()), None)
    if not isinstance(rows, Iterator):
        out.write(dumps_json(payload) + "\n")
        return
    batches = _batches(rows)
    batch = next(batches, None)
    head = dumps_json({**payload, next(reversed(payload)): []})
    if batch is None:
        out.write(head + "\n")
        return
    # head ends with the empty list and the closing brace: "[]\n}".
    separator = head[:-4] + "[\n    "
    while batch is not None:
        out.write(separator + _encode_rows(batch))
        del batch  # one batch in memory at a time
        separator = ",\n    "
        batch = next(batches, None)
    out.write("\n  ]\n}\n")


def write_csv(
    out: TextIO, columns: Optional[Sequence[str]], rows: Iterable[Mapping[str, Any]]
) -> None:
    """Write dumps_csv(columns, rows) to `out`.

    `columns` None takes the first row's keys. Rows are read BATCH_ROWS at
    a time, and the first batch before the first write, so an error in it
    leaves `out` untouched; the header and the rows are then written to
    `out` a row at a time.
    """
    batches = _batches(rows)
    batch = next(batches, [])
    if columns is None:
        columns = list(batch[0]) if batch else []
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    while batch is not None:
        writer.writerows([row.get(col) for col in columns] for row in batch)
        del batch  # one batch in memory at a time
        batch = next(batches, None)


def _timestamp() -> str:
    """Current UTC time, or the SOURCE_DATE_EPOCH instant when that is set.

    Honoring SOURCE_DATE_EPOCH lets callers pin the one non-deterministic
    manifest field and obtain byte-identical reports across reruns.
    """
    raw = os.environ.get("SOURCE_DATE_EPOCH")
    if raw is not None:
        try:
            epoch = int(raw)
        except ValueError as exc:
            raise DomainError(
                f"SOURCE_DATE_EPOCH must be an integer epoch second, got {raw!r}"
            ) from exc
    else:
        epoch = int(time.time())
    try:
        return datetime.fromtimestamp(epoch, tz=timezone.utc).isoformat()
    except (ValueError, OverflowError, OSError) as exc:
        raise DomainError(f"SOURCE_DATE_EPOCH {epoch} is not a representable date: {exc}") from exc


def build_manifest(
    command: str,
    parameters: Mapping[str, Any],
    seed: Optional[int] = None,
    environment: Optional[Mapping[str, Any]] = None,
) -> dict[str, Any]:
    """Manifest payload for one report; ``environment`` states how its
    numbers were produced (e.g. the random stream) and is left out when None."""
    from . import __version__

    manifest = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "parameters": dict(parameters),
        "seed": seed,
        "version": __version__,
        "timestamp": _timestamp(),
    }
    if environment is not None:
        manifest["environment"] = dict(environment)
    return manifest
