"""Machine-readable report emission: JSON, CSV, and run manifests.

Both writers write what the standard library's `json` and `csv` modules
write: a float is written as its ``repr``, the shortest text that parses back
to the identical bit pattern; JSON refuses a non-finite float, CSV writes it
as ``nan`` or ``inf``. A batch of table rows is filled into a row template,
the text of one row with a slot for each cell: in JSON every batch, its cells
encoded by one `json` encoder pass; in CSV a batch whose cells are all ints
and floats (every `gap sweep` row), each cell its ``repr``, while any other
goes through `csv.writer`, which writes the same text for such rows. Reports
embed a manifest (command, parameter echo, seed, version, timestamp, and
for seeded runs the random-stream environment) so a payload can always be
traced back to the invocation that produced it.

`dumps_json` and `dumps_csv` return a whole report as text. `write_json` and
`write_csv` write the same text to a stream and take a table only as
`EncodedRows`, blocks of encoded rows: `encode` encodes rows, tuples of cells
in column order, BATCH_ROWS at a time as the writer asks for a block, or
blocks are joined from `fragments`. One loop writes them, so any report runs
in constant memory.
"""

from __future__ import annotations

import io
import itertools
import json
import os
import time
from typing import Any, Callable, Iterable, Iterator, Mapping, Optional, Sequence, TextIO

from .errors import DomainError

SCHEMA_VERSION = 1

#: Rows the writers encode at a time, into one block of text.
BATCH_ROWS = 4096

#: Where `fragments` cuts an encoded row: neither writer escapes or quotes it.
SPLICE = "#"

#: The cell types whose `repr` is their CSV text. Subclasses are not among
#: them: numpy's float64, for one, has a repr of its own.
_PLAIN_CELLS = frozenset((int, float))


def _fraction_text(value: Any) -> str:
    from fractions import Fraction  # only a report that holds one loads it

    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    raise DomainError(f"cannot serialize {type(value).__name__} to JSON")


#: Encodes a list of cells as dumps_json writes each cell, one a line
#: between the list's brackets: an encoded string escapes every newline.
_CELL_ENCODER = json.JSONEncoder(separators=("\n", ": "), allow_nan=False, default=_fraction_text)


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
    return _encode_csv([columns, *([row.get(c) for c in columns] for row in rows)])


def _encode_csv(batch: Iterable[Sequence[Any]]) -> str:
    """The rows of `batch` as CSV lines of their cells."""
    import csv  # only CSV reports load it

    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(batch)
    return buf.getvalue()


def _json_cells(cells: tuple[Any, ...]) -> tuple[str, ...]:
    """The JSON text of each of `cells`, which must all be scalars."""
    try:
        text = _CELL_ENCODER.encode(cells)
    except ValueError as exc:
        raise DomainError(f"cannot serialize to JSON: {exc}") from exc
    # A scalar's text starts with none of "[{", so a line that does starts
    # a list or an object cell.
    if text[1] in "[{" or "\n[" in text or "\n{" in text:
        raise DomainError("a table cell must be a scalar, not a list or an object")
    return tuple(text[1:-1].split("\n")) if cells else ()


def _batch_encoder(fmt: str, columns: Sequence[str]) -> Callable[[list[Sequence[Any]]], str]:
    """The `fmt` ("json" or "csv") writer's encoder of a batch of rows of
    `columns`, built once per table.

    A row must have one cell per column (DomainError). A batch is filled into
    the row template (the text of one row, a slot for each cell) repeated once
    per row, by one ``%``. In JSON a slot takes its cell's text from
    `_json_cells`; in CSV it is ``%r``, taken only by batches of ints and
    floats, and any other batch goes to `csv.writer`, which gives the same
    text where both apply.
    """
    width = {len(columns)}
    if fmt == "json":
        keys = [json.dumps(column).replace("%", "%%") for column in columns]
        row = "{\n      " + ",\n      ".join(f"{key}: %s" for key in keys) + "\n    }"
        sep = ",\n    "
    else:
        row, sep = ",".join(["%r"] * len(columns)) + "\n", ""

    def encode_batch(batch: list[Sequence[Any]]) -> str:
        if not width.issuperset(map(len, batch)):
            raise DomainError(f"every table row must have {len(columns)} cells, one per column")
        cells = tuple(itertools.chain.from_iterable(batch))
        if fmt == "json":
            cells = _json_cells(cells)
        elif not _PLAIN_CELLS.issuperset(map(type, cells)):
            return _encode_csv(batch)
        return sep.join([row] * len(batch)) % cells

    return encode_batch


class EncodedRows:
    """A table's rows already in the text one format's writer gives them, as
    blocks of whole rows, and the names of their `columns`."""

    def __init__(self, columns: list[str], blocks: Iterator[str]) -> None:
        self.columns, self.blocks = columns, blocks


def encode(fmt: str, columns: list[str], rows: Iterable[Sequence[Any]]) -> EncodedRows:
    """`rows`, tuples of cells in `columns` order, for the `fmt` writer,
    which has the next BATCH_ROWS of them encoded each time it asks for a
    block. No batch is kept once encoded, so the writer holds one at a time."""
    it = iter(rows)
    batches = iter(lambda: list(itertools.islice(it, BATCH_ROWS)), [])
    return EncodedRows(columns, map(_batch_encoder(fmt, columns), batches))


def fragments(fmt: str, columns: list[str], rows: list[Sequence[Any]]) -> list[str]:
    """The `fmt` writer's block of `rows`, tuples of cells in `columns`
    order, cut at each SPLICE: joined with a text, the pieces are the block
    of the same rows with that text in place of SPLICE."""
    return _batch_encoder(fmt, columns)(rows).split(SPLICE)


def _write_blocks(
    out: TextIO, head: str, blocks: Iterator[str], sep: str, tail: str, empty: str
) -> None:
    """Write head, the blocks with `sep` between two, and tail; or `empty`
    when there are none. The first block is computed before the first write,
    so an error in it leaves `out` untouched."""
    block = next(blocks, None)
    out.write(empty if block is None else head)
    while block is not None:
        out.write(block)
        del block  # one block in memory at a time
        block = next(blocks, None)
        out.write(tail if block is None else sep)


def write_json(out: TextIO, payload: dict[str, Any]) -> None:
    """Write dumps_json(payload) and a newline to `out`.

    When the payload's last value is `EncodedRows` (of the JSON writer), it
    is written as the list of their rows, objects of at least one column.
    """
    rows = next(reversed(payload.values()), None)
    if not isinstance(rows, EncodedRows):
        out.write(dumps_json(payload) + "\n")
        return
    head = dumps_json({**payload, next(reversed(payload)): []})
    # head ends with the empty list and the closing brace: "[]\n}".
    _write_blocks(out, head[:-4] + "[\n    ", rows.blocks, ",\n    ", "\n  ]\n}\n", head + "\n")


def write_csv(out: TextIO, rows: EncodedRows) -> None:
    """Write `rows`, `EncodedRows` of the CSV writer, to `out` under the
    header of their columns: dumps_csv of the same columns and rows."""
    header = dumps_csv(rows.columns, ())
    _write_blocks(out, header, rows.blocks, "", "", header)


#: The first and last second of the years 1 to 9999, the dates that the
#: manifest's four-digit timestamp can write.
_FIRST_EPOCH, _LAST_EPOCH = -62135596800, 253402300799


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
    if not _FIRST_EPOCH <= epoch <= _LAST_EPOCH:
        raise DomainError(
            f"SOURCE_DATE_EPOCH {epoch} is not a representable date: "
            "it lies outside 0001-01-01T00:00:00 to 9999-12-31T23:59:59 UTC"
        )
    # Not strftime: glibc's "%Y" writes year 1 as "1", not "0001".
    return "%04d-%02d-%02dT%02d:%02d:%02d+00:00" % time.gmtime(epoch)[:6]


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
