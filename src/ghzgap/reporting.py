"""Machine-readable report emission: JSON, CSV, and run manifests.

Every floating-point value is serialized with 17 significant digits so the
printed text re-parses to the identical bit pattern; reports embed a
manifest (command, parameter echo, seed, version, timestamp, and for
seeded runs the random-stream environment) so a payload
can always be traced back to the invocation that produced it.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction
from typing import Any, Mapping, Optional, Sequence

from .errors import DomainError

SCHEMA_VERSION = 1


def format_float(value: float) -> str:
    """17-significant-digit decimal form; round-trips to the same float."""
    if math.isnan(value) or math.isinf(value):
        raise DomainError(f"cannot serialize non-finite value {value!r}")
    return format(value, ".17g")


def _emit(value: Any, indent: int, level: int) -> str:
    pad = " " * (indent * level)
    inner = " " * (indent * (level + 1))
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, Fraction):
        return json.dumps(f"{value.numerator}/{value.denominator}")
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, Mapping):
        if not value:
            return "{}"
        items = []
        for key, item in value.items():
            if not isinstance(key, str):
                raise DomainError(f"JSON object keys must be strings, got {key!r}")
            items.append(f"{inner}{json.dumps(key)}: {_emit(item, indent, level + 1)}")
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [f"{inner}{_emit(item, indent, level + 1)}" for item in value]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    raise DomainError(f"cannot serialize {type(value).__name__} to JSON")


def dumps_json(payload: Any, indent: int = 2) -> str:
    """JSON text with deterministic layout and 17-digit floats.

    The standard library encoder offers no control over float formatting,
    hence this small recursive emitter. Key order is insertion order.
    """
    return _emit(payload, indent, 0)


def format_cell(value: Any) -> str:
    """One CSV cell; floats get the same 17-digit form as JSON."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, int):
        return str(value)
    text = str(value)
    if any(c in text for c in ",\"\n\r"):
        raise DomainError(f"CSV cell would need quoting: {text!r}")
    return text


def dumps_csv(columns: Sequence[str], rows: Sequence[Mapping[str, Any]]) -> str:
    """CSV text: header row plus one line per row dict, comma-delimited."""
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(format_cell(row.get(col)) for col in columns))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class RunManifest:
    """Invocation record embedded in every emitted report."""

    schema_version: int
    command: str
    parameters: Mapping[str, Any]
    seed: Optional[int]
    version: str
    timestamp: str
    environment: Optional[Mapping[str, Any]] = None

    def to_payload(self) -> dict[str, Any]:
        payload = {
            "schema_version": self.schema_version,
            "command": self.command,
            "parameters": dict(self.parameters),
            "seed": self.seed,
            "version": self.version,
            "timestamp": self.timestamp,
        }
        if self.environment is not None:
            payload["environment"] = dict(self.environment)
        return payload


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
    return datetime.fromtimestamp(epoch, tz=timezone.utc).isoformat()


def build_manifest(
    command: str,
    parameters: Mapping[str, Any],
    seed: Optional[int] = None,
    environment: Optional[Mapping[str, Any]] = None,
) -> RunManifest:
    """Manifest for one report; ``environment`` states how its numbers were
    produced (e.g. the random stream) and is left out when None."""
    from . import __version__

    return RunManifest(
        schema_version=SCHEMA_VERSION,
        command=command,
        parameters=dict(parameters),
        seed=seed,
        version=__version__,
        timestamp=_timestamp(),
        environment=environment,
    )
