"""Experiment records: a fixed, versioned JSON schema for CLI results.

Identical command and seed must serialize byte-identically apart from the
runtime_ms field, so payloads are emitted with sorted keys and contain no
other volatile data.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Optional

from . import __version__
from .core import Coloring, Orientation

if TYPE_CHECKING:
    from .solvers import Certificate

SCHEMA = "dichroma.result.v1"

__all__ = [
    "SCHEMA",
    "make_record",
    "record_json",
    "strip_runtime",
    "certificate_payload",
    "coloring_payload",
    "coloring_from_payload",
]


def make_record(
    command: str,
    params: dict[str, Any],
    runtime_ms: Optional[float] = None,
    **payload: Any,
) -> dict[str, Any]:
    record: dict[str, Any] = {
        "schema": SCHEMA,
        "tool_version": __version__,
        "command": command,
        "params": params,
    }
    record.update(payload)
    if runtime_ms is not None:
        record["runtime_ms"] = round(runtime_ms, 3)
    return record


def record_json(record: dict[str, Any]) -> str:
    return json.dumps(record, sort_keys=True, indent=2, allow_nan=False) + "\n"


def strip_runtime(record: dict[str, Any]) -> dict[str, Any]:
    return {k: v for k, v in record.items() if k != "runtime_ms"}


def coloring_payload(coloring: Coloring) -> dict[str, Any]:
    return {
        "palette": list(coloring.palette),
        "assignment": list(coloring.assignment),
    }


def coloring_from_payload(payload: dict[str, Any]) -> Coloring:
    return Coloring(tuple(payload["palette"]), tuple(payload["assignment"]))


def orientation_bits(o: Orientation) -> str:
    """An orientation as text: one "1" or "0" per edge, its direction bit."""
    return "".join("1" if b else "0" for b in o.direction)


def certificate_payload(cert: Certificate) -> dict[str, Any]:
    out: dict[str, Any] = {
        "value": cert.value,
        "exact": cert.exact,
        "lower": cert.lower,
        "upper": cert.upper,
        "detail": cert.detail,
    }
    if cert.witness is not None:
        out["witness"] = coloring_payload(cert.witness)
    if cert.witness_orientation is not None:
        out["witness_orientation"] = orientation_bits(cert.witness_orientation)
    if cert.rejecting_assignment is not None:
        out["rejecting_assignment"] = {
            "palette": list(cert.rejecting_assignment.palette),
            "k": cert.rejecting_assignment.k,
            "lists": [list(lst) for lst in cert.rejecting_assignment.lists],
        }
    return out

