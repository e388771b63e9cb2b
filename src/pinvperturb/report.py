"""Structured run reports and their lossless JSON serialization.

Floats are rendered with 17 significant digits (%.17g), which is enough to
round-trip any binary64 value exactly. The emitter is hand-rolled because
the stdlib encoder offers no hook for float formatting; output is plain
JSON (objects, arrays, strings, numbers, booleans, null) with insertion
key order, so identical reports serialize identically.
"""

import json
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Report:
    """One CLI invocation's inputs, verdicts, timings, and tolerances.

    The CLI fills ``timings`` with ``total_ms`` and, within it, the time
    spent reading and writing Matrix Market files (``read_ms``, ``write_ms``).
    """

    command: str
    inputs: dict = field(default_factory=dict)
    verdicts: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    tolerances_used: dict = field(default_factory=dict)


def _emit(obj, pieces, indent, level):
    pad = " " * (indent * (level + 1))
    close_pad = " " * (indent * level)
    if obj is None:
        pieces.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        pieces.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        pieces.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        value = float(obj)
        if not np.isfinite(value):
            raise ValueError(f"cannot serialize non-finite float {value!r}")
        pieces.append(format(value, ".17g"))
    elif isinstance(obj, str):
        pieces.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            pieces.append("{}")
            return
        pieces.append("{\n")
        for k, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"report keys must be strings, got {type(key).__name__}")
            pieces.append(f"{pad}{json.dumps(key)}: ")
            _emit(value, pieces, indent, level + 1)
            pieces.append(",\n" if k < len(obj) - 1 else "\n")
        pieces.append(close_pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not len(obj):
            pieces.append("[]")
            return
        pieces.append("[\n")
        for k, value in enumerate(obj):
            pieces.append(pad)
            _emit(value, pieces, indent, level + 1)
            pieces.append(",\n" if k < len(obj) - 1 else "\n")
        pieces.append(close_pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} in a report")


def serialize_report(report: Report, indent: int = 2) -> str:
    """Render a report as deterministic JSON text."""
    payload = {
        "command": report.command,
        "inputs": report.inputs,
        "verdicts": report.verdicts,
        "timings": report.timings,
        "tolerances_used": report.tolerances_used,
    }
    pieces = []
    _emit(payload, pieces, indent, 0)
    return "".join(pieces)


def parse_report(text: str) -> Report:
    """Inverse of :func:`serialize_report`."""
    obj = json.loads(text)
    return Report(
        command=obj["command"],
        inputs=obj["inputs"],
        verdicts=obj["verdicts"],
        timings=obj["timings"],
        tolerances_used=obj["tolerances_used"],
    )
