"""Structured run reports and their lossless JSON serialization.

A report is rendered by the stdlib encoder with insertion key order, so
identical reports serialize identically. The fields of :class:`Report` are
the one list of its keys: the serializer writes them in their order and the
parser reads them back by name. Floats are written in their shortest
round-trip form (Python's ``repr``), which reads back as the same binary64
value; a NaN or an infinity is refused with ``ValueError``. numpy booleans
and integers are written as their Python values, and any other type the
encoder does not know is refused with ``TypeError``.
"""

import json
from dataclasses import dataclass, field, fields

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


def _plain(obj):
    """The Python value of a numpy boolean or integer in a report."""
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__} in a report")


def serialize_report(report: Report, indent: int = 2) -> str:
    """Render a report as deterministic JSON text."""
    payload = {f.name: getattr(report, f.name) for f in fields(report)}
    return json.dumps(payload, indent=indent, allow_nan=False, default=_plain)


def parse_report(text: str) -> Report:
    """Inverse of :func:`serialize_report`."""
    obj = json.loads(text)
    return Report(**{f.name: obj[f.name] for f in fields(Report)})
