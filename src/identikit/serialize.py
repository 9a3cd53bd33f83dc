"""Report serialization helpers: 17-significant-digit floats, CSV and JSON writers.

Numbers are printed with 17 significant digits so that re-parsing a CSV
recovers the exact binary double that also appears in the JSON summary.

``cli.run_analyses`` builds each results block of ``summary.json`` and each CSV but
``dataset.csv``; :func:`to_jsonable` writes a dataclass as an object whose keys are
its fields in declaration order, so reordering a field reorders the file.  The
summary is strict JSON: a non-finite float, array entries included, is ``null``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np


def fmt(x) -> str:
    """Render a float with enough digits for exact binary round-trip."""
    return format(float(x), ".17g")


def to_jsonable(obj):
    """Recursively convert dataclasses, arrays and numpy scalars to plain JSON values."""
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, np.generic):
        return to_jsonable(obj.item())
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    return obj


def write_json(path: str | Path, payload: dict) -> None:
    Path(path).write_text(json.dumps(to_jsonable(payload), indent=2, allow_nan=False) + "\n")


def write_csv(path: str | Path, columns: dict) -> None:
    """A column per entry of ``columns`` (name: values), floats by :func:`fmt`; unequal lengths raise ValueError."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in zip(*columns.values(), strict=True):
            writer.writerow(
                [fmt(v) if isinstance(v, (float, np.floating)) else v for v in row]
            )
