"""Fingerprints of a `hedgelab run` output directory, compared with a float tolerance.

Float results may change in their last digits when a reduction sums in
another order: OpenBLAS threads `ddot` differently with the thread count,
and a rewrite such as `p.sum(0) @ losses` for `np.dot(p.ravel(), tile)` is
mathematically equal but not bit-equal.  So floats are compared with a
relative tolerance, and everything else (integers, text, row counts,
non-finite values) exactly.

- `summary.json` is stored whole; its floats are compared one by one.
- A trace CSV keeps its header, its row count, a SHA-256 of each integer,
  text or non-finite column, and for each float column its sum, its
  row-weighted sum (which sees swapped rows) and its first, middle and last
  values.  A sum is compared against the sum of absolute values, so
  cancellation does not make the check stricter than the values' own
  precision.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

RTOL = 1e-9


def _column(values: list[str]) -> dict:
    try:
        floats = [float(v) for v in values]
    except ValueError:
        floats = None
    exact = floats is None or not all(map(math.isfinite, floats)) or all(v.lstrip("-").isdigit() for v in values)
    if exact:
        return {"sha256": hashlib.sha256("\n".join(values).encode()).hexdigest()}
    return {
        "sum": [math.fsum(floats), math.fsum(map(abs, floats))],
        "weighted_sum": [math.fsum(i * x for i, x in enumerate(floats, 1)), math.fsum(i * abs(x) for i, x in enumerate(floats, 1))],
        "values": [floats[0], floats[len(floats) // 2], floats[-1]],
        "max_abs": max(map(abs, floats)),
    }


def fingerprint(path: Path) -> dict:
    if path.suffix == ".json":
        return {"json": json.loads(path.read_text())}
    with path.open(newline="") as f:
        header, *rows = list(csv.reader(f))
    columns = list(zip(*rows)) if rows else [()] * len(header)
    return {"header": header, "rows": len(rows), "columns": {h: _column(list(c)) for h, c in zip(header, columns)}}


def _close(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= RTOL * scale


def _same_json(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float) and math.isfinite(a) and math.isfinite(b):
        return _close(a, b, max(abs(a), abs(b)))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same_json(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_same_json, a, b))
    return type(a) is type(b) and a == b


def _same_column(a: dict, b: dict) -> bool:
    if "sha256" in a or "sha256" in b:
        return a == b
    scale = max(a["max_abs"], b["max_abs"])
    return (
        all(_close(x, y, scale) for x, y in zip(a["values"], b["values"]))
        and all(_close(a[k][0], b[k][0], max(a[k][1], b[k][1])) for k in ("sum", "weighted_sum"))
    )


def same(a: dict, b: dict) -> bool:
    """Whether two fingerprints of one file agree within RTOL."""
    if "json" in a or "json" in b:
        return "json" in a and "json" in b and _same_json(a["json"], b["json"])
    return (
        a["header"] == b["header"]
        and a["rows"] == b["rows"]
        and all(_same_column(a["columns"][h], b["columns"][h]) for h in a["header"])
    )


def differing(got: dict, expected: dict) -> set[str]:
    """Names of files missing from either side or not the same within RTOL."""
    names = got.keys() | expected.keys()
    return {n for n in names if n not in got or n not in expected or not same(got[n], expected[n])}
