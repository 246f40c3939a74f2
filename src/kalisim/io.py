"""Point serialization: CSV for point data, JSON for summaries.

Times are printed with 17 significant digits so parsing the file back yields
bit-identical floats.
"""

from __future__ import annotations

import csv
import json

from .core import Configuration
from .errors import ConfigError


def open_output(path: str, newline: str | None = None):
    """``path`` opened for writing; a path that cannot be written is a ConfigError."""
    try:
        return open(path, "w", newline=newline)
    except OSError as exc:
        raise ConfigError([f"cannot write output file {path}: {exc.strerror or exc}"]) from None


def emit_points(path: str, points: Configuration) -> int:
    """Write rows ``time,node`` sorted by time; returns the row count."""
    rows = sorted((t, j) for j, ts in points.items() for t in ts)
    with open_output(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "node"])
        for t, j in rows:
            writer.writerow([f"{t:.17g}", j])
    return len(rows)


def write_summary(path: str, summary: dict) -> None:
    with open_output(path) as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
