"""CSV table output with a JSON metadata sidecar.

Floats are written with shortest round-trip precision (repr), so reading
the file back reproduces the values exactly. Metadata sidecars carry the
config hash, seed, and tool version; they contain no timestamps so that
identical runs produce identical bytes.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from .errors import ParameterError


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def sidecar_path(path: Path) -> Path:
    return path.with_name(path.stem + ".meta.json")


def write_table(rows, path, *, columns=None, metadata: dict | None = None) -> Path:
    """Write rows (dicts with one shared key set) as CSV plus a sidecar.

    ``columns`` fixes the column order; it is required when ``rows`` is
    empty (a header-only file is still written). Rows whose key set
    deviates from the columns are rejected.
    """
    path = Path(path)
    rows = list(rows)
    if columns is None:
        if not rows:
            raise ParameterError("columns are required when writing an empty table")
        columns = list(rows[0].keys())
    else:
        columns = list(columns)
    column_set = set(columns)
    for i, row in enumerate(rows):
        if set(row.keys()) != column_set:
            raise ParameterError(
                f"row {i} columns {sorted(row.keys())} do not match header {sorted(column_set)}"
            )

    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_cell(row[c]) for c in columns])

    if metadata is not None:
        meta = dict(metadata)
        meta.setdefault("rows", len(rows))
        meta.setdefault("columns", columns)
        text = json.dumps(meta, indent=2, sort_keys=True, allow_nan=False)
        sidecar_path(path).write_text(text + "\n")
    return path


def read_table(path) -> list[dict[str, str]]:
    """Read a CSV written by :func:`write_table` back as string-valued rows."""
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        return list(reader)
