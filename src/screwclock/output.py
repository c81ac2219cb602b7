"""CSV table output with a JSON metadata sidecar.

Floats are written with shortest round-trip precision (str), so reading
the file back reproduces the values exactly. Metadata sidecars carry the
config hash, seed, and tool version; they contain no timestamps so that
identical runs produce identical bytes.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from .errors import ParameterError

_CHUNK_ROWS = 4096  # rows formatted at a time, which bounds the memory of long tables


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)  # shortest round-trip for floats, numpy scalars included


def _format_column(values: list) -> list[str]:
    """Format a column, each distinct value object once.

    Keyed by identity, not equality: 1 == 1.0 == True and 0.0 == -0.0, yet
    each writes differently. ``values`` keeps every object, so no id repeats.
    """
    ids = list(map(id, values))
    text = {key: _format_cell(value) for key, value in dict(zip(ids, values)).items()}
    return list(map(text.__getitem__, ids))


def write_table(rows: list[dict], path, *, metadata: dict | None = None) -> Path:
    """Write rows (dicts with one shared key set) as CSV plus a sidecar.

    The first row fixes the column order; rows whose key set deviates
    from it, and an empty row list, are rejected.
    """
    path = Path(path)
    if not rows:
        raise ParameterError("cannot write a table without rows")
    columns = list(rows[0])
    for i, row in enumerate(rows):
        if row.keys() != rows[0].keys():
            raise ParameterError(f"row {i} columns {sorted(row)} do not match header {sorted(columns)}")

    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(columns)
        for start in range(0, len(rows), _CHUNK_ROWS):
            chunk = rows[start:start + _CHUNK_ROWS]
            writer.writerows(zip(*(_format_column([row[c] for row in chunk]) for c in columns)))

    if metadata is not None:
        meta = {"rows": len(rows), "columns": columns, **metadata}
        text = json.dumps(meta, indent=2, sort_keys=True, allow_nan=False)
        path.with_name(path.stem + ".meta.json").write_text(text + "\n")
    return path
