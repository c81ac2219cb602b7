"""CSV table output with a JSON metadata sidecar.

A table is handed over as columns: a mapping from column name to a
sequence of values, all of one length. Each cell is written as ``str`` of
its value (shortest round-trip for floats, numpy scalars included), except
``None`` as an empty field and ``True``/``False`` as ``true``/``false``.
Quoting is CSV's minimal quoting: a field holding ``,``, ``"`` or a newline
is quoted with inner quotes doubled, and a row of one empty field is
written as ``""``. Every cell goes through one formatter, ``_text``, and
each column is quoted and encoded as UTF-8 a chunk of rows at a time. A
table whose cells need no quoting may instead arrive as its rows' bytes
(:class:`TableText`, as the schedule streams them); columns become the
same TableText, so the header, the binary write and the sidecar are one
code path for both. Metadata sidecars carry the config hash, seed, and
tool version; they contain no timestamps so that identical runs produce
identical bytes.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from pathlib import Path

from .errors import ParameterError

# Rows of a column table joined, encoded and written at a time, which
# bounds the memory of long tables.
_CHUNK_ROWS = 1024


def _text(value) -> str:
    """A cell's text before quoting: ``str(value)``, or the None/True/False word."""
    if value is None:
        return ""
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)


def _quote(texts: list[str], single_column: bool) -> list[str]:
    """The texts of one column, quoted where they need it."""
    joined = "".join(texts)
    if "," in joined or '"' in joined or "\n" in joined:
        texts = ['"' + text.replace('"', '""') + '"' if "," in text or '"' in text or "\n" in text
                 else text for text in texts]
    if single_column and "" in texts:
        texts = [text or '""' for text in texts]
    return texts


class TableText:
    """A table handed over as its CSV rows: column names, row count and row bytes.

    ``chunks`` yields ``bytes`` of whole UTF-8 rows, each ending in a
    newline, whose cells need no quoting; it is read once. ``len()`` is the
    number of columns, as for the column mapping.
    """

    __slots__ = ("columns", "n_rows", "chunks")

    def __init__(self, columns: Iterable, n_rows: int, chunks: Iterable[bytes]):
        self.columns, self.n_rows, self.chunks = tuple(columns), n_rows, chunks

    def __len__(self) -> int:
        return len(self.columns)


def _column_text(rows: dict) -> TableText:
    """Columns as TableText, formatted, quoted and encoded a chunk of rows at a time."""
    columns = list(rows.values())
    n_rows = len(columns[0]) if columns else 0
    lengths = {name: len(column) for name, column in rows.items()}
    if n_rows and set(lengths.values()) != {n_rows}:
        raise ParameterError(f"columns differ in length: {lengths}")
    single = len(columns) == 1

    def chunks():
        for start in range(0, n_rows, _CHUNK_ROWS):
            texts = (_quote(list(map(_text, column[start:start + _CHUNK_ROWS])), single)
                     for column in columns)
            yield ("\n".join(map(",".join, zip(*texts))) + "\n").encode()

    return TableText(rows, n_rows, chunks())


def write_table(rows: dict | TableText, path, *, metadata: dict | None = None) -> Path:
    """Write a table, as columns (name -> sequence of values) or as TableText, plus a sidecar.

    The mapping's order is the column order. Columns of unequal length, a
    table without rows, and metadata that is not strict JSON (a non-finite
    float) are rejected. The directory is made only then, so a rejected
    table leaves nothing behind.
    """
    table = rows if isinstance(rows, TableText) else _column_text(rows)
    if not table.n_rows:
        raise ParameterError("cannot write a table without rows")
    sidecar = None
    if metadata is not None:
        meta = {"rows": table.n_rows, "columns": list(table.columns), **metadata}
        sidecar = json.dumps(meta, indent=2, sort_keys=True, allow_nan=False) + "\n"
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as handle:
        handle.write((",".join(_quote(list(map(str, table.columns)), len(table) == 1)) + "\n").encode())
        handle.writelines(table.chunks)
    if sidecar is not None:
        path.with_name(path.stem + ".meta.json").write_text(sidecar)
    return path
