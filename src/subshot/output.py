"""Output rows: the record of one row, a run's rows kept as columns, and
their CSV and JSON text.

A run's rows stay columns: `experiments.run_experiment` returns a
`RowTable`, which keeps a repeated cell once, the labels and grid points as
distinct values plus an index (`Indexed`), and the report cells as lists,
and builds a `SweepRow` only when one is read.  `text_pieces` writes a
`RowTable` as CSV, JSON or both, `_BLOCK_ROWS` rows at a time, and
`rows_to_csv` gives the whole CSV text.
The writers spell runs of adjacent columns (`_runs`): repeated cells as one
joined text per table, `Indexed` columns over one index list as one joined
text per position a block reads, and each list column once per block.  A
list that several columns are (by identity: `experiments._grid_rows` passes
a column bit for bit equal to the one before it as that list) is spelled
once.
Each cell is spelled once for every format written: its JSON text is its
CSV text but for None, non-finite numbers and cells other than int and
float.  A row joins its runs' texts and the format's keys in order.  The
bytes are those of writing each row on its own (`tests/_oracles.py`), and a
file is written one block at a time.
"""

from __future__ import annotations

import operator
from collections.abc import Callable, Iterator, Sequence
from itertools import repeat
from typing import NamedTuple


class SweepRow(NamedTuple):
    """One output record; unused coordinates/outputs stay None."""

    experiment: str
    source: str
    detector: str
    stages: int | None
    t: float | None
    mean_photons: float | None
    fluctuation: float | None
    nu: int
    expectation: float | None = None
    bias: float | None = None
    variance: float | None = None
    mse: float | None = None
    relative_mse_percent: float | None = None
    ratio_to_snl: float | None = None
    asymptotic_floor_percent: float | None = None
    ci_low: float | None = None
    ci_high: float | None = None
    mse_exact: float | None = None
    z_expectation: float | None = None
    z_mse: float | None = None
    seed: int = 0
    config_hash: str = ""


# Output column order: the field order of `SweepRow`.
ROW_COLUMNS = SweepRow._fields


class Indexed(NamedTuple):
    """An output column whose row i holds `values[index[i]]`: the labels of
    a run's (source, detector) pairs, or the points of its grid."""

    values: list
    index: list


def _cells(column, lo: int, hi: int) -> list:
    """The cells of rows lo to hi - 1 of a `RowTable` column."""
    if isinstance(column, list):
        return column[lo:hi]
    if isinstance(column, Indexed):
        return [column.values[i] for i in column.index[lo:hi]]
    return [column] * (hi - lo)


class RowTable(Sequence):
    """The rows of a run, kept as columns: column j holds field
    `ROW_COLUMNS[j]` as a list with one cell per row, as an `Indexed`
    column, or as one cell that every row repeats.  Read-only; a `SweepRow`
    is built only when one is read, and `==` compares row by row with any
    sequence of rows."""

    __hash__ = None

    def __init__(self, length: int, columns: list):
        for name, column in zip(ROW_COLUMNS, columns, strict=True):
            cells = column.index if isinstance(column, Indexed) else column
            if isinstance(cells, list) and len(cells) != length:
                raise ValueError(f"column {name} holds {len(cells)} cells for {length} rows")
        self._length = length
        self.columns = columns

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, i: int) -> SweepRow:
        i = range(self._length)[operator.index(i)]  # negative from the end
        return SweepRow._make(_cells(column, i, i + 1)[0] for column in self.columns)

    def __iter__(self):
        cells = (_cells(column, 0, self._length) for column in self.columns)
        return map(SweepRow._make, zip(*cells))

    def __eq__(self, other):
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))


# Rows formatted at a time by the writers: only the text of one block, not
# of the whole table, is held at once while a file is written.
_BLOCK_ROWS = 256


def _csv_texts(cells: list) -> list[str]:
    """CSV cells: `str` of each value (the shortest round-trip repr of a
    float), None empty."""
    return ["" if v is None else str(v) for v in cells]


# The CSV texts that JSON spells otherwise, for cells of `_JSON_PLAIN` types.
_JSON_SPECIAL = {"": "null", "nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# Cell types whose JSON text is their CSV text up to `_JSON_SPECIAL`;
# `json.dumps` spells every other cell.
_JSON_PLAIN = {float, int, type(None)}


def _json_texts(cells: list, texts: list[str]) -> list[str]:
    """Cells as `json.dumps` spells them, from their CSV `texts`."""
    if set(map(type, cells)) <= _JSON_PLAIN:
        if _JSON_SPECIAL.keys().isdisjoint(texts):
            return texts
        return [_JSON_SPECIAL.get(text, text) for text in texts]
    import json  # only runs that write strings or bools as JSON import it

    return list(map(json.dumps, cells))


class _Format(NamedTuple):
    """A text format of rows: `keys[j]` goes before the cell of column j
    in a row, `row_sep` between two rows, `head` and `tail` around the rows,
    `empty` is the whole text of no rows, and `spell` gives the format's
    texts of a list of cells from their CSV texts."""

    keys: list[str]
    row_sep: str
    head: str
    tail: str
    empty: str
    spell: Callable[[list, list[str]], list[str]]


_HEADER = ",".join(ROW_COLUMNS) + "\n"
_FORMATS = {
    "csv": _Format(
        ["", *[","] * (len(ROW_COLUMNS) - 1)], "\n", _HEADER, "\n", _HEADER,
        lambda cells, texts: texts,
    ),
    # As `json.dumps` writes a list of dicts, indented by 2 (no column name
    # needs escaping), with a final newline.
    "json": _Format(
        [("," if j else "") + f'\n    "{name}": ' for j, name in enumerate(ROW_COLUMNS)],
        "\n  },\n  {", "[\n  {", "\n  }\n]\n", "[]\n", _json_texts,
    ),
}


def _runs(columns: list) -> list[list[int]]:
    """The columns grouped into runs of adjacent columns spelled together:
    columns of one repeated cell each, `Indexed` columns over one index
    list, or one list column."""
    runs, last = [], object()
    for j, column in enumerate(columns):
        # What the columns of a run share; a list column shares nothing.
        shared = (column.index if isinstance(column, Indexed)
                  else object() if isinstance(column, list) else None)
        if shared is last:
            runs[-1].append(j)
        else:
            runs.append([j])
        last = shared
    return runs


def _run_texts(columns: list, run: list[int], lo: int, hi: int, formats, spelled: dict):
    """Per format, the texts of rows lo to hi - 1 of a run: of a list column
    a list, spelled once per block also where more columns are that one list
    (`spelled`, by identity); of `Indexed` columns a list, spelled once per
    position these rows read and joined per position; of repeated cells one
    text."""
    first = columns[run[0]]
    if isinstance(first, list):
        if id(first) not in spelled:
            cells = first[lo:hi]
            base = _csv_texts(cells)
            spelled[id(first)] = [fmt.spell(cells, base) for fmt in formats]
        return spelled[id(first)]
    if isinstance(first, Indexed):
        index = first.index[lo:hi]
        used = list(dict.fromkeys(index))  # keyed by position, not by value
        cells = [[columns[j].values[i] for i in used] for j in run]
    else:
        index, cells = None, [[columns[j]] for j in run]
    bases = list(map(_csv_texts, cells))
    out = []
    for fmt in formats:
        parts = [fmt.spell(cells[0], bases[0])]
        for j, column_cells, base in zip(run[1:], cells[1:], bases[1:]):
            parts += [repeat(fmt.keys[j]), fmt.spell(column_cells, base)]
        joined = list(map("".join, zip(*parts)))
        out.append(joined[0] if index is None else list(map(dict(zip(used, joined)).__getitem__, index)))
    return out


def text_pieces(table: RowTable, names) -> Iterator[tuple[str, ...]]:
    """The text of the rows in each format of `names` ("csv", "json"), in
    pieces of up to `_BLOCK_ROWS` rows, one tuple of pieces (one per format)
    at a time.  Each block's cells are spelled once for all the formats."""
    formats = [_FORMATS[name] for name in names]
    n = len(table)
    if not n:
        yield tuple(fmt.empty for fmt in formats)
        return
    columns, runs = table.columns, _runs(table.columns)
    # Per run of repeated cells, its one text per format, for every block.
    fixed = {r: _run_texts(columns, run, 0, n, formats, {}) for r, run in enumerate(runs)
             if not isinstance(columns[run[0]], (list, Indexed))}
    yield tuple(fmt.head for fmt in formats)
    for lo in range(0, n, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, n)
        if lo:
            yield tuple(fmt.row_sep for fmt in formats)
        parts, spelled = [[""] for _ in formats], {}
        for r, run in enumerate(runs):
            texts = fixed[r] if r in fixed else _run_texts(columns, run, lo, hi, formats, spelled)
            for fmt, fmt_parts, fmt_texts in zip(formats, parts, texts):
                fmt_parts[-1] += fmt.keys[run[0]]  # a text part after a text part joins it
                if isinstance(fmt_texts, str):
                    fmt_parts[-1] += fmt_texts
                else:
                    fmt_parts += [fmt_texts, ""]
        yield tuple(
            fmt.row_sep.join(map("".join, zip(*(repeat(p, hi - lo) if isinstance(p, str) else p
                                                 for p in fmt_parts if p != ""))))
            for fmt, fmt_parts in zip(formats, parts)
        )
    yield tuple(fmt.tail for fmt in formats)


def rows_to_csv(rows: RowTable) -> str:
    """Locale-free CSV with a header row; floats keep full precision (`str`
    of a Python float is its shortest round-trip repr), None is empty."""
    return "".join(piece for (piece,) in text_pieces(rows, ["csv"]))
