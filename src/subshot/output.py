"""Output rows: the record of one row, a run's rows kept as columns, and
their CSV and JSON text.

A run's rows stay columns: `experiments.run_experiment` returns a
`RowTable`, which keeps a repeated cell once, the labels and grid points as
distinct values plus an index (`Indexed`), and the report cells as lists,
and builds a `SweepRow` only when one is read.  The writers take a
`RowTable`: `rows_to_csv` gives the CSV text and `json_blocks` the JSON text
in pieces.  Both format it column by column, `_BLOCK_ROWS` rows at a time:
one text per repeated cell and per distinct label or grid value of a block,
one `str` per report cell, joined into rows by `zip`.  The bytes are those
of writing each row on its own (`tests/_oracles.py`), and a JSON file is
written one block at a time.
"""

from __future__ import annotations

import functools
import operator
from collections.abc import Callable, Iterator, Sequence
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


def _cells(column, lo: int, hi: int, spell: Callable[[list], list] = list) -> list:
    """The cells of rows lo to hi - 1 of a `RowTable` column, mapped by
    `spell`, a function from a list of cells to a list of texts.  `spell`
    is given a repeated cell once, and of an `Indexed` column each distinct
    position these rows read once."""
    if isinstance(column, list):
        return spell(column[lo:hi])
    if isinstance(column, Indexed):
        index = column.index[lo:hi]
        used = list(dict.fromkeys(index))  # keyed by position, not by value
        spelled = dict(zip(used, spell([column.values[i] for i in used])))
        return list(map(spelled.__getitem__, index))
    return spell([column]) * (hi - lo)


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
# of the whole table, is held at once while JSON is streamed to a file.
_BLOCK_ROWS = 256


def _text_blocks(table: RowTable, spells: list[Callable[[list], list]]):
    """Per block of up to `_BLOCK_ROWS` rows, one list of texts per column,
    column j spelled by `spells[j]` as `_cells` spells it."""
    for lo in range(0, len(table), _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, len(table))
        yield [_cells(column, lo, hi, spell) for column, spell in zip(table.columns, spells)]


def _csv_texts(cells: list) -> list[str]:
    """CSV cells: `str` of each value (the shortest round-trip repr of a
    float), None empty."""
    return ["" if v is None else str(v) for v in cells]


def rows_to_csv(rows: RowTable) -> str:
    """Locale-free CSV with a header row; floats keep full precision (`str`
    of a Python float is its shortest round-trip repr), None is empty."""
    lines = [",".join(ROW_COLUMNS)]
    for block in _text_blocks(rows, [_csv_texts] * len(ROW_COLUMNS)):
        lines.append("\n".join(map(",".join, zip(*block))))
    lines.append("")  # the final newline, without copying the text to add it
    return "\n".join(lines)


# What `json.dumps` writes for a number that `str` spells otherwise.
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# Cell types whose JSON text is their `str`, or `null` for None, up to
# `_JSON_NONFINITE`; `json.dumps` spells every other cell.
_JSON_PLAIN = {float, int, type(None)}
# Before each column's cell: the key (no column name needs escaping), after
# the comma of the cell before.
_JSON_KEYS = [("," if j else "") + f'\n    "{name}": ' for j, name in enumerate(ROW_COLUMNS)]


def _json_texts(key: str, cells: list) -> list[str]:
    """Cells as `json.dumps` spells them, each after `key`."""
    import json  # only runs that write JSON import it

    if set(map(type, cells)) <= _JSON_PLAIN:
        texts = ["null" if v is None else str(v) for v in cells]
        if not _JSON_NONFINITE.keys().isdisjoint(texts):
            texts = [_JSON_NONFINITE.get(text, text) for text in texts]
    else:
        texts = list(map(json.dumps, cells))
    return list(map(key.__add__, texts))


def json_blocks(rows: RowTable) -> Iterator[str]:
    """The rows as `json.dumps` writes a list of their dicts, indented by 2,
    with a final newline, in pieces of up to `_BLOCK_ROWS` rows."""
    yield "["
    separator = "\n"
    spells = [functools.partial(_json_texts, key) for key in _JSON_KEYS]
    for block in _text_blocks(rows, spells):
        n = len(block[0])
        yield separator
        yield ",\n".join(map("".join, zip(["  {"] * n, *block, ["\n  }"] * n)))
        separator = ",\n"
    yield "]\n" if separator == "\n" else "\n]\n"
