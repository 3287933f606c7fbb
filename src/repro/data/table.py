"""Relational table data model used throughout the reproduction.

A :class:`Table` is a list of :class:`Column` objects of equal length.  Every
column carries its ground-truth semantic type label (the prediction target of
the column-type annotation task) and optionally the KG entity ids its cells
were generated from, which the corpus statistics and some tests use as an
oracle but which no model is allowed to read.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from collections.abc import Iterable, Iterator, Sequence

from repro.text.ner import EntitySchema, detect_schema

__all__ = ["Column", "Table", "schemas_are_numeric", "table_key"]


def schemas_are_numeric(cells: Iterable[tuple[str, EntitySchema]]) -> bool:
    """The numeric-column rule over ``(cell, schema)`` pairs.

    Numeric when every non-empty cell is a NUMBER and at least one cell is
    non-empty.  Shared by :meth:`Column.is_numeric` and Part 1, which passes
    the schemas it already detected while linking.
    """
    non_empty = False
    for cell, schema in cells:
        if not cell.strip():
            continue
        if schema is not EntitySchema.NUMBER:
            return False
        non_empty = True
    return non_empty


@dataclass
class Column:
    """A single table column.

    Parameters
    ----------
    name:
        Header string (may be empty — web tables frequently lack headers).
    cells:
        Cell mention strings, one per row.
    label:
        Ground-truth semantic type, e.g. ``"Cricketer"`` or ``"city"``.
    source_entity_ids:
        Optional KG entity ids the cells were generated from (oracle only).
    """

    name: str
    cells: list[str]
    label: str | None = None
    source_entity_ids: list[str | None] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.cells = [str(cell) for cell in self.cells]
        if self.source_entity_ids and len(self.source_entity_ids) != len(self.cells):
            raise ValueError("source_entity_ids must be empty or match the number of cells")

    def __len__(self) -> int:
        return len(self.cells)

    def is_numeric(self) -> bool:
        """A column is numeric when *all* of its non-empty cells are numbers.

        This matches the paper's definition used for Table III: "If all cells
        from a column are numeric, we classify this column as numeric".
        """
        return schemas_are_numeric((cell, detect_schema(cell)) for cell in self.cells)

    def truncated(self, max_rows: int) -> Column:
        """Return a copy keeping only the first ``max_rows`` cells."""
        return replace(
            self,
            cells=list(self.cells[:max_rows]),
            source_entity_ids=list(self.source_entity_ids[:max_rows]),
        )


@dataclass
class Table:
    """A relational table with labelled columns."""

    table_id: str
    columns: list[Column]
    source: str = "synthetic"

    def __post_init__(self) -> None:
        if not self.columns:
            raise ValueError("a table must have at least one column")
        lengths = {len(column) for column in self.columns}
        if len(lengths) > 1:
            raise ValueError(f"all columns must have the same length, got {sorted(lengths)}")

    # ------------------------------------------------------------------ #
    @property
    def n_rows(self) -> int:
        return len(self.columns[0])

    @property
    def n_columns(self) -> int:
        return len(self.columns)

    def cell(self, row: int, col: int) -> str:
        """Return the mention at ``(row, col)``."""
        return self.columns[col].cells[row]

    def row(self, row: int) -> list[str]:
        """Return all mentions of one row."""
        return [column.cells[row] for column in self.columns]

    def iter_rows(self) -> Iterator[list[str]]:
        for row in range(self.n_rows):
            yield self.row(row)

    def labels(self) -> list[str | None]:
        """Ground-truth labels of all columns (in column order)."""
        return [column.label for column in self.columns]

    # ------------------------------------------------------------------ #
    def with_rows(self, row_indices: Sequence[int]) -> Table:
        """Return a new table containing only the given rows (in order)."""
        new_columns = []
        for column in self.columns:
            new_columns.append(
                Column(
                    name=column.name,
                    cells=[column.cells[i] for i in row_indices],
                    label=column.label,
                    source_entity_ids=(
                        [column.source_entity_ids[i] for i in row_indices]
                        if column.source_entity_ids
                        else []
                    ),
                )
            )
        return Table(table_id=self.table_id, columns=new_columns, source=self.source)

    def truncated(self, max_rows: int) -> Table:
        """Return a copy keeping only the first ``max_rows`` rows."""
        return Table(
            table_id=self.table_id,
            columns=[column.truncated(max_rows) for column in self.columns],
            source=self.source,
        )

    def split_columns(self, max_columns: int) -> list[Table]:
        """Split into several tables of at most ``max_columns`` columns.

        The paper imposes a maximum of 8 columns per table: "If a table
        contains more than 8 columns, we divide it into multiple tables ...
        and conduct the encoding and annotation process separately."
        """
        if self.n_columns <= max_columns:
            return [self]
        pieces = []
        for start in range(0, self.n_columns, max_columns):
            chunk = self.columns[start : start + max_columns]
            pieces.append(
                Table(
                    table_id=f"{self.table_id}#part{start // max_columns}",
                    columns=chunk,
                    source=self.source,
                )
            )
        return pieces

    def describe(self) -> dict[str, object]:
        """Lightweight summary used by corpus statistics."""
        return {
            "table_id": self.table_id,
            "n_rows": self.n_rows,
            "n_columns": self.n_columns,
            "labels": self.labels(),
            "numeric_columns": sum(1 for column in self.columns if column.is_numeric()),
        }


def table_key(table: Table) -> str:
    """Content digest of a table: same bytes in, same key out.

    Covers the table id and each column's name, cells and label (cached
    Part-1 results carry the labels as ground truth).  Every serving tier
    receives :class:`Table` objects (the gateway parses JSON into them and
    the wire pickles them).  Collisions are SHA-256-hard; identity is
    *content*, so a re-sent table hits regardless of which request object
    carried it, and a reused id with different content misses.
    """
    digest = hashlib.sha256()
    digest.update(repr(table.table_id).encode())
    for column in table.columns:
        digest.update(b"\x00col\x00")
        digest.update(repr(column.name).encode())
        for cell in column.cells:
            digest.update(b"\x00")
            digest.update(repr(cell).encode())
        digest.update(b"\x00label\x00")
        digest.update(repr(column.label).encode())
    return digest.hexdigest()
