"""The in-memory columnar :class:`Table` — the paper's relation ``D``.

Tables are immutable: every transformation (filter, take, projection)
returns a new ``Table``.  Row selections share column dictionaries with
their parent so that integer codes remain comparable across a table and
any sample of it, which the mining and sampling layers exploit.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.errors import SchemaError
from repro.table.column import CategoricalColumn, NumericColumn
from repro.table.schema import ColumnKind, ColumnSchema, Schema

__all__ = ["Table"]

Column = CategoricalColumn | NumericColumn


class Table:
    """An immutable columnar table.

    Parameters
    ----------
    schema:
        The table :class:`~repro.table.schema.Schema`.
    columns:
        One column object per schema entry, kind-matched and all of the
        same length.
    """

    __slots__ = ("_schema", "_columns", "_n_rows")

    def __init__(self, schema: Schema, columns: Sequence[Column]):
        columns = tuple(columns)
        if len(columns) != len(schema):
            raise SchemaError(
                f"schema has {len(schema)} columns but {len(columns)} were provided"
            )
        n_rows: int | None = None
        for col_schema, col in zip(schema, columns):
            if col_schema.is_categorical and not isinstance(col, CategoricalColumn):
                raise SchemaError(f"column {col_schema.name!r} must be categorical")
            if col_schema.is_numeric and not isinstance(col, NumericColumn):
                raise SchemaError(f"column {col_schema.name!r} must be numeric")
            if n_rows is None:
                n_rows = len(col)
            elif len(col) != n_rows:
                raise SchemaError(
                    f"column {col_schema.name!r} has {len(col)} rows, expected {n_rows}"
                )
        self._schema = schema
        self._columns = columns
        self._n_rows = n_rows or 0

    # -- construction -----------------------------------------------------------

    @classmethod
    def from_rows(
        cls,
        schema: Schema | Sequence[str],
        rows: Iterable[Sequence[Any]],
    ) -> "Table":
        """Build a table by encoding an iterable of row tuples.

        ``schema`` may be a full :class:`Schema` or a plain sequence of
        column names, in which case every column is categorical.
        """
        if not isinstance(schema, Schema):
            schema = Schema.categorical(list(schema))
        buffers: list[list[Any]] = [[] for _ in schema]
        width = len(schema)
        for row in rows:
            if len(row) != width:
                raise SchemaError(f"row has {len(row)} fields, expected {width}")
            for buf, value in zip(buffers, row):
                buf.append(value)
        columns: list[Column] = []
        for col_schema, buf in zip(schema, buffers):
            if col_schema.is_categorical:
                columns.append(CategoricalColumn.from_values(buf))
            else:
                columns.append(NumericColumn(np.asarray(buf, dtype=np.float64)))
        return cls(schema, columns)

    @classmethod
    def from_dict(cls, data: Mapping[str, Sequence[Any]], schema: Schema | None = None) -> "Table":
        """Build a table from ``{column name: values}``.

        Without an explicit schema, columns whose values are all
        ``int``/``float`` (and not ``bool``) become numeric; everything
        else becomes categorical.
        """
        if schema is None:
            entries = []
            for name, values in data.items():
                numeric = len(values) > 0 and all(
                    isinstance(v, (int, float)) and not isinstance(v, bool) for v in values
                )
                kind = ColumnKind.NUMERIC if numeric else ColumnKind.CATEGORICAL
                entries.append(ColumnSchema(name, kind))
            schema = Schema(entries)
        columns: list[Column] = []
        for col_schema in schema:
            values = data[col_schema.name]
            if col_schema.is_categorical:
                columns.append(CategoricalColumn.from_values(values))
            else:
                columns.append(NumericColumn(np.asarray(values, dtype=np.float64)))
        return cls(schema, columns)

    # -- basic protocol -----------------------------------------------------------

    def __len__(self) -> int:
        return self._n_rows

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        return (
            self._schema == other._schema
            and len(self) == len(other)
            and self.to_rows() == other.to_rows()
        )

    def __repr__(self) -> str:
        return f"Table(rows={self._n_rows}, schema={self._schema!r})"

    # -- accessors -------------------------------------------------------------------

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def n_rows(self) -> int:
        return self._n_rows

    @property
    def n_columns(self) -> int:
        return len(self._schema)

    @property
    def column_names(self) -> tuple[str, ...]:
        return self._schema.names

    def column(self, key: int | str) -> Column:
        """Return the column object for a name or positional index."""
        if isinstance(key, str):
            key = self._schema.index_of(key)
        return self._columns[key]

    def categorical(self, key: int | str) -> CategoricalColumn:
        """Return a categorical column, raising on kind mismatch."""
        col = self.column(key)
        if not isinstance(col, CategoricalColumn):
            raise SchemaError(f"column {key!r} is not categorical")
        return col

    def numeric(self, key: int | str) -> NumericColumn:
        """Return a numeric column, raising on kind mismatch."""
        col = self.column(key)
        if not isinstance(col, NumericColumn):
            raise SchemaError(f"column {key!r} is not numeric")
        return col

    def row(self, i: int) -> tuple[Any, ...]:
        """Return row ``i`` as a decoded tuple."""
        if not -self._n_rows <= i < self._n_rows:
            raise IndexError(f"row index {i} out of range for {self._n_rows} rows")
        return tuple(col[i if i >= 0 else self._n_rows + i] for col in self._columns)

    def rows(self) -> Iterator[tuple[Any, ...]]:
        """Iterate decoded row tuples."""
        for i in range(self._n_rows):
            yield self.row(i)

    def to_rows(self) -> list[tuple[Any, ...]]:
        """Materialise all decoded rows."""
        return list(self.rows())

    def to_dict(self) -> dict[str, list[Any]]:
        """Return ``{column name: decoded values}``."""
        return {name: col.to_list() for name, col in zip(self.column_names, self._columns)}

    # -- transformations -----------------------------------------------------------

    def take(self, indexes: np.ndarray | Sequence[int]) -> "Table":
        """Return a table of the rows at ``indexes`` (dictionaries shared)."""
        indexes = np.asarray(indexes, dtype=np.int64)
        return Table(self._schema, [col.take(indexes) for col in self._columns])

    def filter(self, mask: np.ndarray) -> "Table":
        """Return the rows where the boolean ``mask`` is true."""
        mask = np.asarray(mask)
        if mask.dtype != np.bool_ or mask.shape != (self._n_rows,):
            raise SchemaError("filter mask must be a boolean array of length n_rows")
        return self.take(np.nonzero(mask)[0])

    def head(self, n: int) -> "Table":
        """Return the first ``n`` rows."""
        return self.take(np.arange(min(n, self._n_rows), dtype=np.int64))

    def select(self, names: Sequence[str]) -> "Table":
        """Return a table with only the named columns, in the given order."""
        idx = [self._schema.index_of(n) for n in names]
        return Table(self._schema.restrict(names), [self._columns[i] for i in idx])

    def rename(self, mapping: Mapping[str, str]) -> "Table":
        """Return a table with columns renamed via ``mapping``."""
        entries = [
            ColumnSchema(mapping.get(c.name, c.name), c.kind) for c in self._schema
        ]
        return Table(Schema(entries), self._columns)

    def with_column(self, schema: ColumnSchema, column: Column) -> "Table":
        """Return a table with an extra column appended."""
        return Table(Schema(list(self._schema) + [schema]), list(self._columns) + [column])

    def replace_column(self, name: str, schema: ColumnSchema, column: Column) -> "Table":
        """Return a table with column ``name`` swapped for ``column``."""
        idx = self._schema.index_of(name)
        columns = list(self._columns)
        columns[idx] = column
        return Table(self._schema.replace(name, schema), columns)

    def append_rows(self, rows: Iterable[Sequence[Any]]) -> "Table":
        """Return a table with ``rows`` appended (a new table version).

        The dictionary-prefix invariant: every existing categorical
        code keeps its meaning, unseen values extend the dictionaries
        in first-seen order, and numeric tails are one ``float64``
        copy — so the result is bit-identical (schema, dictionaries,
        code arrays) to :meth:`from_rows` over old rows + new rows,
        while costing O(appended) encoding work instead of O(total).
        The parent table is untouched; sessions pinned to it keep
        mining exactly the rows they started with.
        """
        width = len(self._schema)
        buffers: list[list[Any]] = [[] for _ in self._schema]
        for row in rows:
            if len(row) != width:
                raise SchemaError(f"row has {len(row)} fields, expected {width}")
            for buf, value in zip(buffers, row):
                buf.append(value)
        columns = [
            col.extend_with_values(buf) for col, buf in zip(self._columns, buffers)
        ]
        return Table(self._schema, columns)

    def concat(self, other: "Table") -> "Table":
        """Stack two tables with equal schemas.

        Dictionaries are re-encoded so the result is self-consistent
        even when the inputs used different code assignments.
        """
        if self._schema != other._schema:
            raise SchemaError("cannot concat tables with different schemas")
        columns: list[Column] = []
        for col_schema, a, b in zip(self._schema, self._columns, other._columns):
            if col_schema.is_categorical:
                assert isinstance(a, CategoricalColumn) and isinstance(b, CategoricalColumn)
                columns.append(CategoricalColumn.from_values(a.to_list() + b.to_list()))
            else:
                assert isinstance(a, NumericColumn) and isinstance(b, NumericColumn)
                columns.append(NumericColumn(np.concatenate([a.data, b.data])))
        return Table(self._schema, columns)

    def categorical_code_arrays(self) -> tuple[np.ndarray, ...]:
        """Code arrays of every categorical column, in schema position order.

        The arrays are the columns' own read-only buffers (zero-copy),
        ordered identically to ``schema.categorical_indexes``, which the
        mining engines index by categorical *position*.
        """
        return tuple(
            self.categorical(idx).codes for idx in self._schema.categorical_indexes
        )

    # -- statistics ---------------------------------------------------------------

    def distinct_counts(self) -> dict[str, int]:
        """Dictionary size ``|c|`` per categorical column."""
        return {
            name: col.distinct_count
            for name, col in zip(self.column_names, self._columns)
            if isinstance(col, CategoricalColumn)
        }
