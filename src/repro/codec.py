"""The internal JSON form of rule values, rules and tables.

One encoding serves every place a rule leaves the process: snapshot
files (:mod:`repro.serving.persistence`), the router-to-shard pipe
(:mod:`repro.serving.shard`) and persisted sample sets
(:mod:`repro.serving.samples`).  Displayed nodes and expansion
records are built on it next to their classes, in
:mod:`repro.session.session`.  The HTTP front end speaks its own,
simpler public form (``null`` for the wildcard;
:func:`repro.serving.http.rule_to_wire`).

Rule values are tagged arrays, so every value type a rule can hold
round-trips exactly:

* ``["*"]`` — the wildcard;
* ``["n"]`` — a literal ``None`` value;
* ``["b", true]``, ``["s", "Walmart"]``, ``["i", 3]``, ``["f", 1.5]``;
* ``["iv", lo, hi, closed_right]`` — a bucketized
  :class:`~repro.table.bucketize.Interval`.

Floats round-trip bit-exactly through JSON's ``repr``-based encoding.
Decoding is strict: a wrong tag, arity or payload type raises
:class:`~repro.errors.SnapshotError` rather than coercing.

Tables travel as dictionary + codes per categorical column and float
data per numeric column.  The dictionary *order* is preserved, so the
decoded table's integer codes — and therefore every mining tie-break —
are identical to the original's.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.rule import STAR, Rule, Wildcard
from repro.errors import SnapshotError
from repro.table.bucketize import Interval
from repro.table.column import CategoricalColumn, NumericColumn
from repro.table.schema import ColumnKind, ColumnSchema, Schema
from repro.table.table import Table

__all__ = [
    "decode_rule",
    "decode_table",
    "decode_value",
    "encode_rule",
    "encode_table",
    "encode_value",
]


def encode_value(value: Any) -> list:
    """One rule value as a tagged JSON array (see module docstring)."""
    if isinstance(value, Wildcard):
        return ["*"]
    if value is None:
        return ["n"]
    if isinstance(value, bool):
        return ["b", value]
    if isinstance(value, str):
        return ["s", value]
    if isinstance(value, int):
        return ["i", int(value)]
    if isinstance(value, float):
        return ["f", float(value)]
    if isinstance(value, Interval):
        return ["iv", value.lo, value.hi, value.closed_right]
    # Dictionary-encoded columns can surface numpy scalars; map them to
    # their Python equivalents (equality and hashing agree, so decoded
    # rules still match the table's values).
    item = getattr(value, "item", None)
    if callable(item):
        return encode_value(item())
    raise SnapshotError(
        f"rule value {value!r} ({type(value).__name__}) is not serialisable"
    )


def _is_number(x: Any) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def decode_value(encoded: Any) -> Any:
    """Invert :func:`encode_value`; strict about tag, arity and type."""
    if isinstance(encoded, list):
        n = len(encoded)
        if n == 1:
            tag = encoded[0]
            if tag == "*":
                return STAR
            if tag == "n":
                return None
        elif n == 2:
            tag, x = encoded
            if tag == "s":
                if isinstance(x, str):
                    return x
            elif tag == "i":
                if type(x) is int:
                    return x
            elif tag == "f":
                if type(x) is float or type(x) is int:
                    return float(x)
            elif tag == "b":
                if type(x) is bool:
                    return x
        elif n == 4:
            tag, lo, hi, closed = encoded
            if tag == "iv" and _is_number(lo) and _is_number(hi) and type(closed) is bool:
                return Interval(float(lo), float(hi), closed)
    raise SnapshotError(f"malformed encoded rule value: {encoded!r}")


def encode_rule(rule: Rule) -> list:
    """A rule as one tagged JSON array per column."""
    return [encode_value(v) for v in rule]


def decode_rule(encoded: Any) -> Rule:
    """Invert :func:`encode_rule`."""
    if not isinstance(encoded, list):
        raise SnapshotError(f"malformed encoded rule: {encoded!r}")
    return Rule([decode_value(v) for v in encoded])


def encode_table(table: Table) -> dict:
    """A table as JSON: per-column dictionary + codes (categorical) or
    float data (numeric)."""
    columns = []
    for col_schema in table.schema:
        if col_schema.is_categorical:
            col = table.categorical(col_schema.name)
            columns.append(
                {
                    "kind": "categorical",
                    "name": col_schema.name,
                    "values": [encode_value(v) for v in col.values],
                    "codes": col.codes.tolist(),
                }
            )
        else:
            col = table.numeric(col_schema.name)
            columns.append(
                {"kind": "numeric", "name": col_schema.name, "data": col.data.tolist()}
            )
    return {"columns": columns, "rows": table.n_rows}


def decode_table(spec: dict) -> Table:
    """Invert :func:`encode_table`."""
    entries: list[ColumnSchema] = []
    columns: list[CategoricalColumn | NumericColumn] = []
    for col in spec["columns"]:
        if col["kind"] == "categorical":
            entries.append(ColumnSchema(col["name"], ColumnKind.CATEGORICAL))
            columns.append(
                CategoricalColumn(
                    np.asarray(col["codes"], dtype=np.int32),
                    [decode_value(v) for v in col["values"]],
                )
            )
        else:
            entries.append(ColumnSchema(col["name"], ColumnKind.NUMERIC))
            columns.append(NumericColumn(np.asarray(col["data"], dtype=np.float64)))
    return Table(Schema(entries), columns)
