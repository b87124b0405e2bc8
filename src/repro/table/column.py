"""Column storage: dictionary-encoded categorical and numeric columns.

Categorical columns store an ``int32`` code array plus a value
dictionary, which is the representation every mining algorithm in
:mod:`repro.core` operates on — rule coverage is a vectorised equality
test on codes.  Numeric columns store a ``float64`` array and are used
as measure columns (Section 6.3) or as raw input to bucketization
(Section 6.2).
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from repro.errors import EncodingError, SchemaError

__all__ = ["CategoricalColumn", "NumericColumn"]


class CategoricalColumn:
    """A dictionary-encoded categorical column.

    Parameters
    ----------
    codes:
        Integer array of value codes, each in ``[0, len(values))``.
    values:
        The dictionary: ``values[code]`` is the decoded value.  Values
        may be any hashable Python objects (strings, ints, intervals).

    The code array is stored read-only; columns are immutable.
    """

    __slots__ = ("_codes", "_values", "_value_to_code")

    def __init__(self, codes: np.ndarray | Sequence[int], values: Sequence[Any]):
        codes = np.asarray(codes, dtype=np.int32)
        if codes.ndim != 1:
            raise SchemaError("categorical codes must be a 1-d array")
        values = tuple(values)
        value_to_code: dict[Any, int] = {}
        for code, value in enumerate(values):
            if value in value_to_code:
                raise SchemaError(f"duplicate dictionary value: {value!r}")
            value_to_code[value] = code
        if codes.size and (codes.min() < 0 or codes.max() >= len(values)):
            raise SchemaError("code out of range for dictionary")
        codes.setflags(write=False)
        self._codes = codes
        self._values = values
        self._value_to_code = value_to_code

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_values(cls, raw: Iterable[Any]) -> "CategoricalColumn":
        """Encode raw values, building the dictionary in first-seen order."""
        values: list[Any] = []
        value_to_code: dict[Any, int] = {}
        codes: list[int] = []
        for v in raw:
            code = value_to_code.get(v)
            if code is None:
                code = len(values)
                value_to_code[v] = code
                values.append(v)
            codes.append(code)
        return cls(np.asarray(codes, dtype=np.int32), values)

    def extend_with_values(self, raw: Iterable[Any]) -> "CategoricalColumn":
        """Return a column with ``raw`` appended, dictionary prefix kept.

        Existing values keep their codes and unseen values get fresh
        codes in first-seen order — exactly the assignment
        :meth:`from_values` would produce had the whole stream been
        encoded at once, so an append is bit-identical (codes *and*
        dictionary) to a cold re-encode of old+new.  This is the
        invariant the versioned catalog's incremental maintenance
        (first-pick delta bincounts) rests on.
        """
        values = list(self._values)
        value_to_code = dict(self._value_to_code)
        new_codes: list[int] = []
        for v in raw:
            try:
                code = value_to_code.get(v)
            except TypeError:
                raise EncodingError(f"unhashable value: {v!r}") from None
            if code is None:
                code = len(values)
                value_to_code[v] = code
                values.append(v)
            new_codes.append(code)
        codes = np.concatenate(
            [self._codes, np.asarray(new_codes, dtype=np.int32)]
        )
        return CategoricalColumn(codes, values)

    # -- basic protocol ---------------------------------------------------------

    def __len__(self) -> int:
        return int(self._codes.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CategoricalColumn):
            return NotImplemented
        return self._values == other._values and np.array_equal(self._codes, other._codes)

    def __repr__(self) -> str:
        return f"CategoricalColumn(n={len(self)}, distinct={self.distinct_count})"

    # -- accessors ---------------------------------------------------------------

    @property
    def codes(self) -> np.ndarray:
        """The read-only ``int32`` code array."""
        return self._codes

    @property
    def values(self) -> tuple[Any, ...]:
        """The dictionary, indexed by code."""
        return self._values

    @property
    def distinct_count(self) -> int:
        """Number of dictionary entries (``|c|`` in the paper)."""
        return len(self._values)

    @property
    def nbytes(self) -> int:
        """Bytes held by the code array (shared-memory sizing helper)."""
        return int(self._codes.nbytes)

    def decode(self, code: int) -> Any:
        """Return the raw value for ``code``."""
        return self._values[code]

    def encode(self, value: Any) -> int:
        """Return the code for ``value``.

        Raises :class:`EncodingError` if the value is not in the
        dictionary.
        """
        try:
            return self._value_to_code[value]
        except KeyError:
            raise EncodingError(f"value not in column dictionary: {value!r}") from None
        except TypeError:
            raise EncodingError(f"unhashable value: {value!r}") from None

    def try_encode(self, value: Any) -> int | None:
        """Return the code for ``value`` or ``None`` if absent."""
        try:
            return self._value_to_code.get(value)
        except TypeError:
            return None

    def __getitem__(self, i: int) -> Any:
        return self._values[self._codes[i]]

    def to_list(self) -> list[Any]:
        """Decode the whole column to a Python list."""
        return [self._values[c] for c in self._codes]

    # -- vectorised operations --------------------------------------------------

    def mask_eq(self, code: int) -> np.ndarray:
        """Boolean mask of rows whose code equals ``code``."""
        return self._codes == code

    def take(self, indexes: np.ndarray) -> "CategoricalColumn":
        """Return a new column with rows gathered by ``indexes``.

        The dictionary is shared (not re-compacted), so codes remain
        comparable across the parent and the selection — an invariant
        the sampling layer relies on.
        """
        return CategoricalColumn(self._codes[indexes], self._values)

    def counts(self) -> np.ndarray:
        """Occurrence count of each code, aligned with :attr:`values`."""
        return np.bincount(self._codes, minlength=self.distinct_count)

    def frequencies(self) -> np.ndarray:
        """Relative frequency of each code (empty column → zeros)."""
        n = len(self)
        if n == 0:
            return np.zeros(self.distinct_count)
        return self.counts() / n

    def remap(self, mapping: Mapping[Any, Any]) -> "CategoricalColumn":
        """Return a column with dictionary values replaced via ``mapping``.

        Values absent from ``mapping`` are kept as-is.  Codes are
        unchanged, so this is O(distinct) not O(rows).
        """
        new_values = [mapping.get(v, v) for v in self._values]
        return CategoricalColumn(self._codes.copy(), new_values)


class NumericColumn:
    """A ``float64`` numeric column (measure or pre-bucketization)."""

    __slots__ = ("_data",)

    def __init__(self, data: np.ndarray | Sequence[float]):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim != 1:
            raise SchemaError("numeric data must be a 1-d array")
        arr.setflags(write=False)
        self._data = arr

    def __len__(self) -> int:
        return int(self._data.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NumericColumn):
            return NotImplemented
        return np.array_equal(self._data, other._data)

    def __repr__(self) -> str:
        return f"NumericColumn(n={len(self)})"

    def __getitem__(self, i: int) -> float:
        return float(self._data[i])

    @property
    def data(self) -> np.ndarray:
        """The read-only ``float64`` value array."""
        return self._data

    def to_list(self) -> list[float]:
        return self._data.tolist()

    def take(self, indexes: np.ndarray) -> "NumericColumn":
        """Return a new column with rows gathered by ``indexes``."""
        return NumericColumn(self._data[indexes])

    def extend_with_values(self, raw: Iterable[float]) -> "NumericColumn":
        """Return a column with ``raw`` appended (one ``float64`` copy)."""
        tail = np.asarray(list(raw), dtype=np.float64)
        return NumericColumn(np.concatenate([self._data, tail]))

    def mask_range(self, lo: float, hi: float, *, closed_right: bool = False) -> np.ndarray:
        """Boolean mask of rows with value in ``[lo, hi)`` (or ``[lo, hi]``)."""
        if closed_right:
            return (self._data >= lo) & (self._data <= hi)
        return (self._data >= lo) & (self._data < hi)

    def mask_eq(self, value: float) -> np.ndarray:
        """Boolean mask of rows exactly equal to ``value``."""
        return self._data == value
