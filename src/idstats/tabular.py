"""Schema-driven CSV ingestion, deduplication, categorical encoding, and
stratified train/test splitting for column-oriented tables."""

from __future__ import annotations

import csv
import math
import sys
import warnings
from array import array
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import compress

import numpy as np

from .errors import ConfigError, DataError, DataQualityWarning

ROLES = ("numeric", "categorical", "label", "drop")
ENCODINGS = ("frequency", "dummy", "integer-label")

# Code for categories never seen while fitting an integer-label encoder.
UNSEEN_INTEGER_CODE = -1.0

# Rows converted at once, a column at a time: a block's cells as Python strings
_BLOCK_ROWS = 1 << 9


@dataclass(frozen=True)
class ColumnSchema:
    """Role of one raw CSV column.

    Attributes:
        name: column name as it appears in the CSV header.
        role: one of "numeric", "categorical", "label", "drop".
        encoding: for categorical columns, one of "frequency", "dummy",
            "integer-label"; must be None for other roles.
    """

    name: str
    role: str
    encoding: str | None = None

    def __post_init__(self) -> None:
        if self.role not in ROLES:
            raise DataError(f"column {self.name!r}: unknown role {self.role!r}")
        if self.role == "categorical":
            if self.encoding not in ENCODINGS:
                raise DataError(
                    f"column {self.name!r}: categorical columns need an encoding "
                    f"from {ENCODINGS}, got {self.encoding!r}"
                )
        elif self.encoding is not None:
            raise DataError(
                f"column {self.name!r}: encoding only applies to categorical columns"
            )


def validate_schema(schema: list[ColumnSchema]) -> None:
    """Check schema-level invariants: unique names, exactly one label column."""
    names = [c.name for c in schema]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise DataError(f"duplicate column names in schema: {dupes}")
    n_labels = sum(1 for c in schema if c.role == "label")
    if n_labels != 1:
        raise DataError(f"schema must have exactly one label column, found {n_labels}")


def check_feature_list(features: tuple[str, ...] | None) -> None:
    """An analysis's feature list: null (the selected set) or distinct names."""
    # an empty list would analyse nothing
    if features == ():
        raise ConfigError("features must be a non-empty list of feature names")
    for i, name in enumerate(features or ()):
        if name in features[:i]:
            raise ConfigError(f"features lists {name!r} more than once")


@dataclass(frozen=True)
class LabelVocabulary:
    """Bijective map between class names and integer ids.

    Ids are assigned in lexicographic name order and persisted with every
    report so they stay stable across runs.
    """

    names: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.names)) != len(self.names):
            raise DataError("class names must be unique")

    @classmethod
    def from_labels(cls, raw: list[str]) -> LabelVocabulary:
        return cls(tuple(sorted(set(raw))))

    @property
    def n_classes(self) -> int:
        return len(self.names)

    def id_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise DataError(f"unknown class name {name!r}") from None

    def name_of(self, class_id: int) -> str:
        if not 0 <= class_id < len(self.names):
            raise DataError(f"class id {class_id} out of range")
        return self.names[class_id]

    def encode(self, raw: list[str]) -> np.ndarray:
        lookup = {n: i for i, n in enumerate(self.names)}
        try:
            return np.array([lookup[v] for v in raw], dtype=np.int64)
        except KeyError as exc:
            raise DataError(f"unknown class name {exc.args[0]!r}") from None


@dataclass
class ColumnTable:
    """Columnar table: named feature columns plus an integer label column.

    Columns are float64 once encoding has run; before that, categorical
    columns hold strings. Tables are treated as immutable: every operation
    returns a new table and callers must not mutate the arrays.
    """

    columns: dict[str, np.ndarray]
    labels: np.ndarray
    vocabulary: LabelVocabulary
    meta: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        n = len(self.labels)
        for name, col in self.columns.items():
            if len(col) != n:
                raise DataError(
                    f"column {name!r} has {len(col)} rows, labels have {n}"
                )

    @property
    def n_rows(self) -> int:
        return len(self.labels)

    @property
    def feature_names(self) -> list[str]:
        return list(self.columns)

    def column(self, name: str) -> np.ndarray:
        try:
            return self.columns[name]
        except KeyError:
            raise DataError(f"no column named {name!r}") from None

    def matrix(self, names: list[str] | None = None) -> np.ndarray:
        """Stack the named columns (default: all) into an n × p float matrix."""
        names = self.feature_names if names is None else names
        cols = []
        for name in names:
            col = self.column(name)
            if not np.issubdtype(col.dtype, np.number):
                raise DataError(f"column {name!r} is not numeric; encode it first")
            cols.append(col.astype(np.float64, copy=False))
        if not cols:
            return np.empty((self.n_rows, 0), dtype=np.float64)
        return np.column_stack(cols)

    def select_rows(self, idx: np.ndarray) -> ColumnTable:
        cols = {name: col[idx] for name, col in self.columns.items()}
        return ColumnTable(cols, self.labels[idx], self.vocabulary, dict(self.meta))

    def select_columns(self, names: list[str]) -> ColumnTable:
        cols = {name: self.column(name) for name in names}
        return ColumnTable(cols, self.labels, self.vocabulary, dict(self.meta))

    def with_column(self, name: str, values: np.ndarray) -> ColumnTable:
        """Return a copy with `name` appended (or replaced in place)."""
        if len(values) != self.n_rows:
            raise DataError(f"column {name!r}: expected {self.n_rows} rows")
        cols = dict(self.columns)
        cols[name] = np.asarray(values)
        return ColumnTable(cols, self.labels, self.vocabulary, dict(self.meta))

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.vocabulary.n_classes)


def _parse_float(text: str) -> float:
    """A CSV cell's number, or NaN when it holds none."""
    # float() refuses \x1c-\x1f padding, which str.strip() removes; it takes
    # Python literal spellings no CSV number has: 1_000 and non-ASCII digits
    text = text.strip()
    if not text.isascii() or "_" in text:
        return math.nan
    try:
        value = float(text)
    except ValueError:
        return math.nan
    return value if math.isfinite(value) else math.nan


def _numeric_column(cells: tuple[str, ...]) -> np.ndarray:
    """A block column as float64, NaN where a cell is not a number."""
    text = "".join(cells)
    if text.isascii() and not any(c in text for c in "_\x1c\x1d\x1e\x1f"):
        # on such text float() skips exactly the whitespace str.strip() removes
        try:
            return np.fromiter(map(float, cells), np.float64, len(cells))
        except ValueError:
            pass
    return np.fromiter(map(_parse_float, cells), np.float64, len(cells))


def _append_block(block: list[list[str]], kept, buffers, label_pos: int, labels: list) -> int:
    """Append the rows of a block of full-width records that have no unusable
    cell to the column buffers and labels; returns how many rows had one."""
    columns = list(zip(*block))
    ok = np.ones(len(block), dtype=bool)
    converted = []
    for i, spec in kept:
        if spec.role == "numeric":
            converted.append(_numeric_column(columns[i]))
            ok &= np.isfinite(converted[-1])
        else:
            # a text is interned, so each distinct one is stored once
            converted.append([sys.intern(cell.strip()) for cell in columns[i]])
            ok &= np.fromiter(map(bool, converted[-1]), bool, len(block))
    keep = ok.tolist()
    for buffer, values in zip(buffers, converted):
        if isinstance(buffer, array):
            buffer.frombytes(values[ok].tobytes())
        else:
            buffer.extend(compress(values, keep))
    labels.extend(compress(map(sys.intern, map(str.strip, columns[label_pos])), keep))
    return len(keep) - sum(keep)


def _checked(reader, path: str) -> Iterator[list[str]]:
    """The records of a csv reader; a refused record or non-UTF-8 byte is a DataError."""
    try:
        yield from reader
    except csv.Error as exc:
        raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
    except UnicodeDecodeError:
        # decoding runs in chunks: split the lines as csv does, find the first not UTF-8
        with open(path, newline="", encoding="latin-1") as raw:
            lines = enumerate((text.encode("latin-1") for text in raw), 1)
            line = next(i for i, b in lines if b.decode(errors="ignore").encode() != b)
        raise DataError(f"{path}: line {line}: not UTF-8 text") from None


def load_csv(path: str, schema: list[ColumnSchema]) -> ColumnTable:
    """Parse a comma-delimited UTF-8 file into a ColumnTable.

    The header must contain exactly the schema names (any order), each once;
    a name given twice, a byte that is not UTF-8 and a record the csv module
    refuses are DataErrors. Rows with missing or unparseable values in any
    non-drop column are removed and counted in ``meta["dropped_rows"]`` with
    a warning; an unusable label value is fatal. Cells are converted a block
    column at a time; a cell is a number when ``_parse_float`` reads one.

    Args:
        path: CSV file with one header row.
        schema: per-column roles; drop-role columns never reach the output.

    Returns:
        Table with numeric columns as float64, categorical columns as raw
        strings, and labels encoded against a lexicographic vocabulary.
    """
    validate_schema(schema)
    by_name = {c.name: c for c in schema}
    try:
        handle = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc

    with handle:
        reader = csv.reader(handle)
        records = _checked(reader, path)
        header = next(records, None)
        if header is None:
            raise DataError(f"{path}: empty file")
        header = [h.strip() for h in header]
        for i, name in enumerate(header):
            if name in header[:i]:
                raise DataError(f"{path}: header names column {name!r} twice")
        if set(header) != set(by_name):
            missing = sorted(set(by_name) - set(header))
            extra = sorted(set(header) - set(by_name))
            raise DataError(
                f"{path}: header mismatch (missing: {missing}, unexpected: {extra})"
            )

        specs = [by_name[h] for h in header]
        label_pos = next(i for i, s in enumerate(specs) if s.role == "label")
        kept = [(i, s) for i, s in enumerate(specs) if s.role in ("numeric", "categorical")]
        # numeric block columns go straight into float64 buffers
        buffers = [array("d") if s.role == "numeric" else [] for _, s in kept]
        raw_labels: list[str] = []
        dropped = 0
        width = len(header)
        block: list[list[str]] = []
        for row in records:
            if len(row) != width:
                dropped += 1
                continue
            # checked here, so the first defect in file order is the one raised
            if not row[label_pos].strip():
                raise DataError(f"{path}: line {reader.line_num}: empty label value")
            block.append(row)
            if len(block) == _BLOCK_ROWS:
                dropped += _append_block(block, kept, buffers, label_pos, raw_labels)
                block = []
        if block:
            dropped += _append_block(block, kept, buffers, label_pos, raw_labels)

    if not raw_labels:
        raise DataError(f"{path}: no usable data rows")
    if dropped:
        warnings.warn(
            f"{path}: dropped {dropped} rows with missing or unparseable values",
            DataQualityWarning,
            stacklevel=2,
        )

    vocabulary = LabelVocabulary.from_labels(raw_labels)
    columns = {
        spec.name: np.frombuffer(values) if spec.role == "numeric" else np.array(values, object)
        for (_, spec), values in zip(kept, buffers)
    }
    table = ColumnTable(columns, vocabulary.encode(raw_labels), vocabulary)
    table.meta["source_rows"] = len(raw_labels) + dropped
    table.meta["dropped_rows"] = dropped
    return table


def dedup(t: ColumnTable) -> ColumnTable:
    """Keep the first occurrence of rows identical across all columns and label.

    Cells compare by ``==``: -0.0 equals 0.0, categorical cells compare as
    strings, and a row holding a NaN equals no other row. Each column is
    coded by np.unique and folded into one row key, column by column.
    """
    key = np.array(t.labels, dtype=np.int64)
    unmatched = np.zeros(t.n_rows, dtype=bool)
    for col in t.columns.values():
        if col.dtype.kind == "f":
            unmatched |= np.isnan(col)
        elif col.dtype.kind not in "biu":
            col = col.astype(str)
        _, codes = np.unique(col, return_inverse=True)
        _, key = np.unique(key * (int(codes.max(initial=0)) + 1) + codes, return_inverse=True)
    key[unmatched] = key.size + np.flatnonzero(unmatched)
    _, first = np.unique(key, return_index=True)
    keep = np.sort(first)
    out = t.select_rows(keep)
    out.meta["duplicate_rows"] = t.n_rows - keep.size
    return out


@dataclass
class EncoderState:
    """Categorical encodings fitted on the training split only.

    Attributes:
        frequency: per column, category → relative frequency among fit rows.
        dummy: per column, ordered category list; transform expands the column
            into one 0/1 indicator per category, named ``f"{column}{category}"``.
        integer: per column, category → integer code (unseen → -1).
    """

    frequency: dict[str, dict[str, float]] = field(default_factory=dict)
    dummy: dict[str, list[str]] = field(default_factory=dict)
    integer: dict[str, dict[str, int]] = field(default_factory=dict)


def fit_encoders(t: ColumnTable, schema: list[ColumnSchema]) -> EncoderState:
    """Fit categorical encoders on (and only on) the rows of ``t``.

    Categories are enumerated in lexicographic order so fitted state is
    independent of row order.
    """
    state = EncoderState()
    for spec in schema:
        if spec.role != "categorical" or spec.name not in t.columns:
            continue
        col = t.column(spec.name)
        values, counts = np.unique(col.astype(str), return_counts=True)
        if len(values) == 1:
            warnings.warn(
                f"column {spec.name!r} has a single category {values[0]!r}",
                DataQualityWarning,
                stacklevel=2,
            )
        if spec.encoding == "frequency":
            total = float(counts.sum())
            state.frequency[spec.name] = {
                v: float(c) / total for v, c in zip(values, counts)
            }
        elif spec.encoding == "dummy":
            state.dummy[spec.name] = [str(v) for v in values]
        else:
            state.integer[spec.name] = {v: i for i, v in enumerate(values)}
    return state


def apply_encoders(t: ColumnTable, e: EncoderState) -> ColumnTable:
    """Replace categorical columns with their encoded numeric forms.

    Unseen categories map to 0.0 (frequency), all-zero indicators (dummy), or
    the -1 code (integer-label). Dummy indicators take the source column's
    position in the column order; an indicator name that is already a column
    or another indicator is a DataError.
    """
    columns: dict[str, np.ndarray] = {}
    for name, col in t.columns.items():
        if name in e.frequency:
            table = e.frequency[name]
            columns[name] = np.array(
                [table.get(str(v), 0.0) for v in col], dtype=np.float64
            )
        elif name in e.dummy:
            as_str = col.astype(str)
            for category in e.dummy[name]:
                indicator = f"{name}{category}"
                if indicator in t.columns or indicator in columns:
                    raise DataError(f"dummy indicator {indicator!r} is already a column")
                columns[indicator] = (as_str == category).astype(np.float64)
        elif name in e.integer:
            table = e.integer[name]
            columns[name] = np.array(
                [float(table.get(str(v), UNSEEN_INTEGER_CODE)) for v in col],
                dtype=np.float64,
            )
        else:
            columns[name] = col
    return ColumnTable(columns, t.labels, t.vocabulary, dict(t.meta))


def stratified_split(
    t: ColumnTable, test_frac: float, seed: int
) -> tuple[ColumnTable, ColumnTable]:
    """Split rows into train/test, preserving class proportions.

    Per class c, round(n_c · test_frac) rows are assigned to the test side by
    a seeded shuffle; the split is deterministic in (table, seed) and row
    order within each side follows the original table.

    Args:
        t: table to split.
        test_frac: test share, strictly between 0 and 1.
        seed: RNG seed for the per-class shuffles.

    Returns:
        (train, test) tables partitioning the rows of ``t``.
    """
    if not 0.0 < test_frac < 1.0:
        raise DataError(f"test_frac must be in (0, 1), got {test_frac}")
    rng = np.random.default_rng(seed)
    test_parts: list[np.ndarray] = []
    for class_id in range(t.vocabulary.n_classes):
        idx = np.flatnonzero(t.labels == class_id)
        if len(idx) < 2:
            name = t.vocabulary.name_of(class_id)
            raise DataError(f"class {name!r} has {len(idx)} rows; need at least 2")
        n_test = int(math.floor(len(idx) * test_frac + 0.5))
        shuffled = idx[rng.permutation(len(idx))]
        test_parts.append(shuffled[:n_test])
    test_idx = np.sort(np.concatenate(test_parts)) if test_parts else np.array([], int)
    mask = np.zeros(t.n_rows, dtype=bool)
    mask[test_idx] = True
    train_idx = np.flatnonzero(~mask)
    return t.select_rows(train_idx), t.select_rows(test_idx)
