"""Schema, CSV ingestion, encoders, and the stratified split."""

from __future__ import annotations

import csv
import math
import re
import tracemalloc
import warnings
from dataclasses import asdict

import numpy as np
import pytest

from idstats.errors import DataError, DataQualityWarning
from idstats.tabular import (
    ColumnSchema,
    ColumnTable,
    LabelVocabulary,
    apply_encoders,
    dedup,
    fit_encoders,
    load_csv,
    stratified_split,
    validate_schema,
)

SCHEMA = [
    ColumnSchema("rate", "numeric"),
    ColumnSchema("proto", "categorical", "dummy"),
    ColumnSchema("port", "categorical", "integer-label"),
    ColumnSchema("flag", "categorical", "frequency"),
    ColumnSchema("junk", "drop"),
    ColumnSchema("label", "label"),
]


def write_csv(path, rows, header="rate,proto,port,flag,junk,label"):
    path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
    return str(path)


def small_table(labels, **columns):
    vocab = LabelVocabulary.from_labels(sorted(set(labels)))
    cols = {k: np.asarray(v) for k, v in columns.items()}
    return ColumnTable(cols, vocab.encode(labels), vocab)


def test_schema_validation_rejects_bad_roles_and_encodings():
    with pytest.raises(DataError):
        ColumnSchema("x", "continuous")
    with pytest.raises(DataError):
        ColumnSchema("x", "categorical")  # encoding required
    with pytest.raises(DataError):
        ColumnSchema("x", "categorical", "onehot")
    with pytest.raises(DataError):
        ColumnSchema("x", "numeric", "dummy")  # encoding only for categorical
    with pytest.raises(DataError):
        validate_schema([ColumnSchema("x", "numeric"), ColumnSchema("x", "label")])
    with pytest.raises(DataError):
        validate_schema([ColumnSchema("x", "numeric")])  # no label column
    with pytest.raises(DataError):
        validate_schema(
            [
                ColumnSchema("a", "label"),
                ColumnSchema("b", "label"),
                ColumnSchema("x", "numeric"),
            ]
        )
    validate_schema(SCHEMA)


def test_vocabulary_is_lexicographic_and_bijective():
    vocab = LabelVocabulary.from_labels(["wormhole", "blackhole", "normal", "blackhole"])
    assert vocab.names == ("blackhole", "normal", "wormhole")
    assert vocab.n_classes == 3
    for i, name in enumerate(vocab.names):
        assert vocab.id_of(name) == i
        assert vocab.name_of(i) == name
    assert vocab.encode(["normal", "wormhole"]).tolist() == [1, 2]
    with pytest.raises(DataError):
        vocab.id_of("unknown")
    with pytest.raises(DataError):
        vocab.name_of(3)
    with pytest.raises(DataError):
        vocab.encode(["ghost"])
    with pytest.raises(DataError):
        LabelVocabulary(names=("a", "a"))


def test_load_csv_parses_and_drops_bad_rows(tmp_path):
    path = write_csv(
        tmp_path / "d.csv",
        [
            "1.5,tcp,80,S,x,normal",
            "2.0,udp,53,A,x,attack",
            "oops,tcp,80,S,x,normal",  # unparseable numeric
            "3.0,,80,S,x,attack",  # empty categorical
            "4.0,tcp,80,S,x,normal,extra",  # wrong width
            "inf,tcp,80,S,x,attack",  # non-finite numeric
            "5.5,udp,443,F,x,normal",
        ],
    )
    with pytest.warns(DataQualityWarning):
        t = load_csv(path, SCHEMA)
    assert t.n_rows == 3
    assert t.meta["source_rows"] == 7
    assert t.meta["dropped_rows"] == 4
    assert "junk" not in t.columns
    assert t.column("rate").tolist() == [1.5, 2.0, 5.5]
    assert t.column("proto").tolist() == ["tcp", "udp", "udp"]
    assert t.vocabulary.names == ("attack", "normal")
    assert t.labels.tolist() == [1, 0, 1]


def test_load_csv_drops_number_spellings_only_python_reads(tmp_path):
    # float() takes digit-group underscores, Arabic-Indic and fullwidth digits
    rows = ["1_000,tcp,80,S,x,normal", "\u0661\u0662,tcp,80,S,x,attack",
            "\uff11\uff12,tcp,80,S,x,normal", " 7 ,udp,53,A,x,attack"]
    with pytest.warns(DataQualityWarning, match="dropped 3 rows"):
        t = load_csv(write_csv(tmp_path / "d.csv", rows), SCHEMA)
    assert t.column("rate").tolist() == [7.0]


def test_load_csv_header_and_label_failures(tmp_path):
    bad_header = write_csv(tmp_path / "h.csv", ["1,tcp,80,S,x,normal"],
                           header="rate,proto,port,flag,junk,target")
    with pytest.raises(DataError, match="header"):
        load_csv(bad_header, SCHEMA)

    empty_label = write_csv(tmp_path / "l.csv", ["1,tcp,80,S,x,"])
    with pytest.raises(DataError, match="label"):
        load_csv(empty_label, SCHEMA)

    with pytest.raises(DataError):
        load_csv(str(tmp_path / "missing.csv"), SCHEMA)

    all_bad = write_csv(tmp_path / "b.csv", ["oops,tcp,80,S,x,normal"])
    with pytest.raises(DataError, match="no usable"):
        load_csv(all_bad, SCHEMA)


def test_load_csv_accepts_reordered_header_and_bom(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text(
        "﻿label,rate,junk,flag,port,proto\nnormal,1.25,z,S,80,tcp\n",
        encoding="utf-8",
    )
    t = load_csv(str(path), SCHEMA)
    assert t.n_rows == 1
    assert t.column("rate")[0] == 1.25
    assert t.column("proto")[0] == "tcp"


def test_load_csv_refuses_a_header_that_names_a_column_twice(tmp_path):
    path = write_csv(tmp_path / "a.csv", ["1,2,normal"], header="a,a,Label")
    schema = [ColumnSchema("a", "numeric"), ColumnSchema("Label", "label")]
    with pytest.raises(DataError, match="header names column 'a' twice"):
        load_csv(path, schema)


@pytest.mark.parametrize(
    "cell, end, message",
    [
        (b"caf\xe9", b"\n", "line 3: not UTF-8 text"),
        # csv splits lines at a bare CR too, and the named line follows it
        (b"caf\xe9", b"\r", "line 3: not UTF-8 text"),
        (b"x" * 140_000, b"\n", "line 3: field larger than field limit"),
    ],
    ids=["latin1_byte", "latin1_byte_after_cr_line_ends", "oversized_field"],
)
def test_load_csv_names_the_line_of_an_undecodable_or_malformed_record(
    tmp_path, cell, end, message
):
    rows = [b"rate,proto,port,flag,junk,label", b"1,tcp,80,S,x,normal",
            b"2," + cell + b",53,A,x,attack", b"3,udp,53,A,x,normal"]
    path = tmp_path / "bad.csv"
    path.write_bytes(end.join(rows) + end)
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: {message}"):
        load_csv(str(path), SCHEMA)


def test_load_csv_peaks_below_24_bytes_a_numeric_cell(tmp_path):
    # numeric cells go into float64 buffers, not one Python float each
    rng = np.random.default_rng(3)
    n_rows, n_cols = 20_000, 10
    values = rng.normal(0.0, 1e3, (n_rows, n_cols))
    path = tmp_path / "wide.csv"
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow([f"c{j}" for j in range(n_cols)] + ["label"])
        for i, row in enumerate(values.tolist()):
            writer.writerow(row + [("normal", "attack")[i % 2]])
    schema = [ColumnSchema(f"c{j}", "numeric") for j in range(n_cols)]
    schema.append(ColumnSchema("label", "label"))
    tracemalloc.start()
    try:
        table = load_csv(str(path), schema)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.matrix().tobytes() == values.tobytes()
    assert peak < 24 * n_rows * n_cols, peak / (n_rows * n_cols)


def load_csv_by_row_loop(path, schema):
    """Reference ingest: the per-row dict loop that load_csv replaced, for a
    file whose header is valid. Returns (columns, labels, dropped rows)."""
    by_name = {c.name: c for c in schema}
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        header = [h.strip() for h in next(reader)]
        kept = [(i, by_name[h]) for i, h in enumerate(header) if by_name[h].role != "drop"]
        label_pos = next(i for i, s in kept if s.role == "label")
        raw_cols = {s.name: [] for _, s in kept if s.role != "label"}
        raw_labels, dropped = [], 0
        for row in reader:
            if len(row) != len(header):
                dropped += 1
                continue
            parsed, ok = {}, True
            for i, spec in kept:
                if spec.role == "label":
                    continue
                text = row[i].strip()
                if spec.role == "numeric":
                    try:
                        # a CSV number is ASCII without digit-group underscores
                        if not text.isascii() or "_" in text:
                            raise ValueError(text)
                        value = float(text)
                    except ValueError:
                        value = math.nan
                    ok = math.isfinite(value)
                else:
                    value, ok = text, bool(text)
                if not ok:
                    break
                parsed[spec.name] = value
            if not ok:
                dropped += 1
                continue
            for name, value in parsed.items():
                raw_cols[name].append(value)
            raw_labels.append(row[label_pos].strip())
    return raw_cols, raw_labels, dropped


LABEL_ONLY = [ColumnSchema("label", "label")]
DROPS = [
    ColumnSchema("junk", "drop"),
    ColumnSchema("rate", "numeric"),
    ColumnSchema("more_junk", "drop"),
    ColumnSchema("label", "label"),
]
TWO_NUMERIC = [
    ColumnSchema("a", "numeric"),
    ColumnSchema("b", "numeric"),
    ColumnSchema("proto", "categorical", "dummy"),
    ColumnSchema("label", "label"),
]
# cells the column conversion cannot take in one stroke, each placed past the
# first block of rows
LATE_CELLS = {
    700: ("oops", "1", "tcp", "normal"),
    800: ("inf", "2", "tcp", "attack"),
    900: ("3", "1_000", "udp", "normal"),
    1000: ("\x1f5.5\x1f", "4", "udp", "attack"),
    1100: (" 2.5 ", "\t5\t", " tcp ", " normal "),
    1150: ("\u0661\u0662", "6", "tcp", "normal"),
    1200: ("7", "8", "", "attack"),
    1250: ("9", "nan", "tcp", "normal"),
    1280: ("10", "tcp", "normal"),
    1290: ("1e400", "-0.0", "udp", "attack"),
}


def rows_past_one_block(n_rows=1300):
    rows = []
    for i in range(n_rows):
        cells = LATE_CELLS.get(
            i, (f"{i * 0.37:.3f}", f"{i % 17 - 8}e-3", ("tcp", "udp")[i % 2],
                ("normal", "attack", "scan")[i % 3])
        )
        rows.append(",".join(cells))
    return rows


LOAD_FIXTURES = {
    "padded_cells": (SCHEMA, "rate,proto,port,flag,junk,label", [
        " 1.5 , tcp ,\t80\t, S ,x, normal ",
        "\x1c2.0\x1f,udp\x1c, 53,A ,x,attack",
        "  -3e2,\u00a0tcp,80,S,x,normal",
    ]),
    "bom_and_reordered_header": (SCHEMA, "\ufefflabel,rate,junk,flag,port,proto", [
        "normal,1.25,z,S,80,tcp",
        "attack,2,z,A,53,udp",
        "normal,-0.0,z,F,443,tcp",
    ]),
    "unparseable_cells": (SCHEMA, "rate,proto,port,flag,junk,label", [
        "oops,tcp,80,S,x,normal",
        "1.2.3,tcp,80,S,x,attack",
        ",tcp,80,S,x,normal",
        "--1,tcp,80,S,x,attack",
        "1_000,tcp,80,S,x,normal",
        "4,tcp,80,S,x,attack",
    ]),
    "inf_and_nan": (SCHEMA, "rate,proto,port,flag,junk,label", [
        "inf,tcp,80,S,x,normal",
        "-Infinity,tcp,80,S,x,attack",
        "nan,tcp,80,S,x,normal",
        "1e400,tcp,80,S,x,attack",
        "1e-400,tcp,80,S,x,normal",
        "7,udp,53,A,x,attack",
    ]),
    "empty_categorical_cells": (SCHEMA, "rate,proto,port,flag,junk,label", [
        "1,,80,S,x,normal",
        "2,tcp,  ,S,x,attack",
        "3,tcp,80,\t,x,normal",
        "4,tcp,80,S,,attack",
        "5,tcp,80,S,x,normal",
    ]),
    "wrong_row_widths": (SCHEMA, "rate,proto,port,flag,junk,label", [
        "1,tcp,80,S,x,normal,extra",
        "2,tcp,80,S,attack",
        "",
        "3,tcp,80,S,x,normal",
    ]),
    "drop_role_columns": (DROPS, "junk,rate,more_junk,label", [
        ",1,oops,normal",
        "nan,2,,attack",
        "x,oops,y,normal",
    ]),
    "label_only_schema": (LABEL_ONLY, "label", ["normal", " attack ", "", "normal"]),
    "rows_past_one_block": (TWO_NUMERIC, "a,b,proto,label", rows_past_one_block()),
}


@pytest.mark.parametrize("name", sorted(LOAD_FIXTURES))
def test_load_csv_loads_the_table_of_the_row_loop(tmp_path, name):
    schema, header, rows = LOAD_FIXTURES[name]
    path = write_csv(tmp_path / "t.csv", rows, header=header)
    columns, labels, dropped = load_csv_by_row_loop(path, schema)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DataQualityWarning)
        t = load_csv(path, schema)
    assert t.meta == {"source_rows": len(labels) + dropped, "dropped_rows": dropped}
    assert t.vocabulary.names == tuple(sorted(set(labels)))
    assert [t.vocabulary.name_of(i) for i in t.labels] == labels
    assert list(t.columns) == list(columns)
    for column, values in columns.items():
        got = t.column(column)
        if isinstance(values[0], str):
            assert got.dtype == object and got.tolist() == values
        else:
            assert got.dtype == np.float64
            assert got.tobytes() == np.asarray(values, dtype=np.float64).tobytes()


def test_load_csv_raises_an_empty_label_before_a_later_malformed_record(tmp_path):
    rows = [f"{i},tcp,80,S,x,normal" for i in range(8)]
    rows[2] = "2,tcp,80,S,x, "
    rows[6] = "6,tcp,80,S,x," + "y" * 140_000
    path = write_csv(tmp_path / "t.csv", rows)
    with pytest.raises(DataError, match="line 4: empty label value"):
        load_csv(path, SCHEMA)
    rows[2], rows[7] = "2,tcp,80,S,x,normal", "7,tcp,80,S,x,"
    path = write_csv(tmp_path / "u.csv", rows)
    with pytest.raises(DataError, match="line 8: field larger than field limit"):
        load_csv(path, SCHEMA)


def test_dedup_keeps_first_occurrence():
    t = small_table(
        ["a", "b", "a", "a"],
        x=np.array([1.0, 2.0, 1.0, 1.0]),
        y=np.array([0.0, 0.0, 0.0, 9.0]),
    )
    out = dedup(t)
    # row 2 duplicates row 0 (same features, same label); row 3 differs in y
    assert out.n_rows == 3
    assert out.meta["duplicate_rows"] == 1
    assert out.column("y").tolist() == [0.0, 0.0, 9.0]

    # same features under different labels are distinct observations
    t2 = small_table(["a", "b"], x=np.array([1.0, 1.0]))
    assert dedup(t2).n_rows == 2


def dedup_by_tuple_keys(t):
    """Reference dedup: the row loop over tuple keys that the vectorized
    dedup replaced. Returns the kept row indices."""
    seen: set[tuple] = set()
    keep: list[int] = []
    cols = list(t.columns.values())
    for i in range(t.n_rows):
        key = tuple(col[i] for col in cols) + (int(t.labels[i]),)
        if key not in seen:
            seen.add(key)
            keep.append(i)
    return keep


def generated_table(n_rows, seed):
    rng = np.random.default_rng(seed)
    rate = rng.integers(0, 4, n_rows).astype(np.float64)
    rate[rng.random(n_rows) < 0.01] = np.nan
    return small_table(
        list(rng.choice(["a", "b", "c"], n_rows)),
        rate=rate,
        size=rng.choice([-0.0, 0.0, 1.5], n_rows),
        port=rng.integers(0, 3, n_rows),
        proto=np.asarray(rng.choice(["tcp", "udp"], n_rows), dtype=object),
    )


DEDUP_FIXTURES = {
    "signed_zeros": lambda: small_table(
        ["a", "a", "a"], x=np.array([-0.0, 0.0, 0.0]), y=np.array([0.0, -0.0, 1.0])
    ),
    "duplicated_nan_rows": lambda: small_table(
        ["a"] * 5,
        x=np.array([np.nan, np.nan, 1.0, 1.0, 1.0]),
        y=np.array([2.0, 2.0, np.nan, 3.0, 3.0]),
    ),
    "equal_values_under_different_labels": lambda: small_table(
        ["a", "b", "a", "b", "c"],
        x=np.full(5, 7.0),
        flag=np.array(["S", "S", "S", "S", "S"], dtype=object),
    ),
    "categorical_strings": lambda: small_table(
        ["a"] * 5,
        flag=np.array(["S", "SF", "S", "F", "SF"], dtype=object),
        port=np.array(["80", "80", "80", "080", "80"]),
    ),
    "generated_30k_rows": lambda: generated_table(30_000, 5),
}


@pytest.mark.parametrize("name", sorted(DEDUP_FIXTURES))
def test_dedup_keeps_the_rows_of_the_tuple_key_loop(name):
    t = DEDUP_FIXTURES[name]()
    keep = dedup_by_tuple_keys(t)
    out = dedup(t)
    assert out.meta["duplicate_rows"] == t.n_rows - len(keep)
    assert out.labels.tolist() == t.labels[keep].tolist()
    for column, values in t.columns.items():
        got, want = out.column(column), values[keep]
        assert got.dtype == want.dtype
        if want.dtype == object:
            assert got.tolist() == want.tolist()
        else:
            assert got.tobytes() == want.tobytes()  # -0.0 and NaN bits too


def test_dedup_never_merges_a_row_holding_nan():
    t = DEDUP_FIXTURES["duplicated_nan_rows"]()
    out = dedup(t)
    # the two (nan, 2.0) rows stay apart; the two (1.0, 3.0) rows merge
    assert out.n_rows == 4 and out.meta["duplicate_rows"] == 1
    assert np.isnan(out.column("x")[:2]).all()


def test_dedup_is_idempotent():
    rng = np.random.default_rng(0)
    values = rng.integers(0, 3, size=60).astype(np.float64)
    t = small_table(["a", "b"] * 30, x=values)
    once = dedup(t)
    twice = dedup(once)
    assert once.n_rows == twice.n_rows
    assert twice.meta["duplicate_rows"] == 0


def test_frequency_encoding_sums_to_one_and_handles_unseen():
    t = small_table(["a", "a", "b", "b"], flag=np.array(["S", "S", "A", "F"], object))
    state = fit_encoders(t, [ColumnSchema("flag", "categorical", "frequency"),
                             ColumnSchema("label", "label")])
    assert sum(state.frequency["flag"].values()) == pytest.approx(1.0)
    assert state.frequency["flag"]["S"] == pytest.approx(0.5)

    new = small_table(["a", "b"], flag=np.array(["S", "UNSEEN"], object))
    enc = apply_encoders(new, state)
    assert enc.column("flag").tolist() == [0.5, 0.0]


def test_dummy_encoding_expands_in_place_with_unseen_all_zero():
    t = small_table(
        ["a", "b", "a"],
        before=np.array([1.0, 2.0, 3.0]),
        proto=np.array(["udp", "tcp", "udp"], object),
        after=np.array([7.0, 8.0, 9.0]),
    )
    schema = [
        ColumnSchema("before", "numeric"),
        ColumnSchema("proto", "categorical", "dummy"),
        ColumnSchema("after", "numeric"),
        ColumnSchema("label", "label"),
    ]
    state = fit_encoders(t, schema)
    assert state.dummy["proto"] == ["tcp", "udp"]  # lexicographic
    enc = apply_encoders(t, state)
    # indicators replace the source column at its position
    assert enc.feature_names == ["before", "prototcp", "protoudp", "after"]
    assert enc.column("prototcp").tolist() == [0.0, 1.0, 0.0]
    assert enc.column("protoudp").tolist() == [1.0, 0.0, 1.0]

    unseen = small_table(
        ["a"], before=np.array([0.0]), proto=np.array(["icmp"], object),
        after=np.array([0.0]),
    )
    enc2 = apply_encoders(unseen, state)
    assert enc2.column("prototcp").tolist() == [0.0]
    assert enc2.column("protoudp").tolist() == [0.0]


def test_integer_encoding_orders_lexicographically_and_flags_unseen():
    t = small_table(["a", "b", "a"], port=np.array(["80", "443", "53"], object))
    state = fit_encoders(t, [ColumnSchema("port", "categorical", "integer-label"),
                             ColumnSchema("label", "label")])
    assert state.integer["port"] == {"443": 0, "53": 1, "80": 2}
    new = small_table(["a", "b"], port=np.array(["80", "8080"], object))
    enc = apply_encoders(new, state)
    assert enc.column("port").tolist() == [2.0, -1.0]


def test_encoder_state_json_form_is_its_fields():
    t = small_table(
        ["a", "b", "a", "b"],
        proto=np.array(["tcp", "udp", "tcp", "tcp"], object),
        flag=np.array(["S", "A", "S", "F"], object),
        port=np.array(["80", "443", "80", "53"], object),
    )
    schema = [
        ColumnSchema("proto", "categorical", "dummy"),
        ColumnSchema("flag", "categorical", "frequency"),
        ColumnSchema("port", "categorical", "integer-label"),
        ColumnSchema("label", "label"),
    ]
    state = fit_encoders(t, schema)
    assert asdict(state) == {
        "frequency": {"flag": {"A": 0.25, "F": 0.25, "S": 0.5}},
        "dummy": {"proto": ["tcp", "udp"]},
        "integer": {"port": {"443": 0, "53": 1, "80": 2}},
    }


def test_single_category_column_warns():
    t = small_table(["a", "b"], proto=np.array(["tcp", "tcp"], object))
    with pytest.warns(DataQualityWarning, match="single category"):
        fit_encoders(t, [ColumnSchema("proto", "categorical", "dummy"),
                         ColumnSchema("label", "label")])


def test_stratified_split_preserves_proportions():
    rng = np.random.default_rng(1)
    labels = ["a"] * 60 + ["b"] * 30 + ["c"] * 10
    t = small_table(labels, x=rng.normal(size=100))
    train, test = stratified_split(t, 0.2, seed=7)
    assert train.n_rows + test.n_rows == 100
    # per class: round(n_c * 0.2) test rows
    assert test.class_counts().tolist() == [12, 6, 2]
    assert train.class_counts().tolist() == [48, 24, 8]
    # partition: no row in both sides
    train_x = set(train.column("x").tolist())
    test_x = set(test.column("x").tolist())
    assert not train_x & test_x


def test_stratified_split_is_seeded_and_seed_sensitive():
    rng = np.random.default_rng(2)
    t = small_table(["a", "b"] * 50, x=rng.normal(size=100))
    a1, b1 = stratified_split(t, 0.25, seed=3)
    a2, b2 = stratified_split(t, 0.25, seed=3)
    assert np.array_equal(a1.column("x"), a2.column("x"))
    assert np.array_equal(b1.column("x"), b2.column("x"))
    _, b3 = stratified_split(t, 0.25, seed=4)
    assert not np.array_equal(b1.column("x"), b3.column("x"))


def test_stratified_split_rejects_bad_fractions_and_tiny_classes():
    t = small_table(["a", "a", "b"], x=np.array([1.0, 2.0, 3.0]))
    with pytest.raises(DataError):
        stratified_split(t, 0.0, seed=0)
    with pytest.raises(DataError):
        stratified_split(t, 1.0, seed=0)
    with pytest.raises(DataError, match="'b'"):
        stratified_split(t, 0.5, seed=0)


def test_matrix_rejects_unencoded_columns():
    t = small_table(["a", "b"], proto=np.array(["tcp", "udp"], object))
    with pytest.raises(DataError, match="encode"):
        t.matrix()


def test_table_shape_checks():
    vocab = LabelVocabulary(names=("a", "b"))
    with pytest.raises(DataError):
        ColumnTable({"x": np.zeros(3)}, np.array([0, 1]), vocab)
    t = small_table(["a", "b"], x=np.array([1.0, 2.0]))
    with pytest.raises(DataError):
        t.column("nope")
    with pytest.raises(DataError):
        t.with_column("y", np.zeros(5))
