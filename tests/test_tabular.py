"""Schema, CSV ingestion, encoders, and the stratified split."""

from __future__ import annotations

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
