"""Cluster table: single-pass load, lookup, persistence."""

from __future__ import annotations

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fpdedup.cli import EXIT_DATA, main
from fpdedup.cluster import (TABLE_FORMAT_HEADER, ClusterTable, DuplicateRecordIdError,
                             build_table, load_table, save_table)
from fpdedup.grid import IndexKey
from fpdedup.signature import ParseError
from fpdedup.synth import SplitMix64

# Every character that splits an id or its line; ``signature.check_record_ids``
# refuses these and the lone surrogates (category Cs).
SEPARATORS = "\t,\n\v\f\r\x1c\x1d\x1e\x85\u2028\u2029"
RECORD_IDS = st.text(st.characters(exclude_categories=("Cs",), exclude_characters=SEPARATORS),
                     min_size=1, max_size=8)
KEYS = st.lists(st.integers(0, 60), min_size=1, max_size=25).map(
    lambda counts: IndexKey.from_counts(counts).key_text)
# Lines of tab-joined fields of comma-joined parts, so that some draws are tables
TABLE_LINES = st.lists(st.lists(st.lists(st.text(max_size=4), max_size=3).map(",".join),
                                max_size=3).map("\t".join), max_size=6).map("\n".join)


@pytest.fixture(scope="module")
def table_path(tmp_path_factory):
    """One file for every example of a test; each example overwrites it."""
    return tmp_path_factory.mktemp("tables") / "table.tsv"


def test_build_table_basic():
    table = build_table([("A", "1-0"), ("B", "1-0"), ("C", "2-0")])
    assert table.buckets == {"1-0": ["A", "B"], "2-0": ["C"]}
    assert table.size == 3
    assert table.max_bucket_size() == 2


def test_build_table_empty():
    table = build_table([])
    assert table.buckets == {} and table.size == 0


def test_build_table_duplicate_id_named():
    with pytest.raises(DuplicateRecordIdError, match="'B'"):
        build_table([("A", "1"), ("B", "2"), ("B", "3")])


def test_build_table_all_distinct_keys():
    # 320 distinct keys -> 320 singleton buckets, mean occupancy 1
    entries = [(f"r{i}", f"k{i}") for i in range(320)]
    table = build_table(entries)
    assert len(table.buckets) == 320
    assert all(len(b) == 1 for b in table.buckets.values())
    assert table.size / len(table.buckets) == 1.0


def test_build_table_single_pass():
    consumed = 0

    def counting():
        nonlocal consumed
        for i in range(100):
            consumed += 1
            yield (f"r{i}", f"k{i % 7}")

    build_table(counting())
    assert consumed == 100


def test_lookup_present_and_absent():
    table = build_table([("A", "1-0"), ("B", "1-0")])
    assert table.lookup("1-0") == ["A", "B"]
    assert table.lookup("9-9") == []


def test_distinct_key_lookups_touch_every_record_once():
    rng = SplitMix64(5)
    entries = [(f"r{i}", f"k{rng.randint(0, 40)}") for i in range(200)]
    table = build_table(entries)
    touched = [rid for key in table.buckets for rid in table.lookup(key)]
    assert sorted(touched) == sorted(rid for rid, _ in entries)
    assert len(touched) == 200


@given(st.lists(st.tuples(st.integers(0, 999), st.integers(0, 12)), max_size=60))
def test_partition_and_filter_oracle(pairs):
    entries = [(f"r{i}_{rid}", f"k{key}") for i, (rid, key) in enumerate(pairs)]
    table = build_table(entries)
    # buckets partition the id set
    all_ids = [rid for bucket in table.buckets.values() for rid in bucket]
    assert sorted(all_ids) == sorted(rid for rid, _ in entries)
    assert table.size == len(entries)
    # lookup equals an order-preserving filter of the input
    for key in {key for _, key in entries}:
        assert table.lookup(key) == [rid for rid, k in entries if k == key]


def test_save_load_round_trip(tmp_path):
    table = build_table([("A", "1-0"), ("B", "1-0"), ("C", "2-0")])
    path = tmp_path / "table.tsv"
    save_table(table, path)
    loaded = load_table(path)
    assert loaded.buckets == table.buckets
    assert loaded.size == table.size


def test_save_load_empty_table(tmp_path):
    path = tmp_path / "empty.tsv"
    save_table(ClusterTable(), path)
    loaded = load_table(path)
    assert loaded.buckets == {} and loaded.size == 0


def test_save_load_large_synthetic(tmp_path):
    rng = SplitMix64(17)
    entries = [(f"r{i:05d}", f"{rng.randint(0, 3)}-{rng.randint(0, 3)}-{rng.randint(0, 999)}")
               for i in range(10_000)]
    table = build_table(entries)
    path = tmp_path / "big.tsv"
    save_table(table, path)
    loaded = load_table(path)
    assert loaded.buckets == table.buckets
    assert loaded.size == 10_000


@given(st.dictionaries(RECORD_IDS, KEYS, max_size=30))
def test_save_load_round_trip_drawn(table_path, entries):
    table = build_table(entries.items())
    save_table(table, table_path)
    loaded = load_table(table_path)
    assert loaded.buckets == table.buckets
    assert list(loaded.buckets) == list(table.buckets)
    assert loaded.size == table.size


@given(st.one_of(st.text(), TABLE_LINES))
def test_load_drawn_text_loads_or_raises_value_error(table_path, text):
    table_path.write_text(f"{TABLE_FORMAT_HEADER}\n{text}")
    try:
        table = load_table(table_path)
    except ValueError:
        return
    assert table.size == sum(map(len, table.buckets.values()))


def test_load_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("something else\nk\tA\n")
    with pytest.raises(ValueError, match="not a cluster table"):
        load_table(path)


def _assert_cli_data_error(path, capsys, message):
    rc = main(["stats", "--table", str(path), "--corpus", str(path.parent)])
    assert rc == EXIT_DATA
    assert message in capsys.readouterr().err


def test_load_rejects_repeated_bucket_line(tmp_path, capsys):
    # the repeated line would list each of its records twice
    table = build_table((f"r{i:03d}", f"k{i % 200}") for i in range(210))
    path = tmp_path / "repeated.tsv"
    save_table(table, path)
    header, first, *rest = path.read_text().splitlines()
    path.write_text("\n".join([header, first, first, *rest]) + "\n")
    with pytest.raises(DuplicateRecordIdError, match="duplicate record id 'r000'"):
        load_table(path)
    _assert_cli_data_error(path, capsys, "duplicate record id 'r000'")


def test_load_rejects_empty_record_id(tmp_path, capsys):
    path = tmp_path / "empty_id.tsv"
    path.write_text("fpdedup-cluster-table v1\nk\ta,,b\n")
    with pytest.raises(ValueError, match="empty_id.tsv:2: empty record id"):
        load_table(path)
    _assert_cli_data_error(path, capsys, "empty_id.tsv:2: empty record id")


def test_save_rejects_undecodable_id(tmp_path):
    # os.scandir returns a file name byte that does not decode as a lone surrogate
    path = tmp_path / "t.tsv"
    path.write_text("kept\n")
    for record_id in ("\udcff", "a\ud800"):
        with pytest.raises(ParseError, match=re.escape(f"{record_id!r} contains an undecodable")):
            save_table(build_table([(record_id, "0")]), path)
    assert path.read_text() == "kept\n"


def test_save_rejects_separator_in_id(tmp_path):
    # every character that would split the id or its line on reload
    for record_id in ("A,B", "A\tB", "A\nB", "A\rB", "A\vB", "A\x85B", "A\u2028B"):
        table = build_table([(record_id, "1-0")])
        with pytest.raises(ValueError, match="separator"):
            save_table(table, tmp_path / "t.tsv")
