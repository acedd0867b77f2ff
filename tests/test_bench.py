"""Scaling-run smoke coverage: row fields, size validation, CSV shape."""

from __future__ import annotations

from dataclasses import replace

import pytest

from fpdedup.dedup import deduplicate
from fpdedup.stats import TABLE_COLUMNS, corpus_stats, materialize_corpus, scaling_run
from fpdedup.synth import GenSpec, derive_seed

SPEC = GenSpec(subjects=0, minutiae_per_print=(20, 30), seed=55)


def test_single_size_row_populated():
    rows = scaling_run([300], SPEC)
    assert len(rows) == 1
    row = rows[0]
    assert row.size == 300
    assert 0 < row.nb_class <= 300
    assert row.avg >= 1.0
    assert 1 <= row.min_p <= row.max_p
    assert 0.0 < row.min_rate <= row.max_rate <= 1.0
    assert row.std_dev >= 0.0
    assert row.duplicates == 0
    assert row.duration_s > 0.0


def test_row_is_corpus_stats_of_the_sized_corpus():
    spec = replace(SPEC, dup_fraction=0.1)
    (row,) = scaling_run([150], spec)
    table, store = materialize_corpus(replace(spec, subjects=150,
                                              seed=derive_seed(spec.seed, 150)))
    assert row.duplicates > 0
    assert replace(row, duration_s=0.0) == corpus_stats(table, deduplicate(table, store))


def test_class_count_grows_with_size():
    rows = scaling_run([200, 400], SPEC)
    assert rows[0].nb_class < rows[1].nb_class


def test_max_penetration_rate_decreases_with_size():
    rows = scaling_run([300, 1200], SPEC)
    assert rows[1].max_rate <= rows[0].max_rate


def test_sizes_must_ascend():
    with pytest.raises(ValueError, match="ascending"):
        scaling_run([400, 200], SPEC)
    with pytest.raises(ValueError, match="ascending"):
        scaling_run([200, 200], SPEC)


def test_csv_output_shape():
    (row,) = scaling_run([150], SPEC)
    cells = row.csv_row("synth-150").split(",")
    assert len(cells) == len(TABLE_COLUMNS)
    assert cells[:2] == ["synth-150", "150"]
