"""Scaling-run smoke coverage: row fields, size validation, CSV shape."""

from __future__ import annotations

import pytest

from fpdedup import bench
from fpdedup.bench import BENCH_CSV_COLUMNS, rows_to_csv, scaling_run
from fpdedup.grid import compute_index
from fpdedup.synth import GenSpec

SPEC = GenSpec(subjects=0, minutiae_per_print=(20, 30), seed=55)


def test_single_size_row_populated():
    rows = scaling_run([300], SPEC, reps=1)
    assert len(rows) == 1
    row = rows[0]
    assert row.size == 300
    assert 0 < row.nb_class <= 300
    assert row.avg >= 1.0
    assert row.max_p >= 1
    assert 0.0 < row.max_rate <= 1.0
    assert row.std_dev >= 0.0
    assert row.generate_s > 0.0
    assert row.index_s > 0.0
    assert row.dedup_s >= 0.0
    assert row.identify_ms_median > 0.0


def test_index_time_covers_parse_and_key(monkeypatch):
    # index_s times the whole index pass: every rep parses and keys each record again
    keyed = []

    def counting_compute_index(s, grid):
        keyed.append(s.record_id)
        return compute_index(s, grid)

    monkeypatch.setattr(bench, "compute_index", counting_compute_index)
    rows = scaling_run([150], SPEC, reps=3)
    generated = keyed[:rows[0].size]
    assert keyed == generated * 4  # once to generate, then once per rep


def test_class_count_grows_with_size():
    rows = scaling_run([200, 400], SPEC, reps=1)
    assert rows[0].nb_class < rows[1].nb_class


def test_max_penetration_rate_decreases_with_size():
    rows = scaling_run([300, 1200], SPEC, reps=1)
    assert rows[1].max_rate <= rows[0].max_rate


def test_sizes_must_ascend():
    with pytest.raises(ValueError, match="ascending"):
        scaling_run([400, 200], SPEC, reps=1)
    with pytest.raises(ValueError, match="ascending"):
        scaling_run([200, 200], SPEC, reps=1)
    with pytest.raises(ValueError):
        scaling_run([100], SPEC, reps=0)


def test_csv_output_shape():
    rows = scaling_run([150], SPEC, reps=1)
    text = rows_to_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0] == ",".join(BENCH_CSV_COLUMNS)
    assert len(lines) == 2
    assert len(lines[1].split(",")) == len(BENCH_CSV_COLUMNS)
