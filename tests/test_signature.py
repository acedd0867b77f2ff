"""Signature model, file format parsing, and corpus layouts."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fpdedup import signature as signature_module
from fpdedup.signature import (FileStore, Minutia, ParseError, SerializedStore,
                               Signature, load_corpus_dir, load_manifest,
                               normalize_angle, normalize_angles, parse_signature,
                               serialize_signature, write_corpus_dir)

TWO_PI = 2.0 * math.pi


def test_parse_single_line():
    s = parse_signature("207;45;3,33898830413818;1", "A")
    assert s.record_id == "A"
    assert len(s) == 1
    m = s.minutiae[0]
    assert (m.x, m.y, m.type_code) == (207, 45, 1)
    assert m.theta == pytest.approx(3.33898830413818, abs=1e-15)


def test_parse_reference_has_23_minutiae(reference_signature):
    assert len(reference_signature) == 23


def test_parse_empty_text_is_error():
    with pytest.raises(ParseError, match="no minutiae"):
        parse_signature("", "A")
    with pytest.raises(ParseError, match="no minutiae"):
        parse_signature("\n  \n", "A")


def test_comma_and_dot_decimal_agree():
    a = parse_signature("10;20;3,338988;1", "A")
    b = parse_signature("10;20;3.338988;1", "B")
    assert a.minutiae[0].theta == b.minutiae[0].theta


@pytest.mark.parametrize("bad, message", [
    ("10;20;0.5", "4 ';'-separated fields"),
    ("10;20;0.5;1;9", "4 ';'-separated fields"),
    ("x;20;0.5;1", "not an integer"),
    ("10;20;zz;1", "not a number"),
    ("10;20;0.5;one", "type code"),
    ("10.5;20;0.5;1", "not an integer"),   # coordinates must be integers
    ("-3;20;0.5;1", "negative"),
    ("10;20;inf;1", "not finite"),
])
def test_malformed_lines_rejected(bad, message):
    with pytest.raises(ParseError, match=message):
        parse_signature(bad, "A")


def test_parse_error_names_line_number():
    with pytest.raises(ParseError, match="line 3"):
        parse_signature("1;2;0.5;1\n3;4;0.5;1\nbroken", "A")


def test_blank_lines_and_whitespace_ignored():
    s = parse_signature("\n  10;20;0.5;1  \n\n30;40;0.25;0\n\n", "A")
    assert [(m.x, m.y) for m in s.minutiae] == [(10, 20), (30, 40)]


def test_minutiae_count_equals_nonempty_lines(reference_signature):
    text = serialize_signature(reference_signature)
    lines = [ln for ln in text.splitlines() if ln.strip()]
    assert len(lines) == len(reference_signature)


def test_theta_normalized_on_load():
    s = parse_signature(f"1;2;{TWO_PI + 1.5};1\n3;4;-0.5;1", "A")
    assert s.minutiae[0].theta == pytest.approx(1.5, abs=1e-12)
    assert s.minutiae[1].theta == pytest.approx(TWO_PI - 0.5, abs=1e-12)
    for m in s.minutiae:
        assert 0.0 <= m.theta < TWO_PI


def test_serialize_rejects_empty():
    with pytest.raises(ValueError, match="no minutiae"):
        serialize_signature(Signature("A", []))


def test_serialize_single_minutia():
    s = Signature("A", [Minutia(207, 45, 3.33898830413818, 1)])
    assert serialize_signature(s) == "207;45;3.33898830413818;1"


def test_record_id_must_be_nonempty():
    with pytest.raises(ValueError):
        Signature("", [Minutia(1, 2, 0.1, 1)])


def test_reference_round_trip(reference_signature):
    rt = parse_signature(serialize_signature(reference_signature), "reference")
    assert rt == reference_signature


@given(st.lists(
    st.tuples(st.integers(0, 5000), st.integers(0, 5000),
              st.floats(-50.0, 50.0, allow_nan=False), st.integers(0, 9)),
    min_size=1, max_size=40,
))
def test_round_trip_property(rows):
    s = Signature("h", [Minutia(x, y, normalize_angle(t), c) for x, y, t, c in rows])
    rt = parse_signature(serialize_signature(s), "h")
    assert len(rt) == len(s)
    for a, b in zip(rt.minutiae, s.minutiae):
        assert (a.x, a.y, a.type_code) == (b.x, b.y, b.type_code)
        assert abs(a.theta - b.theta) < 1e-12


@given(st.floats(-1000.0, 1000.0, allow_nan=False, allow_infinity=False))
def test_normalize_angle_range(theta):
    assert 0.0 <= normalize_angle(theta) < TWO_PI


ANGLE_EDGES = [0.0, -0.0, TWO_PI, -TWO_PI, math.nextafter(TWO_PI, 0.0),
               -math.nextafter(TWO_PI, 0.0), math.nextafter(TWO_PI, math.inf), 5e-324, -5e-324,
               2.2250738585072014e-308, -1e-310, 1e6, -1e6, 1e6 * TWO_PI, -1e6 * TWO_PI,
               math.pi, -math.pi]


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False)
                | st.floats(-1e6 * TWO_PI, 1e6 * TWO_PI) | st.sampled_from(ANGLE_EDGES),
                max_size=50))
def test_normalize_angles_equals_scalar(values):
    # bit for bit, so the sign of a zero counts too
    reduced = normalize_angles(np.array(values + ANGLE_EDGES, dtype=np.float64))
    expected = [normalize_angle(v) for v in values + ANGLE_EDGES]
    assert reduced.tobytes() == np.array(expected, dtype=np.float64).tobytes()


# ---------------------------------------------------------------------------
# Corpus layouts


def _tiny_corpus() -> list[Signature]:
    return [
        Signature("a", [Minutia(1, 2, 0.1, 1), Minutia(30, 40, 0.2, 0)]),
        Signature("b", [Minutia(5, 6, 0.3, 1)]),
    ]


def test_corpus_dir_round_trip(tmp_path):
    corpus = _tiny_corpus()
    assert write_corpus_dir(corpus, tmp_path / "c") == 2
    loaded = load_corpus_dir(tmp_path / "c")
    assert set(loaded) == {"a", "b"}
    assert loaded["a"] == corpus[0]
    assert loaded["b"] == corpus[1]


def test_manifest_round_trip(tmp_path):
    corpus = _tiny_corpus()
    write_corpus_dir(corpus, tmp_path / "c")
    manifest = tmp_path / "m.tsv"
    manifest.write_text("first\tc/a.sig\nsecond\tc/b.sig\n")
    loaded = load_manifest(manifest)
    assert set(loaded) == {"first", "second"}
    assert [(m.x, m.y) for m in loaded["first"].minutiae] == [(1, 2), (30, 40)]


def test_manifest_malformed_line(tmp_path):
    manifest = tmp_path / "m.tsv"
    manifest.write_text("only-one-field\n")
    with pytest.raises(ParseError, match="manifest line 1"):
        load_manifest(manifest)


def test_manifest_duplicate_record_id(tmp_path):
    write_corpus_dir(_tiny_corpus(), tmp_path / "c")
    manifest = tmp_path / "m.tsv"
    manifest.write_text("a\tc/a.sig\nb\tc/b.sig\na\tc/b.sig\n")
    with pytest.raises(ParseError, match="manifest line 3: duplicate record id 'a'"):
        load_manifest(manifest)


def test_directory_store_lazy_lookup(tmp_path):
    corpus = _tiny_corpus()
    write_corpus_dir(corpus, tmp_path / "c")
    store = FileStore.from_directory(tmp_path / "c")
    assert len(store) == 2
    assert store["b"] == corpus[1]
    assert store["b"] is not store["b"]  # parsed on each access, nothing cached
    with pytest.raises(KeyError):
        store["missing"]


def test_manifest_store_lazy_lookup(tmp_path, monkeypatch):
    corpus = _tiny_corpus()
    write_corpus_dir(corpus, tmp_path / "c")
    manifest = tmp_path / "m.tsv"
    manifest.write_text("first\tc/a.sig\nsecond\tc/b.sig\nmissing\tc/none.sig\n")
    parsed: list[str] = []
    real_parse = signature_module.parse_signature
    monkeypatch.setattr(signature_module, "parse_signature",
                        lambda text, rid: parsed.append(rid) or real_parse(text, rid))
    store = FileStore.from_manifest(manifest)
    assert list(store) == ["first", "second", "missing"]
    assert parsed == []  # only ids and paths are read up front
    assert [(m.x, m.y) for m in store["second"].minutiae] == [(5, 6)]
    assert parsed == ["second"]
    store["second"]
    assert parsed == ["second", "second"]  # parsed on each access, nothing cached
    with pytest.raises(OSError):
        store["missing"]  # a listed file that does not exist fails on access


def test_serialized_store_round_trip():
    corpus = _tiny_corpus()
    store = SerializedStore()
    for s in corpus:
        store.add(s)
    assert len(store) == 2
    assert store["a"] == corpus[0]
    with pytest.raises(ValueError, match="duplicate"):
        store.add(corpus[0])
