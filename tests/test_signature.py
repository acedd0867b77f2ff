"""Signature model, file format parsing, and corpus layouts."""

from __future__ import annotations

import gc
import math
import re
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fpdedup import signature as signature_module
from fpdedup.grid import compute_index
from fpdedup.matcher import index_signature, score_indexed
from fpdedup.signature import (FileStore, Minutia, ParseError, SerializedStore, Signature,
                               _parse_lines, check_record_ids, normalize_angle,
                               normalize_angles, parse_signature, read_signature_file,
                               serialize_signature, write_corpus_dir)
from fpdedup.synth import GenSpec, generate

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
    # no empty print can be built, so none reaches the serializer
    with pytest.raises(ValueError, match=r"^signature 'A' has no minutiae$"):
        Signature("A", [])


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


def test_minutia_is_slotted():
    m = Minutia(1, 2, 0.5, 1)
    with pytest.raises(AttributeError):
        m.extra = 3


@pytest.mark.parametrize("line, message", [
    ("9" * 401 + ";5;0.5;1", f"line 1: x coordinate '{'9' * 401}' is too large"),
    (f"1;{2 ** 53 + 1};0.5;1", f"line 1: y coordinate '{2 ** 53 + 1}' is too large"),
    (f"1;2;0.5;1\n3; {2 ** 60} ;0.5;1", f"line 2: y coordinate ' {2 ** 60} ' is too large"),
    (f"{2 ** 53 + 1};-1;0.5;x", f"line 1: x coordinate '{2 ** 53 + 1}' is too large"),
], ids=["401-digit x", "y above 2**53", "padded y on line 2", "x checked first"])
def test_coordinate_above_2_53_rejected(line, message):
    with pytest.raises(ParseError) as exc:
        parse_signature(line, "A")
    assert str(exc.value) == message


def test_coordinate_2_53_accepted():
    m = parse_signature(f"{2 ** 53};{2 ** 53};0.5;1", "A").minutiae[0]
    assert (m.x, m.y) == (2 ** 53, 2 ** 53)


# ---------------------------------------------------------------------------
# Differential test: the parser against the previous, field-by-field parser


def _reference_parse_int(text: str, line_no: int, what: str) -> int:
    try:
        value = int(text.strip())
    except ValueError:
        raise ParseError(f"line {line_no}: {what} {text!r} is not an integer") from None
    if value < 0:
        raise ParseError(f"line {line_no}: {what} {text!r} is negative")
    return value


def _reference_parse_signature(text: str, record_id: str) -> list[Minutia]:
    """The parser before the one-loop rewrite, which had no coordinate bound.

    It returns its ``Minutia`` list: a ``Signature`` refuses a coordinate
    above 2**53, which this parser accepted.
    """
    minutiae: list[Minutia] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split(";")
        if len(fields) != 4:
            raise ParseError(f"line {line_no}: expected 4 ';'-separated fields, got {len(fields)}")
        x = _reference_parse_int(fields[0], line_no, "x coordinate")
        y = _reference_parse_int(fields[1], line_no, "y coordinate")
        try:
            theta = float(fields[2].strip().replace(",", "."))
        except ValueError:
            raise ParseError(f"line {line_no}: angle {fields[2]!r} is not a number") from None
        if not math.isfinite(theta):
            raise ParseError(f"line {line_no}: angle {fields[2]!r} is not finite")
        try:
            type_code = int(fields[3].strip())
        except ValueError:
            raise ParseError(f"line {line_no}: type code {fields[3]!r} is not an integer") from None
        minutiae.append(Minutia(x, y, normalize_angle(theta), type_code))
    if not minutiae:
        raise ParseError(f"signature {record_id!r} has no minutiae")
    return minutiae


_PADDING = st.sampled_from(["", "", " ", "\t", "  ", "\u00a0", "\u2003"])
_INTS = st.one_of(
    st.integers(0, 5000).map(str),
    st.integers(0, 2 ** 53).map(str),
    st.sampled_from([str(2 ** 53), "-0", "+7", "00012", "1_000", "\u0663\u0664", "\uff11\uff12"]),
)
_BAD_INTS = st.one_of(
    st.integers(-(2 ** 54), -1).map(str),
    st.integers(2 ** 53 + 1, 2 ** 54).map(str),
    st.sampled_from(["9" * 401, str(2 ** 53 + 1), "1__0", "_1", "1e3", "1.0", "0x10", "", "-", "+"]),
)
_ANGLES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-20.0, 20.0).map(repr).map(lambda s: s.replace(".", ",")),
    st.sampled_from([repr(v) for v in ANGLE_EDGES]),
    st.sampled_from(["0", "-0", "+3.1", "3.", ".5", ",5", "1,5", "1,0e2", "2,5E-3", "1_0.5",
                     "\u0663.5", "1e-400"]),
)
_BAD_ANGLES = st.sampled_from(["nan", "-nan", "inf", "-inf", "Infinity", "1e400", "-1e400",
                               "1,5,", "1.5.", "1e", "", "x"])


@st.composite
def _signature_texts(draw) -> str:
    """Lines of mostly valid fields; about one line in five has one bad
    field, or 3 or 5 fields, and about one in six is blank."""
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(_PADDING))
            continue
        bad = draw(st.integers(0, 29))
        fields = [draw(_BAD_INTS if bad == i else _INTS) for i in range(2)]
        fields.append(draw(_BAD_ANGLES if bad == 2 else _ANGLES))
        fields.append(draw(_BAD_INTS if bad == 3 else _INTS))
        if bad == 4:
            fields.pop()
        elif bad == 5:
            fields.append(draw(_INTS))
        lines.append(draw(_PADDING) + ";".join(draw(_PADDING) + f + draw(_PADDING)
                                              for f in fields) + draw(_PADDING))
    return draw(st.sampled_from(["\n", "\r\n", "\r"])).join(lines)


def _outcome(parse, text: str):
    """Minutiae with theta as bytes, or the ParseError message; ``parse``
    returns a Signature or, as the reference does, a ``Minutia`` list."""
    try:
        s = parse(text, "r")
    except ParseError as exc:
        return str(exc)
    return [(m.x, m.y, struct.pack("<d", m.theta), m.type_code)
            for m in (s.minutiae if isinstance(s, Signature) else s)]


@settings(max_examples=500)
@given(_signature_texts())
def test_parser_matches_reference_parser(text):
    got = _outcome(parse_signature, text)
    lines = text.splitlines()
    named = re.match(r"line (\d+): ", got) if isinstance(got, str) else None
    line_no = int(named.group(1)) if named else len(lines) + 1
    # Every line before the one that failed (or every line) was accepted
    # by the reference parser, within the coordinate bound.
    before = _outcome(_reference_parse_signature, "\n".join(lines[:line_no - 1]))
    if isinstance(before, list):
        assert all(x <= 2 ** 53 and y <= 2 ** 53 for x, y, _, _ in before)
    else:
        assert before == "signature 'r' has no minutiae"
    want = _outcome(_reference_parse_signature, text)
    if got == want:
        return
    # The one intended difference: the reference accepted a coordinate
    # above 2**53 on the named line, and failed, if at all, on a later field.
    bound = re.fullmatch(r"line \d+: ([xy]) coordinate (.*) is too large", got)
    assert bound, (got, want)
    axis = bound.group(1)
    field = lines[line_no - 1].strip().split(";")["xy".index(axis)]
    assert repr(field) == bound.group(2) and int(field) > 2 ** 53
    through = _outcome(_reference_parse_signature, "\n".join(lines[:line_no]))
    later = ("y coordinate", "angle", "type code")["xy".index(axis):]
    assert isinstance(through, list) or through.startswith(
        tuple(f"line {line_no}: {what} " for what in later))


# ---------------------------------------------------------------------------
# Differential test: the column pass against the line loop


_VALID_INTS = st.one_of(st.integers(0, 1023).map(str), _INTS)
_IN_RANGE_ANGLES = st.one_of(
    st.floats(0.0, TWO_PI, exclude_max=True).map(repr),
    st.floats(0.0, TWO_PI, exclude_max=True).map(repr).map(lambda s: s.replace(".", ",")),
    st.sampled_from(["0", "-0", "-0.0", ".5", ",5", "3.", "6,28", "2,5E-3", "\u0663.5"]),
)


@st.composite
def _valid_signature_texts(draw) -> str:
    """Texts the parser accepts: 1-6 rows of valid fields, with padding and
    blank lines; about one text in four has an angle outside [0, 2*pi),
    so most reach the column pass whole."""
    normalize = draw(st.integers(0, 3)) == 3
    lines = []
    for _ in range(draw(st.integers(1, 6))):
        while draw(st.integers(0, 5)) == 5:
            lines.append(draw(_PADDING))
        fields = [draw(_VALID_INTS), draw(_VALID_INTS),
                  draw(_ANGLES if normalize else _IN_RANGE_ANGLES), draw(_VALID_INTS)]
        lines.append(draw(_PADDING) + ";".join(draw(_PADDING) + f + draw(_PADDING)
                                              for f in fields) + draw(_PADDING))
    return draw(st.sampled_from(["\n", "\r\n", "\r"])).join(lines)


def _column_outcome(parse, text: str, record_id: str):
    """The signature's columns, angles as bytes, or the error's type and message."""
    try:
        s = parse(text, record_id)
    except ValueError as exc:
        return type(exc), str(exc)
    columns = (s.xs, s.ys, s.thetas, s.type_codes)
    assert all(type(c) is tuple for c in columns)
    assert {type(v) for c in (s.xs, s.ys, s.type_codes) for v in c} == {int}
    return (s.record_id, s.xs, s.ys, struct.pack(f"<{len(s)}d", *s.thetas), s.type_codes)


@settings(max_examples=500)
@given(st.one_of(_valid_signature_texts(), _signature_texts()), st.sampled_from(["r", "r", "r", ""]))
def test_column_pass_matches_line_loop(text, record_id):
    assert (_column_outcome(parse_signature, text, record_id)
            == _column_outcome(_parse_lines, text, record_id))


def _loop_calls(text: str, record_id: str = "r") -> int:
    with mock.patch.object(signature_module, "_parse_lines",
                           wraps=signature_module._parse_lines) as loop:
        assert (_column_outcome(parse_signature, text, record_id)
                == _column_outcome(_parse_lines, text, record_id))
    return loop.call_count


@pytest.mark.parametrize("text, record_id", [
    ("1;2;0.5;4 5", "r"),                       # whitespace inside a field
    ("1;2;0.5;1\n3;4 5;0.5;1", "r"),
    ("1;2;3;4 5;6;7;8", "r"),                   # two rows on one line
    ("1;2;0.5;1\n1;2;3;4 5;6;7;8", "r"),
    ("1;2;0.5;1;\n1;2;0.5", "r"),               # 5 and 3 fields: 6 ';' on two lines
    ("1;2;0.5;1\n1;2;0.5;1;9", "r"),            # a fifth field past four full columns
    ("", "r"),
    ("\n  \n\t\r\n", "r"),                      # only blank lines
    ("1;2;0.5;1\n3;4;1.5;0", ""),               # a valid text, an empty record id
    ("1;2;7.0;1", "r"),                         # angles to normalize
    ("1;2;0.5;1\n3;4;-0.5;0", "r"),
    ("1;2;6.283185307179586;1", "r"),           # 2*pi itself
    ("1;2;0.5;1\n3;4;nan;0", "r"),              # NaN after the first row passes min and max
    ("1;2;nan;1\n3;4;0.5;0", "r"),
    ("1;2;inf;1", "r"),
    (f"{2 ** 53 + 1};2;0.5;1", "r"),            # coordinates out of range
    (f"1;{2 ** 53 + 1};0.5;1", "r"),
    ("-3;2;0.5;1", "r"),
    ("1;-3;0.5;1", "r"),
    ("1;2;0.5;x", "r"),                         # fields that do not convert
    ("1;2;0,5,;1", "r"),
    ("9" * 5000 + ";2;0.5;1", "r"),
])
def test_column_pass_hands_text_to_the_loop(text, record_id):
    assert _loop_calls(text, record_id) == 1


@pytest.mark.parametrize("text", [
    f"{2 ** 53};{2 ** 53};0.5;1",               # the largest coordinate
    "00012;+7;0.5;1_000",                       # forms that miss the integer table
    "\u0663\u0664;\uff11\uff12;0,5;-0",
    "1023;1024;-0.0;-1",
    " 1 ; 2 ;\t0.5\t; 3 \r\n\n 4;5;6.25;6\n",
])
def test_column_pass_reads_text_itself(text):
    assert _loop_calls(text) == 0


def test_serialized_text_takes_the_column_pass(reference_signature):
    signatures, _ = generate(GenSpec(subjects=50, seed=8))
    for s in [reference_signature, *signatures]:
        text = serialize_signature(s)
        assert _loop_calls(text, s.record_id) == 0
        assert parse_signature(text, s.record_id) == s


# ---------------------------------------------------------------------------
# Columnar storage and the minutiae view


@settings(max_examples=300)
@given(_signature_texts())
def test_minutiae_view_equals_reference_minutiae(text):
    try:
        s = parse_signature(text, "r")
    except ParseError:
        return  # rejected texts are the differential test's
    want = _reference_parse_signature(text, "r")
    got = s.minutiae
    assert all(type(m) is Minutia for m in got)
    assert ([(m.x, m.y, struct.pack("<d", m.theta), m.type_code) for m in got]
            == [(m.x, m.y, struct.pack("<d", m.theta), m.type_code) for m in want])
    assert Signature(s.record_id, s.minutiae) == s == Signature("r", want)


def test_signature_rebuilt_from_its_minutiae_is_equal():
    signatures, _ = generate(GenSpec(subjects=20, dup_fraction=0.5, jitter=1.0, drop_prob=0.1,
                                     seed=3))
    for s in signatures:
        assert Signature(s.record_id, s.minutiae) == s
        assert Signature(s.record_id, iter(s.minutiae)) == s
        assert list(s.rows()) == [(m.x, m.y, m.theta, m.type_code) for m in s.minutiae]
    assert Signature("a", signatures[0].minutiae) != signatures[0]
    assert Signature("S00000", signatures[0].minutiae[1:]) != signatures[0]


def test_empty_signature_messages_unchanged():
    # the constructor refuses an empty print with the parser's message
    with pytest.raises(ParseError) as parsed:
        parse_signature("\n", "e")
    for rows in ([], iter(()), ()):
        with pytest.raises(ValueError) as built:
            Signature("e", rows)
        assert str(built.value) == str(parsed.value) == "signature 'e' has no minutiae"
    with pytest.raises(TypeError):
        Signature("e")  # no default rows


def test_minutiae_view_is_read_only():
    s = parse_signature("1;2;0.5;1\n3;4;1.5;0", "A")
    with pytest.raises(AttributeError):
        s.minutiae.append(Minutia(5, 6, 0.0, 1))
    with pytest.raises(TypeError):
        s.minutiae[0] = Minutia(5, 6, 0.0, 1)
    with pytest.raises(AttributeError):
        s.minutiae = [Minutia(5, 6, 0.0, 1)]
    with pytest.raises(AttributeError):
        s.minutiae[0].x = 99
    assert s.xs == (1, 3) and s == parse_signature("1;2;0.5;1\n3;4;1.5;0", "A")


def _tracked_objects(root: object) -> int:
    """Objects reachable from ``root``, itself included, that the cyclic GC tracks.

    Classes are not followed: every instance refers to its type.
    """
    seen, stack, tracked = set(), [root], 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        tracked += gc.is_tracked(obj)
        stack.extend(gc.get_referents(obj))
    return tracked


@pytest.mark.parametrize("build", [
    lambda rows: parse_signature("\n".join(f"{x};{y};{t!r};{c}" for x, y, t, c in rows), "A"),
    lambda rows: Signature("A", [Minutia(*row) for row in rows]),
])
def test_collector_tracks_one_object_per_signature(build):
    small, large = (build([(3 * i, 7 * i % 500, i / 100, i % 2) for i in range(n)])
                    for n in (5, 500))
    gc.collect()
    for s in (small, large):
        assert not any(gc.is_tracked(column)
                       for column in (s.xs, s.ys, s.thetas, s.type_codes))
    assert _tracked_objects(small) == _tracked_objects(large) == 1


def test_hot_paths_build_no_minutia(reference_signature, monkeypatch):
    def no_minutia(*args):
        raise AssertionError("a Minutia was built")

    text = serialize_signature(reference_signature)
    monkeypatch.setattr(signature_module, "Minutia", no_minutia)
    s = parse_signature(text, "A")
    assert serialize_signature(s) == text
    compute_index(s)
    index = index_signature(s)
    assert index.minutiae_key == tuple(sorted(s.rows()))
    assert score_indexed(index, index_signature(s)).score == 100.0


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
    loaded = dict(FileStore.from_directory(tmp_path / "c"))
    assert set(loaded) == {"a", "b"}
    assert loaded["a"] == corpus[0]
    assert loaded["b"] == corpus[1]


@pytest.mark.parametrize("record_id", [".b", "../escaped", "x/y"],
                         ids=["hidden", "escaping", "nested"])
def test_corpus_dir_rejects_ids_that_do_not_read_back(tmp_path, record_id):
    # a hidden file is skipped on reading, and a separator names a file elsewhere
    rows = list(_tiny_corpus()[0].rows())
    corpus = [Signature("a", rows), Signature(record_id, rows), Signature("c.d", rows)]
    with pytest.raises(ParseError, match=re.escape(repr(record_id))):
        write_corpus_dir(corpus, tmp_path / "c")
    assert sorted(p.name for p in tmp_path.rglob("*.sig")) == ["a.sig"]


def test_directory_scan_equals_sorted_iterdir(tmp_path):
    # the scan before os.scandir: sorted Paths, one is_file each
    corpus = tmp_path / "c"
    corpus.mkdir()
    for name in ["b.sig", "a.", "a.b.sig", "A.sig", "_z.sig", "10.sig", "9.sig", "\u00e9.sig",
                 ".hidden.sig", ".x"]:
        (corpus / name).write_text("1;2;0.5;1\n")
    (corpus / "sub").mkdir()
    (corpus / "link.sig").symlink_to("b.sig")
    (corpus / ".hidden-link.sig").symlink_to("b.sig")
    (corpus / "dirlink").symlink_to("sub")
    (corpus / "dangling.sig").symlink_to("missing.sig")
    (corpus / "loop.sig").symlink_to("loop.sig")
    store = FileStore.from_directory(corpus)
    want = {path.stem: path for path in sorted(corpus.iterdir())
            if path.is_file() and not path.name.startswith(".")}
    assert list(store) == ["10", "9", "A", "_z", "a.", "a.b", "b", "link", "\u00e9"]
    assert [(k, str(v)) for k, v in store._paths.items()] == [(k, str(v)) for k, v in want.items()]
    assert list(store["link"].rows()) == list(store["b"].rows())


def test_manifest_round_trip(tmp_path):
    corpus = _tiny_corpus()
    write_corpus_dir(corpus, tmp_path / "c")
    manifest = tmp_path / "m.tsv"
    manifest.write_text("first\tc/a.sig\nsecond\tc/b.sig\n")
    loaded = dict(FileStore.from_manifest(manifest))
    assert set(loaded) == {"first", "second"}
    assert [(m.x, m.y) for m in loaded["first"].minutiae] == [(1, 2), (30, 40)]


def test_manifest_malformed_line(tmp_path):
    manifest = tmp_path / "m.tsv"
    manifest.write_text("only-one-field\n")
    with pytest.raises(ParseError, match="manifest line 1"):
        FileStore.from_manifest(manifest)


def test_manifest_duplicate_record_id(tmp_path):
    write_corpus_dir(_tiny_corpus(), tmp_path / "c")
    manifest = tmp_path / "m.tsv"
    manifest.write_text("a\tc/a.sig\nb\tc/b.sig\na\tc/b.sig\n")
    with pytest.raises(ParseError, match="manifest line 3: duplicate record id 'a'"):
        FileStore.from_manifest(manifest)


def test_file_parse_error_names_the_file(tmp_path):
    write_corpus_dir(_tiny_corpus(), tmp_path / "c")
    bad = tmp_path / "c" / "b.sig"
    bad.write_text("5;6;0.3;1\n30;x;0.1;0\n")
    manifest = tmp_path / "m.tsv"
    manifest.write_text("a\tc/a.sig\nb\tc/b.sig\n")
    body = "line 2: y coordinate 'x' is not an integer"
    for store in (FileStore.from_directory(tmp_path / "c"), FileStore.from_manifest(manifest)):
        assert store["a"] == _tiny_corpus()[0]
        with pytest.raises(ParseError) as exc:
            store["b"]
        assert str(exc.value) == f"{bad}: {body}"
    (tmp_path / "empty.sig").write_text("\n")
    with pytest.raises(ParseError, match=r"empty\.sig: signature 'empty' has no minutiae$"):
        read_signature_file(tmp_path / "empty.sig")


def test_record_id_rule_is_separators_and_line_boundaries():
    rejected = set()
    for code in range(0x110000):
        c = chr(code)
        try:
            check_record_ids(["a", f"x{c}y"])
        except ParseError as exc:
            assert repr(f"x{c}y") in str(exc) and "separator" in str(exc)
            rejected.add(c)
    assert rejected == {"\t", ","} | {c for c in map(chr, range(0x110000))
                                      if len(f"x{c}y".splitlines()) > 1}


def test_store_rejects_separator_in_record_id(tmp_path):
    corpus = tmp_path / "c"
    write_corpus_dir(_tiny_corpus(), corpus)
    (corpus / "a,b.sig").write_text((corpus / "a.sig").read_text())
    with pytest.raises(ParseError, match="record id 'a,b' contains a separator"):
        FileStore.from_directory(corpus)
    manifest = tmp_path / "m.tsv"
    manifest.write_text("a\tc/a.sig\nb,c\tc/b.sig\n")
    with pytest.raises(ParseError, match="record id 'b,c' contains a separator"):
        FileStore.from_manifest(manifest)


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


# Values beside the canonical ones: numpy integers and bools, which the
# constructor takes as plain ints; floats, integral or not, NaN and +-inf;
# negatives; coordinates at and past 2**32 and 2**53; type codes past 64 bits.
_INTEGERS = st.one_of(st.integers(0, 2 ** 32 - 1).map(np.int64), st.booleans())
_FLOATS = st.one_of(st.floats(), st.sampled_from([10.5, 3.0, -0.0, math.nan, math.inf]))
_ODD_COORDS = st.one_of(_INTEGERS, _FLOATS, st.integers(-2 ** 60, -1),
                        st.sampled_from([2 ** 32 - 1, 2 ** 32, 2 ** 53, 2 ** 53 + 1, 10 ** 400]))
_ODD_ANGLES = st.one_of(_FLOATS, _INTEGERS, st.integers(-10, 10),
                        st.floats(0.0, 1.0).map(np.float64),
                        st.sampled_from([TWO_PI, math.nextafter(TWO_PI, 0.0), -math.inf]))
_ODD_CODES = st.one_of(_INTEGERS, _FLOATS, st.integers(-2 ** 70, 2 ** 70))


@st.composite
def _drawn_rows(draw) -> list[tuple]:
    """Rows of canonical columns, a column's values sometimes swapped for odd ones."""
    def column(canonical, odd):
        mixed = draw(st.integers(0, 3)) == 0
        return st.one_of(canonical, odd) if mixed else canonical

    coords = column(st.integers(0, 2 ** 32 - 1), _ODD_COORDS)
    angles = column(st.floats(0.0, TWO_PI, exclude_max=True), _ODD_ANGLES)
    codes = column(st.integers(-2 ** 63, 2 ** 63 - 1), _ODD_CODES)
    size = draw(st.integers(0, 12))  # one in 13 prints is empty
    return draw(st.lists(st.tuples(coords, coords, angles, codes), min_size=size, max_size=size))


def _keeps_rule(rows: list[tuple]) -> bool:
    """The print rule, checked value by value: integer coordinates in [0, 2**53],
    integer type codes and real angles in [0, 2*pi); at least one row."""
    def integer(v) -> bool:
        return isinstance(v, (int, np.integer))

    return bool(rows) and all(
        integer(x) and integer(y) and integer(c) and 0 <= x <= 2 ** 53 and 0 <= y <= 2 ** 53
        and 0.0 <= t < TWO_PI for x, y, t, c in rows)


def _columns(s: Signature) -> list[list[tuple[type, str]]]:
    """Each column as (type, repr) per value, so -0.0 and 0.0 differ."""
    return [[(type(v), repr(v)) for v in column]
            for column in (s.xs, s.ys, s.thetas, s.type_codes)]


@settings(max_examples=400, deadline=None)
@given(_drawn_rows())
@example([(-5, 20, 0.5, 1), (30, 40, 1.0, 0)])
@example([(10.5, 20, 0.5, 1), (30, 40, 1.0, 0)])
@example([(True, np.int64(2 ** 32), np.float64(0.5), False), (7, 8, -0.0, 2 ** 63)])
@example([(1, 2, 0.5, 3), (4, 5, math.nan, 6)])
@example([(1, 2, TWO_PI, 3)])
@example([(2 ** 53, 0, 0.5, -2 ** 63)])
@example([])
def test_signature_round_trips_or_is_refused(tmp_path_factory, rows):
    # a print either fails to build, or reads back as itself, column for
    # column, from its text, from a corpus directory and from a store
    try:
        s = Signature("r", rows)
    except ValueError:
        assert not _keeps_rule(rows)
        return
    assert _keeps_rule(rows)
    want = _columns(s)
    assert {t for t, _ in want[0] + want[1] + want[3]} == {int}
    assert {t for t, _ in want[2]} == {float}
    assert _columns(parse_signature(serialize_signature(s), "r")) == want
    directory = tmp_path_factory.mktemp("corpus")
    write_corpus_dir([s], directory)
    assert _columns(FileStore.from_directory(directory)["r"]) == want
    store = SerializedStore()
    store.add(s)
    assert _columns(store["r"]) == want


def test_serialized_store_packs_canonical_signatures_only():
    # every print is packed, unless array cannot hold a column: a coordinate
    # of 2**32 or more, or a type code beyond 64 bits, is held as text
    packed = Signature("c", [(0, 2 ** 32 - 1, -0.0, -2 ** 63),
                             (True, np.int64(8), 6.28, 2 ** 63 - 1)])
    text = [Signature("x", [(2 ** 32, 0, 0.5, 1)]), Signature("k", [(1, 2, 0.5, 2 ** 63)])]
    store = SerializedStore()
    for s in [packed, *text]:
        store.add(s)
    assert [type(store._records[s.record_id]) for s in [packed, *text]] == [bytes, str, str]
    for s in [packed, *text]:
        assert store[s.record_id] == s
        assert _columns(store[s.record_id]) == _columns(s)
    assert math.copysign(1.0, store["c"].thetas[0]) == -1.0
