"""Minutiae signatures and the semicolon-delimited signature file format.

A signature file carries one minutia per line as ``x;y;theta;type``:
integer pixel coordinates, a real ridge angle in radians, and a raw type
code. The angle field accepts both comma and dot decimal separators on
input; output always uses the dot. A corpus is either a directory with
one file per record (filename stem = record id) or a manifest file of
``record_id<TAB>path`` lines.

One print rule holds for every ``Signature``, parsed or built in code:
at least one minutia, integer coordinates in [0, 2**53], integer type
codes, and angles in [0, 2*pi). It is checked where a print is made, and
nowhere after.
"""

from __future__ import annotations

import math
import os
import re
from array import array
from collections.abc import Callable, Iterable, Iterator, Mapping
from dataclasses import dataclass
from operator import index
from pathlib import Path
from typing import NamedTuple

import numpy as np

TWO_PI = 2.0 * math.pi


class ParseError(ValueError):
    """Raised for malformed signature files, manifests, or corpus layouts."""


def normalize_angle(theta: float) -> float:
    """Reduce an angle into [0, 2*pi)."""
    r = math.fmod(theta, TWO_PI)
    if r < 0.0:
        r += TWO_PI
    if r >= TWO_PI:  # fmod rounding can land exactly on 2*pi
        r = 0.0
    return r


def normalize_angles(theta: np.ndarray) -> np.ndarray:
    """``normalize_angle`` applied to each element of a float64 array, bit for bit."""
    r = np.fmod(theta, TWO_PI)
    r[r < 0.0] += TWO_PI
    r[r >= TWO_PI] = 0.0
    return r


class Minutia(NamedTuple):
    """One feature point: pixel position, ridge angle, raw type code.

    A named ``(x, y, theta, type_code)`` row; the type code is stored as
    read from the file and never interpreted.
    """

    x: int
    y: int
    theta: float  # radians, [0, 2*pi)
    type_code: int


@dataclass(init=False, slots=True)
class Signature:
    """An ordered, non-empty set of minutiae for one fingerprint record, held as columns.

    ``xs``, ``ys``, ``thetas`` and ``type_codes`` are tuples with one entry
    per minutia, in order. The cyclic GC stops tracking a tuple of plain
    numbers at its first collection, so a parsed signature costs the
    collector one object whatever its minutiae count. ``Signature(record_id,
    rows)`` takes any iterable of ``(x, y, theta, type_code)`` rows,
    ``Minutia`` included, and transposes it once; ``minutiae`` is a
    read-only view that builds a tuple of ``Minutia`` on each access.

    A signature holds what a signature file can: the constructor converts
    coordinates and type codes with ``operator.index`` (a numpy integer or
    a ``bool`` becomes a plain ``int``; a float, even an integral one, is
    refused) and angles with ``float``, and ``_in_range`` must then hold.
    Otherwise, or for no rows, it raises ValueError naming the record. The
    code after it trusts these columns and checks none of them again.
    """

    record_id: str
    xs: tuple[int, ...]
    ys: tuple[int, ...]
    thetas: tuple[float, ...]
    type_codes: tuple[int, ...]

    def __init__(self, record_id: str, rows: Iterable[tuple[int, int, float, int]]):
        if not record_id:
            raise ValueError("record_id must be non-empty")
        rows = tuple(rows)
        if not rows:
            raise ValueError(f"signature {record_id!r} has no minutiae")
        try:
            xs, ys, thetas, codes = zip(*rows, strict=True)
            columns = (_converted(xs, int, index), _converted(ys, int, index),
                       _converted(thetas, float, float), _converted(codes, int, index))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"signature {record_id!r} has a row that is not "
                             f"(int x, int y, real theta, int type_code): {exc}") from None
        if not _in_range(*columns[:3]):
            raise ValueError(f"signature {record_id!r} has a coordinate outside [0, 2**53] "
                             "or an angle outside [0, 2*pi)")
        self.record_id = record_id
        self.xs, self.ys, self.thetas, self.type_codes = columns

    @classmethod
    def _from_columns(cls, record_id: str, xs: tuple[int, ...], ys: tuple[int, ...],
                      thetas: tuple[float, ...], type_codes: tuple[int, ...]) -> Signature:
        """A signature of columns that already keep the constructor's rule, held as they are."""
        s = cls.__new__(cls)
        s.record_id, s.xs, s.ys, s.thetas, s.type_codes = record_id, xs, ys, thetas, type_codes
        return s

    def rows(self) -> Iterator[tuple[int, int, float, int]]:
        """The ``(x, y, theta, type_code)`` of each minutia, in order."""
        return zip(self.xs, self.ys, self.thetas, self.type_codes)

    @property
    def minutiae(self) -> tuple[Minutia, ...]:
        """The columns as one ``Minutia`` row per minutia, built on each access."""
        return tuple(map(Minutia, self.xs, self.ys, self.thetas, self.type_codes))

    def __len__(self) -> int:
        return len(self.xs)


# ---------------------------------------------------------------------------
# Parsing and serialization


# The largest integer a float64 holds exactly; the grid and the matcher
# compute in float64, so larger coordinates are rejected on input.
_MAX_COORD = 2 ** 53


def _converted(column: tuple, kind: type, convert: Callable) -> tuple:
    """``column`` itself when every value is a plain ``kind``, else each value ``convert``ed.

    Most prints arrive plain. Copying their columns anyway made the
    ``dedup-skewed`` benchmark's sweep, over a store filled from such
    prints, about 5% slower: the heap the copies leave behind is what the
    sweep then allocates in.
    """
    return column if set(map(type, column)) == {kind} else tuple(map(convert, column))


def _in_range(xs: tuple[int, ...], ys: tuple[int, ...], thetas: tuple[float, ...]) -> bool:
    """The print rule on non-empty columns: coordinates in [0, 2**53], angles in
    [0, 2*pi) with a finite sum."""
    # min and max pass over a NaN; the sum of the angles does not.
    return (0 <= min(xs) and max(xs) <= _MAX_COORD and 0 <= min(ys) and max(ys) <= _MAX_COORD
            and 0.0 <= min(thetas) and max(thetas) < TWO_PI and math.isfinite(sum(thetas)))


def _coordinate_error(line_no: int, what: str, text: str, value: int) -> ParseError:
    problem = "is negative" if value < 0 else "is too large"
    return ParseError(f"line {line_no}: {what} {text!r} {problem}")


class _IntTable(dict):
    """``int(text)`` of a field: a lookup for the canonical decimals below 1024."""

    def __missing__(self, text: str) -> int:
        return int(text)


# Coordinates and type codes are mostly small canonical decimals; any
# other form (signs, leading zeros, underscores, non-ASCII digits) and
# any larger value reaches int().
_INTS = _IntTable((str(i), i) for i in range(1024))


def parse_signature(text: str, record_id: str) -> Signature:
    """Parse a signature file body into a Signature.

    Each non-empty line must have exactly four ``;``-separated fields:
    ``x;y;theta;type``. Coordinates must be integers in [0, 2**53]; the
    angle may use ``,`` or ``.`` as decimal separator and is normalized
    into [0, 2*pi). Blank lines and surrounding whitespace are ignored.

    The fields are converted a column at a time and the print rule's
    ranges (``_in_range``) checked on whole columns. Any text that pass
    does not take as it stands (a field that does not convert, a line of
    other than four fields, a coordinate out of range, an angle to
    normalize, no minutiae, an empty record id) is parsed again line by
    line by ``_parse_lines``, which alone raises errors and normalizes
    angles.

    Raises:
        ParseError: on a malformed line (naming its line number) or when
            the text contains no minutiae at all.
    """
    parts = [line.split(";") for line in map(str.strip, text.splitlines()) if line]
    try:
        # zip stops at the shortest line: every line has at least 4
        # fields here, and the count of ';' makes it exactly 4.
        fx, fy, ft, fc = zip(*parts)
    except ValueError:
        return _parse_lines(text, record_id)
    if text.count(";") != 3 * len(parts) or not record_id:
        return _parse_lines(text, record_id)
    if "," in text:
        ft = [f.replace(",", ".") for f in ft]
    lookup = _INTS.__getitem__
    try:
        xs = tuple(map(lookup, fx))
        ys = tuple(map(lookup, fy))
        thetas = tuple(map(float, ft))
        type_codes = tuple(map(lookup, fc))
    except ValueError:
        return _parse_lines(text, record_id)
    if not _in_range(xs, ys, thetas):
        return _parse_lines(text, record_id)
    return Signature._from_columns(record_id, xs, ys, thetas, type_codes)


def _parse_lines(text: str, record_id: str) -> Signature:
    """``parse_signature`` one line at a time: the source of every parse error."""
    rows = []
    append = rows.append
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            fx, fy, ft, fc = line.split(";")
        except ValueError:
            raise ParseError(f"line {line_no}: expected 4 ';'-separated fields, "
                             f"got {line.count(';') + 1}") from None
        # int() and float() ignore surrounding whitespace themselves.
        try:
            x = int(fx)
        except ValueError:
            raise ParseError(f"line {line_no}: x coordinate {fx!r} is not an integer") from None
        if not 0 <= x <= _MAX_COORD:
            raise _coordinate_error(line_no, "x coordinate", fx, x)
        try:
            y = int(fy)
        except ValueError:
            raise ParseError(f"line {line_no}: y coordinate {fy!r} is not an integer") from None
        if not 0 <= y <= _MAX_COORD:
            raise _coordinate_error(line_no, "y coordinate", fy, y)
        try:
            theta = float(ft.replace(",", "."))
        except ValueError:
            raise ParseError(f"line {line_no}: angle {ft!r} is not a number") from None
        # normalize_angle is the identity on [0, 2*pi), -0.0 included;
        # NaN and +-inf fail the range test and reach the finite check.
        if not 0.0 <= theta < TWO_PI:
            if not math.isfinite(theta):
                raise ParseError(f"line {line_no}: angle {ft!r} is not finite")
            theta = normalize_angle(theta)
        try:
            type_code = int(fc)
        except ValueError:
            raise ParseError(f"line {line_no}: type code {fc!r} is not an integer") from None
        append((x, y, theta, type_code))
    if not rows:
        raise ParseError(f"signature {record_id!r} has no minutiae")
    return Signature(record_id, rows)


def serialize_signature(s: Signature) -> str:
    """Render a signature in file format, one ``x;y;theta;type`` line per minutia.

    Emits the dot decimal separator; ``parse_signature`` round-trips the
    result exactly.
    """
    return "\n".join(f"{x};{y};{theta!r};{code}" for x, y, theta, code in s.rows())


# ---------------------------------------------------------------------------
# Corpus layouts


# Tables and reports separate record ids with tabs, commas and line breaks;
# the class holds both separators and every str.splitlines boundary.
_ID_SEPARATORS = re.compile(r"[\t,\n\v\f\r\x1c\x1d\x1e\x85\u2028\u2029]")


def check_record_ids(ids: Iterable[str], what: str = "record id") -> None:
    """Raise ParseError naming the first id that holds a tab, a comma or a line boundary.

    Such an id would be written to a table or report as two ids, or
    split its line, and be read back as something else. ``what`` names
    the kind of id in the message.
    """
    search = _ID_SEPARATORS.search
    for record_id in ids:
        if search(record_id):
            raise ParseError(f"{what} {record_id!r} contains a separator character")


def _read_text(path: Path) -> str:
    """The file's text; one that does not decode raises ParseError naming the file."""
    try:
        return path.read_text()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None


def read_signature_file(path: str | Path, record_id: str | None = None) -> Signature:
    """Read one signature file; record id defaults to the filename stem.

    A ParseError names the file ahead of the parser's message.
    """
    path = Path(path)
    rid = record_id if record_id is not None else path.stem
    text = _read_text(path)
    try:
        return parse_signature(text, rid)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None


def write_corpus_dir(signatures: Iterator[Signature] | list[Signature],
                     directory: str | Path) -> int:
    """Write signatures as one ``<record_id>.sig`` file per record; returns the count.

    An id that would not read back as itself from the directory, one
    that is empty, starts with ``.`` (a hidden file) or holds a path
    separator, raises ParseError before its file is written.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    separators = {"/", os.sep, os.altsep} - {None}
    count = 0
    for s in signatures:
        rid = s.record_id
        if not rid or rid.startswith(".") or any(sep in rid for sep in separators):
            raise ParseError(f"record id {rid!r} cannot name a file in a corpus directory")
        (directory / f"{rid}.sig").write_text(serialize_signature(s) + "\n")
        count += 1
    return count


class FileStore(Mapping):
    """Lazy record_id -> Signature mapping over one signature file per record.

    Only record ids and file paths are read up front, from a corpus
    directory or a manifest. Each access parses its file anew, so
    memory stays flat however many records are resolved.
    """

    def __init__(self, paths: dict[str, Path]):
        check_record_ids(paths)
        self._paths = paths

    @classmethod
    def from_directory(cls, directory: str | Path) -> FileStore:
        """Scan filenames once, in sorted order, skipping hidden files.

        The filename stem is the record id; a repeated stem raises ParseError.
        The scan sorts plain names and reads each entry's file type from
        the directory, so only a link, or an entry of unknown type, costs
        a ``stat``.
        """
        directory = Path(directory)
        if not directory.is_dir():
            raise ParseError(f"corpus directory not found: {directory}")
        names = []
        with os.scandir(directory) as entries:
            for entry in entries:
                if entry.name.startswith("."):
                    continue
                # A link is tested as a Path: Path.is_file reads a link loop
                # as no file, where the entry's own test raises.
                if (directory / entry.name).is_file() if entry.is_symlink() else entry.is_file():
                    names.append(entry.name)
        paths: dict[str, Path] = {}
        for name in sorted(names):
            path = directory / name
            if path.stem in paths:
                raise ParseError(f"duplicate record id {path.stem!r} in corpus directory")
            paths[path.stem] = path
        return cls(paths)

    @classmethod
    def from_manifest(cls, manifest: str | Path) -> FileStore:
        """Read ``record_id<TAB>path`` lines, in file order.

        Relative paths resolve against the manifest's directory. A line
        that is not two tab-separated fields, or a record id listed
        twice, raises ParseError naming the line.
        """
        manifest = Path(manifest)
        base = manifest.parent
        paths: dict[str, Path] = {}
        for line_no, raw in enumerate(_read_text(manifest).splitlines(), start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ParseError(f"manifest line {line_no}: expected 'record_id<TAB>path'")
            record_id, rel = parts
            if record_id in paths:
                raise ParseError(f"manifest line {line_no}: duplicate record id {record_id!r}")
            paths[record_id] = base / rel
        return cls(paths)

    def __getitem__(self, record_id: str) -> Signature:
        return read_signature_file(self._paths[record_id], record_id)

    def __iter__(self):
        return iter(self._paths)

    def __len__(self) -> int:
        return len(self._paths)


# Bytes per packed minutia: angle and type code 8 each, x and y 4 each.
_PACKED_BYTES = 24


def _packed(s: Signature) -> bytes | None:
    """A signature's columns as one ``bytes`` value; None when ``array`` cannot hold them.

    The 8-byte columns come first, so every column starts aligned.
    ``array`` refuses a coordinate of 2**32 or more, or a type code
    beyond 64 bits, with OverflowError.
    """
    try:
        return b"".join((array("d", s.thetas).tobytes(), array("q", s.type_codes).tobytes(),
                         array("I", s.xs).tobytes(), array("I", s.ys).tobytes()))
    except OverflowError:
        return None


class SerializedStore(Mapping):
    """In-memory record_id -> Signature mapping holding each record packed.

    A signature is held as one ``bytes`` value of its columns (angles and
    type codes 8 bytes each, coordinates 4), about 24 bytes per minutia,
    and rebuilt from them on access; one whose coordinates reach 2**32 or
    whose type codes pass 64 bits is held as its serialized text and
    parsed on access. Either way ``store[rid]`` equals ``s``, column for
    column.
    """

    def __init__(self):
        self._records: dict[str, bytes | str] = {}

    def add(self, s: Signature) -> None:
        if s.record_id in self._records:
            raise ValueError(f"duplicate record id {s.record_id!r}")
        self._records[s.record_id] = _packed(s) or serialize_signature(s)

    def __getitem__(self, record_id: str) -> Signature:
        record = self._records[record_id]
        if type(record) is str:
            return parse_signature(record, record_id)
        n = len(record) // _PACKED_BYTES
        view = memoryview(record)
        return Signature._from_columns(record_id, tuple(view[16 * n:20 * n].cast("I")),
                                       tuple(view[20 * n:].cast("I")),
                                       tuple(view[:8 * n].cast("d")),
                                       tuple(view[8 * n:16 * n].cast("q")))

    def __iter__(self):
        return iter(self._records)

    def __len__(self) -> int:
        return len(self._records)


def _resolve(store: Mapping[str, Signature], record_id: str) -> Signature:
    """``store[record_id]``; a missing id is a KeyError saying the table and store disagree."""
    try:
        return store[record_id]
    except KeyError:
        raise KeyError(
            f"record id {record_id!r} is in the table but not in the signature store"
        ) from None
