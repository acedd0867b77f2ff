"""Shared fixtures: the reference worked-example signature and a spy on the sweep's pairs."""

from __future__ import annotations

from pathlib import Path

import pytest

from fpdedup import dedup
from fpdedup.signature import Minutia, Signature, read_signature_file

DATA_DIR = Path(__file__).parent / "data"

# The worked-example signature and its published index key (n=5 grid).
REFERENCE_SIGNATURE_PATH = DATA_DIR / "reference_signature.sig"
REFERENCE_KEY = "1-1-1-1-0-1-4-2-2-0-2-1-2-0-0-1-0-0-1-1-1-0-1-0-0"


@pytest.fixture(scope="session")
def reference_signature() -> Signature:
    return read_signature_file(REFERENCE_SIGNATURE_PATH, "reference")


def make_signature(record_id: str, points: list[tuple[int, int]],
                   theta: float = 0.5, type_code: int = 1) -> Signature:
    return Signature(record_id, [Minutia(x, y, theta, type_code) for x, y in points])


def translate(s: Signature, dx: int, dy: int, record_id: str | None = None) -> Signature:
    return Signature(record_id or s.record_id,
                     [Minutia(m.x + dx, m.y + dy, m.theta, m.type_code) for m in s.minutiae])


@pytest.fixture
def compared_pairs(monkeypatch) -> list[tuple[str, str]]:
    """Every (head, member) pair the dedup sweep decides, in sweep order.

    Each pair the sweep compares passes through its screen's
    ``undecided(head, alive)``, ruled out there or scored after.
    """
    pairs: list[tuple[str, str]] = []
    screen = dedup.bucket_screen

    def spying_screen(members, p):
        undecided = screen(members, p)

        def spy(a, alive):
            pairs.extend((a.signature.record_id, members[j].signature.record_id) for j in alive)
            return undecided(a, alive)

        return spy

    monkeypatch.setattr(dedup, "bucket_screen", spying_screen)
    return pairs
