"""Shared fixtures."""

import sys
from contextlib import contextmanager

import pytest

from ggraphs import algebra as al


@pytest.fixture
def no_permutations(monkeypatch):
    """Make building any permutation fail the test, so that a size guard is
    exercised without ever allocating what it guards against."""

    def forbidden(*args, **kwargs):
        raise AssertionError("a permutation was built before the degree check")

    for name in ("parse", "from_cycles", "identity"):
        monkeypatch.setattr(al.Perm, name, forbidden)
    monkeypatch.setattr(al, "symmetric_group", forbidden)
    monkeypatch.setattr(al, "perm_group", forbidden)


@pytest.fixture
def shallow_stack():
    """A context manager that caps the stack at `room` frames past the frame
    that enters it, then restores the recursion limit: a search that
    recurses once per vertex raises RecursionError on any larger input."""

    @contextmanager
    def cap(room=40):
        depth, frame = 0, sys._getframe(2)
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + room)
        try:
            yield
        finally:
            sys.setrecursionlimit(old)

    return cap
