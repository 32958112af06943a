"""Shared fixtures."""

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
