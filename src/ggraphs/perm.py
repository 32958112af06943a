"""Permutations of {1..n}, composed right-to-left: (p*q)(x) = p(q(x)).

Plain Python with no numpy, so that the tau search and its certificate
checks import nothing else; ``algebra`` re-exports every name here.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import reduce

from .errors import CapExceeded, ParseError, PreconditionFailed

# Largest group order built: its int32 table takes 256 MiB, which
# PermClosure.table writes in place.
DEFAULT_CLOSURE_CAP = 8192


# ---------------------------------------------------------------------------
# permutations


@dataclass(frozen=True)
class Perm:
    """A permutation of {1..n}; img[i] is the image of point i+1."""

    img: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.img)

    @classmethod
    def identity(cls, n: int) -> "Perm":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def from_cycles(cls, cycles, degree: int | None = None) -> "Perm":
        pts = [p for c in cycles for p in c]
        if any(p < 1 for p in pts):
            raise ParseError("permutation points must be >= 1")
        if len(set(pts)) != len(pts):
            raise ParseError("repeated point in cycle list: %r" % (cycles,))
        n = degree if degree is not None else (max(pts) if pts else 1)
        if pts and max(pts) > n:
            raise ParseError("point %d exceeds degree %d" % (max(pts), n))
        img = list(range(1, n + 1))
        for c in cycles:
            for a, b in zip(c, c[1:] + c[:1]):
                img[a - 1] = b
        return cls(tuple(img))

    @classmethod
    def parse(cls, text: str, degree: int | None = None) -> "Perm":
        """Parse cycle notation: "(1 2 3)(4 5)"; separators may be spaces or
        commas, and commas between cycles are tolerated."""
        s = text.strip()
        if s in ("", "()"):
            return cls.identity(degree or 1)
        body = re.fullmatch(r"\s*(\([^()]*\)[\s,]*)+", s)
        if not body:
            raise ParseError("bad cycle notation: %r" % text)
        cycles = []
        for grp in re.findall(r"\(([^()]*)\)", s):
            pts = [t for t in re.split(r"[\s,]+", grp.strip()) if t]
            try:
                cyc = [int(t) for t in pts]
            except ValueError:
                raise ParseError("bad cycle entry in %r" % text) from None
            if cyc:
                cycles.append(cyc)
        return cls.from_cycles(cycles, degree)

    def __call__(self, point: int) -> int:
        return self.img[point - 1]

    def __mul__(self, other: "Perm") -> "Perm":
        # (p*q)(x) = p(q(x))
        if self.degree != other.degree:
            raise PreconditionFailed("degree mismatch in composition")
        return Perm(tuple(self.img[j - 1] for j in other.img))

    def inverse(self) -> "Perm":
        inv = [0] * self.degree
        for i, j in enumerate(self.img):
            inv[j - 1] = i + 1
        return Perm(tuple(inv))

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycles, fixed points included, sorted by smallest point;
        an img that is no permutation of 1..n is refused, not walked forever."""
        img, n = self.img, self.degree
        seen = [False] * n
        out = []
        for start in range(1, n + 1):
            if seen[start - 1]:
                continue
            c = [start]
            seen[start - 1] = True
            nxt = img[start - 1]
            while nxt != start:
                if not 0 < nxt <= n or seen[nxt - 1]:
                    raise PreconditionFailed("%r is not a permutation of 1..%d" % (img, n))
                c.append(nxt)
                seen[nxt - 1] = True
                nxt = img[nxt - 1]
            out.append(tuple(c))
        return out

    @property
    def order(self) -> int:
        return reduce(math.lcm, (len(c) for c in self.cycles()), 1)

    @property
    def sign(self) -> int:
        return -1 if (self.degree - len(self.cycles())) % 2 else 1

    def cycle_string(self) -> str:
        """Canonical cycle form; fixed points are always written out."""
        return "".join(["(%s)" % ",".join(map(str, c)) for c in self.cycles()])

    def __str__(self) -> str:
        return self.cycle_string()


def conjugate(p: Perm, q: Perm) -> Perm:
    """q * p * q^-1."""
    return q * p * q.inverse()


def _check_degree(degree: int) -> int:
    """Refuse a permutation degree above DEFAULT_CLOSURE_CAP: a closure's
    order x degree element array then stays within the table bound."""
    if degree > DEFAULT_CLOSURE_CAP:
        raise CapExceeded("permutation degree %d exceeds cap %d" % (degree, DEFAULT_CLOSURE_CAP))
    return degree
