"""Combinatorial tests for integral spectral variation under edge addition.

A single-eigenvalue (+2) shift happens exactly when v and w have identical
signed neighborhoods (mirrored ones for an odd addition).  A two-eigenvalue
(+1,+1) shift is decided by five per-block row-sum equalities on the
(v,w)-centered form, together with a strict positivity guard that separates
it from the single-shift case.  Eigenvector certificates live in the
quadratic integer ring generated by the shifted eigenvalue pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .graphs import (
    EVEN,
    NeighborhoodSplit,
    SignedGraph,
    _check_pair,
    _check_parity,
    is_centered,
    neighborhood_split,
)
from .spectra import NONE, TYPE1, TYPE2, SivVerdict


def _same_signed_neighbors(av: Mapping[int, bool], aw: Mapping[int, bool], flipped: bool) -> bool:
    """Equal adjacency dicts, or (flipped) equal keys with every parity swapped."""
    if not flipped:
        return av == aw
    return av.keys() == aw.keys() and all(aw[x] != odd for x, odd in av.items())


def check_type1(g: SignedGraph, v: int, w: int, parity: str) -> bool:
    """Single-eigenvalue shift test: equal (even parity) or swapped (odd
    parity) signed neighborhoods of v and w."""
    _check_parity(parity)
    _check_pair(g, v, w)
    return _same_signed_neighbors(g.adjacency(v), g.adjacency(w), parity != EVEN)


def check_type2(g: SignedGraph, v: int, w: int, parity: str) -> SivVerdict:
    """Two-eigenvalue shift test on the centered form.

    Evaluates the five block conditions vertex by vertex as integer
    equalities on signed neighbor counts (empty blocks pass vacuously), plus
    the positivity a+b+4d > 0 without which the shift degenerates to the
    single-eigenvalue kind.

    The centered form is never built.  Switching at (N(w) - N(v)) + {w}
    (odd addition, pi = 1) and then centering is a single switching, whose
    side is 0 at v, pi at w, the v-edge parity on N(v), the w-edge parity
    xor pi on N(w) - N(v) and 0 elsewhere; the centered parity of an edge ux
    is its parity xor side(u) xor side(x).  Row combinations weigh block A
    by 1, B by -1, D by 2 and the rest by 0.
    """
    _check_parity(parity)
    _check_pair(g, v, w)
    pi = parity != EVEN
    av, aw = g.adjacency(v), g.adjacency(w)
    side = [False] * (g.n + 1)
    weight = [0] * (g.n + 1)
    side[w] = pi
    a_block, b_block, c_block, d_block = [], [], [], []
    for x, odd in av.items():
        side[x] = odd
        if x not in aw:
            a_block.append(x)
            weight[x] = 1
        elif odd ^ aw[x] ^ pi:
            d_block.append(x)
            weight[x] = 2
        else:
            c_block.append(x)
    for x, odd in aw.items():
        if x not in av:
            side[x] = odd ^ pi
            b_block.append(x)
            weight[x] = -1
    e_block = [u for u in g.vertices if u != v and u != w and u not in av and u not in aw]
    d1, d2 = len(av), len(aw)

    def rows_equal(block: list[int], target: int) -> bool:
        for u in block:
            adj = g.adjacency(u)
            su = side[u]
            total = weight[u] * len(adj)
            for x, odd in adj.items():
                wx = weight[x]
                if wx:
                    total += wx if odd ^ su ^ side[x] else -wx
            if total != target:
                return False
        return True

    diag = (
        ("A", rows_equal(a_block, d2 + 1)),
        ("B", rows_equal(b_block, -(d1 + 1))),
        ("C", rows_equal(c_block, d2 - d1)),
        ("D", rows_equal(d_block, d1 + d2 + 2)),
        ("E", rows_equal(e_block, 0)),
        ("positivity", len(a_block) + len(b_block) + 4 * len(d_block) > 0),
    )
    if all(ok for _, ok in diag):
        p = d1 * d2 + len(c_block) - len(d_block)
        return SivVerdict(TYPE2, s=d1 + d2 + 1, p=p, conditions=diag)
    return SivVerdict(NONE, conditions=diag)


def classify(g: SignedGraph, v: int, w: int, parity: str) -> SivVerdict:
    """Full combinatorial decision; the reported type-1 eigenvalue is the
    common degree of v and w."""
    _check_parity(parity)
    _check_pair(g, v, w)
    av = g.adjacency(v)
    if _same_signed_neighbors(av, g.adjacency(w), parity != EVEN):
        return SivVerdict(TYPE1, lam=len(av))
    return check_type2(g, v, w, parity)


@dataclass(frozen=True)
class QuadInt:
    """Element a + b*r of Z[r]/(r^2 - s*r + p); r stands for one of the two
    (possibly irrational, conjugate) shifted eigenvalues."""

    a: int
    b: int
    s: int
    p: int

    def _coerce(self, other: QuadInt | int) -> QuadInt:
        if isinstance(other, int):
            return QuadInt(other, 0, self.s, self.p)
        if (self.s, self.p) != (other.s, other.p):
            raise ValueError("mixed quadratic rings")
        return other

    @property
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __add__(self, other: QuadInt | int) -> QuadInt:
        other = self._coerce(other)
        return QuadInt(self.a + other.a, self.b + other.b, self.s, self.p)

    __radd__ = __add__

    def __sub__(self, other: QuadInt | int) -> QuadInt:
        other = self._coerce(other)
        return QuadInt(self.a - other.a, self.b - other.b, self.s, self.p)

    def __rsub__(self, other: int) -> QuadInt:
        return self._coerce(other) - self

    def __neg__(self) -> QuadInt:
        return QuadInt(-self.a, -self.b, self.s, self.p)

    def __mul__(self, other: QuadInt | int) -> QuadInt:
        if isinstance(other, int):
            return QuadInt(self.a * other, self.b * other, self.s, self.p)
        other = self._coerce(other)
        cross = self.b * other.b
        return QuadInt(
            self.a * other.a - self.p * cross,
            self.a * other.b + self.b * other.a + self.s * cross,
            self.s,
            self.p,
        )

    def __rmul__(self, other: int) -> QuadInt:
        return self * other


@dataclass(frozen=True)
class Type2Certificate:
    """Exact eigenvector pair for a two-eigenvalue shift.

    Heads are (-lam_i + d2 + 1, lam_i - d1 - 1); the tail is the fixed
    pattern 1 on A, -1 on B, 0 on C, 2 on D, 0 on E.  Entries live in
    Z[r]/(r^2 - s*r + p) so verification is exact even when the eigenvalue
    pair is irrational.
    """

    split: NeighborhoodSplit
    s: int
    p: int
    a1: QuadInt
    b1: QuadInt
    a2: QuadInt
    b2: QuadInt
    order: tuple[int, ...]
    tail: tuple[int, ...]

    def _const(self, c: int) -> QuadInt:
        return QuadInt(c, 0, self.s, self.p)

    def eigenvalue(self, i: int) -> QuadInt:
        if i == 1:
            return QuadInt(0, 1, self.s, self.p)
        if i == 2:
            return QuadInt(self.s, -1, self.s, self.p)
        raise ValueError("eigenvector index must be 1 or 2")

    def eigenvector(self, i: int) -> tuple[QuadInt, ...]:
        if i == 1:
            head = (self.a1, self.b1)
        elif i == 2:
            head = (self.a2, self.b2)
        else:
            raise ValueError("eigenvector index must be 1 or 2")
        return head + tuple(self._const(c) for c in self.tail)

    def residual(self, g: SignedGraph, i: int) -> tuple[QuadInt, ...]:
        """L*vec - lam_i*vec over the ring; all-zero certifies the pair."""
        vec = self.eigenvector(i)
        lam = self.eigenvalue(i)
        pos = {u: k for k, u in enumerate(self.order)}
        out = []
        for k, u in enumerate(self.order):
            acc = g.degree(u) * vec[k] - lam * vec[k]
            for x, is_odd in g.adjacency(u).items():
                acc = acc + (1 if is_odd else -1) * vec[pos[x]]
            out.append(acc)
        return tuple(out)

    def residuals_are_zero(self, g: SignedGraph) -> bool:
        return all(r.is_zero for i in (1, 2) for r in self.residual(g, i))


def build_type2_eigenvectors(
    g: SignedGraph, v: int, w: int, verdict: SivVerdict
) -> Type2Certificate:
    """Materialize the eigenvector pair for a type-2 verdict on a centered graph."""
    if verdict.kind != TYPE2 or verdict.s is None or verdict.p is None:
        raise ValueError("a type-2 verdict is required")
    if not is_centered(g, v, w):
        raise ValueError(f"graph must be ({v},{w})-centered")
    split = neighborhood_split(g, v, w)
    d1, d2 = g.degree(v), g.degree(w)
    s, p = verdict.s, verdict.p
    lam1 = QuadInt(0, 1, s, p)
    lam2 = QuadInt(s, -1, s, p)

    def const(c: int) -> QuadInt:
        return QuadInt(c, 0, s, p)

    return Type2Certificate(
        split=split,
        s=s,
        p=p,
        a1=const(d2 + 1) - lam1,
        b1=lam1 - const(d1 + 1),
        a2=const(d2 + 1) - lam2,
        b2=lam2 - const(d1 + 1),
        order=(v, w) + split.A + split.B + split.C + split.D + split.E,
        tail=(1,) * len(split.A)
        + (-1,) * len(split.B)
        + (0,) * len(split.C)
        + (2,) * len(split.D)
        + (0,) * len(split.E),
    )
