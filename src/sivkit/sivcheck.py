"""Combinatorial tests for integral spectral variation under edge addition.

A single-eigenvalue (+2) shift happens exactly when v and w have identical
signed neighborhoods (mirrored ones for an odd addition).  A two-eigenvalue
(+1,+1) shift is decided by five per-block row-sum equalities on the
(v,w)-centered form, together with a strict positivity guard that separates
it from the single-shift case.  Its eigenvector certificate is a pair of
integer vectors x, y: x + r*y is an eigenvector for either root r of the
shifted pair's quadratic r^2 - s*r + p, which two integer identities check.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .graphs import (
    EVEN,
    SignedGraph,
    _check_pair,
    _check_parity,
    is_centered,
    neighborhood_split,
)
from .spectra import NONE, TYPE1, TYPE2, SivVerdict, signed_laplacian


def _type1_degree(g: SignedGraph, v: int, w: int, pi: bool) -> int | None:
    """The common degree of v and w when their signed neighbourhoods are
    equal (pi false) or mirrored, every parity swapped (pi true), else None:
    two comparisons of g._bits masks."""
    nbr, odd = g._bits
    nv = nbr[v]
    if nv == nbr[w] and odd[v] == (odd[w] ^ nv if pi else odd[w]):
        return nv.bit_count()
    return None


def check_type1(g: SignedGraph, v: int, w: int, parity: str) -> bool:
    """Single-eigenvalue shift test: equal (even parity) or swapped (odd
    parity) signed neighborhoods of v and w."""
    _check_parity(parity)
    _check_pair(g, v, w)
    return _type1_degree(g, v, w, parity != EVEN) is not None


_CONDITION_NAMES = ("A", "B", "C", "D", "E", "positivity")


def _conditions(failed: int) -> tuple[tuple[str, bool], ...]:
    """The reported (name, holds) pairs for a mask of failed conditions."""
    return tuple((name, not failed >> k & 1) for k, name in enumerate(_CONDITION_NAMES))


# SivVerdict is frozen and its conditions a tuple, so verdicts can be shared;
# entry m of the table fails the conditions in mask m (entry 0 is never used)
_ALL_HOLD = _conditions(0)
_NONE_BY_FAILED = tuple(SivVerdict(NONE, conditions=_conditions(m)) for m in range(64))


def check_type2(g: SignedGraph, v: int, w: int, parity: str) -> SivVerdict:
    """Two-eigenvalue shift test on the centered form.

    Evaluates the five block conditions vertex by vertex as integer
    equalities on signed neighbor counts (empty blocks pass vacuously), plus
    the positivity a+b+4d > 0 without which the shift degenerates to the
    single-eigenvalue kind.

    The centered form is never built.  Switching at (N(w) - N(v)) + {w}
    (odd addition, pi = 1) and then centering is a single switching.  The
    conditions read its side only at blocks A-E, where it is the v-edge
    parity on N(v), the w-edge parity xor pi on N(w) - N(v) and 0 on E; the
    centered parity of an edge ux is its parity xor side(u) xor side(x).
    Row combinations weigh block A by 1, B by -1, D by 2 and the rest by 0.
    """
    _check_parity(parity)
    _check_pair(g, v, w)
    return _type2(g, v, w, parity != EVEN)


def _type2(g: SignedGraph, v: int, w: int, pi: bool) -> SivVerdict:
    """check_type2 on a checked pair, pi true for an odd addition, on the
    masks of g._bits.

    Blocks A-E and the switching side are masks; side covers the blocks
    only, since every u and x it is read at lies in one.  Row u of the
    centered form has its odd edges at the neighbours x with odd(ux) ^
    side(u) ^ side(x); of the neighbours k in A, B and D, those that add
    their weight with a plus sign (an odd edge into A or D, an even one
    into B) form pos, so the row combination is weight(u) deg(u) +
    (2|pos| - |k|) + (2|pos & D| - |k & D|), with D's weight 2.

    The six conditions go into a mask of the failed ones, bit k for the k-th
    of _CONDITION_NAMES, and a failing mask returns its prebuilt none verdict
    from _NONE_BY_FAILED: every condition is still evaluated and reported,
    and no none verdict or conditions tuple is built per call.
    """
    nbr, odd = g._bits
    nv, nw = nbr[v], nbr[w]
    common = nv & nw
    a_block = nv ^ common
    b_block = nw ^ common
    d_block = common & (odd[v] ^ odd[w] ^ (common if pi else 0))
    c_block = common ^ d_block
    e_block = ((1 << g.n + 1) - 2) & ~(nv | nw | 1 << v | 1 << w)
    side = odd[v] | (odd[w] & b_block) ^ (b_block if pi else 0)
    weighted = a_block | b_block | d_block
    plus_side = side ^ b_block  # an edge into B adds its weight when even
    d1, d2 = nv.bit_count(), nw.bit_count()
    d = d_block.bit_count()
    # a, b and d count A, B and D, so a + b + 4d > 0 exactly when A | B | D is non-empty
    failed = (not weighted) << 5
    blocks = (
        (1, a_block, 1, d2 + 1),
        (2, b_block, -1, -(d1 + 1)),
        (4, c_block, 0, d2 - d1),
        (8, d_block, 2, d1 + d2 + 2),
        (16, e_block, 0, 0),
    )
    for bit, block, weight, target in blocks:
        while block:
            low = block & -block
            block ^= low
            u = low.bit_length() - 1
            row = nbr[u]
            k = row & weighted
            pos = k & (odd[u] ^ plus_side)
            if side & low:
                pos ^= k
            total = (weight * row.bit_count() + 2 * pos.bit_count() - k.bit_count()
                     + 2 * (pos & d_block).bit_count() - (k & d_block).bit_count())
            if total != target:
                failed |= bit
                break
    if failed:
        return _NONE_BY_FAILED[failed]
    return SivVerdict(TYPE2, s=d1 + d2 + 1, p=d1 * d2 + c_block.bit_count() - d, conditions=_ALL_HOLD)


def classify(g: SignedGraph, v: int, w: int, parity: str) -> SivVerdict:
    """Full combinatorial decision; the reported type-1 eigenvalue is the
    common degree of v and w."""
    _check_parity(parity)
    _check_pair(g, v, w)
    pi = parity != EVEN
    lam = _type1_degree(g, v, w, pi)
    if lam is not None:
        return SivVerdict(TYPE1, lam=lam)
    return _type2(g, v, w, pi)


@dataclass(frozen=True)
class Type2Certificate:
    """Exact eigenvector pair for a two-eigenvalue shift, as two integer vectors.

    Over `order`, both eigenvectors are x + r*y, r either root of
    r^2 - s*r + p.  x is (d2 + 1, -(d1 + 1)) on (v, w), then 1 on A, -1 on B,
    0 on C, 2 on D and 0 on E; y is (-1, 1) on (v, w) and 0 elsewhere.  Z[r]
    is free on 1 and r, so L(x + r*y) = r(x + r*y) is exactly the pair of
    integer identities L*x = -p*y and L*y = x + s*y.  The map r -> s - r
    carries the identity for one root to the other, so the one pair of
    checks certifies both eigenvectors, even when the roots are irrational.
    """

    s: int
    p: int
    order: tuple[int, ...]
    x: tuple[int, ...]
    y: tuple[int, ...]

    def residuals_are_zero(self, g: SignedGraph) -> bool:
        """L*x == -p*y and L*y == x + s*y, row by row of signed_laplacian(g),
        with x and y filled out to one entry per vertex of g.

        Refused unless order lists distinct vertices, x and y have one entry
        per vertex of order, and x and y are linearly independent: otherwise
        x + r*y is zero for some r, and the identities hold for any s and p.
        """
        for u in self.order:
            g._check_vertex(u)
        if len(set(self.order)) != len(self.order) or not (
            len(self.x) == len(self.y) == len(self.order)
        ):
            return False
        # independent iff some 2x2 minor x_i y_j - x_j y_i is non-zero; every
        # minor vanishes when each column is parallel to the first non-zero one
        columns = list(zip(self.x, self.y))
        x0, y0 = next((c for c in columns if c != (0, 0)), (0, 0))
        if all(a * y0 == b * x0 for a, b in columns):
            return False
        x, y = [0] * g.n, [0] * g.n
        for u, a, b in zip(self.order, self.x, self.y):
            x[u - 1], y[u - 1] = a, b
        s, p = self.s, self.p
        return all(
            sum(map(mul, row, x)) == -p * b and sum(map(mul, row, y)) == a + s * b
            for row, a, b in zip(signed_laplacian(g), x, y)
        )


def build_type2_eigenvectors(
    g: SignedGraph, v: int, w: int, verdict: SivVerdict
) -> Type2Certificate:
    """Materialize the eigenvector pair for a type-2 verdict on a centered graph."""
    if verdict.kind != TYPE2 or verdict.s is None or verdict.p is None:
        raise ValueError("a type-2 verdict is required")
    if not is_centered(g, v, w):
        raise ValueError(f"graph must be ({v},{w})-centered")
    split = neighborhood_split(g, v, w)
    tail = (
        (1,) * len(split.A)
        + (-1,) * len(split.B)
        + (0,) * len(split.C)
        + (2,) * len(split.D)
        + (0,) * len(split.E)
    )
    return Type2Certificate(
        s=verdict.s,
        p=verdict.p,
        order=(v, w) + split.A + split.B + split.C + split.D + split.E,
        x=(g.degree(w) + 1, -(g.degree(v) + 1)) + tail,
        y=(-1, 1) + (0,) * len(tail),
    )
