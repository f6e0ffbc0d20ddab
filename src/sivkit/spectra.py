"""Exact integer linear algebra for signed Laplacians.

Characteristic polynomials are computed exactly over the integers.  The
edge-addition oracle decides integral spectral shifts in closed form from
the Krylov space of the update vector, independent of any combinatorial
characterization, and exact polynomial identities re-check its positive
verdicts.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from itertools import chain, repeat
from operator import add, index, lshift, mul
from typing import Iterable, Iterator, Sequence

from .graphs import ODD, SignedGraph, _check_pair, _check_parity
from .polynomials import IntPoly, _div_coeffs, _mul_coeffs

NONE = "none"
TYPE1 = "type1"
TYPE2 = "type2"


def signed_laplacian(g: SignedGraph) -> tuple[tuple[int, ...], ...]:
    """Degree diagonal minus signed adjacency: even edge -1, odd edge +1,
    as a tuple of integer rows, written straight from the edge sets."""
    rows = [[0] * g.n for _ in g.vertices]
    for u, v in g.edges:
        row_u, row_v = rows[u - 1], rows[v - 1]
        row_u[v - 1] = row_v[u - 1] = -1
        row_u[u - 1] += 1
        row_v[v - 1] += 1
    for u, v in g.odd:
        rows[u - 1][v - 1] = rows[v - 1][u - 1] = 1
    return tuple(map(tuple, rows))


def _read_square(m: Sequence[Sequence[int]]) -> list[list[int]]:
    """The rows of a square matrix as lists of ints, each entry read through
    operator.index once: fixed-width integers (numpy int64, say) convert
    exactly, and a float is refused rather than truncated."""
    rows = [list(map(index, row)) for row in m]
    n = len(rows)
    if n == 0:
        raise ValueError("matrix must have at least one row")
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    return rows


def char_poly(m: Sequence[Sequence[int]]) -> IntPoly:
    """det(xI - m) for a square matrix of integer rows, monic with exact
    integer coefficients.  The rows are read by _read_square.

    From the power sums p_k = tr(m^k) by Newton's identities,
    k c_(n-k) = -sum over i = 1..k of p_i c_(n-k+i), every division exact.
    Only m^1..m^h with h = ceil(n/2) are formed: for k <= h, p_k is the
    diagonal sum of m^k, and for k > h, tr(m^(a+b)) is the sum over i, j of
    (m^a)_ij (m^b)_ji, one flat dot product of m^a with the transpose of m^b
    for a = floor(k/2) and b = k - a (a symmetric m is its own transpose).

    Each row of m^k is one integer holding entry j in the w-bit slot at bit
    j*w (Kronecker substitution), so a row of m^(k+1) = m m^k is one C-level
    sum of the packed rows of m^k times the entries of m's row.  Every entry
    of m^k is at most r^k in absolute value, r the largest absolute row sum
    of m (the infinity norm is submultiplicative), and r^k < 2^(h*bitlen(r))
    for k <= h; so w, the first whole number of machine words above
    h*bitlen(r), holds every entry with its sign.  Adding 2^(w-1) to every
    slot leaves none negative, so none borrows from the next: the diagonal
    is read off the biased slots, and XOR with the same bias leaves each
    slot in two's complement, read back as words for the powers that the
    dot products use.
    """
    rows = _read_square(m)
    n = len(rows)
    h = (n + 1) // 2
    word = array("Q").itemsize * 8
    limbs = h * max(sum(map(abs, row)) for row in rows).bit_length() // word + 1
    w = word * limbs
    half = 1 << (w - 1)
    mask = (1 << w) - 1
    bias = half * ((1 << (n * w)) - 1) // mask  # 2^(w-1) in every slot
    shifts = range(0, n * w, w)
    packed = [sum(map(lshift, row, shifts)) for row in rows]  # m^1
    sums = [0]  # sums[k] = tr(m^k)
    flat = {}  # flat[k]: the entries of m^k, row by row, for the k that p_(h+1..n) read
    for k in range(1, h + 1):
        if k > 1:
            packed = [sum(map(mul, row, packed)) for row in rows]
        sums.append(sum(((p + bias) >> s) & mask for p, s in zip(packed, shifts)) - n * half)
        if 2 * k >= h:
            words = array("Q", b"".join([((p + bias) ^ bias).to_bytes(n * w // 8, "little") for p in packed]))
            if sys.byteorder == "big":  # to_bytes wrote the words little-endian
                words.byteswap()
            # the top word of each slot carries the sign
            entries = array("q", words.tobytes())[limbs - 1 :: limbs]
            for t in range(limbs - 2, -1, -1):
                entries = map(add, map(lshift, entries, repeat(word)), words[t::limbs])
            flat[k] = list(entries)
    flat_t = flat
    if rows != list(map(list, zip(*rows))):
        flat_t = {k: list(chain.from_iterable(f[j::n] for j in range(n))) for k, f in flat.items()}
    for k in range(h + 1, n + 1):
        a = k // 2
        sums.append(sum(map(mul, flat[a], flat_t[k - a])))
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    for k in range(1, n + 1):
        t = sum(map(mul, sums[1 : k + 1], coeffs[n - k + 1 :]))
        if t % k:
            raise ArithmeticError("inexact power-sum division in char_poly")
        coeffs[n - k] = -(t // k)
    return IntPoly(tuple(coeffs))


def _iroot(value: int, k: int) -> int:
    """floor(value ** (1/k)) for value >= 0, exactly.

    The float guess only seeds integer Newton steps: from any positive start
    the first step lands on or above the root (AM-GM), and the steps then
    descend to it, so the result never depends on float rounding.
    """
    if value < 2 or k == 1:
        return value
    try:
        r = int(value ** (1.0 / k)) + 1
    except OverflowError:
        r = 1 << -(-value.bit_length() // k)
    r = ((k - 1) * r + value // r ** (k - 1)) // k
    while True:
        s = ((k - 1) * r + value // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def _root_bound(coeffs: tuple[int, ...]) -> int:
    """The floor B of Fujiwara's bound 2 * max_k |a_(d-k)|^(1/k) for the
    monic polynomial with these ascending coefficients a_0..a_d.

    Every complex root z has |z| <= 2 * max_k |a_(d-k)|^(1/k), so every
    integer root r has |r| <= B.  Each term's floor is the integer k-th root
    of 2^k |a_(d-k)|.
    """
    d = len(coeffs) - 1
    return max(_iroot(abs(coeffs[d - k]) << k, k) for k in range(1, d + 1))


def _divisors(value: int, limit: int) -> list[int]:
    """The positive divisors of |value| that are at most limit, ascending,
    in min(limit, sqrt|value|) trial divisions."""
    value = abs(value)
    small: list[int] = []
    large: list[int] = []
    i = 1
    while i * i <= value and i <= limit:
        if value % i == 0:
            small.append(i)
            j = value // i
            if j != i and j <= limit:
                large.append(j)
        i += 1
    return small + large[::-1]


@dataclass(frozen=True)
class IntegerSpectrum:
    """Integer roots peeled from a monic polynomial, plus any residual factor
    with no integer roots; the product of both reconstructs the input."""

    roots: tuple[int, ...]
    residual: IntPoly | None = None

    @property
    def is_integral(self) -> bool:
        return self.residual is None

    def to_json(self) -> list[int] | str:
        return list(self.roots) if self.is_integral else "non-integral"


def integer_spectrum(p: IntPoly) -> IntegerSpectrum:
    """Full integer root multiset of a monic polynomial, or the residual."""
    if not p.is_monic:
        raise ValueError("monic polynomial required")
    # p is monic, so some coefficient is nonzero; x^zeros divides p exactly
    zeros = next(k for k, c in enumerate(p.coeffs) if c)
    roots = [0] * zeros
    q = p.coeffs[zeros:]
    # every integer root divides q(0) and lies within the root bound
    candidates = _divisors(q[0], _root_bound(q)) if len(q) > 1 else []
    q = q[::-1]  # descending, the order synthetic division reads
    for d in candidates:
        for r in (d, -d):
            while len(q) > 1:
                # synthetic division by x - r: the last value is q(r), the rest the quotient
                acc, values = 0, []
                for c in q:
                    acc = acc * r + c
                    values.append(acc)
                if acc:
                    break
                q = values[:-1]
                roots.append(r)
        if len(q) == 1:
            break
    residual = IntPoly(tuple(reversed(q))) if len(q) > 1 else None
    return IntegerSpectrum(tuple(sorted(roots)), residual)


@dataclass(frozen=True)
class SivVerdict:
    """Outcome of an integral-variation decision.

    kind "type1": one eigenvalue lam rises by 2.  kind "type2": two
    eigenvalues summing to s with product p each rise by 1.  conditions
    carries per-block diagnostics when produced by the combinatorial check.
    """

    kind: str
    lam: int | None = None
    s: int | None = None
    p: int | None = None
    conditions: tuple[tuple[str, bool], ...] | None = None

    @property
    def params(self) -> tuple[str, int | None, int | None, int | None]:
        return (self.kind, self.lam, self.s, self.p)

    def to_json_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.lam is not None:
            out["lambda"] = self.lam
        if self.s is not None:
            out["s"] = self.s
        if self.p is not None:
            out["p"] = self.p
        if self.conditions is not None:
            out["conditions"] = dict(self.conditions)
        return out


# siv_oracle's one none verdict: SivVerdict is frozen, so every none shares it
_NO_SHIFT = SivVerdict(NONE)


def laplacian_char_poly(g: SignedGraph) -> IntPoly:
    """det(xI - L) for g's signed Laplacian L."""
    return char_poly(signed_laplacian(g))


def _shift_factors(verdict: SivVerdict) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The factors f and h, ascending, with p' * f == p * h for a verdict's shift:
    x - lam and x - lam - 2 for type 1, q(x) and q(x - 1) with
    q = x^2 - s*x + rho for type 2, where q(x - 1) is written out as
    x^2 - (s + 2)*x + (1 + s + rho)."""
    if verdict.kind == TYPE1:
        if verdict.lam is None:
            raise ValueError("type-1 verdict requires lam")
        return (-verdict.lam, 1), (-verdict.lam - 2, 1)
    if verdict.kind == TYPE2:
        if verdict.s is None or verdict.p is None:
            raise ValueError("type-2 verdict requires s and p")
        s, rho = verdict.s, verdict.p
        return (rho, -s, 1), (1 + s + rho, -s - 2, 1)
    if verdict.kind == NONE:
        raise ValueError("verdict carries no shift")
    raise ValueError(f"unknown verdict kind {verdict.kind!r}")


def verify_shift_identity(p: IntPoly, p_after: IntPoly, verdict: SivVerdict) -> bool:
    """Re-check the exact polynomial identity claimed by a verdict."""
    if p.degree != p_after.degree:
        raise ValueError("characteristic polynomials must have equal degree")
    f, h = _shift_factors(verdict)
    return _mul_coeffs(p_after.coeffs, f) == _mul_coeffs(p.coeffs, h)


def _divided(p: IntPoly, verdict: SivVerdict) -> tuple[list[int], tuple[int, ...]]:
    """(p / f, h), ascending, for the verdict's factors f and h.  A factor
    that does not divide p names eigenvalues p does not have, so the verdict
    is false for this p: that is an internal invariant failure and raises
    ArithmeticError (exit 2), where a verdict with no shift is refused with
    ValueError."""
    f, h = _shift_factors(verdict)
    try:
        return _div_coeffs(p.coeffs, f), h
    except ValueError as exc:
        raise ArithmeticError(f"the {verdict.kind} verdict's factor does not divide the polynomial") from exc


def polynomial_after(p: IntPoly, verdict: SivVerdict) -> IntPoly:
    """The polynomial after an addition, from p before it and the verdict's
    own identity: (p / (x - lam)) (x - lam - 2) for type 1 and
    (p / q(x)) q(x - 1) for type 2, dividing first by _divided, which
    raises ArithmeticError for a factor that does not divide p."""
    quotient, h = _divided(p, verdict)
    return IntPoly(_mul_coeffs(quotient, h))


def _krylov_factor(g: SignedGraph, v: int, w: int, parity: str) -> tuple[int, ...] | None:
    """m, ascending, the monic polynomial of least degree with m(L) u = 0,
    when u spans an L-invariant line, or a plane whose relation
    L^2 u = a L u + b u has a = d_v + d_w + 1; None for any other u.  m is
    x - lam on a line and x^2 - a x - b on a plane.

    Vectors are packed integers on g._packed, so y1 = L u is the sum of
    columns v and w, and u spans a line exactly when y1 = d_v u (entry v
    of y1 is d_v); degrees and neighbours are read off g._bits.  Otherwise
    the lowest non-zero slot of y1 outside v and w is entry i, where u is
    0; with none, u is none.  a is known before L y1 is formed: the plane
    needs (L y1)_i = a y1_i, which row i of L gives in deg(i) slot reads;
    only when it holds is y2 = L y1 formed, one column per entry of y1, b
    read at v, and the plane checked by the one comparison
    y2 == a y1 + b u.  Entry i fixes the a of any plane through u, so a
    plane with another a fails there.
    """
    nbr, odd = g._bits
    width, bias, columns = g._packed
    mask = (1 << width) - 1
    half = 1 << (width - 1)
    at_v, at_w = 1 << v * width, 1 << w * width
    if parity == ODD:
        sign, y1, u = 1, columns[v] + columns[w], at_v + at_w
    else:
        sign, y1, u = -1, columns[v] - columns[w], at_v - at_w
    dv, dw = nbr[v].bit_count(), nbr[w].bit_count()
    if y1 == dv * u:
        return (-dv, 1)
    rest = y1 - dv * at_v - sign * dw * at_w  # y1 without entries v and w
    # cannot hold: rest = 0 means N(v) = N(w), so y1 = d_v u returned above (i would be -1)
    if not rest:
        return None
    i = ((rest & -rest).bit_length() - 1) // width
    # the slots below i are 0, so slot i is the low width bits of rest >> i*width
    y1_i = ((rest >> i * width) + half & mask) - half
    biased = y1 + bias
    at_i = nbr[i].bit_count() * y1_i  # (L y1)_i
    row, odd_i = nbr[i], odd[i]
    while row:
        low = row & -row
        row ^= low
        c = (biased >> (low.bit_length() - 1) * width & mask) - half
        at_i += c if odd_i & low else -c
    a = dv + dw + 1
    if at_i != a * y1_i:
        return None
    y2 = 0
    support = nbr[v] | nbr[w] | 1 << v | 1 << w
    while support:
        low = support & -support
        support ^= low
        j = low.bit_length() - 1
        y2 += ((biased >> j * width & mask) - half) * columns[j]
    b = ((y2 + bias) >> v * width & mask) - half - a * dv
    if y2 != a * y1 + b * u:
        return None
    return (-b, -a, 1)


def siv_oracle(g: SignedGraph, v: int, w: int, parity: str) -> SivVerdict:
    """Decide integral spectral variation for adding edge vw, in closed form
    from u's Krylov space.

    Adding vw turns L into L + uu^T, with u = e_v - e_w for an even edge and
    u = e_v + e_w for an odd one, so by the matrix determinant lemma

      p'/p = 1 - u^T (xI - L)^-1 u,

    which has one simple pole at each eigenvalue in u's spectral support.
    One eigenvalue rising by 2 leaves one pole and two distinct eigenvalues
    rising by 1 leave two, so every positive u spans an L-invariant line or
    plane, and any other u is none.

      * L u = lam u: L + uu^T acts as L on u's complement, so lam alone
        rises by 2: type 1.
      * L^2 u = a L u + b u, m = x^2 - a x - b: u^T (xI - L)^-1 u = r / m
        with r = 2x + (mu_1 - 2a), mu_1 = u^T L u = d_v + d_w, so
        p' = (p / m)(m - r).  Both residues of r / m are nonzero, so m - r
        shares no root with m and type 1 is impossible.  Type 2 holds
        exactly when m - r = m(x - 1), that is, a = d_v + d_w + 1; then the
        pair has sum s = a and product rho = -b.

    So a is known from the degrees before the plane is sought:
    _krylov_factor tests it at one entry of L^2 u before forming L^2 u, and
    returns a plane only with this a.  No polynomial is formed.  Callers
    that hold p re-check a positive verdict with polynomial_after (or its
    division alone, _divided) or verify_shift_identity.  Every none is the
    one shared _NO_SHIFT.
    """
    _check_parity(parity)
    _check_pair(g, v, w)
    m = _krylov_factor(g, v, w, parity)
    if m is None:
        return _NO_SHIFT
    if len(m) == 2:
        return SivVerdict(TYPE1, lam=-m[0])
    return SivVerdict(TYPE2, s=-m[1], p=m[0])


def _rechecked_verdicts(
    g: SignedGraph, additions: Iterable[tuple[int, int, str]]
) -> Iterator[SivVerdict]:
    """siv_oracle's verdict on each addition (v, w, parity) to g, in order.
    Each positive verdict is re-checked against g's polynomial, formed once
    at the first positive verdict (a graph with no positive verdict forms
    none), by _divided alone: a factor that does not divide it raises
    ArithmeticError, and the polynomial after the addition, which nothing
    here reads, is never formed."""
    p = None
    for v, w, parity in additions:
        verdict = siv_oracle(g, v, w, parity)
        if verdict.kind != NONE:
            if p is None:
                p = laplacian_char_poly(g)
            _divided(p, verdict)
        yield verdict
