"""Exact polynomials over the integers, stored as ascending coefficient tuples."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import add, index, mul
from typing import Iterable, Sequence


def _mul_coeffs(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The product of two ascending coefficient sequences: one pass over the
    longer per entry of the shorter."""
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return []
    la = len(a)
    out = [*map(mul, a, repeat(b[0])), *repeat(0, len(b) - 1)]
    for i in range(1, len(b)):
        if b[i]:
            out[i : i + la] = map(add, out[i : i + la], map(mul, a, repeat(b[i])))
    return out


def _div_coeffs(num: Sequence[int], den: Sequence[int]) -> list[int]:
    """The quotient num / den on ascending coefficient sequences, by long
    division from the top.  The last entry of den must be nonzero; raises
    ValueError when den does not divide num."""
    if not num:
        return []
    d = len(den) - 1
    qlen = len(num) - d
    if qlen <= 0:
        raise ValueError("inexact polynomial division")
    lead = den[d]
    rem = list(num)
    quot = [0] * qlen
    for k in range(qlen - 1, -1, -1):
        q, r = divmod(rem[k + d], lead)
        if r:
            raise ValueError("inexact polynomial division")
        quot[k] = q
        if q:
            for i in range(d):
                rem[k + i] -= q * den[i]
    if any(rem[:d]):  # each step clears rem[k + d]; the remainder is left
        raise ValueError("inexact polynomial division")
    return quot


@dataclass(frozen=True)
class IntPoly:
    """Arbitrary-precision integer polynomial; coeffs[k] multiplies x**k.

    Coefficients are read through operator.index, so a float is refused.
    The zero polynomial is the empty tuple and has degree -1.  Instances are
    immutable and hashable, so they can be cached and used as certificate
    payloads.
    """

    coeffs: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        cs = tuple(map(index, self.coeffs))
        k = len(cs)
        while k and not cs[k - 1]:
            k -= 1
        object.__setattr__(self, "coeffs", cs[:k])

    @classmethod
    def of(cls, *coeffs: int) -> IntPoly:
        return cls(coeffs)

    @classmethod
    def zero(cls) -> IntPoly:
        return cls(())

    @classmethod
    def one(cls) -> IntPoly:
        return cls((1,))

    @classmethod
    def x(cls) -> IntPoly:
        return cls((0, 1))

    @classmethod
    def from_roots(cls, roots: Iterable[int]) -> IntPoly:
        """Monic polynomial with the given integer root multiset."""
        out = cls.one()
        for r in roots:
            out = out * cls((-r, 1))
        return out

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __add__(self, other: IntPoly | int) -> IntPoly:
        if isinstance(other, int):
            other = IntPoly((other,))
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return IntPoly(tuple(x + y for x, y in zip(a, b)) + a[len(b):])

    __radd__ = __add__

    def __neg__(self) -> IntPoly:
        return IntPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: IntPoly | int) -> IntPoly:
        if isinstance(other, int):
            other = IntPoly((other,))
        return self + (-other)

    def __rsub__(self, other: int) -> IntPoly:
        return IntPoly((other,)) - self

    def __mul__(self, other: IntPoly | int) -> IntPoly:
        factor = (other,) if isinstance(other, int) else other.coeffs
        return IntPoly(_mul_coeffs(self.coeffs, factor))

    def __rmul__(self, other: int) -> IntPoly:
        return self * other

    def __call__(self, value: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def shifted(self, c: int) -> IntPoly:
        """Return p(x + c)."""
        acc = IntPoly.zero()
        lin = IntPoly((c, 1))
        for coeff in reversed(self.coeffs):
            acc = acc * lin + coeff
        return acc

    def div_exact(self, divisor: IntPoly) -> IntPoly:
        """Quotient self / divisor over the integers; raises if not exact."""
        if divisor.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        return IntPoly(_div_coeffs(self.coeffs, divisor.coeffs))

    def to_json(self) -> list[int]:
        return list(self.coeffs)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                power = "x" if k == 1 else f"x^{k}"
                body = power if mag == 1 else f"{mag}{power}"
            parts.append(sign + body)
        return "".join(parts)
