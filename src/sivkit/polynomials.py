"""Exact polynomials over the integers, stored as ascending coefficient tuples."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from typing import Iterable, Sequence


def coefficient_ratio(num: Sequence[int], den: Sequence[int]) -> int | None:
    """The integer c with num == c * den, on ascending coefficient sequences,
    or None.  The last entry of den must be nonzero."""
    top = len(den) - 1
    c, r = divmod(num[top] if top < len(num) else 0, den[top])
    if r or any(a != c * d for a, d in zip_longest(num, den, fillvalue=0)):
        return None
    return c


@dataclass(frozen=True)
class IntPoly:
    """Arbitrary-precision integer polynomial; coeffs[k] multiplies x**k.

    The zero polynomial is the empty tuple and has degree -1.  Instances are
    immutable and hashable, so they can be cached and used as certificate
    payloads.
    """

    coeffs: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        cs = tuple(int(c) for c in self.coeffs)
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)

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
    def leading(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

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
        if isinstance(other, int):
            return IntPoly(tuple(c * other for c in self.coeffs))
        if self.is_zero or other.is_zero:
            return IntPoly.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(tuple(out))

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
        if self.is_zero:
            return IntPoly.zero()
        if self.degree < divisor.degree:
            raise ValueError("inexact polynomial division")
        rem = list(self.coeffs)
        dcs = divisor.coeffs
        lead = divisor.leading
        qlen = len(rem) - len(dcs) + 1
        quot = [0] * qlen
        for k in range(qlen - 1, -1, -1):
            top = rem[k + len(dcs) - 1]
            if top % lead != 0:
                raise ValueError("inexact polynomial division")
            q = top // lead
            quot[k] = q
            if q:
                for i, d in enumerate(dcs):
                    rem[k + i] -= q * d
        if any(rem):
            raise ValueError("inexact polynomial division")
        return IntPoly(tuple(quot))

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
