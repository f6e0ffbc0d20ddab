"""Exact polynomials over the integers, stored as ascending coefficient tuples."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import add, index, mul
from typing import Sequence


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
    """Arbitrary-precision integer polynomial, a value: coeffs[k] multiplies
    x**k.  Coefficients are read through operator.index, so a float is
    refused, and trailing zeros are stripped: the zero polynomial is () with
    degree -1.  Arithmetic runs on coefficient lists (_mul_coeffs, _div_coeffs).
    """

    coeffs: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        cs = tuple(map(index, self.coeffs))
        k = len(cs)
        while k and not cs[k - 1]:
            k -= 1
        object.__setattr__(self, "coeffs", cs[:k])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def to_json(self) -> list[int]:
        return list(self.coeffs)

    def __str__(self) -> str:
        if not self.coeffs:
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
