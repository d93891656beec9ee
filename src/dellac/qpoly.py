"""Exact polynomial arithmetic in one variable q.

Coefficients are Python ints stored densely from degree zero upward with no
trailing zeros, so two polynomials are equal exactly when their coefficient
tuples are.  Everything here is immutable by convention; operations return
fresh objects.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable


class QPoly:
    """Polynomial in q with integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()) -> None:
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def monomial(cls, power: int, coeff: int = 1) -> "QPoly":
        if power < 0:
            raise ValueError("negative powers are not supported")
        return cls((0,) * power + (coeff,))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def at_one(self) -> int:
        """Value at q = 1."""
        return sum(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.coeffs == QPoly((other,)).coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "QPoly") -> "QPoly":
        if not isinstance(other, QPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return QPoly(tuple(x + y for x, y in zip(a, b)) + a[len(b):])

    def __sub__(self, other: "QPoly") -> "QPoly":
        if not isinstance(other, QPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "QPoly":
        return QPoly(-c for c in self.coeffs)

    def __mul__(self, other: "QPoly | int") -> "QPoly":
        if isinstance(other, int):
            return QPoly(c * other for c in self.coeffs)
        if not isinstance(other, QPoly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return QPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return QPoly(out)

    __rmul__ = __mul__

    def shifted(self, power: int) -> "QPoly":
        """Multiply by q**power."""
        if not self.coeffs:
            return self
        if power < 0:
            raise ValueError("negative powers are not supported")
        return QPoly((0,) * power + self.coeffs)

    def __repr__(self) -> str:
        return f"QPoly({self.coeffs!r})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                head = "" if c == 1 else "-" if c == -1 else f"{c}*"
                terms.append(f"{head}q" if k == 1 else f"{head}q^{k}")
        return " + ".join(terms).replace("+ -", "- ")


ZERO = QPoly()
ONE = QPoly((1,))


def shifted_sum(terms: Iterable[tuple[QPoly, int]]) -> QPoly:
    """Sum of p * q**k over the (p, k) pairs: the coefficients are added
    into one list at their offsets and one QPoly is built at the end."""
    out: list[int] = []
    for p, k in terms:
        if k < 0:
            raise ValueError("negative powers are not supported")
        end = k + len(p.coeffs)
        if len(out) < end:
            out.extend([0] * (end - len(out)))
        for i, c in enumerate(p.coeffs, k):
            out[i] += c
    return QPoly(out)


def q_int(n: int) -> QPoly:
    """[n]_q = 1 + q + ... + q^(n-1)."""
    if n < 0:
        raise ValueError("q-integers are defined for n >= 0")
    return QPoly((1,) * n)


@lru_cache(maxsize=None)
def q_binomial(n: int, k: int) -> QPoly:
    """Gaussian binomial coefficient, exact."""
    if n < 0:
        raise ValueError("q-binomials are defined for n >= 0")
    if k < 0 or k > n:
        return ZERO
    if k == 0 or k == n:
        return ONE
    return q_binomial(n - 1, k - 1) + q_binomial(n - 1, k).shifted(k)
