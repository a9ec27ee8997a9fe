"""Dense univariate polynomials over the integers, exact arithmetic only.

Coefficients live in a plain ascending tuple of Python ints, with
schoolbook multiplication and division.  Count polynomials have degree
n + vr, a few dozen in the census but 1202 for the 1201-vertex path the
tests count; the counting kernel itself works on packed integers and builds
a :class:`Poly` only for its result.  Division is exact-or-error:
quotient formulas from closed forms are treated as claims to verify, never
trusted, so :meth:`Poly.divexact` raises on any nonzero remainder.
"""

from __future__ import annotations

from typing import Iterable


class ExactDivisionError(ArithmeticError):
    """Polynomial division left a remainder where none was allowed."""


class Poly:
    """Integer polynomial as ascending coefficients with no trailing zeros."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()) -> None:
        # the coefficients as a tuple without trailing zeros: a trimmed tuple
        # is kept as it is, uncopied
        out = tuple(coeffs)
        if out and not out[-1]:
            top = len(out) - 1
            while top >= 0 and not out[top]:
                top -= 1
            out = out[: top + 1]
        self.coeffs = out

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Poly(coeffs={self.coeffs!r})"

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(c: int) -> Poly:
        return Poly((c,))

    @staticmethod
    def q_power(k: int) -> Poly:
        """q**k."""
        return Poly((0,) * k + (1,))

    # -- structure ---------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __getitem__(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: Poly | int) -> Poly:
        other = _as_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(tuple(self[i] + other[i] for i in range(n)))

    __radd__ = __add__

    def __neg__(self) -> Poly:
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: Poly | int) -> Poly:
        return self + (-_as_poly(other))

    def __rsub__(self, other: int) -> Poly:
        return _as_poly(other) - self

    def __mul__(self, other: Poly | int) -> Poly:
        other = _as_poly(other)
        if self.is_zero or other.is_zero:
            return Poly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Poly(tuple(out))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> Poly:
        if k < 0:
            raise ValueError("negative polynomial power")
        out = Poly.const(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def divexact(self, divisor: Poly) -> Poly:
        """Exact quotient; raises :class:`ExactDivisionError` on remainder."""
        if divisor.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dd = divisor.degree
        lead = divisor.coeffs[-1]
        quo = [0] * max(0, len(rem) - dd)
        for k in range(len(rem) - 1, dd - 1, -1):
            c = rem[k]
            if c == 0:
                continue
            if c % lead:
                raise ExactDivisionError("leading coefficient does not divide")
            f = c // lead
            quo[k - dd] = f
            for j, b in enumerate(divisor.coeffs):
                rem[k - dd + j] -= f * b
        if any(rem):
            raise ExactDivisionError("nonzero remainder in exact division")
        return Poly(tuple(quo))

    def __call__(self, x: int) -> int:
        out = 0
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    # -- predicates and display ---------------------------------------------

    def is_reciprocal(self) -> bool:
        """Whether q**deg * p(1/q) == p(q)."""
        return self.coeffs == tuple(reversed(self.coeffs))

    def __str__(self) -> str:
        return format_poly(self)


def _as_poly(x: Poly | int) -> Poly:
    return x if isinstance(x, Poly) else Poly.const(x)


#: The polynomial q itself, for readable formulas.
Q = Poly.q_power(1)


def format_poly(p: Poly) -> str:
    """Human form like ``q^4 - q^3 + q^2 - q + 1``, descending powers."""
    if p.is_zero:
        return "0"
    parts = []
    for k in range(p.degree, -1, -1):
        c = p[k]
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        elif k == 1:
            body = "q" if mag == 1 else f"{mag}*q"
        else:
            body = f"q^{k}" if mag == 1 else f"{mag}*q^{k}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)
