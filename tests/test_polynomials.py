"""Exact integer polynomial arithmetic."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treecount.polynomials import ExactDivisionError, Poly, Q, format_poly

coeff_lists = st.lists(st.integers(-9, 9), max_size=8)


def test_construction_trims_trailing_zeros():
    assert Poly((1, 0, 0)).coeffs == (1,)
    assert Poly(()).is_zero
    assert Poly((0,)).degree == -1
    assert bool(Poly()) is False and bool(Q) is True
    assert Poly([0, 2, 0, 0]).coeffs == (0, 2) and Poly(iter([0, 0])).coeffs == ()
    # a tuple with no trailing zero is kept, not copied
    coeffs = (1, 0, 2)
    assert Poly(coeffs).coeffs is coeffs


def test_arithmetic_basics():
    p = Q**2 + 1
    assert p.coeffs == (1, 0, 1)
    assert (p - p).is_zero
    assert (p * p)(3) == p(3) ** 2
    assert ((Q - 1) ** 3)(1) == 0
    assert (2 * Q + Q).coeffs == (0, 3)
    assert 1 - Q == Poly((1, -1))
    with pytest.raises(ValueError):
        Q ** -1


def test_divexact():
    assert (Q**4 - 1).divexact(Q**2 - 1) == Q**2 + 1
    with pytest.raises(ExactDivisionError):
        (Q**2 + 1).divexact(Q - 1)
    with pytest.raises(ExactDivisionError, match="nonzero remainder"):
        (2 * Q + 1).divexact(2 * Q)
    with pytest.raises(ExactDivisionError, match="leading coefficient does not divide"):
        Q.divexact(2 * Q)
    with pytest.raises(ZeroDivisionError):
        Q.divexact(Poly())


def test_reciprocal():
    assert (Q**2 + Q + 1).is_reciprocal()
    assert ((Q + 1) ** 2).is_reciprocal()
    assert not (Q**3 - 1).is_reciprocal()
    assert Poly((1,)).is_reciprocal()


def test_format():
    assert format_poly(Q**4 - Q**3 + Q**2 - Q + 1) == "q^4 - q^3 + q^2 - q + 1"
    assert format_poly(Poly()) == "0"
    assert format_poly(Poly((1,))) == "1"
    assert format_poly(-2 * Q) == "-2*q"
    assert str(Q**2 + 1) == "q^2 + 1"


def test_evaluation_matches_horner():
    p = 3 * Q**3 - 2 * Q + 7
    assert p(0) == 7 and p(2) == 24 - 4 + 7


@given(coeff_lists, coeff_lists)
@settings(max_examples=200)
def test_ring_laws(a, b):
    p, r = Poly(tuple(a)), Poly(tuple(b))
    assert (p + r).coeffs == (r + p).coeffs
    assert (p * r).coeffs == (r * p).coeffs
    for x in (-2, 0, 1, 3):
        assert (p + r)(x) == p(x) + r(x)
        assert (p * r)(x) == p(x) * r(x)


@given(coeff_lists, coeff_lists)
@settings(max_examples=200)
def test_exact_division_roundtrip(a, b):
    p, r = Poly(tuple(a)), Poly(tuple(b))
    if r.is_zero:
        return
    assert (p * r).divexact(r) == p
