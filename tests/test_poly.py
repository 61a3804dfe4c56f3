"""Exact arithmetic layer: polynomials, cyclotomic fields, kernels."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from greenchar.poly import (
    Cyclotomic,
    IntPolynomial,
    cyclotomic_poly,
    euler_phi,
    eval_at_root,
    kernel_basis,
    rank,
    render_terms,
)

small_coeffs = st.lists(st.integers(min_value=-6, max_value=6), max_size=6)


def test_canonical_form():
    assert IntPolynomial((1, 0, 0)) == IntPolynomial((1,))
    assert IntPolynomial(()).degree == -1
    assert not IntPolynomial((0, 0))
    assert IntPolynomial((0, 1)).degree == 1


def test_arithmetic_basics():
    p = IntPolynomial((1, 1))
    assert p * p == IntPolynomial((1, 2, 1))
    assert p - p == IntPolynomial()
    assert 2 * p == IntPolynomial((2, 2))
    assert p ** 3 == IntPolynomial((1, 3, 3, 1))
    assert p(3) == 4
    assert IntPolynomial((1, 0, 2))(Fraction(1, 2)) == Fraction(3, 2)


def test_reverse_and_compose():
    p = IntPolynomial((1, 2))
    assert p.reverse(3) == IntPolynomial((0, 0, 2, 1))
    with pytest.raises(ValueError):
        p.reverse(0)
    assert IntPolynomial((1, 1)).compose_power(2) == IntPolynomial((1, 0, 1))
    assert IntPolynomial((0, 1)).shift(2) == IntPolynomial((0, 0, 0, 1))


def test_mod_sum():
    p = IntPolynomial((1, 3, 2))
    assert p.mod_sum(2, 0) == 3
    assert p.mod_sum(2, 1) == 3
    assert p.mod_sum(3, 0) == 1
    assert p.mod_sum(1, 0) == 6


def test_render_terms():
    assert render_terms((), "q") == "0"
    assert render_terms((0, 0), "z") == "0"
    assert render_terms((1, -1, 2), "q") == "1 - q + 2q^2"
    assert render_terms((0, -1, 0, -3), "q") == "-q - 3q^3"
    assert render_terms((-2,), "q") == "-2"
    assert render_terms((Fraction(-1, 2),), "z") == "-1/2"
    assert render_terms((Fraction(-1, 2), 1, Fraction(3, 2)), "z") \
        == "-1/2 + z + 3/2z^2"


@given(small_coeffs, small_coeffs, small_coeffs)
def test_divmod_roundtrip(a, b, r):
    pa, pb, pr = IntPolynomial(a), IntPolynomial(b), IntPolynomial(r)
    if not pb or pr.degree >= pb.degree:
        return
    quo, rem = (pa * pb + pr).divmod_exact(pb)
    assert quo == pa and rem == pr


def test_cyclotomic_poly_small():
    assert cyclotomic_poly(1) == IntPolynomial((-1, 1))
    assert cyclotomic_poly(2) == IntPolynomial((1, 1))
    assert cyclotomic_poly(6) == IntPolynomial((1, -1, 1))
    assert euler_phi(12) == 4


@pytest.mark.parametrize("e", range(1, 31))
def test_cyclotomic_poly_product(e):
    prod = IntPolynomial((1,))
    for d in range(1, e + 1):
        if e % d == 0:
            prod = prod * cyclotomic_poly(d)
    assert prod == IntPolynomial((-1,) + (0,) * (e - 1) + (1,))


@pytest.mark.parametrize("e", range(1, 31))
def test_cyclotomic_poly_matches_sympy(e):
    x = sympy.Symbol("x")
    want = sympy.Poly(sympy.cyclotomic_poly(e, x), x).all_coeffs()[::-1]
    assert list(cyclotomic_poly(e).coeffs) == [int(c) for c in want]


def test_eval_at_root_values():
    assert eval_at_root(IntPolynomial((1, -1)), 2, 1) == 2
    assert eval_at_root(IntPolynomial((1, -1, 2)), 2, 1) == 4
    p = IntPolynomial((3, 1, -2, 5))
    assert eval_at_root(p, 7, 0) == sum(p.coeffs)
    assert eval_at_root(cyclotomic_poly(6), 6, 1) == 0


@given(small_coeffs, small_coeffs, st.integers(min_value=1, max_value=10),
       st.integers(min_value=0, max_value=9))
@settings(max_examples=60)
def test_eval_at_root_multiplicative(a, b, e, j):
    pa, pb = IntPolynomial(a), IntPolynomial(b)
    lhs = eval_at_root(pa * pb, e, j)
    assert lhs == eval_at_root(pa, e, j) * eval_at_root(pb, e, j)


@given(st.lists(st.integers(min_value=-50, max_value=50), max_size=41),
       st.integers(min_value=1, max_value=12))
@settings(max_examples=80, deadline=None)
def test_eval_at_root_fold_matches_horner(coeffs, e):
    # the residue fold against Horner's rule in the cyclotomic field
    p = IntPolynomial(coeffs)
    for j in range(e):
        assert eval_at_root(p, e, j) == p(Cyclotomic.zeta(e, j))


def test_eval_at_root_needs_a_positive_conductor():
    with pytest.raises(ValueError):
        eval_at_root(IntPolynomial((1, 1)), 0, 0)


def test_zeta_is_primitive():
    z = Cyclotomic.zeta(6)
    powers = [z ** k for k in range(1, 6)]
    assert all(p != 1 for p in powers)
    assert z ** 6 == 1
    assert Cyclotomic.zeta(4, 2) == -1
    assert Cyclotomic.zeta(1) == 1


def test_cyclotomic_field_ops():
    z = Cyclotomic.zeta(5, 2)
    assert z * z.inverse() == 1
    assert (1 + z) - z == 1
    assert (z / z) == 1
    w = Cyclotomic.zeta(12)
    assert (w ** 12) == 1
    assert (2 * w - w) == w
    total = sum((Cyclotomic.zeta(5, j) for j in range(5)), Cyclotomic.zero(5))
    assert total == 0


def test_cyclotomic_rationality():
    z = Cyclotomic.zeta(8)
    assert not z.is_rational
    assert (z ** 4).is_rational and (z ** 4).as_fraction() == -1
    assert Cyclotomic.from_fraction(8, Fraction(3, 2)).as_fraction() == Fraction(3, 2)
    with pytest.raises(ValueError):
        z.as_fraction()


def test_galois_action():
    z = Cyclotomic.zeta(7)
    assert z.galois(3) == Cyclotomic.zeta(7, 3)
    with pytest.raises(ValueError):
        Cyclotomic.zeta(6).galois(2)


@given(small_coeffs, small_coeffs, st.sampled_from([(5, 2), (7, 3), (8, 5), (12, 7)]))
@settings(max_examples=40)
def test_galois_is_field_hom(a, b, ej):
    e, j = ej
    za = eval_at_root(IntPolynomial(a), e, 1)
    zb = eval_at_root(IntPolynomial(b), e, 1)
    assert (za * zb).galois(j) == za.galois(j) * zb.galois(j)
    assert (za + zb).galois(j) == za.galois(j) + zb.galois(j)


def test_kernel_examples():
    eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert kernel_basis(eye) == []
    zero = [[0, 0], [0, 0]]
    basis = kernel_basis(zero)
    assert len(basis) == 2

    z = Cyclotomic.zeta(2)
    m = [[0 - z, Cyclotomic.one(2)], [Cyclotomic.one(2), 0 - z]]
    basis = kernel_basis(m)
    assert len(basis) == 1
    v = basis[0]
    # spans the line through (1, -1)
    assert v[0] == -v[1] and v[0] != 0


matrix_strategy = st.lists(
    st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=3),
             min_size=3, max_size=3),
    min_size=1, max_size=4,
)


@given(matrix_strategy)
@settings(max_examples=40)
def test_kernel_properties(rows):
    basis = kernel_basis(rows)
    assert rank(rows) + len(basis) == 3
    for v in basis:
        for row in rows:
            assert sum(a * b for a, b in zip(row, v)) == 0
    assert rank(rows) == sympy.Matrix([[sympy.Rational(x) for x in r] for r in rows]).rank()


def test_kernel_over_cyclotomic():
    # rotation of order 4 acting on the plane; eigenvector for zeta_4
    z = Cyclotomic.zeta(4)
    one = Cyclotomic.one(4)
    m = [[0 - z, -one], [one, 0 - z]]
    basis = kernel_basis(m)
    assert len(basis) == 1
    v = basis[0]
    for row in m:
        s = Cyclotomic.zero(4)
        for a, b in zip(row, v):
            s = s + a * b
        assert s == 0
