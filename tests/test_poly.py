"""Exact arithmetic layer: polynomials, cyclotomic fields, kernels."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from greenchar.poly import (
    Cyclotomic,
    IntPolynomial,
    _power_residues,
    _reduce,
    cyclotomic_poly,
    euler_phi,
    eval_at_root,
    kernel_basis,
    render_terms,
    root_values,
)

from greenchar.symfun import partitions_of, springer_graded_char
from oracles import (compose_power, dense_power_residues, dense_reduce,
                     galois, long_division_residue, per_exponent_root_values,
                     rank, reverse, shift)
from test_acceptance import one_row_configs
from test_weyl import pool_configs

small_coeffs = st.lists(st.integers(min_value=-6, max_value=6), max_size=6)


def test_canonical_form():
    assert IntPolynomial((1, 0, 0)) == IntPolynomial((1,))
    assert IntPolynomial(()).degree == -1
    assert not IntPolynomial((0, 0))
    assert IntPolynomial((0, 1)).degree == 1


@pytest.mark.parametrize("c", [0, 5, -3])
def test_constant_polynomial_is_one_key_with_its_int(c):
    p = IntPolynomial((c,))
    assert p == c and hash(p) == hash(c)
    assert len({p, c}) == 1 and len({c, p}) == 1
    assert {c: "int"}[p] == "int" and {p: "poly"}[c] == "poly"
    assert len({p: 1, c: 2}) == 1
    assert len({p, IntPolynomial((c, 1)), IntPolynomial((c, 0, 1))}) == 3


@pytest.mark.parametrize("c", [0, 5, -3])
def test_constant_polynomial_is_one_key_with_its_integral_fraction(c):
    p, f = IntPolynomial((c,)), Fraction(c)
    assert p == f and f == p and hash(p) == hash(f)
    assert len({p, c, f}) == 1 and len({f, c, p}) == 1
    assert {p: "poly"}[f] == "poly" and {f: "fraction"}[p] == "fraction"
    assert p != Fraction(2 * c + 1, 2) and Fraction(2 * c + 1, 2) != p
    assert IntPolynomial((c, 1)) != f


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
    assert reverse(p, 3) == IntPolynomial((0, 0, 2, 1))
    with pytest.raises(ValueError):
        reverse(p, 0)
    assert compose_power(IntPolynomial((1, 1)), 2) == IntPolynomial((1, 0, 1))
    assert shift(IntPolynomial((0, 1)), 2) == IntPolynomial((0, 0, 0, 1))


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


def test_divmod_exact_rejects_a_fractional_quotient():
    assert IntPolynomial((2, 4, 2)).divmod_exact(IntPolynomial((2, 2))) \
        == (IntPolynomial((1, 1)), IntPolynomial())
    assert IntPolynomial((3, 1)).divmod_exact(IntPolynomial((1, 0, 1))) \
        == (IntPolynomial(), IntPolynomial((3, 1)))
    with pytest.raises(ValueError, match="non-integral"):
        IntPolynomial((1, 1)).divmod_exact(IntPolynomial((2,)))
    with pytest.raises(ZeroDivisionError):
        IntPolynomial((1,)).divmod_exact(IntPolynomial())


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


# conductors up to the eval cap, small ones more often, where the
# coefficients wrap round e and the residue fold has work to do
conductors = st.integers(min_value=1, max_value=12) | \
    st.integers(min_value=1, max_value=200)
# sparse integer polynomials, so that some residue sums vanish
sparse_polys = st.lists(
    st.integers(-3, 3) | st.just(0) | st.integers(-10**6, 10**6),
    max_size=60).map(IntPolynomial)


@given(sparse_polys, conductors, st.data())
@settings(max_examples=200, deadline=None)
def test_root_values_equal_the_per_exponent_buckets(p, e, data):
    several = data.draw(st.lists(st.integers(-2 * e, 3 * e), min_size=2,
                                 max_size=8))
    assert root_values(p, e, several) == \
        per_exponent_root_values(p, e, several)
    j = several[0]
    assert root_values(p, e, (j,)) == per_exponent_root_values(p, e, (j,))
    assert root_values(p, e, range(e)) == \
        per_exponent_root_values(p, e, range(e))
    assert root_values(p, e, iter(several)) == root_values(p, e, several)
    assert root_values(p, e, ()) == []


def test_root_values_equal_the_per_exponent_buckets_on_the_pool_tables():
    # every merged type and order of the roots_sweep, trace_sweep and
    # induction_sweep pools, at j = 0..2e, one exponent and all at once
    pairs = {(cfg.merged_type(), cfg.e) for cfg in pool_configs()}
    for mu, e in sorted(pairs):
        g = springer_graded_char(mu)
        exponents = range(2 * e + 1)
        for rho in partitions_of(mu.size):
            expected = per_exponent_root_values(g[rho], e, exponents)
            assert root_values(g[rho], e, exponents) == expected, (mu, e, rho)
            assert [root_values(g[rho], e, (j,))[0] for j in exponents] \
                == expected, (mu, e, rho)


def test_sparse_power_residues_are_the_dense_rows():
    for e in list(range(1, 61)) + [199, 200]:
        phi, rows = _power_residues(e)
        assert phi == euler_phi(e)
        assert [dict(row) for row in rows] == [
            {i: r for i, r in enumerate(row) if r}
            for row in dense_power_residues(e)]
        assert all(r for row in rows for _, r in row)


@given(conductors, st.data())
@settings(max_examples=150, deadline=None)
def test_reduce_equals_the_dense_rows(e, data):
    coeffs = data.draw(st.lists(
        st.integers(-10**6, 10**6) | st.fractions(max_denominator=12),
        max_size=2 * e + 5))
    assert _reduce(e, coeffs) == dense_reduce(e, coeffs)


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


def test_cross_conductor_equality():
    # rational values compare by value whatever the conductor, and hash
    # alike; e^(2 pi i/3) in Q(zeta_6) and in Q(zeta_3) cannot be compared
    assert Cyclotomic.zeta(6, 3) == Cyclotomic.zeta(4, 2) == -1
    assert Cyclotomic.from_fraction(6, Fraction(1, 2)) != Cyclotomic.one(3)
    assert hash(Cyclotomic.zeta(6, 3)) == hash(Cyclotomic.zeta(4, 2))
    with pytest.raises(TypeError, match="different conductors"):
        Cyclotomic.zeta(6, 2) == Cyclotomic.zeta(3)
    with pytest.raises(TypeError, match="different conductors"):
        Cyclotomic.one(6) == Cyclotomic.zeta(3)
    with pytest.raises(TypeError, match="different conductors"):
        Cyclotomic.zeta(6, 2) + Cyclotomic.zeta(3)


def test_galois_action():
    z = Cyclotomic.zeta(7)
    assert galois(z, 3) == Cyclotomic.zeta(7, 3)
    with pytest.raises(ValueError):
        galois(Cyclotomic.zeta(6), 2)


@given(small_coeffs, small_coeffs, st.sampled_from([(5, 2), (7, 3), (8, 5), (12, 7)]))
@settings(max_examples=40)
def test_galois_is_field_hom(a, b, ej):
    e, j = ej
    za = eval_at_root(IntPolynomial(a), e, 1)
    zb = eval_at_root(IntPolynomial(b), e, 1)
    assert galois(za * zb, j) == galois(za, j) * galois(zb, j)
    assert galois(za + zb, j) == galois(za, j) + galois(zb, j)


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


wide_matrices = st.integers(1, 5).flatmap(lambda width: st.lists(
    st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=3),
             min_size=width, max_size=width),
    min_size=1, max_size=4))


@given(wide_matrices)
@settings(max_examples=60)
def test_kernel_basis_is_in_reduced_normal_form(rows):
    # one vector per free column of sympy's reduced echelon form, 1 in
    # its own free column and 0 in the other free columns
    _, pivots = sympy.Matrix([[sympy.Rational(x) for x in r] for r in rows]).rref()
    free = [c for c in range(len(rows[0])) if c not in pivots]
    basis = kernel_basis(rows)
    assert len(basis) == len(free)
    for v, f in zip(basis, free):
        assert [v[g] for g in free] == [int(g == f) for g in free]
        for row in rows:
            assert sum(a * b for a, b in zip(row, v)) == 0


@given(st.integers(1, 12), small_coeffs,
       st.one_of(st.integers(-9, 9),
                 st.fractions(min_value=-9, max_value=9, max_denominator=7)))
@settings(max_examples=80)
def test_scalar_product_matches_the_field_product(e, coeffs, s):
    x = eval_at_root(IntPolynomial(coeffs), e, 1)
    lifted = Cyclotomic.from_fraction(e, s) * x
    assert Cyclotomic.from_fraction(e, s) == Cyclotomic.from_poly(e, [s])
    assert s * x == lifted
    assert x * s == lifted
    assert (s * x).coords == lifted.coords


@given(st.integers(1, 30).flatmap(lambda e: st.tuples(st.just(e), st.one_of(
    st.lists(st.integers(-50, 50), max_size=3 * e),
    st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=7),
             max_size=3 * e)))))
@settings(max_examples=200, deadline=None)
def test_from_poly_matches_long_division(e_coeffs):
    # the table of power residues against long division by Phi_e
    e, coeffs = e_coeffs
    z = Cyclotomic.from_poly(e, coeffs)
    assert z.coords == long_division_residue(e, coeffs)
    if all(type(c) is int for c in coeffs):
        assert all(type(c) is int for c in z.coords)


coordinates = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-9, max_value=9, max_denominator=7))


@st.composite
def nonzero_pairs(draw):
    """Two nonzero elements of one cyclotomic field, e in 1..30."""
    e = draw(st.integers(1, 30))
    vector = st.lists(coordinates, min_size=euler_phi(e),
                      max_size=euler_phi(e)).filter(any)
    return Cyclotomic(e, draw(vector)), Cyclotomic(e, draw(vector))


@given(nonzero_pairs())
@settings(max_examples=60, deadline=None)
def test_inverse_is_the_two_sided_field_inverse(xy):
    # these identities pin the inverse down, so no second route is needed
    x, y = xy
    assert x * x.inverse() == 1
    assert x.inverse() * x == 1
    assert (x / y) * y == x


@pytest.mark.parametrize("e", [1, 2, 5, 12])
def test_inverse_of_zero_raises(e):
    with pytest.raises(ZeroDivisionError, match="inverse of zero"):
        Cyclotomic.zero(e).inverse()


def test_eval_at_root_stays_integral_on_criterion_1():
    # every Green polynomial of criterion 1 at every root of its conductor
    seen = 0
    for cfg in one_row_configs():
        for _, poly in springer_graded_char(cfg.merged_type()).items():
            for j in range(cfg.e):
                z = eval_at_root(poly, cfg.e, j)
                assert all(type(c) is int for c in z.coords), (cfg, poly, j)
                seen += 1
    assert seen > 1000


@pytest.mark.parametrize("e", range(1, 13))
def test_int_and_fraction_coordinates_are_one_element(e):
    zeros = (0,) * (euler_phi(e) - 1)
    a, b = Cyclotomic(e, (Fraction(3),) + zeros), Cyclotomic(e, (3,) + zeros)
    assert a == b and hash(a) == hash(b)
    z = Cyclotomic.zeta(e)
    w = Cyclotomic(e, tuple(Fraction(c) for c in z.coords))
    assert w == z and hash(w) == hash(z)


@pytest.mark.parametrize("bad", [0.1, 1.0, "1", None, 1j])
def test_cyclotomic_coordinates_are_never_floats(bad):
    # ints and Fractions only, as for IntPolynomial coefficients
    with pytest.raises(TypeError):
        Cyclotomic(3, (bad, 0))
    with pytest.raises(TypeError):
        Cyclotomic.from_poly(3, [0, 0, 0, bad])
    with pytest.raises(TypeError):
        Cyclotomic.from_fraction(3, bad)


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
