"""Partitions, charge, Kostka-Foulkes, characters, graded characters."""

import itertools
import re
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from greenchar.poly import IntPolynomial
from greenchar.symfun import (
    Partition,
    centralizer_order,
    char_sn,
    closed_form_coset_count,
    enumerate_ssyt,
    green_at_root,
    kostka_foulkes,
    partitions_of,
    springer_graded_char,
)

import greenchar.symfun as symfun
from oracles import (
    assembled_green_table,
    charge,
    charge_kostka_foulkes,
    class_size,
    class_weight_polynomial,
    coinvariant_graded_char,
    conjugate,
    monomial,
    norm_polynomial,
    poly_product,
    signed_digits,
    strip_character,
)


def hook_dim(lam):
    """Dimension by the hook length formula (independent of the recursion)."""
    lam = Partition(lam)
    conj = conjugate(lam)
    prod = 1
    for i, li in enumerate(lam):
        for j in range(li):
            prod *= li - j + conj[j] - i - 1
    return factorial(lam.size) // prod


def horizontal_strips_below(lam, size):
    lam = list(lam)
    out = []

    def rec(i, acc, removed):
        if removed > size:
            return
        if i == len(lam):
            if removed == size:
                out.append(tuple(p for p in acc if p))
            return
        lo = lam[i + 1] if i + 1 < len(lam) else 0
        for v in range(lo, lam[i] + 1):
            rec(i + 1, acc + [v], removed + lam[i] - v)

    rec(0, [], 0)
    return out


@lru_cache(maxsize=None)
def kostka_number(lam, mu):
    """Kostka number by the horizontal-strip recursion (tableau-free oracle)."""
    if sum(lam) != sum(mu):
        return 0
    if not mu:
        return 1 if not lam else 0
    total = 0
    for smaller in horizontal_strips_below(lam, mu[-1]):
        total += kostka_number(smaller, mu[:-1])
    return total


def test_partition_validation():
    assert Partition((3, 1)).size == 4
    assert Partition(()).size == 0
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))


@pytest.mark.parametrize("part", [2.7, 1.0, "3", Fraction(5, 2), Fraction(2),
                                  True, False])
def test_partition_refuses_a_part_that_is_not_an_int(part):
    message = re.escape(f"partition parts must be ints, got {part!r}")
    with pytest.raises(ValueError, match=message):
        Partition((3, part))
    with pytest.raises(ValueError, match=message):
        Partition([part])


def test_partition_of_a_partition_is_itself():
    lam = Partition((3, 1, 1))
    assert Partition(lam) is lam
    assert Partition((3, 1, 1)) is not lam
    assert type(Partition([2, 2])) is Partition


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(min_value=-2, max_value=6), max_size=5))
def test_partition_accepts_exactly_positive_decreasing_tuples(parts):
    t = tuple(parts)
    if all(p >= 1 for p in t) and list(t) == sorted(t, reverse=True):
        assert Partition(t) == t
        return
    with pytest.raises(ValueError) as info:
        Partition(t)
    if any(p < 1 for p in t):
        assert str(info.value) == f"partition parts must be positive: {t}"
    else:
        assert str(info.value) == f"parts must be weakly decreasing: {t}"


def test_partition_stats():
    lam = Partition((3, 2, 2, 1))
    assert lam.n_stat == 0 * 3 + 1 * 2 + 2 * 2 + 3 * 1
    assert conjugate(lam) == Partition((4, 3, 1))
    assert conjugate(conjugate(lam)) == lam
    assert centralizer_order(Partition((2, 2))) == 8
    assert centralizer_order(Partition((1, 1, 1))) == 6
    assert class_size((2, 1, 1)) == 6
    assert Partition((2, 1, 1)).sign() == -1


@pytest.mark.parametrize("n", range(13))
def test_centralizer_order_is_the_multiplicity_formula(n):
    for rho in partitions_of(n):
        want = prod(part ** mult * factorial(mult)
                    for part, mult in Counter(rho).items())
        assert centralizer_order(rho) == want, rho
    # the class equation: the classes of S_n partition its n! elements
    assert sum(factorial(n) // centralizer_order(rho)
               for rho in partitions_of(n)) == factorial(n)


def test_partitions_of_order():
    assert partitions_of(4) == (
        Partition((4,)), Partition((3, 1)), Partition((2, 2)),
        Partition((2, 1, 1)), Partition((1, 1, 1, 1)))
    assert len(partitions_of(8)) == 22
    assert partitions_of(0) == (Partition(()),)


def test_ssyt_counts():
    assert len(enumerate_ssyt((2, 2), (2, 2))) == 1
    tabs = enumerate_ssyt((3, 1), (2, 2))
    assert tabs == [((1, 1, 2), (2,))]
    assert enumerate_ssyt((2, 1, 1), (2, 2)) == []
    assert enumerate_ssyt((2, 1), (1, 1, 1)) == [((1, 2), (3,)), ((1, 3), (2,))]


@pytest.mark.parametrize("n", range(1, 7))
def test_ssyt_against_strip_recursion(n):
    for lam in partitions_of(n):
        for mu in partitions_of(n):
            assert len(enumerate_ssyt(lam, mu)) == kostka_number(lam, mu)


def test_charge_values():
    assert charge(((1, 1, 2), (2,))) == 1
    assert charge(((1, 1), (2, 2))) == 0
    assert charge(((1, 2, 3, 4),)) == 6
    assert charge(((1,), (2,), (3,), (4,))) == 0
    with pytest.raises(ValueError):
        charge(((2, 2),))


def test_kostka_foulkes_values():
    assert kostka_foulkes((2, 2), (2, 2)) == IntPolynomial((1,))
    assert kostka_foulkes((3, 1), (2, 2)) == IntPolynomial((0, 1))
    assert kostka_foulkes((2, 1), (1, 1, 1)) == IntPolynomial((0, 1, 1))
    assert kostka_foulkes((2, 1, 1), (1, 1, 1, 1)) == IntPolynomial((0, 1, 1, 1))
    n = 5
    assert kostka_foulkes((n,), (1,) * n) == monomial(n * (n - 1) // 2)
    assert kostka_foulkes((1,) * n, (1,) * n) == IntPolynomial((1,))


def test_kostka_solve_matches_charge():
    # every pair with n <= 9, against charge summed over tableaux
    for n in range(10):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                want = charge_kostka_foulkes(lam, mu)
                assert kostka_foulkes(lam, mu) == want, (lam, mu)


def test_kostka_solve_empty_partition():
    assert kostka_foulkes((), ()) == IntPolynomial((1,))
    gc = springer_graded_char(())
    assert list(gc.items()) == [(Partition(()), IntPolynomial((1,)))]
    with pytest.raises(ValueError):
        kostka_foulkes((1,), ())


def _clear_solve_caches():
    for fn in (symfun._kostka_solve, symfun.kostka_foulkes,
               symfun.springer_graded_char):
        fn.cache_clear()


@pytest.fixture
def fresh_solve():
    _clear_solve_caches()
    yield
    _clear_solve_caches()


@pytest.mark.parametrize("nu,wrong", [
    ((2, 2), lambda d, x: d * 2),
    ((2, 1, 1), lambda d, x: d + x ** 3),
    ((1, 1, 1, 1), lambda d, x: d - 1),
])
def test_kostka_solve_rejects_a_wrong_norm(monkeypatch, fresh_solve, nu, wrong):
    norm = symfun._norm

    def patched(kappa, phi):
        d = norm(kappa, phi)
        # D is an int at X, and X = 1 - phi_1(X)
        return wrong(d, 1 - phi[1]) if kappa == nu else d

    monkeypatch.setattr(symfun, "_norm", patched)
    with pytest.raises(ArithmeticError, match="does not factor"):
        for mu in partitions_of(4):
            springer_graded_char(mu)


@pytest.mark.parametrize("row", [(-1,) * 5, (1, 1, 1, 1, 2)])
def test_kostka_solve_rejects_a_bad_quotient(row):
    # a wrong character row for (4) changes Omega off the diagonal only:
    # the quotient comes out negative or leaves a remainder
    solve = symfun._KostkaSolve(4)
    solve.chars[Partition((4,))] = row
    with pytest.raises(ArithmeticError, match="not an integer polynomial"):
        solve.polynomial(Partition((4,)), Partition((1, 1, 1, 1)))


def test_kostka_readback_rejects_an_extra_high_digit():
    # K((3,1), (2,1,1)) = q + q^2 has degree n(mu) - n(lam) = 2; one more
    # digit above that is not read as a coefficient
    lam, mu = Partition((3, 1)), Partition((2, 1, 1))
    solve = symfun._KostkaSolve(4)
    assert solve.polynomial(lam, mu) == IntPolynomial((0, 1, 1))
    solve.packed[lam, mu] = solve._packed(lam, mu) + (1 << 3 * solve.width)
    with pytest.raises(ArithmeticError,
                       match=re.escape("above n(mu) - n(lam) = 2")):
        solve.polynomial(lam, mu)


@pytest.mark.parametrize("n", range(1, 15))
@settings(max_examples=25, deadline=None)
@given(raw=st.lists(st.one_of(st.just(0), st.just(-1), st.integers()),
                    max_size=92),
       rest=st.one_of(st.sampled_from((-1, 0, 1)), st.integers()))
@example(raw=[], rest=-1)
@example(raw=[], rest=0)
@example(raw=[], rest=1)
@example(raw=[0, 0, 0], rest=-1)
@example(raw=[-1, -1, -1], rest=1)
@example(raw=[0, -1, 0, -1], rest=0)
def test_one_pass_digit_reader_matches_the_loop(n, raw, rest):
    # raw u stands for the signed digit u mod X - half: 0 gives -half and
    # -1 gives half - 1, the two ends of the digit range; up to n(n-1)/2 + 1
    # digits, the most a Green polynomial of size n has at n = 14
    solve = symfun._kostka_solve(n)
    x = 1 << solve.width
    digits = [u % x - x // 2 for u in raw]
    value = sum(d * x ** i for i, d in enumerate(digits))
    value += rest * x ** len(digits)
    want = signed_digits(value, len(digits), solve.width)
    assert want == (digits, rest)
    assert solve._digits(value, len(digits)) == want


def _dominates(lam, mu):
    return all(sum(lam[:i]) >= sum(mu[:i]) for i in range(1, len(mu) + 1))


@pytest.mark.parametrize("n", range(13))
def test_dominance_lists_are_the_pairwise_relation(n):
    solve = symfun._KostkaSolve(n)
    for kappa in solve.parts:
        assert solve._below(kappa) == [
            tau for tau in solve.parts
            if tau != kappa and _dominates(kappa, tau)], kappa
        assert solve._above(kappa) == [
            lam for lam in solve.parts if _dominates(lam, kappa)], kappa


@pytest.mark.parametrize("n", range(13))
def test_packed_weights_and_norms_match_the_polynomials(n):
    solve = symfun._KostkaSolve(n)
    x = 1 << solve.width
    for rho, weight in zip(solve.parts, solve.weights):
        assert weight == class_weight_polynomial(n, rho)(x), rho
    for nu in solve.parts:
        assert solve.norms[nu] == norm_polynomial(n, nu)(x), nu


@pytest.mark.parametrize("n", range(11))
def test_packed_green_table_matches_the_assembly(n):
    for mu in partitions_of(n):
        assert springer_graded_char(mu) == assembled_green_table(mu), mu


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(partitions_of(11) + partitions_of(12)))
def test_packed_green_table_matches_the_assembly_at_11_and_12(mu):
    assert springer_graded_char(mu) == assembled_green_table(mu)


def test_green_table_rejects_a_wrong_kostka_entry(fresh_solve):
    # one coefficient too many in K((3,1), (2,1,1)) raises the identity
    # row's sum by chi^(3,1)(1) = 3
    lam, mu = Partition((3, 1)), Partition((2, 1, 1))
    solve = symfun._kostka_solve(4)
    solve.packed[lam, mu] = solve._packed(lam, mu) + 1
    with pytest.raises(ArithmeticError, match="Euler characteristic 12"):
        springer_graded_char(mu)


@pytest.mark.parametrize("n", range(11))
def test_char_sn_matches_strip_recursion(n):
    for lam in partitions_of(n):
        for rho in partitions_of(n):
            assert char_sn(lam, rho) == strip_character(lam, rho), (lam, rho)


@pytest.mark.parametrize("n", range(1, 8))
def test_kostka_foulkes_at_one_counts_tableaux(n):
    for lam in partitions_of(n):
        for mu in partitions_of(n):
            assert kostka_foulkes(lam, mu)(1) == kostka_number(lam, mu)


@pytest.mark.parametrize("n", range(1, 8))
def test_kostka_weighted_dimension_sum(n):
    for mu in partitions_of(n):
        total = sum(char_sn(lam, (1,) * n) * kostka_foulkes(lam, mu)(1)
                    for lam in partitions_of(n))
        denom = 1
        for p in mu:
            denom *= factorial(p)
        assert total == factorial(n) // denom


def test_char_sn_small_table():
    # S_4 table, classes in the order (1111), (211), (22), (31), (4)
    classes = [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]
    table = {
        (4,): [1, 1, 1, 1, 1],
        (3, 1): [3, 1, -1, 0, -1],
        (2, 2): [2, 0, 2, -1, 0],
        (2, 1, 1): [3, -1, -1, 0, 1],
        (1, 1, 1, 1): [1, -1, 1, 1, -1],
    }
    for lam, row in table.items():
        assert [char_sn(lam, rho) for rho in classes] == row


@pytest.mark.parametrize("n", range(1, 9))
def test_char_sn_orthogonality(n):
    parts = partitions_of(n)
    for lam in parts:
        for nu in parts:
            dot = sum(class_size(rho) * char_sn(lam, rho) * char_sn(nu, rho)
                      for rho in parts)
            assert dot == (factorial(n) if lam == nu else 0)


@pytest.mark.parametrize("n", range(1, 8))
def test_char_sn_trivial_and_sign(n):
    for rho in partitions_of(n):
        assert char_sn((n,), rho) == 1
        assert char_sn((1,) * n, rho) == rho.sign()


def test_char_sn_dims_match_hooks():
    for n in range(1, 9):
        for lam in partitions_of(n):
            assert char_sn(lam, (1,) * n) == hook_dim(lam)


def test_springer_regular_orbit_is_trivial():
    for n in (1, 2, 3, 4, 5):
        gc = springer_graded_char((n,))
        for rho in partitions_of(n):
            assert gc[rho] == IntPolynomial((1,))


def test_springer_mu_22_table():
    gc = springer_graded_char((2, 2))
    assert gc[(1, 1, 1, 1)] == IntPolynomial((1, 3, 2))
    assert gc[(2, 1, 1)] == IntPolynomial((1, 1))
    assert gc[(2, 2)] == IntPolynomial((1, -1, 2))
    assert gc[(3, 1)] == IntPolynomial((1, 0, -1))
    assert gc[(4,)] == IntPolynomial((1, -1))


def test_springer_table_is_cached_per_jordan_type():
    assert springer_graded_char((2, 2)) is springer_graded_char(Partition((2, 2)))


def test_springer_table_is_read_only():
    gc = springer_graded_char((2, 2))
    with pytest.raises(TypeError):
        gc[Partition((4,))] = IntPolynomial((7,))
    with pytest.raises(TypeError):
        del gc[Partition((4,))]
    assert springer_graded_char((2, 2))[(4,)] == IntPolynomial((1, -1))


@pytest.mark.parametrize("n", range(9))
def test_springer_tables_are_shared_read_only_and_cover_every_class(n):
    for mu in partitions_of(n):
        table = springer_graded_char(mu)
        assert springer_graded_char(mu) is table
        assert tuple(table) == partitions_of(n), mu
        with pytest.raises(TypeError):
            table[partitions_of(n)[0]] = IntPolynomial((7,))


def test_springer_n2_table():
    gc = springer_graded_char((1, 1))
    assert gc[(1, 1)] == IntPolynomial((1, 1))
    assert gc[(2,)] == IntPolynomial((1, -1))


@pytest.mark.parametrize("n", range(1, 7))
def test_springer_degree_and_dimension(n):
    for mu in partitions_of(n):
        gc = springer_graded_char(mu)
        ident = gc[(1,) * n]
        assert ident.degree == mu.n_stat
        assert all(c >= 0 for c in ident.coeffs)
        denom = 1
        for p in mu:
            denom *= factorial(p)
        assert sum(ident.coeffs) == factorial(n) // denom


@pytest.mark.parametrize("n", range(1, 7))
def test_springer_full_flag_matches_coinvariants(n):
    assert springer_graded_char((1,) * n) == coinvariant_graded_char(n)


def test_coinvariant_identity_value():
    gc = coinvariant_graded_char(4)
    qfact = poly_product(*(IntPolynomial((1,) * i) for i in range(1, 5)))
    assert gc[(1, 1, 1, 1)] == qfact


def brute_fixed_coset_count(w, young):
    """#{x in S_n : x^-1 w x in S_young} / |S_young|, by exhaustive loop."""
    n = sum(young)
    blocks = []
    start = 1
    for b in young:
        blocks.append(set(range(start, start + b)))
        start += b

    def in_young(perm):
        return all(any(perm[i - 1] in blk and i in blk for blk in blocks)
                   for i in range(1, n + 1))

    count = 0
    for x in itertools.permutations(range(1, n + 1)):
        xinv = [0] * n
        for i, v in enumerate(x):
            xinv[v - 1] = i + 1
        conj = tuple(xinv[w[x[i] - 1] - 1] for i in range(n))
        # conj = x^-1 w x as a one-line permutation
        if in_young(conj):
            count += 1
    order = 1
    for b in young:
        order *= factorial(b)
    assert count % order == 0
    return count // order


def test_springer_at_one_is_permutation_character():
    # q=1 specialization equals the Young-subgroup permutation character
    reps = {(1, 1, 1, 1): (1, 2, 3, 4), (2, 1, 1): (2, 1, 3, 4),
            (2, 2): (2, 1, 4, 3), (3, 1): (2, 3, 1, 4), (4,): (2, 3, 4, 1)}
    for mu in [(2, 2), (3, 1), (2, 1, 1)]:
        gc = springer_graded_char(mu)
        for rho, w in reps.items():
            assert gc[rho](1) == brute_fixed_coset_count(w, mu)


def test_green_at_root_values():
    assert green_at_root((2, 2), (2, 2), 2, 1) == 4
    assert green_at_root((2, 2), (4,), 2, 1) == 2
    gc = springer_graded_char((2, 1))
    for rho in partitions_of(3):
        assert green_at_root((2, 1), rho, 1, 0) == gc[rho](1)


def test_closed_form_readings():
    assert closed_form_coset_count(2, 2, (2, 2), "parts") == 4
    assert closed_form_coset_count(2, 2, (2, 2), "multiplicity") == 4
    assert closed_form_coset_count(2, 2, (4,), "parts") == 2
    assert closed_form_coset_count(2, 2, (4,), "multiplicity") == 0
    assert closed_form_coset_count(2, 2, (1, 1, 1, 1), "parts") == 0
    assert closed_form_coset_count(2, 2, (1, 1, 1, 1), "multiplicity") == 16
    with pytest.raises(ValueError):
        closed_form_coset_count(2, 2, (2, 1))
    with pytest.raises(ValueError):
        closed_form_coset_count(2, 2, (2, 2), "other")


# ---------------------------------------------------------------------------
# the scan direction inside charge() is invisible to every check above:
# K(lam,lam) = 1, the column-word values, the q = 1 counts, and the n <= 4
# tables all come out the same if the cyclic scan walks the other way.
# The first divergence is at n = 5.  The oracle here characterizes the
# Kostka-Foulkes matrix without any tableau combinatorics: expand Schur
# functions over power sums, orthogonalize in the inner product with
# <p_rho, p_rho> = z_rho * prod_i 1/(1 - q^(rho_i)), and read off the
# change of basis to the resulting unitriangular orthogonal family.
# Each entry is a polynomial in q of degree at most n(mu) - n(lam), so
# the orthogonalization runs in exact Fractions at integer points
# q = t >= 2, and each entry is interpolated through one point more than
# its degree bound needs: an entry of higher degree then reads as a
# coefficient beyond the bound, or a non-integer one, unless its excess
# vanishes at every point used.


def kostka_values_at(n, t):
    """<s_lam, b_mu> / <b_mu, b_mu> for all pairs at q = t, b_mu being
    the Gram-Schmidt family of the Schur functions in that product."""
    parts = list(partitions_of(n))
    weight = {rho: Fraction(1, centralizer_order(rho)
                            * prod(1 - t ** part for part in rho))
              for rho in parts}
    gram = {(a, b): sum(char_sn(a, rho) * char_sn(b, rho) * weight[rho]
                        for rho in parts)
            for a in parts for b in parts}

    def ip(u, v):
        return sum(ca * cb * gram[(a, b)]
                   for a, ca in u.items() for b, cb in v.items())

    # dominance-smallest first, so each new vector only picks up
    # corrections from strictly smaller partitions
    basis = {}
    norms = {}
    for mu in reversed(parts):
        vec = {mu: Fraction(1)}
        for nu, prev in basis.items():
            coeff = ip({mu: 1}, prev) / norms[nu]
            for b, cb in prev.items():
                vec[b] = vec.get(b, 0) - coeff * cb
        basis[mu] = vec
        norms[mu] = ip(vec, vec)
    return {(lam, mu): ip({lam: 1}, basis[mu]) / norms[mu]
            for lam in parts for mu in parts}


def interpolate(points):
    """Coefficients, constant first, of the polynomial of degree below
    len(points) through the (x, y) points, by Lagrange's formula."""
    coeffs = [Fraction(0)] * len(points)
    for i, (xi, yi) in enumerate(points):
        basis = [1]
        denominator = 1
        for k, (xk, _) in enumerate(points):
            if k != i:
                # multiply by (x - xk)
                basis = [lo - xk * hi for lo, hi in zip([0] + basis, basis + [0])]
                denominator *= xi - xk
        for d, c in enumerate(basis):
            coeffs[d] += yi * c / denominator
    return coeffs


def kostka_by_orthogonalization(n):
    """Kostka-Foulkes polynomials for all pairs at size n, computed by
    Gram-Schmidt instead of charge, as coefficient tuples constant first
    (Fractions where a coefficient is not an integer)."""
    parts = list(partitions_of(n))
    bound = {(lam, mu): max(mu.n_stat - lam.n_stat, 0)
             for lam in parts for mu in parts}
    ts = range(2, max(bound.values()) + 4)
    values = {t: kostka_values_at(n, t) for t in ts}
    q_poly = {}
    for pair, degree in bound.items():
        coeffs = interpolate([(t, values[t][pair]) for t in ts[:degree + 2]])
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        # zero normalizes to the empty tuple, matching IntPolynomial
        q_poly[pair] = tuple(c.numerator if c.denominator == 1 else c
                             for c in coeffs)
    return q_poly


@pytest.mark.parametrize("n", [4, 5])
def test_kostka_matches_orthogonalization(n):
    table = kostka_by_orthogonalization(n)
    assert len(table) == len(partitions_of(n)) ** 2
    for (lam, mu), want in table.items():
        got = kostka_foulkes(lam, mu).coeffs
        assert got == want, (tuple(lam), tuple(mu))


def test_kostka_scan_direction_regressions():
    # frozen from kostka_by_orthogonalization(6); exactly the entries
    # where a rightward cyclic scan in charge() disagrees
    frozen = {
        ((4, 1), (2, 2, 1)): (0, 0, 1, 1),
        ((3, 1, 1), (2, 2, 1)): (0, 1),
        ((5, 1), (3, 2, 1)): (0, 0, 1, 1),
        ((4, 1, 1), (3, 2, 1)): (0, 1),
        ((4, 2), (2, 2, 2)): (0, 0, 1, 1, 1),
        ((3, 2, 1), (2, 2, 2)): (0, 1, 1),
        ((5, 1), (2, 2, 1, 1)): (0, 0, 0, 0, 1, 1, 1),
        ((4, 2), (2, 2, 1, 1)): (0, 0, 0, 2, 1, 1),
        ((4, 1, 1), (2, 2, 1, 1)): (0, 0, 1, 1, 1),
        ((3, 2, 1), (2, 2, 1, 1)): (0, 1, 2, 1),
        ((3, 1, 1, 1), (2, 2, 1, 1)): (0, 1),
    }
    for (lam, mu), want in frozen.items():
        assert kostka_foulkes(Partition(lam), Partition(mu)).coeffs == want


def test_springer_222_rows_and_roots():
    # rows of the merged type (2,2,2) at the classes a rightward scan
    # would corrupt; coefficient tuples frozen from the same oracle run
    g = springer_graded_char((2, 2, 2))
    assert g[(4, 2)].coeffs == (1, -1, 0, 0, 1, 0, -1)
    assert g[(5, 1)].coeffs == (1, 0, -1, -1, 0, 1)
    assert g[(4, 2)](-1) == 2
    assert g[(5, 1)](-1) == 0
    assert green_at_root((2, 2, 2), (4, 2), 2, 1) == 2
    assert green_at_root((2, 2, 2), (5, 1), 2, 1) == 0
