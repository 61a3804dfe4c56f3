"""Partitions, charge, Kostka-Foulkes, characters, graded characters."""

import itertools
from functools import lru_cache
from math import factorial

import pytest
import sympy

from greenchar.poly import IntPolynomial
from greenchar.symfun import (
    GradedCharacter,
    Partition,
    charge,
    char_sn,
    class_size,
    closed_form_coset_count,
    coinvariant_graded_char,
    enumerate_ssyt,
    green_at_root,
    kostka_foulkes,
    partitions_of,
    sn_dim,
    springer_graded_char,
)


def hook_dim(lam):
    """Dimension by the hook length formula (independent of the recursion)."""
    lam = Partition(lam)
    conj = lam.conjugate()
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


def test_partition_stats():
    lam = Partition((3, 2, 2, 1))
    assert lam.n_stat == 0 * 3 + 1 * 2 + 2 * 2 + 3 * 1
    assert lam.conjugate() == Partition((4, 3, 1))
    assert lam.conjugate().conjugate() == lam
    assert Partition((2, 2)).centralizer_order() == 8
    assert Partition((1, 1, 1)).centralizer_order() == 6
    assert class_size((2, 1, 1)) == 6
    assert Partition((2, 1, 1)).sign() == -1


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
    assert kostka_foulkes((n,), (1,) * n) == IntPolynomial.monomial(n * (n - 1) // 2)
    assert kostka_foulkes((1,) * n, (1,) * n) == IntPolynomial((1,))


@pytest.mark.parametrize("n", range(1, 8))
def test_kostka_foulkes_at_one_counts_tableaux(n):
    for lam in partitions_of(n):
        for mu in partitions_of(n):
            assert kostka_foulkes(lam, mu)(1) == kostka_number(lam, mu)


@pytest.mark.parametrize("n", range(1, 8))
def test_kostka_weighted_dimension_sum(n):
    for mu in partitions_of(n):
        total = sum(sn_dim(lam) * kostka_foulkes(lam, mu)(1)
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
            assert sn_dim(lam) == hook_dim(lam)


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
        gc.values[Partition((4,))] = IntPolynomial((7,))
    with pytest.raises(TypeError):
        del gc.values[Partition((4,))]
    assert springer_graded_char((2, 2))[(4,)] == IntPolynomial((1, -1))


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
    qfact = IntPolynomial((1,))
    for i in range(1, 5):
        qfact = qfact * IntPolynomial((1,) * i)
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


def test_graded_character_requires_full_domain():
    with pytest.raises(ValueError):
        GradedCharacter(3, {Partition((3,)): IntPolynomial((1,))})


# ---------------------------------------------------------------------------
# the scan direction inside charge() is invisible to every check above:
# K(lam,lam) = 1, the column-word values, the q = 1 counts, and the n <= 4
# tables all come out the same if the cyclic scan walks the other way.
# The first divergence is at n = 5.  The oracle here characterizes the
# Kostka-Foulkes matrix without any tableau combinatorics: expand Schur
# functions over power sums, orthogonalize in the inner product with
# <p_rho, p_rho> = z_rho * prod_i 1/(1 - q^(rho_i)), and read off the
# change of basis to the resulting unitriangular orthogonal family.


def schur_gram_matrix(n, q):
    """<s_a, s_b> in the q-deformed power-sum inner product, via the
    character table."""
    parts = list(partitions_of(n))
    gram = {}
    for a in parts:
        for b in parts:
            total = 0
            for rho in parts:
                den = rho.centralizer_order()
                for part in rho:
                    den = den * (1 - q ** part)
                total += sympy.Rational(char_sn(a, rho) * char_sn(b, rho)) / den
            gram[(a, b)] = sympy.cancel(total)
    return gram


def kostka_by_orthogonalization(n):
    """Kostka-Foulkes polynomials for all pairs at size n, computed by
    Gram-Schmidt instead of charge."""
    q = sympy.Symbol("q")
    parts = list(partitions_of(n))
    gram = schur_gram_matrix(n, q)

    def ip(u, v):
        total = 0
        for a, ca in u.items():
            for b, cb in v.items():
                total += ca * cb * gram[(a, b)]
        return sympy.cancel(total)

    # dominance-smallest first, so each new vector only picks up
    # corrections from strictly smaller partitions
    basis = {}
    norms = {}
    for mu in reversed(parts):
        vec = {mu: sympy.Integer(1)}
        for nu, prev in basis.items():
            coeff = sympy.cancel(ip({mu: sympy.Integer(1)}, prev) / norms[nu])
            if coeff == 0:
                continue
            for b, cb in prev.items():
                vec[b] = sympy.cancel(vec.get(b, 0) - coeff * cb)
        basis[mu] = {b: c for b, c in vec.items() if c != 0}
        norms[mu] = ip(vec, vec)

    q_poly = {}
    for lam in parts:
        for mu in parts:
            val = sympy.cancel(ip({lam: sympy.Integer(1)}, basis[mu]) / norms[mu])
            poly = sympy.Poly(val, q)
            coeffs = tuple(int(c) for c in poly.all_coeffs()[::-1])
            # zero normalizes to the empty tuple, matching IntPolynomial
            q_poly[(lam, mu)] = () if coeffs == (0,) else coeffs
    return q_poly


@pytest.mark.parametrize("n", [4, 5])
def test_kostka_matches_orthogonalization(n):
    table = kostka_by_orthogonalization(n)
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
