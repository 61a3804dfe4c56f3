"""Root system construction, closure invariants, Levi configurations."""

from fractions import Fraction
from itertools import combinations

import pytest

from greenchar.rootsys import (_classify_component, build_root_system,
                               levi_config)

from oracles import (bond_classify_component, fraction_root_system,
                     pi_prime_type)

SYSTEMS = [
    ("A", 1, 2), ("A", 3, 12), ("A", 5, 30),
    ("B", 2, 8), ("B", 3, 18), ("C", 3, 18), ("C", 4, 32),
    ("D", 4, 24), ("D", 5, 40),
    ("G", 2, 12), ("F", 4, 48), ("E", 6, 72), ("E", 7, 126), ("E", 8, 240),
]


def apply_mat(mat, vec):
    return tuple(sum(row[j] * vec[j] for j in range(len(vec))) for row in mat)


@pytest.mark.parametrize("family,rank,count", SYSTEMS)
def test_root_counts(family, rank, count):
    rs = build_root_system(family, rank)
    assert len(rs.roots) == count
    assert len(set(rs.roots)) == count


ALL_TYPES = ([("A", r) for r in range(1, 12)]
             + [(f, r) for f in "BC" for r in range(2, 9)]
             + [("D", r) for r in range(3, 9)]
             + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_integer_coordinates_match_the_fraction_route(family, rank):
    rs = build_root_system(family, rank)
    slow = fraction_root_system(family, rank)
    assert rs.simple_roots == slow["simple_roots"]
    assert rs.gram == slow["gram"]
    assert rs.root_coords == slow["root_coords"]
    assert rs.roots == slow["roots"]
    assert rs.root_set == frozenset(slow["roots"])
    for label, reflection in enumerate(slow["reflections"], start=1):
        assert rs.simple_reflection(label) == reflection
    vectors = rs.roots + rs.simple_roots + rs.root_coords
    assert all(type(x) is int for vec in vectors for x in vec)
    gram_types = {type(x) for row in rs.gram for x in row}
    assert gram_types == ({int, Fraction} if family == "F" else {int})


@pytest.mark.parametrize("family,rank", [("D", 2), ("E", 5), ("F", 3),
                                         ("H", 2), ("B", 1), ("A", 0)])
def test_invalid_systems_rejected(family, rank):
    with pytest.raises(ValueError):
        build_root_system(family, rank)


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("C", 3),
                                         ("D", 4), ("G", 2), ("F", 4), ("E", 6)])
def test_closed_under_simple_reflections(family, rank):
    rs = build_root_system(family, rank)
    for i in range(1, rs.rank + 1):
        mat = rs.simple_reflection(i)
        for root in rs.roots:
            assert apply_mat(mat, root) in rs.root_set


@pytest.mark.parametrize("family,rank", [("A", 4), ("B", 3), ("D", 4),
                                         ("F", 4), ("E", 7)])
def test_root_coordinates_one_sign(family, rank):
    rs = build_root_system(family, rank)
    for coords in rs.root_coords:
        nonzero = [c for c in coords if c]
        assert nonzero
        assert all(c > 0 for c in nonzero) or all(c < 0 for c in nonzero)


@pytest.mark.parametrize("family,rank", [("B", 3), ("C", 3), ("G", 2), ("F", 4)])
def test_gram_symmetric_positive_diagonal(family, rank):
    rs = build_root_system(family, rank)
    for i in range(rs.dim):
        assert rs.gram[i][i] > 0
        for j in range(rs.dim):
            assert rs.gram[i][j] == rs.gram[j][i]
    for i in range(rs.rank):
        assert rs.cartan[i][i] == 2
        for j in range(rs.rank):
            if i != j:
                assert rs.cartan[i][j] <= 0


def test_levi_basic_examples():
    a3 = build_root_system("A", 3)
    cfg = levi_config(a3, [3])
    assert cfg.pi_prime == (1,)
    assert pi_prime_type(cfg) == "A1"
    assert len(cfg.phi_L_coords) == 2

    e7 = build_root_system("E", 7)
    cfg = levi_config(e7, [7])
    assert cfg.pi_prime == (1, 2, 3, 4, 5)
    assert pi_prime_type(cfg) == "D5"

    full = levi_config(a3, [1, 2, 3])
    assert full.pi_prime == ()
    assert pi_prime_type(full) == "empty"

    empty = levi_config(a3, [])
    assert empty.pi_prime == (1, 2, 3)
    assert empty.phi_L_coords == ()


def test_levi_classifier_types():
    assert pi_prime_type(levi_config(build_root_system("B", 5), [1])) == "B3"
    assert pi_prime_type(levi_config(build_root_system("C", 5), [1])) == "C3"
    assert pi_prime_type(levi_config(build_root_system("C", 4), [1])) == "B2"
    assert pi_prime_type(levi_config(build_root_system("D", 6), [1])) == "D4"
    assert pi_prime_type(levi_config(build_root_system("E", 8), [1])) == "A6"
    assert pi_prime_type(levi_config(build_root_system("E", 6), [1])) == "A4"
    assert pi_prime_type(levi_config(build_root_system("F", 4), [])) == "F4"
    assert pi_prime_type(levi_config(build_root_system("G", 2), [])) == "G2"
    assert pi_prime_type(levi_config(build_root_system("A", 5), [3])) == "A1+A1"


def test_levi_label_validation():
    with pytest.raises(ValueError):
        levi_config(build_root_system("A", 3), [4])


def all_test_systems():
    out = []
    for family, max_rank in (("A", 8), ("B", 8), ("C", 8), ("D", 8)):
        lo = {"A": 1, "B": 2, "C": 2, "D": 3}[family]
        out.extend((family, r) for r in range(lo, max_rank + 1))
    out += [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
    return out


@pytest.mark.parametrize("family,rank", all_test_systems())
def test_levi_orthogonality_sweep(family, rank):
    rs = build_root_system(family, rank)
    subsets = [()] + [(i,) for i in range(1, rank + 1)] + [(1, rank)]
    for pi_L in subsets:
        cfg = levi_config(rs, pi_L)
        for i in cfg.pi_prime:
            for j in cfg.pi_L:
                assert rs.inner(rs.simple_roots[i - 1], rs.simple_roots[j - 1]) == 0
        inside = set(cfg.phi_L_coords)
        assert all(c not in inside for c in cfg.phi_Lprime_coords) or not pi_L
        # Pi_L is a simple system for Phi_L: pairings reproduce the Cartan submatrix
        for i in cfg.pi_L:
            for j in cfg.pi_L:
                si = rs.simple_roots[i - 1]
                sj = rs.simple_roots[j - 1]
                assert 2 * rs.inner(si, sj) / rs.inner(si, si) == \
                    rs.cartan[i - 1][j - 1]


def test_reflection_matrix_is_involution():
    rs = build_root_system("F", 4)
    for i in range(1, 5):
        m = rs.simple_reflection(i)
        double = [[sum(m[r][k] * m[k][c] for k in range(4)) for c in range(4)]
                  for r in range(4)]
        assert double == [[1 if r == c else 0 for c in range(4)] for r in range(4)]


def connected_subdiagrams(rs):
    """Every connected set of simple-root labels, sorted."""
    out = []
    for mask in range(1, 2 ** rs.rank):
        nodes = [i for i in range(1, rs.rank + 1) if mask >> (i - 1) & 1]
        reached, frontier = {nodes[0]}, [nodes[0]]
        while frontier:
            i = frontier.pop()
            for j in nodes:
                if j not in reached and rs.cartan[i - 1][j - 1]:
                    reached.add(j)
                    frontier.append(j)
        if len(reached) == len(nodes):
            out.append(tuple(nodes))
    return out


def test_subdiagram_census():
    assert sum(len(connected_subdiagrams(build_root_system(*fr)))
               for fr in all_test_systems()) == 605


@pytest.mark.parametrize("family,rank", all_test_systems())
def test_root_count_classifier_matches_the_bond_walker(family, rank):
    rs = build_root_system(family, rank)
    norms = [rs.inner(s, s) for s in rs.simple_roots]
    for nodes in connected_subdiagrams(rs):
        assert _classify_component(nodes, rs.cartan, norms) == \
            bond_classify_component(nodes, rs.cartan, norms), nodes


@pytest.mark.parametrize("family,rank", all_test_systems())
def test_levi_components_are_the_connected_pieces_of_pi_prime(family, rank):
    rs = build_root_system(family, rank)
    connected = set(connected_subdiagrams(rs))
    labels = range(1, rank + 1)
    for size in range(3):
        for pi_L in combinations(labels, size):
            lv = levi_config(rs, pi_L)
            pieces = [nodes for _, _, nodes in lv.components]
            assert sorted(i for p in pieces for i in p) == list(lv.pi_prime)
            assert all(p in connected for p in pieces)
            assert not any(rs.cartan[i - 1][j - 1]
                           for a, b in combinations(pieces, 2)
                           for i in a for j in b)


@pytest.mark.parametrize("family,rank", all_test_systems())
def test_reflection_matrices_hold_ints(family, rank):
    rs = build_root_system(family, rank)
    for alpha in rs.roots:
        m = rs.reflection_matrix(alpha)
        assert all(type(x) is int for row in m for x in row)
        assert apply_mat(m, alpha) == tuple(-a for a in alpha)


@pytest.mark.parametrize("family,rank,vector", [
    ("A", 2, (1, 1, 1)), ("B", 2, (1, 2)), ("F", 4, (0, 0, 0, 2)),
    ("G", 2, (1, 2))])
def test_reflection_matrix_refuses_a_non_root(family, rank, vector):
    rs = build_root_system(family, rank)
    assert vector not in rs.root_set
    with pytest.raises(ArithmeticError):
        rs.reflection_matrix(vector)
