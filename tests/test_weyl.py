"""Group elements, enumeration, regular twists, and coset bookkeeping.

Expected values come from three places: hand computations frozen in
the asserts, exhaustive naive loops run inside the tests themselves,
and classical degree counts for eigenspace dimensions.
"""

import importlib.util
import math
import os
import sys
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from greenchar import verify
from greenchar.poly import Cyclotomic, kernel_basis
from greenchar.rootsys import build_root_system, levi_config
from greenchar.symfun import Partition, partitions_of
from greenchar.weyl import (
    InductionConfig,
    InvalidConfigError,
    SubgroupTable,
    WeylElt,
    _twist_blocks,
    census_agrees,
    coset_census,
    coset_count,
    coset_elements,
    embed_component_element,
    eigenspace,
    from_cycles,
    identity_elt,
    induced_character,
    is_L_regular,
    l_regular_config,
    levi_elements,
    levi_order,
    orbit_shape,
    reflection_word,
    regular_element,
    rotating_config,
    runs,
    standard_block_config,
    trapping_roots,
    validate_config,
    young_subgroup,
)

from oracles import (DEGREES, apply, block_shift_element, coset_character,
                     coset_exponent, coset_reps, elimination_inverse,
                     enumerate_group, enumerated_census, extended_subgroup,
                     matrix_eigenspace,
                     power_orbit_shape, rootsys_validate_config,
                     signed_cycle_type, weyl_order)
from oracles import rank as matrix_rank
from test_acceptance import (one_row_configs, regular_twist_configs,
                             rotating_block_configs)


def signed_perms(n):
    return st.permutations(range(1, n + 1)).flatmap(
        lambda p: st.tuples(*[st.sampled_from((v, -v)) for v in p]))


class TestWeylElt:
    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            WeylElt(perm=(1, 1, 3))
        with pytest.raises(ValueError):
            WeylElt()

    def test_composition_applies_right_factor_first(self):
        u = from_cycles(3, (1, 2))
        v = from_cycles(3, (2, 3))
        # (u @ v)(3) = u(v(3)) = u(2) = 1
        assert (u @ v).perm == (2, 3, 1)
        assert (v @ u).perm == (3, 1, 2)

    def test_signed_composition_and_order(self):
        x = WeylElt(perm=(2, -1))
        assert (x @ x).perm == (-1, -2)
        assert x.order() == 4
        assert (x ** 4).is_identity()
        assert signed_cycle_type(x) == (Partition(()), Partition((2,)))

    def test_negative_one_cycles(self):
        w = WeylElt(perm=(-1, -2))
        assert w.order() == 2
        assert signed_cycle_type(w) == (Partition(()), Partition((1, 1)))

    @settings(max_examples=60)
    @given(signed_perms(6))
    def test_cycle_types_are_the_sorted_cycle_lengths(self, p):
        seen, pos, neg = set(), [], []
        for start in range(1, len(p) + 1):
            length, sign, cur = 0, 1, start
            while cur not in seen:
                seen.add(cur)
                sign *= 1 if p[cur - 1] > 0 else -1
                cur = abs(p[cur - 1])
                length += 1
            if length:
                (pos if sign > 0 else neg).append(length)
        w = WeylElt(perm=p)
        assert type(w.cycle_type()) is Partition
        assert w.cycle_type() == tuple(sorted(pos + neg, reverse=True))
        assert signed_cycle_type(w) == (tuple(sorted(pos, reverse=True)),
                                         tuple(sorted(neg, reverse=True)))

    def test_apply_matches_matrix(self):
        w = WeylElt(perm=(2, -1, 3))
        vec = (Fraction(5), Fraction(7), Fraction(11))
        by_perm = apply(w, vec)
        m = w.matrix
        by_mat = tuple(sum(m[r][c] * vec[c] for c in range(3)) for r in range(3))
        assert by_perm == by_mat

    def test_pow_negative(self):
        w = from_cycles(4, (1, 2, 3, 4))
        assert (w ** -1).perm == w.inverse().perm
        assert (w ** -3).perm == (w.inverse() ** 3).perm

    @settings(max_examples=60)
    @given(signed_perms(4), signed_perms(4))
    def test_matrix_form_is_a_homomorphism(self, p, q):
        u, v = WeylElt(perm=p), WeylElt(perm=q)
        prod_mat = WeylElt(mat=u.matrix) @ WeylElt(mat=v.matrix)
        assert prod_mat.matrix == (u @ v).matrix

    @settings(max_examples=60)
    @given(signed_perms(5))
    def test_inverse_roundtrip(self, p):
        w = WeylElt(perm=p)
        assert (w @ w.inverse()).is_identity()
        assert (w.inverse() @ w).is_identity()

    def test_cross_form_equality(self):
        w = from_cycles(3, (1, 3))
        assert w == WeylElt(mat=w.matrix)


class TestEnumeration:
    @pytest.mark.parametrize("family,rank,count", [
        ("A", 3, 24), ("B", 3, 48), ("D", 4, 192), ("G", 2, 12), ("F", 4, 1152),
    ])
    def test_group_sizes(self, family, rank, count):
        rs = build_root_system(family, rank)
        table = enumerate_group(rs)
        assert len(table) == count == weyl_order(family, rank)
        assert len(set(table.elements)) == count

    def test_d_family_has_even_sign_counts(self):
        table = enumerate_group(build_root_system("D", 3))
        for w in table:
            assert sum(1 for v in w.perm if v < 0) % 2 == 0

    def test_closure_elements_permute_the_roots(self):
        rs = build_root_system("G", 2)
        for w in enumerate_group(rs):
            for alpha in rs.roots:
                assert apply(w, alpha) in rs.root_set

    def test_explicit_bound_refused(self):
        with pytest.raises(ValueError, match="bound"):
            enumerate_group(build_root_system("A", 3), bound=10)

    def test_default_bound_refuses_largest_group(self):
        with pytest.raises(ValueError, match="bound"):
            enumerate_group(build_root_system("E", 8))

    def test_coset_reps_tile_the_parent(self):
        s4 = enumerate_group(build_root_system("A", 3))
        H = SubgroupTable.from_generators(
            [from_cycles(4, (1, 2)), from_cycles(4, (3, 4)),
             from_cycles(4, (1, 3), (2, 4))])
        assert len(H) == 8
        reps = coset_reps(H, s4)
        assert len(s4) == len(H) * len(reps)
        tiled = {r @ h for r in reps for h in H}
        assert len(tiled) == len(s4)


def catalog_cases():
    cases = []
    for rank in range(1, 6):
        n = rank + 1
        cases += [("A", rank, e, "a") for e in range(2, n + 1) if n % e == 0]
        cases += [("A", rank, e, "b") for e in range(2, n) if (n - 1) % e == 0]
    for rank in range(2, 5):
        cases += [("B", rank, e, "a")
                  for e in range(3, rank + 1, 2) if rank % e == 0]
        cases += [("B", rank, e, "b")
                  for e in range(2, 2 * rank + 1, 2) if (2 * rank) % e == 0]
    for rank in range(3, 6):
        cases += [("D", rank, e, "a")
                  for e in range(3, rank + 1, 2) if rank % e == 0]
        cases += [("D", rank, e, "b")
                  for e in range(3, rank, 2) if (rank - 1) % e == 0]
        cases += [("D", rank, e, "c")
                  for e in range(2, rank + 1, 2) if rank % e == 0]
        cases += [("D", rank, e, "d")
                  for e in range(2, 2 * rank - 1, 2) if (2 * rank - 2) % e == 0]
    return cases


class TestRegularCatalog:
    def test_frozen_examples(self):
        assert regular_element("A", 5, 3, "a").perm == (2, 3, 1, 5, 6, 4)
        assert regular_element("B", 2, 4, "b").perm == (2, -1)
        assert regular_element("D", 4, 2, "c").perm == (-1, -2, -3, -4)

    @pytest.mark.parametrize("family,rank,e,variant,needle", [
        ("A", 5, 4, "a", "e | 6"),
        ("A", 5, 4, "b", "e | 5"),
        ("B", 3, 3, "b", "even"),
        ("B", 3, 2, "a", "odd"),
        ("D", 4, 3, "c", "even"),
        ("D", 4, 6, "c", "e | 4"),
    ])
    def test_rejections_name_the_condition(self, family, rank, e, variant, needle):
        with pytest.raises(ValueError, match=needle.replace("|", r"\|")):
            regular_element(family, rank, e, variant)

    @pytest.mark.parametrize("family,rank,e,variant", catalog_cases())
    def test_catalog_element_is_regular_of_order_e(self, family, rank, e, variant):
        a = regular_element(family, rank, e, variant)
        assert a.order() == e
        rs = build_root_system(family, rank)
        assert is_L_regular(a, e, levi_config(rs, ()))

    @pytest.mark.parametrize("family,rank,e,variant", catalog_cases())
    def test_eigenspace_dimension_matches_degree_count(self, family, rank, e, variant):
        # dimension of the regular eigenspace = number of invariant
        # degrees divisible by e, a classical fact independent of the
        # catalog construction
        a = regular_element(family, rank, e, variant)
        expected = sum(1 for d in DEGREES[family](rank) if d % e == 0)
        assert len(eigenspace(a, e)) == expected

    def test_identity_is_regular_of_order_one(self):
        rs = build_root_system("A", 3)
        assert is_L_regular(identity_elt(4), 1, levi_config(rs, ()))

    def test_full_cycle_is_regular(self):
        rs = build_root_system("A", 2)
        assert is_L_regular(from_cycles(3, (1, 2, 3)), 3, levi_config(rs, ()))

    def test_transposition_in_s4_is_not_regular(self):
        rs = build_root_system("A", 3)
        assert not is_L_regular(from_cycles(4, (1, 2)), 2, levi_config(rs, ()))


class TestEigenspace:
    def test_identity_has_full_fixed_space(self):
        assert len(eigenspace(identity_elt(4), 1, 0)) == 4

    def test_transposition_eigenvector(self):
        basis = eigenspace(from_cycles(4, (1, 2)), 2, 1)
        assert len(basis) == 1
        v = basis[0]
        assert v[0] == -v[1] and not v[2] and not v[3]

    def test_negative_identity_full_space(self):
        w = WeylElt(perm=(-1, -2, -3, -4))
        assert len(eigenspace(w, 2, 1)) == 4

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6).flatmap(signed_perms), st.integers(1, 8))
    def test_cycle_route_spans_the_matrix_route(self, perm, e):
        # the basis read off the cycles spans the kernel of a - zeta
        a = WeylElt(perm=perm)
        for j in range(e):
            zeta = Cyclotomic.zeta(e, j)
            basis = eigenspace(a, e, j)
            oracle = matrix_eigenspace(a, e, j)
            assert len(basis) == len(oracle)
            if basis:
                assert matrix_rank(list(basis) + list(oracle)) == len(oracle)
            for v in basis:
                assert apply(a, v) == tuple(zeta * x for x in v)

    @pytest.mark.parametrize("family,rank,e,variant",
                             [("A", 3, 4, "a"), ("B", 2, 4, "b"), ("D", 4, 6, "d")])
    def test_basis_vectors_are_eigenvectors(self, family, rank, e, variant):
        a = regular_element(family, rank, e, variant)
        zeta = Cyclotomic.zeta(e, 1)
        m = a.matrix
        for v in eigenspace(a, e, 1):
            image = tuple(sum(m[r][c] * v[c] for c in range(len(v)))
                          for r in range(len(v)))
            assert image == tuple(zeta * x for x in v)


class TestLRegularity:
    def test_transposition_clears_a_disjoint_block(self):
        lv = levi_config(build_root_system("A", 3), (3,))
        assert is_L_regular(from_cycles(4, (1, 2)), 2, lv)

    @pytest.mark.parametrize("pi_L", [(1, 2), (3, 4)])
    def test_f4_reflection_never_clears_the_crossing_roots(self, pi_L):
        rs = build_root_system("F", 4)
        lv = levi_config(rs, pi_L)
        assert lv.pi_prime
        comp = lv.components[0]
        assert (comp[0], comp[1]) == ("A", 1)
        a = embed_component_element(rs, comp, WeylElt(perm=(2, 1)))
        assert a.order() == 2
        assert not is_L_regular(a, 2, lv)

    def test_f4_and_g2_sweep_finds_no_clearing_twist(self):
        # every proper subset of simple roots, every regular element of
        # the complement of classical type A_1 or A_2
        model_regulars = {
            ("A", 1): [(WeylElt(perm=(2, 1)), 2)],
            ("A", 2): [(from_cycles(3, (1, 2, 3)), 3),
                       (from_cycles(3, (1, 2)), 2)],
        }
        for family, rank in [("G", 2), ("F", 4)]:
            rs = build_root_system(family, rank)
            labels = range(1, rank + 1)
            for size in range(1, rank):
                for pi_L in combinations(labels, size):
                    lv = levi_config(rs, pi_L)
                    if not lv.pi_prime:
                        continue
                    for comp in lv.components:
                        key = (comp[0], comp[1])
                        for model_elt, e in model_regulars.get(key, []):
                            a = embed_component_element(rs, comp, model_elt)
                            assert not is_L_regular(a, e, lv), (family, pi_L, e)

    def test_e8_small_complements_give_no_clearing_twist(self):
        rs = build_root_system("E", 8)
        for pi_L, expected_prime in [((1, 2, 3, 4, 5, 6), (8,)),
                                     ((1, 2, 3, 4, 5), (7, 8))]:
            lv = levi_config(rs, pi_L)
            assert lv.pi_prime == expected_prime
            for comp in lv.components:
                if comp[1] == 1:
                    cands = [(WeylElt(perm=(2, 1)), 2)]
                else:
                    cands = [(from_cycles(3, (1, 2, 3)), 3),
                             (from_cycles(3, (1, 2)), 2)]
                for model_elt, e in cands:
                    a = embed_component_element(rs, comp, model_elt)
                    assert not is_L_regular(a, e, lv), (pi_L, comp, e)

    def test_e6_five_cycle_on_the_a4_complement(self):
        rs = build_root_system("E", 6)
        lv = levi_config(rs, (6,))
        comp = [c for c in lv.components if c[0] == "A" and c[1] == 4][0]
        a = embed_component_element(rs, comp, from_cycles(5, (1, 2, 3, 4, 5)))
        assert a.order() == 5
        assert is_L_regular(a, 5, lv)

    def test_e7_five_cycle_on_the_a4_complement(self):
        rs = build_root_system("E", 7)
        lv = levi_config(rs, (6, 7))
        comp = [c for c in lv.components if c[0] == "A" and c[1] == 4][0]
        a = embed_component_element(rs, comp, from_cycles(5, (1, 2, 3, 4, 5)))
        assert is_L_regular(a, 5, lv)

    def test_e7_five_cycle_on_the_d5_complement(self):
        # The canonical order-5 twist of the D5-type complement of the
        # chain-end node is NOT admissible: its eigenvector lands on
        # four crossing hyperplanes.  See the coordinate cross-check
        # below for an independent derivation of the same verdict.
        rs = build_root_system("E", 7)
        lv = levi_config(rs, (7,))
        comp = [c for c in lv.components if c[0] == "D" and c[1] == 5][0]
        a = embed_component_element(rs, comp, regular_element("D", 5, 5, "a"))
        assert a.order() == 5
        assert not is_L_regular(a, 5, lv)

    def test_d5_twist_verdict_in_explicit_coordinates(self):
        # Independent model: the rank-7 exceptional system realized in
        # R^8, its D5 subsystem orthogonal to the chain-end root, and
        # the order-5 rotation of the five orthonormal letters.  The
        # eigenvector must hit some crossing hyperplane.
        half = Fraction(1, 2)
        roots = set()
        for i, j in combinations(range(6), 2):
            for si, sj in product((1, -1), repeat=2):
                v = [Fraction(0)] * 8
                v[i], v[j] = Fraction(si), Fraction(sj)
                roots.add(tuple(v))
        for s in (1, -1):
            v = [Fraction(0)] * 8
            v[6], v[7] = Fraction(s), Fraction(-s)
            roots.add(tuple(v))
        for eps in product((1, -1), repeat=6):
            if sum(1 for x in eps if x < 0) % 2 == 1:
                for g in (1, -1):
                    roots.add(tuple([Fraction(g * x, 2) for x in eps]
                                    + [Fraction(-g, 2), Fraction(g, 2)]))
        assert len(roots) == 126
        alpha = tuple([Fraction(0)] * 4 + [Fraction(-1), Fraction(1),
                                           Fraction(0), Fraction(0)])
        letters = [
            (Fraction(0),) * 4 + (-half, -half, -half, half),
            (-half, half, half, half) + (Fraction(0),) * 4,
            (half, -half, half, half) + (Fraction(0),) * 4,
            (half, half, -half, half) + (Fraction(0),) * 4,
            (-half, -half, -half, half) + (Fraction(0),) * 4,
        ]
        for i, j in combinations(range(5), 2):
            for si, sj in product((1, -1), repeat=2):
                r = tuple(si * a + sj * b
                          for a, b in zip(letters[i], letters[j]))
                assert r in roots
                assert sum(x * y for x, y in zip(r, alpha)) == 0
        zero = Cyclotomic.zeta(5, 0) * 0
        v = [zero] * 8
        for k, g in enumerate(letters, start=1):
            coef = Cyclotomic.zeta(5, (-k) % 5)
            v = [c + coef * x for c, x in zip(v, g)]

        def pair(r):
            return sum((c * x for c, x in zip(v, r) if x), start=zero)

        vanishing = {r for r in roots
                     if r != alpha and r != tuple(-x for x in alpha)
                     and not pair(r)}
        assert len(vanishing) == 4

    def test_classical_tail_block_sweep(self):
        # A parents admit every e dividing the free letters; B and D
        # parents admit only odd e, the sum roots e_i + e_j meeting the
        # eigenvector at cycle distance e/2 otherwise.
        for rank in range(2, 8):
            n = rank + 1
            rs = build_root_system("A", rank)
            for m in range(1, n - 1):
                lv = levi_config(rs, tuple(range(n - m + 1, n)))
                free = n - m
                for e in range(2, free + 1):
                    if free % e:
                        continue
                    cycles = [tuple(range(k * e + 1, k * e + e + 1))
                              for k in range(free // e)]
                    a = from_cycles(n, *cycles)
                    assert is_L_regular(a, e, lv), ("A", rank, m, e)
        for family in ("B", "D"):
            low = 3 if family == "B" else 4
            for rank in range(low, 6):
                rs = build_root_system(family, rank)
                min_m = 1 if family == "B" else 2
                for m in range(min_m, rank - 1):
                    lv = levi_config(rs, tuple(range(rank - m + 1, rank + 1)))
                    free = rank - m
                    for e in range(2, free + 1):
                        if free % e:
                            continue
                        cycles = [tuple(range(k * e + 1, k * e + e + 1))
                                  for k in range(free // e)]
                        a = WeylElt(perm=tuple(
                            list(from_cycles(free, *cycles).perm)
                            + list(range(free + 1, rank + 1))))
                        expect = (e % 2 == 1)
                        assert is_L_regular(a, e, lv) == expect, \
                            (family, rank, m, e)

    def test_invariant_under_primitive_root_choice(self):
        cases = []
        lvA = levi_config(build_root_system("A", 5), (5,))
        cases.append((from_cycles(6, (1, 2, 3, 4)), 4, lvA))
        lvB = levi_config(build_root_system("B", 5), (5,))
        cases.append((WeylElt(perm=(2, 3, 4, 1, 5)), 4, lvB))
        lvB4 = levi_config(build_root_system("B", 4), (4,))
        cases.append((WeylElt(perm=(2, 3, 1, 4)), 3, lvB4))
        for a, e, lv in cases:
            # is_L_regular tests zeta_e itself; every primitive power has
            # an eigenspace of the same size trapped by the same roots
            answers = {j: (len(basis), tuple(trapping_roots(
                lv.parent, basis, lv.crossing_roots())))
                for j in range(1, e) if math.gcd(j, e) == 1
                for basis in [eigenspace(a, e, j)]}
            assert len(set(answers.values())) == 1, answers


class TestEmbedding:
    def test_reflection_word_roundtrip_s4(self):
        rs = build_root_system("A", 3)
        for w in enumerate_group(rs):
            word = reflection_word(rs, w)
            rebuilt = identity_elt(4)
            for i in word:
                rebuilt = rebuilt @ WeylElt(mat=rs.simple_reflection(i))
            assert rebuilt == w

    def test_reflection_word_roundtrip_b3(self):
        rs = build_root_system("B", 3)
        w = WeylElt(perm=(3, -1, 2))
        word = reflection_word(rs, w)
        rebuilt = WeylElt(mat=rs.simple_reflection(word[0])) if word else identity_elt(3)
        for i in word[1:]:
            rebuilt = rebuilt @ WeylElt(mat=rs.simple_reflection(i))
        assert rebuilt == w

    def test_embedded_element_preserves_order_and_roots(self):
        rs = build_root_system("E", 6)
        lv = levi_config(rs, (6,))
        comp = [c for c in lv.components if c[0] == "A"][0]
        a = embed_component_element(rs, comp, from_cycles(5, (1, 2, 3, 4, 5)))
        assert a.order() == 5
        for alpha in rs.simple_roots:
            assert apply(a, alpha) in rs.root_set

    @pytest.mark.parametrize("family,rank,pi_L,ctype,model", [
        ("E", 6, (6,), ("A", 4), from_cycles(5, (1, 2, 3, 4, 5))),
        ("E", 7, (7,), ("D", 5), regular_element("D", 5, 5, "a")),
        ("F", 4, (4,), ("A", 2), from_cycles(3, (1, 2, 3)))])
    def test_inverse_of_an_embedded_twist(self, family, rank, pi_L, ctype,
                                          model):
        rs = build_root_system(family, rank)
        lv = levi_config(rs, pi_L)
        comp = next(c for c in lv.components if c[:2] == ctype)
        a = embed_component_element(rs, comp, model)
        assert a.perm is None
        inv = a.inverse()
        assert (a @ inv).is_identity()
        assert (inv @ a).is_identity()
        assert a ** -1 == inv
        assert inv == elimination_inverse(a)

    def test_rejects_matrix_outside_the_group(self):
        rs = build_root_system("A", 2)
        bad = WeylElt(mat=((Fraction(2), Fraction(0), Fraction(0)),
                           (Fraction(0), Fraction(1), Fraction(0)),
                           (Fraction(0), Fraction(0), Fraction(1))))
        with pytest.raises(ValueError):
            reflection_word(rs, bad)


class TestConfigs:
    def test_block_shift_examples(self):
        assert block_shift_element(((1, 2), (3, 4)), 2).perm == (3, 4, 1, 2)
        assert block_shift_element(((1, 2), (3, 4), (5, 6)), 3).perm == \
            (3, 4, 5, 6, 1, 2)
        assert block_shift_element(((1,), (2,), (3,)), 3).perm == (2, 3, 1)

    def test_block_shift_with_leading_fixed_block(self):
        a = block_shift_element(((1, 2), (3, 4), (5, 6)), 2)
        assert a.perm == (1, 2, 5, 6, 3, 4)

    def test_block_shift_rejects_ragged_layout(self):
        with pytest.raises(InvalidConfigError):
            block_shift_element(((1, 2), (3,), (4,), (5,)), 2)

    def test_standard_block_config_shape(self):
        cfg = standard_block_config(2, 2)
        assert cfg.n == 4 and cfg.blocks == ((1, 2), (3, 4))
        assert cfg.a.perm == (3, 4, 1, 2)
        assert cfg.merged_type() == Partition((2, 2))
        assert validate_config(cfg) == "block-cyclic"

    def test_rotating_singletons_validate_through_the_eigenvector_path(self):
        cfg = standard_block_config(1, 3)
        assert cfg.a.perm == (2, 3, 1)
        assert validate_config(cfg) == "l-regular"

    def test_fixed_block_plus_rotating_pair(self):
        cfg = standard_block_config(2, 2, fixed_size=2)
        assert cfg.blocks == ((1, 2), (3, 4), (5, 6))
        assert validate_config(cfg) == "block-cyclic"

    def test_tail_block_with_free_cycles(self):
        cfg = l_regular_config(6, 2, 2)
        assert cfg.blocks[-1] == (5, 6)
        assert cfg.a.perm == (2, 1, 4, 3, 5, 6)
        assert validate_config(cfg) == "l-regular"

    def test_tail_singleton_uses_the_full_letter_range(self):
        cfg = l_regular_config(5, 1, 2, variant="b")
        # the catalog element fixes the final letter, which is the block
        assert cfg.a.perm == (2, 1, 4, 3, 5)
        assert validate_config(cfg) == "l-regular"

    def test_three_cycle_next_to_a_pair_block_is_rejected(self):
        # the eigenvector (1, z^2, z, 0, 0, 0) of the 3-cycle is
        # orthogonal to the crossing root e_4 - e_5
        cfg = InductionConfig(
            n=6, e=3,
            blocks=((1,), (2,), (3,), (4,), (5, 6)),
            block_types=(Partition((1,)),) * 4 + (Partition((2,)),),
            a=from_cycles(6, (1, 2, 3)))
        with pytest.raises(InvalidConfigError, match="crossing root"):
            validate_config(cfg)

    def test_trapping_crossing_root_is_named_by_simple_root_coordinates(self):
        # the first crossing root orthogonal to the eigenvector
        # (1, -1, 0, 0, 0) of (1 2) is e_5 - e_3 = -(alpha_3 + alpha_4)
        cfg = InductionConfig(
            n=5, e=2, blocks=((1,), (2,), (3,), (4, 5)),
            block_types=(Partition((1,)),) * 3 + (Partition((2,)),),
            a=from_cycles(5, (1, 2)))
        with pytest.raises(InvalidConfigError) as info:
            validate_config(cfg)
        assert str(info.value) == (
            "twisting element is not admissible: its eigenspace lies inside "
            "the hyperplane of the crossing root (0, 0, -1, -1) "
            "(simple-root coordinates)")

    def test_twist_without_an_e_cycle_has_no_eigenvector(self):
        # (1 2)(3 4 5) has order 6 but no 6-cycle: its zeta_6-eigenspace
        # is zero, so it lies on every hyperplane, the first crossing
        # root e_7 - e_1 included
        cfg = InductionConfig(
            n=7, e=6, blocks=runs([1] * 5 + [2]),
            block_types=(Partition((1,)),) * 5 + (Partition((2,)),),
            a=from_cycles(7, (1, 2), (3, 4, 5)))
        with pytest.raises(InvalidConfigError) as info:
            validate_config(cfg)
        assert str(info.value) == (
            "twisting element is not admissible: its eigenspace lies inside "
            "the hyperplane of the crossing root (-1, -1, -1, -1, -1, -1) "
            "(simple-root coordinates)")

    def test_order_mismatch_is_rejected(self):
        cfg = InductionConfig(
            n=4, e=2, blocks=((1,), (2,), (3,), (4,)),
            block_types=(Partition((1,)),) * 4,
            a=from_cycles(4, (1, 2, 3)))
        with pytest.raises(InvalidConfigError, match="order"):
            validate_config(cfg)

    def test_non_normalizing_twist_is_rejected(self):
        cfg = InductionConfig(
            n=4, e=2, blocks=((1, 2), (3, 4)),
            block_types=(Partition((2,)), Partition((2,))),
            a=from_cycles(4, (2, 3)))
        with pytest.raises(InvalidConfigError, match="normalize"):
            validate_config(cfg)

    def test_mismatched_jordan_types_in_one_orbit(self):
        cfg = InductionConfig(
            n=4, e=2, blocks=((1, 2), (3, 4)),
            block_types=(Partition((2,)), Partition((1, 1))),
            a=from_cycles(4, (1, 3), (2, 4)))
        with pytest.raises(InvalidConfigError, match="Jordan"):
            validate_config(cfg)

    def test_rotating_singletons_around_a_pair_violate_orthogonality(self):
        cfg = InductionConfig(
            n=4, e=2, blocks=((1,), (2, 3), (4,)),
            block_types=(Partition((1,)), Partition((2,)), Partition((1,))),
            a=from_cycles(4, (1, 4)))
        with pytest.raises(InvalidConfigError, match="orthogonal"):
            validate_config(cfg)

    def test_orthogonal_crossing_root_is_named_by_simple_root_coordinates(self):
        # the first crossing root, e_4 - e_1 = -(alpha_1 + alpha_2 +
        # alpha_3), is constant on each rotating singleton
        cfg = InductionConfig(
            n=4, e=2, blocks=((1,), (2, 3), (4,)),
            block_types=(Partition((1,)), Partition((2,)), Partition((1,))),
            a=from_cycles(4, (1, 4)))
        with pytest.raises(InvalidConfigError) as info:
            validate_config(cfg)
        assert str(info.value) == (
            "crossing root (-1, -1, -1) (simple-root coordinates) is "
            "orthogonal to every rotating block")

    def test_identity_twist_is_the_ungraded_shape(self):
        cfg = InductionConfig(
            n=3, e=1, blocks=((1, 2, 3),),
            block_types=(Partition((2, 1)),), a=identity_elt(3))
        assert validate_config(cfg) == "ungraded"

    def test_blocks_must_be_consecutive(self):
        with pytest.raises(ValueError, match="consecutive"):
            InductionConfig(n=4, e=2, blocks=((1, 3), (2, 4)),
                            block_types=(Partition((2,)), Partition((2,))),
                            a=from_cycles(4, (1, 2)))

    @pytest.mark.parametrize("blocks,types,a,message", [
        (((1, 2), (3,)), ((2,), (1,)), from_cycles(3),
         "block types must be Partition instances"),
        (((1, 2), (3,)), (Partition((1,)), Partition((1,))), from_cycles(3),
         "Jordan type (1,) does not fill a block of 2"),
        (((1, 2),), (Partition((2,)),), from_cycles(3),
         "blocks do not cover the letters"),
        (((1, 2), (3,)), (Partition((2,)), Partition((1,))),
         WeylElt(perm=(-1, 2, 3)),
         "the twisting element must be a plain permutation"),
    ])
    def test_invalid_blocks_are_refused_at_construction(self, blocks, types,
                                                        a, message):
        with pytest.raises(ValueError) as info:
            InductionConfig(n=3, e=2, blocks=blocks, block_types=types, a=a)
        assert str(info.value) == message

    def test_equal_configs_share_their_cache_entries(self):
        def build():
            return InductionConfig(
                n=4, e=2, blocks=((1, 2), (3, 4)),
                block_types=(Partition((2,)), Partition((2,))),
                a=from_cycles(4, (1, 3), (2, 4)))

        first, second = build(), build()
        assert first is not second
        assert first == second and hash(first) == hash(second)
        assert first == standard_block_config(2, 2)
        assert first != standard_block_config(2, 2, Partition((1, 1)))
        coset_census(first, 1)
        hits = _twist_blocks.cache_info().hits
        assert coset_census(second, 1) is coset_census(first, 1)
        assert _twist_blocks.cache_info().hits == hits + 2

    def test_configs_are_immutable(self):
        cfg = standard_block_config(2, 2)
        for field in ("n", "e", "blocks", "block_types", "a"):
            with pytest.raises(AttributeError):
                setattr(cfg, field, None)
        with pytest.raises(AttributeError):
            cfg.extra = 1
        with pytest.raises(ValueError, match="consecutive"):
            cfg._replace(blocks=((1, 3), (2, 4)))


def _block_layouts(n):
    """Every way to cut the letters 1..n into consecutive runs."""
    for cuts in product((False, True), repeat=n - 1):
        blocks, start = [], 1
        for letter, cut in enumerate(cuts + (True,), start=1):
            if cut:
                blocks.append(tuple(range(start, letter + 1)))
                start = letter + 1
        yield tuple(blocks)


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name):
    """A module of the benchmark, read from perfbench/<name>.py with that
    directory on the import path, as the benchmark's scripts run."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


def pool_inputs():
    """(spec, args) for each distinct item spec of the roots_sweep,
    trace_sweep and induction_sweep pools, in pool order, with args as the
    sweep builds them (perfbench/sweep.py build_args)."""
    workloads = load_perfbench("workloads")
    build_args = load_perfbench("sweep").build_args
    inputs = {}
    for workload in ("roots_sweep", "trace_sweep", "induction_sweep"):
        for group in workloads.pool(workload):
            for item in group:
                key = repr(item["args"])
                if key not in inputs:
                    inputs[key] = (item["args"],
                                   build_args(item["check"], item["args"]))
    return list(inputs.values())


def pool_configs():
    """Every config of the roots_sweep, trace_sweep and induction_sweep
    pools: the one-row and general-type configs, then the e = 1 layout
    that check_ungraded_induction gives each ungraded block-type
    multiset."""
    configs = []
    for spec, args in pool_inputs():
        if isinstance(spec[0], str):
            configs.append(args[0])
        else:
            _, types = args
            configs.append(rotating_config(1, [Partition(t) for t in types]))
    return configs


def guessed_layout(e, types, fixed=None):
    """The rotating layout assembled as before the builder: consecutive
    runs, and the twist worked out from the finished blocks."""
    block_types = ((fixed,) if fixed is not None else ()) + tuple(
        nu for nu in types for _ in range(e))
    blocks = runs(t.size for t in block_types)
    return InductionConfig(n=sum(map(len, blocks)), e=e, blocks=blocks,
                           block_types=block_types,
                           a=block_shift_element(blocks, e))


def rotating_layouts(max_n=12, max_e=6, max_families=3):
    """(e, types, fixed) for every family count up to max_families, every
    family size and fixed-block size with n <= max_n; the types cycle
    through the partitions of each size, so families of one size may
    carry different types."""
    for e in range(1, max_e + 1):
        for k in range(1, max_families + 1):
            for sizes in product(range(1, max_n // e + 1), repeat=k):
                for f in range(max_n - e * sum(sizes) + 1):
                    types = tuple(partitions_of(m)[i % len(partitions_of(m))]
                                  for i, m in enumerate(sizes))
                    yield e, types, partitions_of(f)[-1] if f else None


class TestRotatingConfig:
    def test_equals_the_guessed_layout_on_every_small_layout(self):
        tried = 0
        for e, types, fixed in rotating_layouts():
            cfg = rotating_config(e, types, fixed)
            expected = guessed_layout(e, types, fixed)
            # every field, the twist by its permutation
            assert cfg == expected, (e, types, fixed)
            assert cfg.a.perm == expected.a.perm
            tried += 1
        assert tried == 1313

    def test_benchmark_pools_build_the_guessed_layout(self):
        def part(p):
            return Partition(p) if p is not None else None

        inputs = [(spec, args) for spec, args in pool_inputs()
                  if spec[0] == "std"]
        assert len(inputs) == 39 + 39
        for (_, m, e, nu, fixed_size, fixed_type), (cfg,) in inputs:
            fixed = None
            if fixed_size:
                fixed = part(fixed_type) or Partition((fixed_size,))
            assert cfg == guessed_layout(e, (part(nu) or Partition((m,)),),
                                         fixed)

    def test_a_single_block_family_is_ungraded(self):
        cfg = rotating_config(1, (Partition((2, 1)), Partition((2,))))
        assert cfg.blocks == ((1, 2, 3), (4, 5))
        assert cfg.a.is_identity()
        assert validate_config(cfg) == "ungraded"

    def test_twist_examples(self):
        two = Partition((2,))
        assert rotating_config(2, (two,)).a.perm == (3, 4, 1, 2)
        assert rotating_config(2, (two,), two).a.perm == (1, 2, 5, 6, 3, 4)
        assert rotating_config(3, (Partition((1,)), two)).a.perm == \
            (2, 3, 1, 6, 7, 8, 9, 4, 5)

    @pytest.mark.parametrize("e", [0, -2])
    def test_nonpositive_order_is_refused(self, e):
        with pytest.raises(InvalidConfigError) as info:
            rotating_config(e, (Partition((2,)),))
        assert str(info.value) == f"order e must be positive, got e={e}"

    def test_mismatched_block_sizes_are_refused(self):
        with pytest.raises(ValueError,
                           match=r"Jordan type \(3,\) does not fill a block of 2"):
            standard_block_config(2, 2, Partition((3,)))
        with pytest.raises(ValueError,
                           match=r"Jordan type \(1,\) does not fill a block of 2"):
            standard_block_config(1, 2, fixed_size=2,
                                  fixed_type=Partition((1,)))

    def test_ungraded_induction_config_strings_are_unchanged(self):
        multisets = [(n, types) for n in range(2, 8)
                     for types in load_perfbench("workloads").block_type_multisets(n)]
        assert len(multisets) == 219
        for n, types in multisets:
            sizes = [sum(t) for t in types]
            report = verify.check_ungraded_induction(n, types)
            assert report.config == (
                f"n={n} blocks={runs(sizes)} "
                f"types={tuple(tuple(t) for t in types)}")
            assert validate_config(rotating_config(
                1, [Partition(t) for t in types])) == "ungraded"


class TestYoungSubgroup:
    def test_matches_the_closure_of_adjacent_transpositions(self):
        for n in range(1, 7):
            for blocks in _block_layouts(n):
                gens = [identity_elt(n)] + [from_cycles(n, (x, x + 1))
                                            for block in blocks
                                            for x in block[:-1]]
                closure = SubgroupTable.from_generators(gens)
                elements = young_subgroup(blocks)
                assert len(set(elements)) == len(elements), blocks
                assert set(elements) == set(closure.elements), blocks

    def test_levi_elements_keep_their_order(self):
        assert [h.perm for h in levi_elements(standard_block_config(2, 2))] \
            == [(1, 2, 3, 4), (1, 2, 4, 3), (2, 1, 3, 4), (2, 1, 4, 3)]
        for cfg in (standard_block_config(3, 2),
                    standard_block_config(2, 3, fixed_size=1),
                    l_regular_config(5, 3, 2)):
            perms = [h.perm for h in levi_elements(cfg)]
            assert perms == sorted(perms)
            assert levi_elements(cfg) == young_subgroup(cfg.blocks)


def naive_coset_count(cfg, w, j, table):
    target = set(coset_elements(cfg, j))
    hits = sum(1 for x in table
               if (x.inverse() @ w @ x) in target)
    return Fraction(hits, len(levi_elements(cfg)))


class TestCosetCount:
    def setup_method(self):
        self.cfg = standard_block_config(2, 2)
        self.s4 = enumerate_group(build_root_system("A", 3))

    def test_identity_counts_the_index(self):
        assert coset_count(identity_elt(4), self.cfg, 0) == 6

    def test_frozen_values_on_the_shifted_coset(self):
        assert coset_count(from_cycles(4, (1, 2), (3, 4)), self.cfg, 1) == 4
        assert coset_count(from_cycles(4, (1, 2, 3, 4)), self.cfg, 1) == 2
        assert coset_count(from_cycles(4, (1, 2)), self.cfg, 1) == 0

    def test_matches_naive_loop_on_s4(self):
        for rho in partitions_of(4):
            w = from_cycles(4, *_cycles_for(rho))
            for j in range(2):
                assert coset_count(w, self.cfg, j) == \
                    naive_coset_count(self.cfg, w, j, self.s4), (rho, j)

    def test_matches_naive_loop_on_s5(self):
        cfg = standard_block_config(2, 2, fixed_size=1)
        s5 = enumerate_group(build_root_system("A", 4))
        for rho in partitions_of(5):
            w = from_cycles(5, *_cycles_for(rho))
            for j in range(2):
                assert coset_count(w, cfg, j) == \
                    naive_coset_count(cfg, w, j, s5), (rho, j)

    def test_counts_are_nonnegative_integers_and_sum_correctly(self):
        for cfg in (self.cfg, standard_block_config(2, 2, fixed_size=1)):
            n = cfg.n
            table = enumerate_group(build_root_system("A", n - 1))
            extended = set(extended_subgroup(cfg).elements)
            for rho in partitions_of(n):
                w = from_cycles(n, *_cycles_for(rho))
                counts = [coset_count(w, cfg, j) for j in range(cfg.e)]
                for c in counts:
                    assert c.denominator == 1 and c >= 0
                membership = sum(1 for x in table
                                 if (x.inverse() @ w @ x) in extended)
                assert sum(counts) * len(levi_elements(cfg)) == membership

    def test_constant_on_conjugacy_classes(self):
        w1 = from_cycles(4, (1, 3), (2, 4))
        w2 = from_cycles(4, (1, 2), (3, 4))
        for j in range(2):
            assert coset_count(w1, self.cfg, j) == coset_count(w2, self.cfg, j)


def test_census_agrees_scales_each_side_and_pads_the_shorter():
    # |L| = 2 and z = 3: a Green value 3 matches a census coordinate 2
    assert census_agrees(2, (3,), 3, (2,))
    assert not census_agrees(3, (3,), 2, (2,))
    assert not census_agrees(2, (2,), 3, (3,))
    # zeros pad either side, and a nonzero coordinate past the rational
    # part fails on either side
    assert census_agrees(2, (3, 0, 0), 3, (2,))
    assert census_agrees(2, (3,), 3, (2, 0, 0))
    assert census_agrees(5, (), 7, (0, 0))
    assert not census_agrees(2, (3, 1), 3, (2,))
    assert not census_agrees(2, (3,), 3, (2, 0, -1))
    assert not census_agrees(2, (3, 0, 1), 3, (2, 0, 0))


@st.composite
def block_permuting_configs(draw, max_letters=7):
    """Consecutive blocks on at most max_letters letters, each with any
    Jordan type, and a twist that maps every block onto a block of the
    same size by any bijection; e is the twist's order, and nothing is
    validated."""
    # runs of equal blocks, so that equal blocks meet and rotate often;
    # a block that would pass max_letters is dropped
    sizes = []
    for size, count in draw(st.lists(
            st.tuples(st.integers(1, 3) | st.integers(1, max_letters),
                      st.integers(1, 4)),
            min_size=1, max_size=4)):
        for _ in range(count):
            if sum(sizes) + size <= max_letters:
                sizes.append(size)
    blocks = runs(sizes)
    n = sum(sizes)
    # drawn permutations lean towards the identity, so each is followed
    # by one rotation of the equal blocks: the lean goes to a rotating
    # family, and every permutation can still be drawn
    targets = list(range(len(blocks)))
    for m in set(map(len, blocks)):
        same = [bi for bi, block in enumerate(blocks) if len(block) == m]
        drawn = draw(st.permutations(same))
        for bi, image in zip(same, drawn[1:] + drawn[:1]):
            targets[bi] = image
    perm = [0] * n
    for block, target in zip(blocks, targets):
        images = draw(st.permutations(blocks[target]))
        for letter, image in zip(block, images):
            perm[letter - 1] = image
    a = WeylElt(perm=perm)
    types = tuple(draw(st.sampled_from(partitions_of(len(block))))
                  for block in blocks)
    return InductionConfig(n=n, e=a.order(), blocks=blocks,
                           block_types=types, a=a)


@st.composite
def twisted_layouts(draw):
    """Blocks of one to three letters on at most 9 letters, in any
    order, each with any Jordan type, and a twist that cycles the blocks
    of each size; a block goes onto its image letter for letter or by
    any bijection.  The twist is sometimes any permutation of the
    letters instead, and e sometimes apart from its order, so that
    every refusal can be reached.  Unlike block_permuting_configs, sizes
    interleave: one-letter blocks that are not adjacent rotate beside
    larger ones, the case where a one-letter block counts as constant
    on every root."""
    sizes = []
    for size in draw(st.lists(st.integers(1, 3), min_size=1, max_size=9)):
        if sum(sizes) + size <= 9:
            sizes.append(size)
    blocks = runs(sizes)
    n = sum(sizes)
    targets = list(range(len(blocks)))
    for m in set(sizes):
        same = [bi for bi, block in enumerate(blocks) if len(block) == m]
        drawn = draw(st.permutations(same))
        for bi, image in zip(same, drawn[1:] + drawn[:1]):
            targets[bi] = image
    aligned = draw(st.booleans())
    perm = [0] * n
    for block, target in zip(blocks, targets):
        images = blocks[target] if aligned else \
            draw(st.permutations(blocks[target]))
        for letter, image in zip(block, images):
            perm[letter - 1] = image
    if not draw(st.integers(0, 3)):
        perm = draw(st.permutations(range(1, n + 1)))
    a = WeylElt(perm=perm)
    e = a.order() if draw(st.integers(0, 3)) else draw(st.integers(1, 8))
    types = tuple(draw(st.sampled_from(partitions_of(len(block))))
                  for block in blocks)
    return InductionConfig(n=n, e=e, blocks=blocks, block_types=types, a=a)


def acceptance_shapes(max_n):
    """The shapes of the acceptance generators on at most max_n letters:
    e blocks of every size and Jordan type rotating after an optional
    fixed block of every size and type, and one block of every type
    beside the catalog twist of every admissible order, both variants."""
    for m in range(1, max_n + 1):
        for e in range(1, max_n // m + 1):
            for k in range(max_n - m * e + 1):
                for nu, tau in product(partitions_of(m),
                                       partitions_of(k) if k else [None]):
                    yield standard_block_config(m, e, nu, fixed_size=k,
                                                fixed_type=tau)
    for n in range(2, max_n + 1):
        for m, e, variant in product(range(1, n), range(1, n + 1), "ab"):
            try:
                regular_element("A", (n if m == 1 else n - m) - 1, e, variant)
            except ValueError:
                continue
            for nu in partitions_of(m):
                yield l_regular_config(n, m, e, nu, variant)


def validation_verdict(validate, cfg):
    """The shape, or the type and text of the refusal."""
    try:
        return validate(cfg)
    except ValueError as exc:
        return type(exc), str(exc)


class TestValidationOnLetters:
    """validate_config decides on letters what the root system A_{n-1}
    decided: the same shape, or the same refusal word for word."""

    def test_acceptance_shapes_up_to_nine_letters(self):
        configs = list(acceptance_shapes(9))
        verdicts = [validation_verdict(validate_config, cfg) for cfg in configs]
        assert verdicts == [validation_verdict(rootsys_validate_config, cfg)
                            for cfg in configs]
        assert len(configs) > 1800
        # every shape is reached, and so is a trapped eigenspace
        assert {v for v in verdicts if isinstance(v, str)} == \
            {"ungraded", "l-regular", "block-cyclic"}
        assert any("not admissible" in v[1] for v in verdicts
                   if not isinstance(v, str))

    # a one-letter family rotating beside a two-letter one: every root
    # is constant on a one-letter block, so e_4 - e_1 is orthogonal to
    # all four rotating blocks
    @example(InductionConfig(
        n=6, e=2, blocks=((1,), (2, 3), (4,), (5, 6)),
        block_types=(Partition((1,)), Partition((2,))) * 2,
        a=from_cycles(6, (1, 4), (2, 5), (3, 6))))
    @settings(max_examples=400, deadline=None)
    @given(twisted_layouts())
    def test_random_layouts_and_twists(self, cfg):
        assert validation_verdict(validate_config, cfg) == \
            validation_verdict(rootsys_validate_config, cfg)


class TestCosetCensus:
    @pytest.mark.parametrize("configs", [one_row_configs, rotating_block_configs,
                                         regular_twist_configs])
    def test_class_sizes_match_the_walk_on_every_acceptance_config(self,
                                                                   configs):
        for cfg in configs():
            assert levi_order(cfg) == len(levi_elements(cfg))
            for j in range(cfg.e):
                assert coset_census(cfg, j) == enumerated_census(cfg, j), \
                    (cfg, j)

    @pytest.mark.parametrize("configs", [one_row_configs, rotating_block_configs,
                                         regular_twist_configs])
    def test_keys_are_valid_partitions_and_counts_positive_ints(self, configs):
        # the tally builds its keys without Partition's checks, so each
        # key must pass them as a plain tuple and fill all n letters
        for cfg in configs():
            for j in range(cfg.e):
                for rho, by_profile in coset_census(cfg, j).items():
                    assert type(rho) is Partition, (cfg, j, rho)
                    assert rho == Partition(tuple(rho)), (cfg, j, rho)
                    assert rho.size == cfg.n, (cfg, j, rho)
                    assert by_profile, (cfg, j, rho)
                    assert all(type(count) is int and count > 0
                               for count in by_profile.values()), (cfg, j, rho)

    @settings(max_examples=30, deadline=None)
    @given(cfg=block_permuting_configs())
    def test_class_sizes_match_the_walk_on_any_block_permuting_twist(self, cfg):
        # the walk costs |W_L| elements per coset; a 7-letter block under
        # a twist of order 6 or more would take seconds on its own
        assume(levi_order(cfg) * cfg.e <= 30_000)
        for j in range(cfg.e):
            assert coset_census(cfg, j) == enumerated_census(cfg, j), j

    def test_exponents_and_configs_of_one_orbit_shape_share_a_table(self):
        # each nonzero exponent of the 5-cycle moves the five one-letter
        # blocks in one orbit
        cfg = standard_block_config(1, 5)
        assert len({id(coset_census(cfg, j)) for j in range(1, 5)}) == 1
        # three rotating letters beside a fixed pair, the pair first or last
        first = standard_block_config(1, 3, fixed_size=2)
        last = l_regular_config(5, 2, 3)
        assert first != last
        shape = ((1, 2, Partition((2,))), (3, 1, Partition((1,))))
        assert orbit_shape(first, 1) == orbit_shape(last, 2) == shape
        assert coset_census(first, 1) is coset_census(last, 2)
        assert coset_census(first, 2) is coset_census(last, 1)
        assert verify.coset_sums(first)[1] is verify.coset_sums(last)[2]

    def test_a_rotating_block_type_gets_its_own_table(self):
        plain = standard_block_config(2, 2)
        split = standard_block_config(2, 2, Partition((1, 1)))
        plain_sums = verify.coset_sums(plain)
        split_sums = verify.coset_sums(split)
        for j in range(2):
            assert orbit_shape(plain, j) != orbit_shape(split, j)
            assert coset_census(plain, j) is not coset_census(split, j)
            assert coset_census(plain, j) != coset_census(split, j)
            assert plain_sums[j] != split_sums[j]

    def test_refuses_a_twist_that_splits_a_block(self):
        a = from_cycles(3, (1, 3))
        cfg = InductionConfig(n=3, e=2, blocks=runs([2, 1]),
                              block_types=(Partition((2,)), Partition((1,))),
                              a=a)
        assert coset_census(cfg, 0) == enumerated_census(cfg, 0)
        with pytest.raises(ValueError, match="does not permute the blocks"):
            coset_census(cfg, 1)


def shape_or_refusal(route, cfg, j):
    try:
        return route(cfg, j)
    except ValueError as err:
        return type(err), str(err)


@st.composite
def rotating_layouts_drawn(draw):
    """rotating_config on one to three families of one to three letters,
    any Jordan types, with or without a fixed block, on at most 12
    letters."""
    e = draw(st.integers(1, 6))
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    types = [draw(st.sampled_from(partitions_of(m))) for m in sizes]
    f = draw(st.integers(0, 3))
    assume(f + e * sum(sizes) <= 12)
    fixed = draw(st.sampled_from(partitions_of(f))) if f else None
    return rotating_config(e, types, fixed)


@st.composite
def l_regular_layouts(draw):
    """l_regular_config on at most 10 letters, any admissible order and
    distinguished block type, in the variant the trace_sweep pool uses."""
    n = draw(st.integers(3, 10))
    m = draw(st.integers(1, n - 2))
    e = draw(st.sampled_from([d for d in range(2, n - m + 1)
                              if (n - m) % d == 0]))
    nu = draw(st.sampled_from(partitions_of(m)))
    return l_regular_config(n, m, e, nu, "b" if m == 1 else "a")


@st.composite
def splitting_twists(draw):
    """Consecutive blocks on at most 8 letters, at least one of two or
    more letters, under any permutation of the letters and any e; most
    such twists split a block, while some power of them may not."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    sizes = [s for i, s in enumerate(sizes) if sum(sizes[:i + 1]) <= 8]
    assume(max(sizes) > 1)
    blocks = runs(sizes)
    n = sum(sizes)
    a = WeylElt(perm=draw(st.permutations(range(1, n + 1))))
    types = tuple(draw(st.sampled_from(partitions_of(len(block))))
                  for block in blocks)
    return InductionConfig(n=n, e=draw(st.integers(1, 8)), blocks=blocks,
                           block_types=types, a=a)


class TestOrbitShape:
    # orbit_shape composes sigma on block indices; power_orbit_shape
    # builds a^j and maps its letters to blocks at every exponent

    def test_equals_the_power_route_on_every_pool_config(self):
        configs = pool_configs()
        assert len(configs) == 39 + 86 + 219
        for cfg in configs:
            for j in range(2 * cfg.e + 1):
                assert orbit_shape(cfg, j) == power_orbit_shape(cfg, j), \
                    (cfg, j)

    @settings(max_examples=150, deadline=None)
    @given(rotating_layouts_drawn() | l_regular_layouts(), st.data())
    def test_equals_the_power_route_on_random_layouts(self, cfg, data):
        for j in range(2 * cfg.e + 1):
            assert orbit_shape(cfg, j) == power_orbit_shape(cfg, j), j
        j = data.draw(st.integers(-3 * cfg.e, 3 * cfg.e))
        assert orbit_shape(cfg, j) == power_orbit_shape(cfg, j)

    @settings(max_examples=200, deadline=None)
    @given(splitting_twists())
    def test_equals_the_power_route_on_twists_that_split_a_block(self, cfg):
        for j in range(2 * cfg.e + 1):
            assert shape_or_refusal(orbit_shape, cfg, j) == \
                shape_or_refusal(power_orbit_shape, cfg, j), j

    def test_a_power_of_a_splitting_twist_may_permute_the_blocks(self):
        # blocks (1,2),(3,4) under the 4-cycle (1 2 3 4): a and a^3 split
        # the first block, while a^2 = (1 3)(2 4) swaps the two
        cfg = InductionConfig(n=4, e=4, blocks=runs([2, 2]),
                              block_types=(Partition((2,)),) * 2,
                              a=from_cycles(4, (1, 2, 3, 4)))
        two = Partition((2,))
        assert orbit_shape(cfg, 0) == ((1, 2, two), (1, 2, two))
        assert orbit_shape(cfg, 2) == orbit_shape(cfg, 6) == ((2, 2, two),)
        for j in (1, 3, 5):
            with pytest.raises(ValueError,
                               match="^element does not permute the blocks$"):
                orbit_shape(cfg, j)


def _cycles_for(rho):
    cycles = []
    next_letter = 1
    for part in rho:
        cycles.append(tuple(range(next_letter, next_letter + part)))
        next_letter += part
    return cycles


class TestInducedCharacters:
    def test_trivial_character_from_the_pairing_stabilizer(self):
        H = SubgroupTable.from_generators(
            [from_cycles(4, (1, 2)), from_cycles(4, (3, 4)),
             from_cycles(4, (1, 3), (2, 4))])
        ind = induced_character(H, lambda y: 1)
        assert ind[Partition((1, 1, 1, 1))] == 3
        assert ind[Partition((2, 1, 1))] == 1
        assert ind[Partition((2, 2))] == 3
        assert ind[Partition((3, 1))] == 0
        assert ind[Partition((4,))] == 1

    def test_induction_from_the_full_group_returns_the_character(self):
        s3 = enumerate_group(build_root_system("A", 2))
        values = {Partition((1, 1, 1)): 1, Partition((2, 1)): -1,
                  Partition((3,)): 1}
        ind = induced_character(s3, lambda y: values[y.cycle_type()])
        assert ind == values

    def test_coset_character_values(self):
        cfg = standard_block_config(2, 2)
        psi0 = coset_character(cfg, 0)
        psi1 = coset_character(cfg, 1)
        for y in levi_elements(cfg):
            assert psi0(y) == Cyclotomic.zeta(2, 0)
            assert psi1(y) == Cyclotomic.zeta(2, 0)
        for y in coset_elements(cfg, 1):
            assert psi1(y) == Cyclotomic.zeta(2, 1)
            assert psi0(y) == Cyclotomic.zeta(2, 0)

    def test_coset_character_e_th_power_is_trivial(self):
        cfg = standard_block_config(2, 3)
        psi = coset_character(cfg, 2)
        one = Cyclotomic.zeta(3, 0)
        for y in extended_subgroup(cfg).elements:
            assert psi(y) ** 3 == one

    def test_induced_coset_character_hand_values(self):
        # Frobenius sum done by hand over the eight extended elements:
        # the two transpositions inside the blocks carry value +1, the
        # doubled transpositions split +1 / -1 / -1, the 4-cycles carry
        # -1 each.
        cfg = standard_block_config(2, 2)
        ind = induced_character(extended_subgroup(cfg), coset_character(cfg, 1))
        assert all(type(v) is int for v in ind.values())
        assert ind[Partition((1, 1, 1, 1))] == 3
        assert ind[Partition((2, 1, 1))] == 1
        assert ind[Partition((2, 2))] == -1
        assert ind[Partition((3, 1))] == 0
        assert ind[Partition((4,))] == -1

    def test_induced_dimension_is_the_index(self):
        cfg = standard_block_config(2, 2, fixed_size=1)
        H = extended_subgroup(cfg)
        ind = induced_character(H, coset_character(cfg, 1))
        assert ind[Partition((1,) * 5)] == 120 // len(H)

    def test_coset_exponent_locates_elements(self):
        cfg = standard_block_config(2, 3)
        for j in range(3):
            for y in coset_elements(cfg, j):
                assert coset_exponent(cfg, y) == j
        with pytest.raises(ValueError):
            coset_exponent(cfg, from_cycles(6, (2, 3)))


@pytest.mark.parametrize("family,rank", [("A", 4), ("B", 4), ("D", 4),
                                         ("E", 6)])
def test_trapping_roots_match_the_pairing_over_the_field(family, rank):
    # the rational-part test must trap exactly the roots whose pairing
    # with every eigenvector vanishes in the cyclotomic field
    rs = build_root_system(family, rank)
    cases = []
    if family == "E":
        lv = levi_config(rs, (6,))
        comp = [c for c in lv.components if c[:2] == ("A", 4)][0]
        a = embed_component_element(rs, comp, regular_element("A", 4, 5))
        cases.append((a, 5, 1, (6,)))
    else:
        for e in range(1, 7):
            for variant in "abcd":
                try:
                    a = regular_element(family, rank, e, variant)
                except ValueError:
                    continue
                cases.extend((a, e, j, pi_L) for j in range(e)
                             for pi_L in [(), (1,), (rank,), (1, 2),
                                          (rank - 1, rank)])
    for a, e, j, pi_L in cases:
        basis = eigenspace(a, e, j)
        roots = levi_config(rs, pi_L).crossing_roots()
        want = [beta for beta in roots
                if not any(rs.inner(v, beta) for v in basis)]
        assert list(trapping_roots(rs, basis, roots)) == want


def test_kernels_of_the_catalog_twists_are_in_normal_form(monkeypatch):
    # every twist check_regular_catalog embeds (the F4 sweep and the three
    # E6/E7 spots), with e its order: kernel_basis on M - zeta gives one
    # zeta-eigenvector per free column, 1 there and 0 on the other free
    # columns, where a column is free when it depends on those before it
    embedded = []

    def embed(*args):
        embedded.append(embed_component_element(*args))
        return embedded[-1]

    monkeypatch.setattr(verify, "embed_component_element", embed)
    verify.check_regular_catalog()
    assert len(embedded) == 11
    for a in embedded:
        e = a.order()
        zeta = Cyclotomic.zeta(e)
        rows = [[x - zeta if r == c else x for c, x in enumerate(row)]
                for r, row in enumerate(a.matrix)]
        free = [c for c in range(len(rows))
                if matrix_rank([row[:c + 1] for row in rows])
                == matrix_rank([row[:c] for row in rows])]
        basis = kernel_basis(rows)
        assert basis and len(basis) == len(free)
        for v, f in zip(basis, free):
            assert [v[g] for g in free] == [int(g == f) for g in free]
            assert apply(a, v) == tuple(zeta * x for x in v)


def test_catalog_twists_are_integer_matrices_inverted_as_powers(monkeypatch):
    # every twist check_regular_catalog embeds (the F4 sweep and the three
    # E6/E7 spots) has int entries, and so has its inverse, which equals
    # the inverse by elimination
    embedded = []

    def embed(*args):
        embedded.append(embed_component_element(*args))
        return embedded[-1]

    monkeypatch.setattr(verify, "embed_component_element", embed)
    verify.check_regular_catalog()
    assert len(embedded) == 11
    for a in embedded:
        inv = a.inverse()
        assert inv == elimination_inverse(a)
        for m in (a.matrix, inv.matrix):
            assert all(type(x) is int for row in m for x in row)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([("E", 6), ("F", 4), ("G", 2)]).flatmap(
    lambda fr: st.tuples(st.just(fr), st.lists(st.integers(1, fr[1]),
                                               min_size=1, max_size=16))))
def test_power_inverse_matches_elimination_on_words(case):
    (family, rank), word = case
    rs = build_root_system(family, rank)
    a = WeylElt(mat=rs.simple_reflection(word[0]))
    for i in word[1:]:
        a = a @ WeylElt(mat=rs.simple_reflection(i))
    assert a.inverse() == elimination_inverse(a)
    assert (a @ a.inverse()).is_identity()
