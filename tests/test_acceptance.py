"""Acceptance battery.

Nine numbered criteria, one test and one printed pass/fail line each.
The numbering is the package's own acceptance list:

 1. values of Green polynomials at roots of unity equal twisted coset
    counts for every one-row block config with n <= 8
 2. residue slices of the graded character equal the induced character
    of the extended block subgroup on every one-row config, and both
    rows of the smallest nontrivial config match a reference table
    derived by hand from the character table of S_4
 3. pair traces on the induced graded module match the evaluated graded
    character for general block types, both config shapes
 4. residue components all share one dimension, the subgroup index
    times the block module dimension
 5. the closed-form coset count (parts reading) matches the literal
    census wherever it applies, and the rejected multiplicity reading
    is reported, not patched
 6. ungraded induction at q=1 for arbitrary per-block types, n <= 7
 7. the regular-element catalog reports exactly one counterexample, the
    order-5 twist of E7 with pi_L=(7,); an independent count of the
    crossing roots each exceptional spot twist fixes (four for that
    twist, none for the other two) agrees
 8. combinatorial cross-checks: Kostka numbers against an independent
    strip-chain count, multinomial mass, character orthogonality,
    coinvariant graded traces in product form
 9. values at primitive roots of one order agree (Galois invariance)

Nothing here is tuned to pass.
"""

import math
import time
from functools import lru_cache
from itertools import product

from greenchar.rootsys import build_root_system, levi_config
from greenchar.symfun import (Partition, char_sn, green_at_root,
                              kostka_foulkes, partitions_of,
                              springer_graded_char)
from greenchar.verify import (check_closed_form, check_component_dims,
                              check_mod_e_induction, check_regular_catalog,
                              check_roots_of_unity, check_twisted_induction,
                              check_ungraded_induction,
                              standard_block_config)
from greenchar.weyl import (embed_component_element, from_cycles,
                            l_regular_config, regular_element)

from oracles import apply, class_size, one_minus_power, poly_product


def announce(num: int, ok: bool, detail: str) -> str:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


# ---------------------------------------------------------------------------
# config enumerations shared by several criteria


def one_row_configs():
    """Every config with regular blocks and n <= 8: the ten pure
    rotating families plus every mixed shape with one fixed block."""
    for m, e in [(1, 2), (2, 2), (3, 2), (4, 2), (1, 3),
                 (2, 3), (1, 4), (2, 4), (1, 5), (1, 6)]:
        yield standard_block_config(m, e)
    for e in range(2, 8):
        for m in range(1, 8):
            for k in range(1, 9):
                if k + e * m <= 8:
                    yield standard_block_config(m, e, fixed_size=k)


def rotating_block_configs():
    """General block types on rotating families, n <= 6; the fixed
    block, when present, also sweeps all its types."""
    for m, e in [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6),
                 (2, 2), (2, 3), (3, 2)]:
        for nu in partitions_of(m):
            yield standard_block_config(m, e, nu)
    for k in range(1, 5):
        for m in range(1, 6):
            for e in range(2, 6):
                if k + m * e > 6:
                    continue
                for tau in partitions_of(k):
                    for nu in partitions_of(m):
                        yield standard_block_config(m, e, nu, fixed_size=k,
                                                    fixed_type=tau)


def regular_twist_configs():
    """One block of arbitrary type, the rest of the letters under a
    regular twist of each admissible order, n <= 7."""
    for n in range(3, 8):
        for m in range(1, n - 1):
            gap = n - m
            for e in range(2, gap + 1):
                if gap % e:
                    continue
                # a lone letter leaves the twist acting beside it, with
                # one fixed point; larger blocks sit after a clean orbit
                variant = "b" if m == 1 else "a"
                for nu in partitions_of(m):
                    yield l_regular_config(n, m, e, nu, variant)


# ---------------------------------------------------------------------------


def test_criterion_1_root_values_equal_coset_counts():
    failures = []
    worst_ms = 0
    count = 0
    for cfg in one_row_configs():
        count += 1
        rep = check_roots_of_unity(cfg)
        worst_ms = max(worst_ms, rep.elapsed_ms)
        if rep.status != "pass":
            failures.append((rep.config, rep.counterexamples[:3]))
        if rep.elapsed_ms >= 60_000:
            failures.append((rep.config, f"too slow: {rep.elapsed_ms}ms"))
    line = announce(1, not failures,
                    f"{count} one-row configs, every class and exponent, "
                    f"worst config {worst_ms}ms")
    assert not failures, (line, failures)


def test_criterion_2_residue_slices_equal_induced_characters():
    failures = []
    count = 0
    for cfg in one_row_configs():
        count += 1
        rep = check_mod_e_induction(cfg)
        if rep.status != "pass":
            failures.append((rep.config, rep.counterexamples[:3]))
    # frozen reference table for the smallest config: two rotating
    # pairs inside the symmetric group on four letters, classes listed
    # in increasing order (1^4), (2,1,1), (2,2), (3,1), (4).  Both rows
    # are derived by hand from the character table of S_4:
    #
    #                 1^4  (2,1,1)  (2,2)  (3,1)  (4)
    #     chi^(4)      1      1       1      1     1
    #     chi^(3,1)    3      1      -1      0    -1
    #     chi^(2,2)    2      0       2     -1     0
    #
    # The graded character for mu = (2,2) is
    # chi^(4) + q chi^(3,1) + q^2 chi^(2,2), so the even slice (k = 0) is
    # chi^(4) + chi^(2,2) and the odd slice (k = 1) is chi^(3,1).
    # Frobenius induction from the extended subgroup
    # H = <(12), (34), (13)(24)> of order 8 gives the same rows:
    # Ind psi(g) = |C(g)|/8 * (sum of psi over H meet class(g)), where
    # psi is trivial for k = 0 and, for k = 1, trivial on the base
    # <(12), (34)> and -1 on the coset of (13)(24), the elements that
    # swap the two pairs.  For k = 1:
    #   1^4      the identity              24/8 * 1          =  3
    #   (2,1,1)  (12), (34) in the base     4/8 * (1 + 1)     =  1
    #   (2,2)    (12)(34) in the base,
    #            (13)(24), (14)(23) swap    8/8 * (1 - 1 - 1) = -1
    #   (3,1)    no element of H            0                 =  0
    #   (4)      (1324), (1423) swap        4/8 * (-1 - 1)    = -1
    g = springer_graded_char((2, 2))
    classes = list(partitions_of(4))[::-1]
    reference = {0: (3, 1, 3, 0, 1), 1: (3, 1, -1, 0, -1)}
    for k, expected in reference.items():
        got = tuple(g[rho].mod_sum(2, k) for rho in classes)
        if got != expected:
            failures.append(
                (f"reference row k={k}", f"expected {expected}, got {got}"))
    line = announce(2, not failures,
                    f"identity on {count} configs plus frozen reference table")
    assert not failures, (line, failures)


def test_criterion_3_induced_pair_traces_match_graded_character():
    failures = []
    count = 0
    for cfg in list(rotating_block_configs()) + list(regular_twist_configs()):
        count += 1
        rep = check_twisted_induction(cfg)
        if rep.status != "pass":
            failures.append((rep.config, rep.counterexamples[:3]))
        if rep.elapsed_ms >= 60_000:
            failures.append((rep.config, f"too slow: {rep.elapsed_ms}ms"))
    line = announce(3, not failures,
                    f"{count} configs, all classes, twist exponents and "
                    "primitive roots, zero tolerance")
    assert not failures, (line, failures)


def test_criterion_4_residue_components_share_one_dimension():
    failures = []
    count = 0
    for cfg in (list(one_row_configs()) + list(rotating_block_configs())
                + list(regular_twist_configs())):
        count += 1
        rep = check_component_dims(cfg)
        if rep.status != "pass":
            failures.append((rep.config, rep.counterexamples[:3]))
    # spot values: two rotating pairs, four rotating letters, and the
    # five-letter regular-twist config with a coinvariant pair
    spots = [
        (springer_graded_char((2, 2))[Partition((1,) * 4)], 2, 3),
        (springer_graded_char((1, 1, 1, 1))[Partition((1,) * 4)], 2, 12),
        (springer_graded_char((1,) * 5)[Partition((1,) * 5)], 3, 40),
    ]
    for poincare, e, expected in spots:
        dims = tuple(poincare.mod_sum(e, k) for k in range(e))
        if dims != (expected,) * e:
            failures.append((f"spot e={e}", f"dims {dims} != {expected}"))
    line = announce(4, not failures,
                    f"{count} configs, spot dimensions 3, 12, 40")
    assert not failures, (line, failures)


def test_criterion_5_closed_form_count_matches_census():
    failures = []
    seen_discrepancy = None
    count = 0
    for e in range(2, 9):
        for m in range(1, 9):
            if m * e > 8:
                continue
            count += 1
            rep = check_closed_form(m, e)
            if rep.status != "pass":
                failures.append((rep.config, rep.counterexamples[:3]))
            if (m, e) == (2, 2):
                seen_discrepancy = rep.notes
    expected_note = ("multiplicity reading differs on classes "
                     "[(4,), (1, 1, 1, 1)]")
    if seen_discrepancy is None or expected_note not in seen_discrepancy:
        failures.append(("discrepancy report", seen_discrepancy))
    line = announce(5, not failures,
                    f"parts reading verified on {count} configs; the "
                    "multiplicity reading's failure is reported where "
                    "it first appears")
    assert not failures, (line, failures)


def nu_multisets(n: int):
    seen = set()
    for kappa in partitions_of(n):
        pools = [list(partitions_of(k)) for k in kappa]
        for combo in product(*pools):
            key = tuple(sorted(map(tuple, combo), reverse=True))
            if key not in seen:
                seen.add(key)
                yield tuple(Partition(t) for t in key)


def test_criterion_6_ungraded_induction_at_one():
    failures = []
    count = 0
    for n in range(2, 8):
        for blocks in nu_multisets(n):
            count += 1
            rep = check_ungraded_induction(n, blocks)
            if rep.status != "pass":
                failures.append((n, blocks, rep.counterexamples[:3]))
    line = announce(6, not failures,
                    f"{count} block-type multisets across n <= 7")
    assert not failures, (line, failures)


def exceptional_spot_twists():
    """The catalog's three spot cases in the two big exceptional groups,
    built the way the catalog builds them: name -> (Levi, order-5 twist)."""
    five_cycle = from_cycles(5, (1, 2, 3, 4, 5))
    spots = {}
    for name, rank, pi_L, component, model in [
            ("E6 pi_L=(6,)", 6, (6,), ("A", 4), five_cycle),
            ("E7 pi_L=(6,7)", 7, (6, 7), ("A", 4), five_cycle),
            ("E7 pi_L=(7,)", 7, (7,), ("D", 5),
             regular_element("D", 5, 5, "a"))]:
        rs = build_root_system("E", rank)
        lv = levi_config(rs, pi_L)
        comp = [c for c in lv.components if c[:2] == component][0]
        spots[name] = (lv, embed_component_element(rs, comp, model))
    return spots


def test_criterion_7_regular_element_catalog():
    rep = check_regular_catalog()
    failures = []
    # every classical tail case and both small exceptional sweeps
    # verify; of the spot claims only the D5-type twist fails
    if rep.counterexamples != [("E7 pi_L=(7,)", 5, False, True)]:
        failures.append(("counterexamples", rep.counterexamples))
    if rep.elapsed_ms >= 120_000:
        failures.append(("too slow", f"{rep.elapsed_ms}ms"))
    # independent route, without eigenspaces: if the real orthogonal
    # twist a fixes a root beta, then for a zeta_5-eigenvector v,
    # <beta, v> = <a beta, a v> = zeta_5 <beta, v>, so <beta, v> = 0 and
    # no such v escapes beta's hyperplane.  The D5-type twist fixes
    # +-alpha_6 and +-(alpha_6 + alpha_7), two opposite pairs of
    # crossing roots; the two A4-type twists fix none.
    for name, (lv, a) in exceptional_spot_twists().items():
        fixed = {beta for beta in lv.crossing_roots() if apply(a, beta) == beta}
        want = set()
        if name == "E7 pi_L=(7,)":
            for coords in [(0, 0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1, 1)]:
                beta = lv.parent.ambient(coords)
                want |= {beta, tuple(-x for x in beta)}
        if fixed != want:
            failures.append((name, "fixed crossing roots", sorted(fixed)))
    line = announce(7, not failures,
                    f"{rep.config}, {rep.elapsed_ms}ms; counterexamples "
                    f"{rep.counterexamples}; fixed crossing roots checked "
                    "for the three exceptional spot twists")
    assert not failures, (line, failures, rep.notes)


def strip_growths(shape, size, bound):
    """Partitions reachable from shape by adding the given number of
    boxes, no two in one column, staying inside bound."""
    rows = len(bound)
    padded = tuple(shape) + (0,) * (rows - len(shape))

    def rec(i, prev_old, remaining, acc):
        if i == rows:
            if remaining == 0:
                yield tuple(x for x in acc if x)
            return
        old = padded[i]
        hi = min(bound[i], prev_old, old + remaining)
        for new in range(old, hi + 1):
            yield from rec(i + 1, old, remaining - (new - old), acc + (new,))

    yield from rec(0, 10 ** 9, size, ())


def kostka_count(lam, mu) -> int:
    """Column-strict fillings counted through chains of one-row growths,
    sharing no code with the charge route."""
    lam = tuple(lam)

    @lru_cache(maxsize=None)
    def grow(shape, step):
        if step == len(mu):
            return 1 if shape == lam else 0
        return sum(grow(nxt, step + 1)
                   for nxt in strip_growths(shape, mu[step], lam))

    return grow((), 0)


def test_criterion_8_combinatorial_cross_checks():
    failures = []
    for n in range(1, 8):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                if kostka_foulkes(lam, mu)(1) != kostka_count(lam, mu):
                    failures.append(("kostka", lam, mu))
        for mu in partitions_of(n):
            mass = sum(kostka_foulkes(lam, Partition((1,) * n))(1)
                       * kostka_foulkes(lam, mu)(1)
                       for lam in partitions_of(n))
            denom = math.prod(math.factorial(part) for part in mu)
            if mass != math.factorial(n) // denom:
                failures.append(("multinomial", mu))
    for n in range(1, 9):
        parts = list(partitions_of(n))
        table = {(lam, rho): char_sn(lam, rho)
                 for lam in parts for rho in parts}
        fact = math.factorial(n)
        for lam in parts:
            for mu in parts:
                tot = sum(class_size(rho) * table[(lam, rho)]
                          * table[(mu, rho)] for rho in parts)
                if tot != (fact if lam == mu else 0):
                    failures.append(("row orthogonality", lam, mu))
        for rho in parts:
            for sig in parts:
                tot = sum(table[(lam, rho)] * table[(lam, sig)]
                          for lam in parts)
                want = fact // class_size(rho) if rho == sig else 0
                if tot != want:
                    failures.append(("column orthogonality", rho, sig))
    # graded trace on the coinvariant algebra in product form, cleared
    # of denominators: g[rho] * prod(1-q^rho_i) = prod_{i<=n} (1-q^i)
    for n in range(1, 7):
        g = springer_graded_char((1,) * n)
        full = poly_product(*map(one_minus_power, range(1, n + 1)))
        for rho in partitions_of(n):
            lhs = poly_product(g[rho], *map(one_minus_power, rho))
            if lhs != full:
                failures.append(("coinvariant trace", rho))
    line = announce(8, not failures,
                    "Kostka counts n <= 7, orthogonality n <= 8, "
                    "coinvariant traces n <= 6")
    assert not failures, (line, failures)


def test_criterion_9_primitive_roots_agree():
    failures = []
    count = 0
    for cfg in one_row_configs():
        if cfg.e not in (4, 6):
            continue
        mu = cfg.merged_type()
        prim = [j for j in range(1, cfg.e) if math.gcd(j, cfg.e) == 1]
        for rho in partitions_of(cfg.n):
            base = green_at_root(mu, rho, cfg.e, prim[0])
            for j in prim[1:]:
                count += 1
                if green_at_root(mu, rho, cfg.e, j) != base:
                    failures.append((tuple(mu), tuple(rho), j))
    line = announce(9, not failures,
                    f"{count} comparisons across the order-4 and order-6 "
                    "configs")
    assert not failures, (line, failures)
