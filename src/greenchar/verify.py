"""Checkers for the graded induction identities.

Each check assembles both sides of one identity with exact arithmetic
and returns a structured report.  The left sides come from Green
polynomials of the merged Jordan type; the right sides from coset
counts, graded traces and induced residue characters, all read off the
census of each shifted coset (tallied from class sizes, no coset
walked, one table per orbit shape), or, for the ungraded identity
alone, from Frobenius induction over the enumerated block subgroup.
The graded traces are only ever read at e-th roots of unity or by
residue mod e, so each coset sum is kept folded mod q^e - 1, of degree
< e: one cyclic convolution of length e per orbit, no polynomial
product.  The root-of-unity, closed-form and residue checks compare on
integers by one rule (census_agrees), with no Fraction and no field
element made unless a counterexample is written (poly.cyclotomic_text).
The root-of-unity check descends by the Galois group of Q(zeta_e):
where the exponents j and gcd(j, e) share one census table, it compares
each class at one exponent per divisor of e, and it falls back to every
exponent and every primitive root where a table stands alone or a
comparison fails.  Twisted induction still compares in Q(zeta_e), at
every twist exponent, but at one primitive root: the trace at the j-th
root is sigma_j of the trace at the first, whatever the coset sums are,
so it needs no guard, and a trace that differs there differs at every
primitive root, each written as a counterexample.  It reads each class
by its cycle type: the Green values and the weight z_rho/|L| once per
class, each coset sum once per twist exponent, and one field element
times the weight per trace; no class representative is built.
"""

import math
import time
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

from .poly import (Cyclotomic, IntPolynomial, _reduce, cyclotomic_text,
                   eval_at_root, root_values)
from .symfun import (Partition, centralizer_order, partitions_of,
                     springer_graded_char)
from .symfun import closed_form_coset_count
from .weyl import (
    CosetCounts,
    InductionConfig,
    SubgroupTable,
    WeylElt,
    _config_echo,
    _require_regular_blocks,
    block_restriction,
    census_agrees,
    eigenspace,
    embed_component_element,
    induced_character,
    is_L_regular,
    levi_order,
    orbit_shape,
    pad,
    regular_element,
    rotating_config,
    shape_census,
    standard_block_config,
    trapping_roots,
    validate_config,
    young_subgroup,
)


# ---------------------------------------------------------------------------
# the extension of the block character to the twisted subgroup


def coset_sums(cfg: InductionConfig) -> list:
    """Entry i maps each cycle type to the sum of the graded traces
    Sigma_n Tr(z, component of degree n) q^n over the elements z of that
    type in the i-th shifted coset, folded mod q^e - 1 to degree < e,
    read from the table of its orbit shape and e (shape_sums), which
    exponents and configurations of one shape share.  Every reader takes
    the sums at e-th roots of unity or by residue mod e, where the fold
    changes nothing.  Entry 0 restricts to the ordinary product
    character of the block subgroup."""
    return [shape_sums(orbit_shape(cfg, i), cfg.e) for i in range(cfg.e)]


@lru_cache(maxsize=None)
def shape_sums(shape, e: int) -> dict:
    """Each cycle type's sum of trace polynomials over a coset of the
    given orbit shape, folded mod q^e - 1, one term per orbit profile of
    its census.  An element's trace is the product over its orbits of
    the block character of the return map's type at q^L, L the orbit
    length (Macdonald, Symmetric Functions and Hall Polynomials, I.7).
    In Z[q]/(q^e - 1) the coefficient of q^k of that character lands on
    q^(k L mod e), and the orbits' factors multiply by a cyclic
    convolution of length e; each profile's product is scaled by its
    census count.  The table is cached and shared; no caller may change
    it."""
    sums = {}
    for ctype, by_profile in shape_census(shape).items():
        total = [0] * e
        for profile, count in by_profile.items():
            term = {0: count}
            for length, inner_type, jtype in profile:
                out = {}
                for i, a in term.items():
                    for r, c in _folded_factor(jtype, inner_type, length, e):
                        k = (i + r) % e
                        out[k] = out.get(k, 0) + a * c
                term = out
            for k, a in term.items():
                total[k] += a
        sums[ctype] = IntPolynomial(total)
    return sums


@lru_cache(maxsize=None)
def _folded_factor(jtype, inner_type, length: int, e: int) -> tuple:
    """The nonzero (residue, coefficient) pairs of the block character of
    type jtype at inner_type, with q replaced by q^length, mod q^e - 1."""
    folded = [0] * e
    for k, c in enumerate(springer_graded_char(jtype)[inner_type].coeffs):
        folded[(k * length) % e] += c
    return tuple((r, c) for r, c in enumerate(folded) if c)


def extend_block_character(cfg: InductionConfig) -> list:
    """coset_sums of a validated configuration: blocks fixed by the twist
    keep their own graded character, rotating families carry the cyclic
    permutation action on the tensor product."""
    validate_config(cfg)
    return coset_sums(cfg)


def twisted_induction_trace(cfg: InductionConfig, w: WeylElt, i: int,
                            j_root: int = 1) -> Cyclotomic:
    """Trace of the commuting pair (i-th twist, w) on the induced graded
    module, with the grading read through the j_root-th primitive root.

    Computed without touching the big group: the trace localizes to the
    cosets x with x^-1 w x in the i-th shifted coset, and those are
    counted by the centralizer weight.
    """
    e = cfg.e
    key = w.cycle_type()
    poly = coset_sums(cfg)[i % e].get(key, IntPolynomial())
    weight = Fraction(centralizer_order(key), levi_order(cfg))
    return eval_at_root(poly, e, (j_root * i) % e) * weight


# ---------------------------------------------------------------------------
# reports


class VerificationReport:
    def __init__(self, *, check, config, status, counterexamples, elapsed_ms,
                 notes=""):
        self.check, self.config, self.status = check, config, status
        self.counterexamples, self.elapsed_ms = counterexamples, elapsed_ms
        self.notes = notes

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def _finish(check: str, config: str, counterexamples, t0: float,
            notes: str = "") -> VerificationReport:
    status = "pass" if not counterexamples else "fail"
    return VerificationReport(check=check, config=config, status=status,
                              counterexamples=list(counterexamples),
                              elapsed_ms=(time.perf_counter() - t0) * 1000.0,
                              notes=notes)


def _primitive_exponents(e: int):
    return [j for j in range(1, e) if math.gcd(j, e) == 1] or [0]


# ---------------------------------------------------------------------------
# the checks


def check_twisted_induction(cfg: InductionConfig) -> VerificationReport:
    """Pair traces on the induced graded module against the graded
    character of the merged type, for every class, twist exponent, and
    primitive root.

    Each class is read by its cycle type rho: its Green values at every
    power of the root and its weight z_rho/|L| once.  Galois descent:
    for j prime to e, the automorphism sigma_j of Q(zeta_e) sends
    p(zeta^i) to p(zeta^(j i)) for an integer polynomial p (Washington,
    Introduction to Cyclotomic Fields, Thm. 2.5), and both sides at
    (i, j) are integer polynomials at zeta^(j i), one of them times a
    rational weight.  So the comparison at (i, j) is sigma_j of the one
    at (i, 1), and sigma_j is injective: the i-th coset sum at the power
    i of the root, times the weight, equal to the Green value there
    settles every primitive j, whatever the coset sums are, and no table
    needs to be shared (for e = 1 the only j is 0, the same comparison).
    Where it differs, it differs at every primitive j, and each j is
    written as a counterexample, the coset sum at the powers (j i) mod e
    in one call, in the order of the full comparison."""
    t0 = time.perf_counter()
    sums_by_exponent = extend_block_character(cfg)
    mu = cfg.merged_type()
    g = springer_graded_char(mu)
    e = cfg.e
    order = levi_order(cfg)
    primitive = _primitive_exponents(e)
    none = IntPolynomial()
    bad = []
    classes = partitions_of(cfg.n)
    for rho in classes:
        green = root_values(g[rho], e, range(e))
        weight = Fraction(centralizer_order(rho), order)
        for i, sums in enumerate(sums_by_exponent):
            poly = sums.get(rho, none)
            coords, = root_values(poly, e, (i,))
            if Cyclotomic(e, coords) * weight == Cyclotomic(e, green[i]):
                continue
            powers = [(j * i) % e for j in primitive]
            for j, k, coords in zip(primitive, powers,
                                    root_values(poly, e, powers)):
                lhs = Cyclotomic(e, coords) * weight
                bad.append((tuple(rho), (i, j), str(lhs),
                            str(Cyclotomic(e, green[k]))))
    tried = len(classes) * e * len(primitive)
    notes = f"merged type {tuple(mu)}; {tried} traces compared"
    return _finish("twisted-induction", _config_echo(cfg), bad, t0, notes)


def check_component_dims(cfg: InductionConfig) -> VerificationReport:
    """The graded pieces cut out mod e all have one dimension, equal to
    the subgroup index times the block module dimension."""
    t0 = time.perf_counter()
    validate_config(cfg)
    mu = cfg.merged_type()
    poincare = springer_graded_char(mu)[Partition((1,) * cfg.n)]
    dims = [poincare.mod_sum(cfg.e, k) for k in range(cfg.e)]
    block_dim = 1
    for jtype in cfg.block_types:
        block_dim *= springer_graded_char(jtype)[
            Partition((1,) * jtype.size)](1)
    index = Fraction(math.factorial(cfg.n), levi_order(cfg) * cfg.e)
    expected = index * block_dim
    bad = []
    for k, d in enumerate(dims):
        if d != expected:
            bad.append(((1,) * cfg.n, k, d, str(expected)))
    notes = f"dims per residue {tuple(dims)}, expected {expected}"
    return _finish("component-dims", _config_echo(cfg), bad, t0, notes)


def check_roots_of_unity(cfg: InductionConfig) -> VerificationReport:
    """Green polynomial values at each power of the root against exact
    coset counts, compared as integers by CosetCounts, plus invariance
    under the choice of primitive root (coordinate tuples compared).

    Galois descent: for t prime to e, the automorphism sigma_t of
    Q(zeta_e) sends p(zeta^j) to p(zeta^(t j)) for an integer
    polynomial p (Washington, Introduction to Cyclotomic Fields,
    Thm. 2.5), and each exponent j is t d for some such t, d being its
    representative gcd(j, e) mod e.  So when every exponent reads the
    counts of its representative (one CosetCounts dict, shared because
    coset_census gave one table), a rational value equal to its count
    at each representative settles every exponent and every primitive
    root: one comparison per divisor of e and class.  Where an exponent
    has a table of its own, or a representative fails, every exponent
    and primitive root is compared, so that the counterexamples and
    their order are those of the full comparison."""
    t0 = time.perf_counter()
    _require_regular_blocks(cfg)
    validate_config(cfg)
    mu = cfg.merged_type()
    g = springer_graded_char(mu)
    e = cfg.e
    counts = CosetCounts(cfg, range(e))
    classes = partitions_of(cfg.n)
    bad = []
    if not _settled_by_descent(g, e, counts, classes):
        primitive = _primitive_exponents(e)
        for rho in classes:
            values = root_values(g[rho], e, range(e))
            scaled_counts = counts.scaled(rho)
            for j, (value, scaled) in enumerate(zip(values, scaled_counts)):
                if not counts.agrees(value, scaled):
                    bad.append((tuple(rho), j, cyclotomic_text(e, value),
                                counts.text(scaled)))
                for t in primitive:
                    other = values[(t * j) % e]
                    if other != value:
                        bad.append((tuple(rho), (j, t),
                                    cyclotomic_text(e, value),
                                    cyclotomic_text(e, other)))
    return _finish("roots-of-unity", _config_echo(cfg), bad, t0,
                   f"merged type {tuple(mu)}")


def _settled_by_descent(g, e: int, counts: CosetCounts, classes) -> bool:
    """Whether every exponent shares the counts of its representative
    gcd(j, e) mod e, and each class's value at each representative is
    its count there (census_agrees pads the count with zeros, so the
    value must be rational)."""
    tables = counts.by_exponent
    representatives = [math.gcd(j, e) % e for j in range(e)]
    if any(table is not tables[d]
           for table, d in zip(tables, representatives)):
        return False
    divisors = sorted(set(representatives))
    for rho in classes:
        for d, value in zip(divisors, root_values(g[rho], e, divisors)):
            if not counts.agrees(value, tables[d].get(rho, 0)):
                return False
    return True


def _check_residue_induction(check: str, cfg: InductionConfig, t0: float,
                             detail: str = "") -> VerificationReport:
    """Each residue slice of the merged graded character against the
    induced residue character of the validated configuration, compared
    on integers.

    The induced value at (rho, k) is z_rho/(e |L|) times the sum over i
    of zeta^(-k i) times coset_sums[i] at zeta^i: the coset sums are
    folded mod q^e - 1, so the coefficient of q^r in coset_sums[i] lands
    in bucket i (r - k) mod e, and the buckets reduce mod Phi_e to
    integer coordinates c.  The slice s agrees when e |L| s = z_rho c,
    s padded with zeros (census_agrees); nothing is divided."""
    e = cfg.e
    mu = cfg.merged_type()
    g = springer_graded_char(mu)
    sums = coset_sums(cfg)
    order = e * levi_order(cfg)
    none = IntPolynomial()
    # per class: z_rho, the slices of g_rho and the folded coset sums
    rows = [(rho, centralizer_order(rho),
             [g[rho].mod_sum(e, r) for r in range(e)],
             [s.get(rho, none).coeffs for s in sums])
            for rho in partitions_of(cfg.n)]
    bad = []
    for k in range(e):
        for rho, z, slices, folded in rows:
            buckets = [0] * e
            for i, by_residue in enumerate(folded):
                for r, c in enumerate(by_residue):
                    if c:
                        buckets[(i * (r - k)) % e] += c
            coords = _reduce(e, buckets)
            if not census_agrees(order, (slices[k],), z, coords):
                value = [Fraction(z * c, order) for c in coords]
                bad.append((tuple(rho), k, slices[k],
                            cyclotomic_text(e, value) if any(coords[1:])
                            else str(value[0])))
    return _finish(check, _config_echo(cfg), bad, t0,
                   f"{detail}merged type {tuple(mu)}")


def check_mod_e_induction(cfg: InductionConfig) -> VerificationReport:
    """Sums of Betti-graded character coefficients in each residue class
    against the induced linear characters of the extended subgroup."""
    t0 = time.perf_counter()
    _require_regular_blocks(cfg)
    validate_config(cfg)
    return _check_residue_induction("mod-e-induction", cfg, t0)


def check_component_induction(cfg: InductionConfig) -> VerificationReport:
    """General block type on the distinguished fixed block: each residue
    piece against induction of the twist character tensored with the
    graded pieces of the block character."""
    t0 = time.perf_counter()
    tag = validate_config(cfg)
    if tag != "l-regular":
        raise ValueError(f"check needs the regular-eigenvector shape, got {tag}")
    if cfg.a.support() & set(cfg.blocks[-1]):
        raise ValueError("twist must fix the distinguished block")
    return _check_residue_induction("component-induction", cfg, t0,
                                    f"block type {tuple(cfg.block_types[-1])}, ")


def check_ungraded_induction(n: int, block_types) -> VerificationReport:
    """With no twist at all, the character of the full fiber cohomology
    at q = 1 is induced from the product of the block characters."""
    t0 = time.perf_counter()
    cfg = rotating_config(1, [Partition(t) for t in block_types])
    if cfg.n != n:
        raise ValueError("block types must fill all the letters")
    blocks, types, mu = cfg.blocks, cfg.block_types, cfg.merged_type()
    g = springer_graded_char(mu)
    table = SubgroupTable(young_subgroup(blocks))
    block_chars = [springer_graded_char(t) for t in types]

    def evaluate(y):
        total = 1
        for block, chars in zip(blocks, block_chars):
            total *= chars[block_restriction(y, block).cycle_type()](1)
        return total

    ind = induced_character(table, evaluate)
    bad = []
    for rho in partitions_of(n):
        lhs = g[rho](1)
        rhs = ind[rho]
        if lhs != rhs:
            bad.append((tuple(rho), 0, lhs, str(rhs)))
    config = f"n={n} blocks={tuple(blocks)} types={tuple(tuple(t) for t in types)}"
    return _finish("ungraded-induction", config, bad, t0,
                   f"merged type {tuple(mu)}")


def check_closed_form(m: int, e: int) -> VerificationReport:
    """Both readings of the closed-form coset count against the literal
    census over e equal one-row blocks.

    The count is e^(number of parts) when every part of the class is
    divisible by e, else zero; reading the divisibility off the part
    multiplicities instead sounds plausible but disagrees with the
    census, first at m = e = 2.  The parts reading must match; where
    the multiplicity reading deviates, the classes go in the notes."""
    t0 = time.perf_counter()
    cfg = standard_block_config(m, e)
    counts = CosetCounts(cfg, (1,))
    bad = []
    off = []
    for rho in partitions_of(cfg.n):
        scaled, = counts.scaled(rho)
        parts_val = closed_form_coset_count(m, e, rho, "parts")
        if not counts.agrees((parts_val,), scaled):
            bad.append((tuple(rho), 1, parts_val, counts.text(scaled)))
        if not counts.agrees(
                (closed_form_coset_count(m, e, rho, "multiplicity"),), scaled):
            off.append(tuple(rho))
    lead = "parts reading matches the census" if not bad else \
        "parts reading fails the census"
    if off:
        notes = f"{lead}; multiplicity reading differs on classes {off}"
    else:
        notes = f"{lead}; multiplicity reading agrees everywhere"
    return _finish("closed-form-count", f"m={m} e={e}", bad, t0, notes)


# family, ranks, letters beyond the rank, smallest tail block, odd e only:
# type A of rank r acts on r + 1 letters, B and D of rank r on r letters
_TAIL_FAMILIES = (("A", range(2, 8), 1, 1, False),
                  ("B", range(3, 7), 0, 1, True),
                  ("D", range(4, 7), 0, 2, True))


def _classical_tail_cases():
    """(family, rank, levi labels, twist, e) for the same-type tail
    subgroups with a catalog twist on the free letters: the Levi is the
    tail of m letters, and the twist is the type A catalog element on
    the other letters."""
    cases = []
    for family, ranks, extra, min_m, odd in _TAIL_FAMILIES:
        for rank in ranks:
            n = rank + extra
            for m in range(min_m, n - 1):
                free = n - m
                for e in range(3 if odd else 2, free + 1, 2 if odd else 1):
                    if free % e == 0:
                        a = pad(regular_element("A", free - 1, e), n)
                        cases.append((family, rank,
                                      tuple(range(n - m + 1, rank + 1)), a, e))
    return cases


# family, rank, Levi labels, component type and e of the spot claims of
# L-regularity for the catalog twist of one Levi component
_EXCEPTIONAL_SPOTS = (("E", 6, (6,), ("A", 4), 5),
                      ("E", 7, (6, 7), ("A", 4), 5),
                      ("E", 7, (7,), ("D", 5), 5))


def check_regular_catalog(family: str | None = None,
                          rank: int | None = None) -> VerificationReport:
    """Regularity of the catalog elements relative to parabolic
    subgroups: classical tail families must pass, the two small
    exceptional groups must yield nothing, and each spot claim of
    L-regularity in the two big exceptional groups is tested, a false
    one being reported as a counterexample.

    family (in either case) and rank restrict the run to one slice of
    the catalog; a slice with no case in it is refused."""
    from .rootsys import build_root_system, levi_config
    t0 = time.perf_counter()
    if family is not None:
        family = family.upper()

    def wanted(fam: str, rk: int) -> bool:
        return ((family is None or fam == family)
                and (rank is None or rk == rank))

    bad = []
    tried = 0
    for fam, rk, pi_L, a, e in _classical_tail_cases():
        if not wanted(fam, rk):
            continue
        rs = build_root_system(fam, rk)
        lv = levi_config(rs, pi_L)
        tried += 1
        if not is_L_regular(a, e, lv):
            bad.append((f"{fam}{rk} pi_L={pi_L}", e, False, True))

    def model_regulars(rk):
        """The catalog twists of A_rk of each order e from 2 to rk + 1,
        with e; G2 and F4 leave only type A components beside a Levi."""
        for e, variant in product(range(2, rk + 2), "ab"):
            try:
                twist = regular_element("A", rk, e, variant)
            except ValueError:  # the catalog has no such twist
                continue
            yield twist, e

    swept = []
    for fam, rk in [fr for fr in (("G", 2), ("F", 4)) if wanted(*fr)]:
        rs = build_root_system(fam, rk)
        levis = [levi_config(rs, pi_L) for size in range(1, rk)
                 for pi_L in combinations(range(1, rk + 1), size)]
        components = sum(len(lv.components) for lv in levis)
        swept.append(f"{fam}{rk}: {len(levis)} Levis, "
                     f"{components} components swept")
        for lv in levis:
            for comp in lv.components:
                for model_elt, e in model_regulars(comp[1]):
                    a = embed_component_element(rs, comp, model_elt)
                    tried += 1
                    if is_L_regular(a, e, lv):
                        bad.append((f"{fam}{rk} pi_L={lv.pi_L}", e,
                                    True, False))
    notes = []
    for fam, rk, pi_L, ctype, e in _EXCEPTIONAL_SPOTS:
        if not wanted(fam, rk):
            continue
        rs = build_root_system(fam, rk)
        lv = levi_config(rs, pi_L)
        comp = next(c for c in lv.components if c[:2] == ctype)
        a = embed_component_element(rs, comp, regular_element(*ctype, e))
        tried += 1
        if not is_L_regular(a, e, lv):
            name = f"{fam}{rk} pi_L={pi_L}"
            bad.append((name, e, False, True))
            trapped = [rs.coords(beta) for beta in trapping_roots(
                rs, eigenspace(a, e), lv.crossing_roots())]
            notes.append(f"{name}: the zeta_{e}-eigenspace lies on the "
                         f"hyperplanes of the crossing roots {trapped} "
                         "(simple-root coordinates)")
    if not tried and not swept:
        selection = " ".join(f"{name}={value}" for name, value in
                             (("family", family), ("rank", rank))
                             if value is not None)
        raise ValueError(f"no regular-catalog case matches {selection}")
    if family is not None and swept and not bad:
        notes = ["no L-regular elements"]
    return _finish("regular-catalog", f"{tried} cases", bad, t0,
                   "; ".join(notes + swept))


ALL_CHECKS = {
    "twisted-induction": check_twisted_induction,
    "component-dims": check_component_dims,
    "roots-of-unity": check_roots_of_unity,
    "mod-e-induction": check_mod_e_induction,
    "component-induction": check_component_induction,
    "ungraded-induction": check_ungraded_induction,
    "closed-form-count": check_closed_form,
    "regular-catalog": check_regular_catalog,
}
