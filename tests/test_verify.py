"""Trace formula, explicit module model, and the report-producing checks.

Frozen numbers come from hand coset censuses (written out next to the
asserts) and from the explicit matrix model, which multiplies actual
matrices and so knows nothing about Green polynomials.  The report
tests pin down the exact pass/fail shape of every check on a spread of
small configurations.
"""

import weakref
from collections import Counter
from fractions import Fraction
from itertools import chain
from math import gcd
from types import MappingProxyType

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from greenchar import symfun, verify, weyl
from greenchar.cli import main
from greenchar.poly import Cyclotomic, IntPolynomial, eval_at_root
from greenchar.symfun import (
    Partition,
    centralizer_order,
    partitions_of,
    springer_graded_char,
)
from greenchar.weyl import (
    InductionConfig,
    InvalidConfigError,
    WeylElt,
    block_restriction,
    coset_count,
    coset_elements,
    from_cycles,
    identity_elt,
    induced_character,
    l_regular_config,
    levi_elements,
    orbit_shape,
    standard_block_config,
    validate_config,
)
from greenchar.verify import (
    ALL_CHECKS,
    _classical_tail_cases,
    _config_echo,
    check_closed_form,
    check_component_dims,
    check_component_induction,
    check_mod_e_induction,
    check_regular_catalog,
    check_roots_of_unity,
    check_twisted_induction,
    check_ungraded_induction,
    twisted_induction_trace,
)

from oracles import (
    all_exponent_roots_of_unity,
    all_primitive_twisted_induction,
    block_shift_element,
    class_representative,
    coset_character,
    coset_exponent,
    extended_subgroup,
    fold,
    fraction_closed_form,
    fraction_component_induction,
    fraction_mod_e_induction,
    fraction_roots_of_unity,
    induced_residues as _induced_residues,
    model_twisted_trace,
    orbit_profile,
    polynomial_shape_sums,
    representative_twisted_induction,
    trace_poly,
)
from layouts import block_layouts
from test_acceptance import (
    one_row_configs,
    regular_twist_configs,
    rotating_block_configs,
)
from test_weyl import load_perfbench, pool_configs


def two_blocks(nu):
    return standard_block_config(2, 2, nu=Partition(nu))


def as_int(value):
    assert value.is_rational
    frac = value.as_fraction()
    assert frac.denominator == 1
    return frac.numerator


# ---------------------------------------------------------------------------
# the trace formula on pairs


def test_trace_census_two_trivial_blocks():
    # S_4 over S_2 x S_2, twist a = (13)(24).  The shifted coset a*L has
    # four elements: (13)(24), (1423), (1324), (14)(23), so cycle types
    # (2,2) and (4) twice each.  Weights |C(w)| / |L| are 8/4 and 4/4.
    cfg = two_blocks((2,))
    w22 = from_cycles(4, (1, 2), (3, 4))
    w4 = from_cycles(4, (1, 2, 3, 4))
    assert as_int(twisted_induction_trace(cfg, w22, 1)) == 4
    assert as_int(twisted_induction_trace(cfg, w4, 1)) == 2
    # plain coset: 2 of type (2,2) (identity excluded), 1 of each flip
    assert as_int(twisted_induction_trace(cfg, w22, 0)) == 2
    assert as_int(twisted_induction_trace(cfg, w4, 0)) == 0
    assert as_int(twisted_induction_trace(cfg, identity_elt(4), 0)) == 6
    assert as_int(twisted_induction_trace(cfg, identity_elt(4), 1)) == 0


def test_trace_vanishes_without_matching_class():
    # no element of cycle type (2,1,1) lies in either coset of a*L, so
    # the trace is 0 regardless of the extension values
    w = from_cycles(4, (1, 2))
    for nu in [(2,), (1, 1)]:
        assert as_int(twisted_induction_trace(two_blocks(nu), w, 1)) == 0


def test_trace_census_coinvariant_blocks():
    cfg = two_blocks((1, 1))
    # dimension 6 * 4 = 24 at the identity, and the twisted layer kills
    # it: the graded shift distributes the 24 evenly over both residues
    assert as_int(twisted_induction_trace(cfg, identity_elt(4), 0)) == 24
    assert as_int(twisted_induction_trace(cfg, identity_elt(4), 1)) == 0
    w22 = from_cycles(4, (1, 2), (3, 4))
    assert as_int(twisted_induction_trace(cfg, w22, 0)) == 0
    assert as_int(twisted_induction_trace(cfg, w22, 1)) == 8


# ---------------------------------------------------------------------------
# the extension itself


def test_extension_layer_polynomials():
    cfg = two_blocks((1, 1))
    a = cfg.a
    assert a.perm == (3, 4, 1, 2)
    # the a-orbit glues the two rank-one coinvariant blocks: per-block
    # character 1 + q of the return map (identity), q replaced by q^2
    assert trace_poly(cfg, a).coeffs == (1, 0, 1)
    assert orbit_profile(cfg, a) == ((2, (1, 1), (1, 1)),)
    # untwisted layer restricts to the product character
    assert trace_poly(cfg, identity_elt(4)).coeffs == (1, 2, 1)
    trivial = two_blocks((2,))
    assert trace_poly(trivial, trivial.a).coeffs == (1,)


# ---------------------------------------------------------------------------
# the matrix model as an independent oracle


@pytest.mark.parametrize("nu", [(2,), (1, 1)])
def test_model_matches_trace_formula_two_blocks(nu):
    cfg = two_blocks(nu)
    for rho in partitions_of(4):
        w = class_representative(rho)
        for i in range(2):
            fast = twisted_induction_trace(cfg, w, i)
            assert model_twisted_trace(cfg, w, i) == fast


def test_model_matches_trace_formula_regular_twist():
    # order-3 twist on three free letters, fixed block of type (2,);
    # both primitive cube roots exercised
    cfg = l_regular_config(5, 2, 3)
    for rho in partitions_of(5):
        w = class_representative(rho)
        for i in range(3):
            for j in (1, 2):
                fast = twisted_induction_trace(cfg, w, i, j)
                assert model_twisted_trace(cfg, w, i, j) == fast


def test_model_size_guard():
    cfg = standard_block_config(2, 3, nu=Partition((1, 1)))
    with pytest.raises(ValueError, match="model too large"):
        model_twisted_trace(cfg, identity_elt(6), 0)


# ---------------------------------------------------------------------------
# degree slices


def test_mod_e_slice_values():
    p = IntPolynomial((1, 2, 3, 4, 5))
    assert p.mod_sum(2, 0) == 9
    assert p.mod_sum(2, 1) == 6
    assert p.mod_sum(3, 0) == 5
    assert p.mod_sum(1, 0) == 15


@pytest.mark.parametrize("mu,e", [((2, 2), 2), ((2, 1, 1), 2),
                                  ((2, 2, 1), 3), ((1, 1, 1, 1), 4)])
def test_slice_equals_root_average(mu, e):
    # picking out a residue class of degrees is the same as averaging
    # the evaluations at all e-th roots against the inverse character
    g = springer_graded_char(Partition(mu))
    for rho in partitions_of(Partition(mu).size):
        p = g[rho]
        for k in range(e):
            total = Cyclotomic.zeta(e, 0) * 0
            for i in range(e):
                total = total + eval_at_root(p, e, i) * Cyclotomic.zeta(e, (-k * i) % e)
            avg = total * Fraction(1, e)
            assert avg.is_rational
            assert avg.as_fraction() == p.mod_sum(e, k)


def test_class_representative_types():
    for rho in partitions_of(6):
        assert class_representative(rho).cycle_type() == rho


# ---------------------------------------------------------------------------
# the checks, frozen pass/fail shape

CONFIGS = {
    "two trivial blocks": two_blocks((2,)),
    "two coinvariant blocks": two_blocks((1, 1)),
    "regular twist, block (2,)": l_regular_config(5, 2, 3),
    "regular twist, block (1,1)": l_regular_config(5, 2, 3, nu=Partition((1, 1))),
    "fixed pair and rotating pair": standard_block_config(2, 2, fixed_size=2),
    "fixed letter and rotating pair": standard_block_config(2, 2, fixed_size=1),
}


@pytest.mark.parametrize("tag", list(CONFIGS))
def test_twisted_induction_check_passes(tag):
    # the two mixed configurations have merged types (2,2,2) and
    # (2,2,1), hitting the Kostka entries frozen in test_symfun
    report = check_twisted_induction(CONFIGS[tag])
    assert report.passed
    assert report.status == "pass"
    assert report.counterexamples == []


@pytest.mark.parametrize("tag", list(CONFIGS))
def test_trace_matches_per_element_horner(tag):
    # reference route: evaluate each element's own trace polynomial by
    # Horner's rule at the root and sum over the matching coset elements
    cfg = CONFIGS[tag]
    e = cfg.e
    order = len(coset_elements(cfg, 0))
    for rho in partitions_of(cfg.n):
        w = class_representative(rho)
        for i in range(e):
            for j in range(e):
                point = Cyclotomic.zeta(e, j * i)
                total = Cyclotomic.zeta(e, 0) * 0
                for z in coset_elements(cfg, i):
                    if z.cycle_type() == rho:
                        total = total + trace_poly(cfg, z)(point)
                expected = total * Fraction(centralizer_order(rho), order)
                assert twisted_induction_trace(cfg, w, i, j) == expected, \
                    (rho, i, j)


def test_twisted_induction_notes():
    report = check_twisted_induction(two_blocks((2,)))
    assert report.notes == "merged type (2, 2); 10 traces compared"
    assert report.config == "n=4 e=2 blocks=((1, 2), (3, 4)) types=(2,2)"
    mixed = check_twisted_induction(standard_block_config(2, 2, fixed_size=2))
    assert mixed.notes == "merged type (2, 2, 2); 22 traces compared"


@pytest.mark.parametrize("tag,dims", [
    ("two trivial blocks", (3, 3)),
    ("two coinvariant blocks", (12, 12)),
    ("regular twist, block (2,)", (20, 20, 20)),
    ("regular twist, block (1,1)", (40, 40, 40)),
    ("fixed pair and rotating pair", (45, 45)),
    ("fixed letter and rotating pair", (15, 15)),
])
def test_component_dims_rows(tag, dims):
    report = check_component_dims(CONFIGS[tag])
    assert report.passed
    assert report.notes == (f"dims per residue {dims}, "
                            f"expected {dims[0]}")


@pytest.mark.parametrize("check", [check_roots_of_unity, check_mod_e_induction])
def test_value_checks_pass_on_regular_blocks(check):
    for tag in ["two trivial blocks", "regular twist, block (2,)",
                "fixed pair and rotating pair", "fixed letter and rotating pair"]:
        report = check(CONFIGS[tag])
        assert report.passed, tag
        assert report.counterexamples == []


@pytest.mark.parametrize("check", [check_roots_of_unity, check_mod_e_induction])
def test_value_checks_need_one_row_blocks(check):
    with pytest.raises(ValueError, match=r"one-row Jordan type.*got \(1, 1\)"):
        check(two_blocks((1, 1)))


def test_component_induction_rows():
    report = check_component_induction(CONFIGS["regular twist, block (2,)"])
    assert report.passed
    assert report.notes == "block type (2,), merged type (2, 1, 1, 1)"
    report = check_component_induction(CONFIGS["regular twist, block (1,1)"])
    assert report.passed
    assert report.notes == "block type (1, 1), merged type (1, 1, 1, 1, 1)"


def test_component_induction_preconditions():
    with pytest.raises(ValueError, match="regular-eigenvector shape"):
        check_component_induction(two_blocks((2,)))
    # with m = 1 the catalog twist moves every letter, including the
    # distinguished block, so the restriction step is undefined
    with pytest.raises(ValueError, match="fix the distinguished block"):
        check_component_induction(l_regular_config(4, 1, 2))


# ---------------------------------------------------------------------------
# the census route against the enumerative oracles


@pytest.mark.parametrize("cfg", list(one_row_configs()), ids=_config_echo)
def test_census_route_matches_enumeration_on_one_row_blocks(cfg):
    # coset counts against a walk of the coset itself, and the mod-e
    # right side against Frobenius induction of the coset characters
    # over the explicit extended subgroup, element by element
    order = len(levi_elements(cfg))
    for j in range(cfg.e):
        coset = coset_elements(cfg, j)
        for rho in partitions_of(cfg.n):
            hits = sum(1 for y in coset if y.cycle_type() == rho)
            assert coset_count(class_representative(rho), cfg, j) == \
                Fraction(centralizer_order(rho) * hits, order), (rho, j)
    rhs = _induced_residues(cfg)
    for k in range(cfg.e):
        ind = induced_character(extended_subgroup(cfg), coset_character(cfg, k))
        for rho in partitions_of(cfg.n):
            assert rhs[rho, k] == ind[rho], (rho, k)
            assert type(rhs[rho, k]) is type(ind[rho])


@pytest.mark.parametrize("cfg", [cfg for cfg in regular_twist_configs()
                                 if not cfg.a.support() & set(cfg.blocks[-1])],
                         ids=_config_echo)
def test_census_route_matches_per_element_evaluator(cfg):
    # each extended element y = a^i h weighted by zeta^(-k i) times the
    # graded character of h on the distinguished block, at zeta^i
    e = cfg.e
    distinguished = cfg.blocks[-1]
    g_block = springer_graded_char(cfg.block_types[-1])
    rhs = _induced_residues(cfg)
    for k in range(e):
        def evaluate(y):
            i = coset_exponent(cfg, y)
            h = (cfg.a ** (-i)) @ y
            poly = g_block[block_restriction(h, distinguished).cycle_type()]
            return eval_at_root(poly, e, i) * Cyclotomic.zeta(e, -k * i)

        ind = induced_character(extended_subgroup(cfg), evaluate)
        for rho in partitions_of(cfg.n):
            assert rhs[rho, k] == ind[rho], (rho, k)


# ---------------------------------------------------------------------------
# the integer root-of-unity comparison against its Fraction route


def reported(report):
    return report.counterexamples, report.notes


@pytest.mark.parametrize("cfg", list(one_row_configs()), ids=_config_echo)
def test_roots_of_unity_matches_fraction_route(cfg):
    report = check_roots_of_unity(cfg)
    assert report.passed
    assert reported(report) == fraction_roots_of_unity(cfg)


@pytest.mark.parametrize("m,e", [(m, e) for m in range(1, 9)
                                 for e in range(1, 9) if m * e <= 8])
def test_closed_form_matches_fraction_route(m, e):
    bad, off = fraction_closed_form(m, e)
    report = check_closed_form(m, e)
    assert report.counterexamples == bad
    assert report.notes.endswith(
        f"differs on classes {off}" if off else "agrees everywhere")


@st.composite
def one_row_shapes(draw):
    """Rotating families after an optional fixed block, or one block
    beside a catalog twist, on at most 9 letters; some are inadmissible."""
    e = draw(st.integers(1, 5))
    if draw(st.booleans()):
        m = draw(st.integers(1, max(1, 9 // e)))
        fixed = draw(st.integers(0, max(0, 9 - m * e)))
        return standard_block_config(m, e, fixed_size=fixed)
    n = draw(st.integers(2, 9))
    try:
        return l_regular_config(n, draw(st.integers(1, n - 1)), e,
                                variant=draw(st.sampled_from("ab")))
    except ValueError:
        assume(False)


def outcome(route, *args):
    try:
        return route(*args)
    except ValueError as exc:
        return type(exc), str(exc)


@settings(max_examples=60, deadline=None)
@given(cfg=one_row_shapes())
def test_roots_of_unity_matches_fraction_route_on_drawn_shapes(cfg):
    library = outcome(lambda c: reported(check_roots_of_unity(c)), cfg)
    assert library == outcome(fraction_roots_of_unity, cfg)


def flip_green_coefficient(monkeypatch, mu, rho, e):
    """Negate the top coefficient of the Green polynomial of (mu, rho) in
    a degree prime to e, so that the values at the primitive roots turn
    irrational; the library and the Fraction route both see it."""
    original = springer_graded_char
    table = dict(original(mu))
    coeffs = list(table[rho].coeffs)
    k = max(i for i, c in enumerate(coeffs) if c and gcd(i, e) == 1)
    coeffs[k] = -coeffs[k]
    table[rho] = IntPolynomial(coeffs)
    flipped = MappingProxyType(table)
    for module in (symfun, verify):
        monkeypatch.setattr(module, "springer_graded_char", lambda nu: (
            flipped if Partition(nu) == mu else original(nu)))


def flip_census_count(monkeypatch, cfg, j, rho):
    """Negate one count of the census of cfg's j-th shifted coset at the
    cycle type rho; the cached table itself stays as it was."""
    original = weyl.coset_census

    def census(c, i):
        table = original(c, i)
        if (c, i) != (cfg, j):
            return table
        table = {key: Counter(value) for key, value in table.items()}
        profile = next(iter(table[rho]))
        table[rho][profile] = -table[rho][profile]
        return table
    monkeypatch.setattr(weyl, "coset_census", census)


@pytest.mark.parametrize("cfg", [
    standard_block_config(2, 2), standard_block_config(2, 3),
    standard_block_config(1, 3, fixed_size=2),
    standard_block_config(1, 4, fixed_size=2), l_regular_config(5, 2, 3),
    standard_block_config(1, 6, fixed_size=1),
], ids=_config_echo)
def test_roots_of_unity_fails_like_fraction_route_on_a_flip(monkeypatch, cfg):
    # a Green coefficient of the identity class, then one count of each
    # shifted coset in turn: 0, the divisors of e, which Galois descent
    # compares, and the exponents they stand for
    with monkeypatch.context() as patch:
        flip_green_coefficient(patch, cfg.merged_type(),
                               Partition((1,) * cfg.n), cfg.e)
        bad, _ = fraction_roots_of_unity(cfg)
        # with e = 2 the one primitive exponent leaves every value fixed
        galois = [index for _, index, _, _ in bad if isinstance(index, tuple)]
        assert bad and (galois or cfg.e == 2)
        assert check_roots_of_unity(cfg).counterexamples == bad
    for j in range(cfg.e):
        with monkeypatch.context() as patch:
            flip_census_count(patch, cfg, j,
                              next(iter(weyl.coset_census(cfg, j))))
            bad, _ = fraction_roots_of_unity(cfg)
            assert bad and check_roots_of_unity(cfg).counterexamples == bad


# ---------------------------------------------------------------------------
# Galois descent in the root-of-unity check against the all-exponent loop


# e blocks of one row of m letters after a fixed row of k, n <= 10
ONE_ROW_SHAPES_TO_10 = [standard_block_config(m, e, fixed_size=k)
                        for e in range(2, 11) for m in range(1, 10 // e + 1)
                        for k in range(10 - m * e + 1)]


def full_report(report):
    return report.status, report.config, report.counterexamples, report.notes


def test_one_row_shapes_to_ten_letters_hold_the_sweep():
    assert len(set(ONE_ROW_SHAPES_TO_10)) == 72
    assert set(one_row_configs()) <= set(ONE_ROW_SHAPES_TO_10)


@pytest.mark.parametrize("cfg", ONE_ROW_SHAPES_TO_10, ids=_config_echo)
def test_roots_of_unity_equals_all_exponent_loop(cfg):
    assert full_report(check_roots_of_unity(cfg)) == \
        all_exponent_roots_of_unity(cfg)


@settings(max_examples=60, deadline=None)
@given(cfg=one_row_shapes())
def test_roots_of_unity_equals_all_exponent_loop_on_drawn_shapes(cfg):
    library = outcome(lambda c: full_report(check_roots_of_unity(c)), cfg)
    assert library == outcome(all_exponent_roots_of_unity, cfg)


@pytest.mark.parametrize("cfg", ONE_ROW_SHAPES_TO_10
                         + list(regular_twist_configs()), ids=_config_echo)
def test_coset_counts_hold_one_dict_per_census_table(cfg):
    counts = weyl.CosetCounts(cfg, range(cfg.e))
    tables = [weyl.coset_census(cfg, j) for j in range(cfg.e)]
    for i in range(cfg.e):
        for j in range(cfg.e):
            assert (counts.by_exponent[i] is counts.by_exponent[j]) == \
                (tables[i] is tables[j])


class FreshTable(dict):
    """A census table made afresh, which a weak reference can follow."""


def test_coset_counts_keep_fresh_tables_apart(monkeypatch):
    # a census made afresh at every call is one table per exponent, even
    # where the tables are equal; each must live while the counts are
    # built, or a later table could take its id and its dict of counts
    cfg = standard_block_config(1, 6, fixed_size=1)
    expected = all_exponent_roots_of_unity(cfg)
    shared = weyl.CosetCounts(cfg, range(6)).by_exponent
    original = weyl.coset_census
    made = []

    def census(c, j):
        assert all(ref() is not None for ref in made)
        table = FreshTable(original(c, j))
        made.append(weakref.ref(table))
        return table
    monkeypatch.setattr(weyl, "coset_census", census)
    fresh = weyl.CosetCounts(cfg, range(6)).by_exponent
    assert len({id(counts) for counts in fresh}) == 6 and fresh == shared
    made.clear()
    assert full_report(check_roots_of_unity(cfg)) == expected


@pytest.mark.parametrize("m,e,rho", [(2, 2, (4,)), (2, 3, (6,)),
                                     (3, 2, (2, 2, 2))])
def test_closed_form_fails_like_fraction_route_on_a_flip(monkeypatch,
                                                        m, e, rho):
    flip_census_count(monkeypatch, standard_block_config(m, e), 1,
                      Partition(rho))
    bad, _ = fraction_closed_form(m, e)
    report = check_closed_form(m, e)
    assert bad and report.status == "fail"
    assert report.counterexamples == bad


# ---------------------------------------------------------------------------
# the integer residue comparison against its Fraction route


RESIDUE_ROUTES = [(check_mod_e_induction, fraction_mod_e_induction),
                  (check_component_induction, fraction_component_induction)]
ACCEPTANCE_CONFIGS = list(dict.fromkeys(chain(
    one_row_configs(), rotating_block_configs(), regular_twist_configs())))


@pytest.mark.parametrize("cfg", ACCEPTANCE_CONFIGS, ids=_config_echo)
def test_residue_checks_match_fraction_route(cfg):
    # each check either runs on the config or refuses it, as its
    # Fraction route does, with the same text
    for check, route in RESIDUE_ROUTES:
        assert outcome(lambda c: reported(check(c)), cfg) == \
            outcome(route, cfg), check.__name__


@st.composite
def residue_shapes(draw):
    """Rotating families of any block type after an optional fixed block,
    or one block of any type beside a catalog twist, on at most 9
    letters; some are inadmissible for one check or both."""
    e = draw(st.integers(1, 5))
    if draw(st.booleans()):
        m = draw(st.integers(1, max(1, 9 // e)))
        fixed = draw(st.integers(0, max(0, 9 - m * e)))
        return standard_block_config(
            m, e, draw(st.sampled_from(partitions_of(m))), fixed_size=fixed,
            fixed_type=draw(st.sampled_from(partitions_of(fixed)))
            if fixed else None)
    n = draw(st.integers(2, 9))
    m = draw(st.integers(1, n - 1))
    try:
        return l_regular_config(n, m, e, draw(st.sampled_from(partitions_of(m))),
                                variant=draw(st.sampled_from("ab")))
    except ValueError:
        assume(False)


@settings(max_examples=80, deadline=None)
@given(cfg=residue_shapes())
def test_residue_checks_match_fraction_route_on_drawn_shapes(cfg):
    for check, route in RESIDUE_ROUTES:
        assert outcome(lambda c: reported(check(c)), cfg) == \
            outcome(route, cfg), check.__name__


def flip_coset_sum(monkeypatch, cfg, i):
    """Negate the top coefficient of one cycle type's sum over cfg's i-th
    shifted coset alone.  The table of its orbit shape is shared with
    the Galois-conjugate exponents, and stays as it was: a flip there
    would keep every induced value rational."""
    def negate_top(coeffs):
        coeffs[-1] = -coeffs[-1]
    edit_coset_sum(monkeypatch, cfg, i, negate_top)


def shift_coset_sum(monkeypatch, cfg, i):
    """Move one unit of one cycle type's sum over cfg's i-th shifted coset
    alone from the residue r of its lowest nonzero coefficient to
    r + 1 mod e.  Its value at q = 1 stays as it was; at zeta^(j i) it
    moves by zeta^(j i r)(zeta^(j i) - 1), which is zero only for i = 0."""
    def shift(coeffs):
        r = next(r for r, c in enumerate(coeffs) if c)
        coeffs += [0] * (cfg.e - len(coeffs))
        coeffs[r] -= 1
        coeffs[(r + 1) % cfg.e] += 1
    edit_coset_sum(monkeypatch, cfg, i, shift)


def edit_coset_sum(monkeypatch, cfg, i, edit):
    """Pass the coefficients of the first nonzero cycle type's sum over
    cfg's i-th shifted coset through edit, which changes the list in
    place; every other sum, and the cached table, stay as they were."""
    coset_sums = verify.coset_sums

    def edited(config):
        by_exponent = coset_sums(config)
        if config != cfg:
            return by_exponent
        sums = dict(by_exponent[i])
        rho = next(rho for rho, poly in sums.items() if poly)
        coeffs = list(sums[rho].coeffs)
        edit(coeffs)
        sums[rho] = IntPolynomial(coeffs)
        by_exponent[i] = sums
        return by_exponent
    monkeypatch.setattr(verify, "coset_sums", edited)


@pytest.mark.parametrize("check,cfg", [
    (check_mod_e_induction, standard_block_config(2, 2)),
    (check_mod_e_induction, standard_block_config(2, 3)),
    (check_mod_e_induction, standard_block_config(1, 4, fixed_size=2)),
    (check_mod_e_induction, l_regular_config(5, 2, 3)),
    (check_component_induction, l_regular_config(5, 2, 3, Partition((1, 1)))),
    (check_component_induction, l_regular_config(7, 3, 2, Partition((2, 1)))),
], ids=lambda x: getattr(x, "__name__", None) or _config_echo(x))
def test_residue_checks_fail_like_fraction_route_on_a_flip(monkeypatch, check,
                                                          cfg):
    # a Green coefficient of the identity class, then one coefficient of
    # the last shifted coset's sums
    route = dict(RESIDUE_ROUTES)[check]
    with monkeypatch.context() as patch:
        flip_green_coefficient(patch, cfg.merged_type(),
                               Partition((1,) * cfg.n), cfg.e)
        bad, _ = route(cfg)
        assert bad and check(cfg).counterexamples == bad
    with monkeypatch.context() as patch:
        flip_coset_sum(patch, cfg, cfg.e - 1)
        bad, _ = route(cfg)
        assert bad and check(cfg).counterexamples == bad


# ---------------------------------------------------------------------------
# the twisted induction check against its per-representative route


def trace_sweep_configs():
    """The configs of the benchmark's trace_sweep pool, built as its
    sweep builds them."""
    build_args = load_perfbench("sweep").build_args
    return [build_args(item["check"], item["args"])[0]
            for group in load_perfbench("workloads").pool("trace_sweep")
            for item in group]


def twisted_outcome(cfg):
    report = check_twisted_induction(cfg)
    return report.status, report.config, report.counterexamples, report.notes


@pytest.mark.parametrize("cfg", trace_sweep_configs(), ids=_config_echo)
def test_twisted_induction_matches_representative_route(cfg):
    assert twisted_outcome(cfg) == representative_twisted_induction(cfg)


@settings(max_examples=60, deadline=None)
@given(cfg=residue_shapes())
def test_twisted_induction_matches_representative_route_on_drawn_shapes(cfg):
    assert outcome(twisted_outcome, cfg) == \
        outcome(representative_twisted_induction, cfg)


@pytest.mark.parametrize("cfg", [
    standard_block_config(2, 2), standard_block_config(2, 3),
    standard_block_config(1, 4, fixed_size=2), l_regular_config(5, 2, 3),
    l_regular_config(5, 2, 3, Partition((1, 1))),
    standard_block_config(2, 2, Partition((1, 1)), fixed_size=1),
], ids=_config_echo)
def test_twisted_induction_fails_like_representative_route_on_a_flip(
        monkeypatch, cfg):
    # a Green coefficient of the identity class, then one coefficient of
    # each shifted coset's sums in turn, negated or moved up one residue;
    # the move leaves every value at q = 1, and so the untwisted coset's
    # traces, as they were
    with monkeypatch.context() as patch:
        flip_green_coefficient(patch, cfg.merged_type(),
                               Partition((1,) * cfg.n), cfg.e)
        expected = representative_twisted_induction(cfg)
        assert expected[0] == "fail"
        assert twisted_outcome(cfg) == expected
    for i in range(cfg.e):
        with monkeypatch.context() as patch:
            flip_coset_sum(patch, cfg, i)
            expected = representative_twisted_induction(cfg)
            assert expected[0] == "fail"
            assert twisted_outcome(cfg) == expected
        with monkeypatch.context() as patch:
            shift_coset_sum(patch, cfg, i)
            expected = representative_twisted_induction(cfg)
            assert expected[0] == ("fail" if i else "pass")
            assert twisted_outcome(cfg) == expected


# ---------------------------------------------------------------------------
# Galois descent in the twisted induction check against the all-primitive
# loop


@pytest.mark.parametrize("cfg", trace_sweep_configs(), ids=_config_echo)
def test_twisted_induction_equals_all_primitive_loop(cfg):
    assert twisted_outcome(cfg) == all_primitive_twisted_induction(cfg)


@pytest.mark.parametrize("n", range(2, 11))
def test_twisted_induction_equals_all_primitive_loop_on_every_layout(n):
    for cfg in block_layouts(n):
        assert twisted_outcome(cfg) == all_primitive_twisted_induction(cfg), \
            _config_echo(cfg)


@settings(max_examples=60, deadline=None)
@given(cfg=residue_shapes())
def test_twisted_induction_equals_all_primitive_loop_on_drawn_shapes(cfg):
    assert outcome(twisted_outcome, cfg) == \
        outcome(all_primitive_twisted_induction, cfg)


def test_twisted_induction_compares_once_per_class_and_exponent(monkeypatch):
    # a passing pass over the trace_sweep pool compares each class and
    # twist exponent at one root, p(n) e field comparisons per config,
    # where the all-primitive loop makes p(n) e phi(e)
    configs = trace_sweep_configs()
    compared = []
    equal = verify.Cyclotomic.__eq__

    def counting(self, other):
        compared.append(1)
        return equal(self, other)
    monkeypatch.setattr(verify.Cyclotomic, "__eq__", counting)
    assert all(check_twisted_induction(cfg).passed for cfg in configs)
    assert len(compared) == 2490 == sum(len(partitions_of(cfg.n)) * cfg.e
                                        for cfg in configs)
    compared.clear()
    assert all(all_primitive_twisted_induction(cfg)[0] == "pass"
               for cfg in configs)
    assert len(compared) == 4620


# ---------------------------------------------------------------------------
# the folded coset sums against the polynomial route


def assert_folds_the_polynomial_sums(configs) -> int:
    """Each (orbit shape, e) the configs reach: the folded table is the
    polynomial table of the oracle reduced mod q^e - 1, of degree < e.
    Returns how many of them have an unfolded sum of degree e or more,
    which the fold shortens."""
    shortened = 0
    for shape, e in {(orbit_shape(cfg, i), cfg.e) for cfg in configs
                     for i in range(cfg.e)}:
        unfolded = polynomial_shape_sums(shape)
        table = verify.shape_sums(shape, e)
        assert table == {ctype: fold(poly, e)
                         for ctype, poly in unfolded.items()}, (shape, e)
        assert all(poly.degree < e for poly in table.values()), (shape, e)
        shortened += any(poly.degree >= e for poly in unfolded.values())
    return shortened


def test_folded_sums_match_the_polynomial_route_on_the_benchmark_pools():
    # the roots_sweep, trace_sweep and induction_sweep configs
    assert assert_folds_the_polynomial_sums(pool_configs()) > 0


@pytest.mark.parametrize("n", range(2, 11))
def test_folded_sums_match_the_polynomial_route_on_every_layout(n):
    configs = block_layouts(n)
    assert configs
    assert_folds_the_polynomial_sums(configs)


@st.composite
def large_layouts(draw):
    """A validated standard_block_config or l_regular_config layout on
    11 or 12 letters."""
    n = draw(st.integers(11, 12))
    if draw(st.booleans()):
        e = draw(st.integers(2, n))
        m = draw(st.integers(1, n // e))
        k = n - e * m
        return standard_block_config(
            m, e, draw(st.sampled_from(partitions_of(m))), k,
            draw(st.sampled_from(partitions_of(k))) if k else None)
    m = draw(st.integers(1, n - 1))
    try:
        cfg = l_regular_config(n, m, draw(st.integers(2, n)),
                               draw(st.sampled_from(partitions_of(m))),
                               draw(st.sampled_from("ab")))
        validate_config(cfg)
    except ValueError:  # no catalog twist, or an inadmissible layout
        assume(False)
    return cfg


@settings(max_examples=40, deadline=None)
@given(cfg=large_layouts())
def test_folded_sums_match_the_polynomial_route_on_large_layouts(cfg):
    assert_folds_the_polynomial_sums([cfg])


def test_config_checks_walk_no_coset(monkeypatch, capsys):
    # every coset-side quantity is tallied from class sizes, so with the
    # element walkers disabled every check but ungraded-induction runs;
    # the config checks and eval with blocks also build no class
    # representative, read no cycle type off an element and call no
    # coset_count when they pass, twisted induction reads each class by
    # its cycle type without twisted_induction_trace or eval_at_root,
    # and the integer checks (roots of unity, closed form, residues)
    # make no field element and no Fraction either; no check raises the
    # twist to a power, since orbit shapes compose how it permutes the
    # blocks
    def refuse(*args):
        raise AssertionError("a group was enumerated")

    def refuse_power(*args):
        raise AssertionError("the twist was raised to a power")

    def refuse_element(*args):
        raise AssertionError("a class was read through one element")

    def refuse_number(*args):
        raise AssertionError("a passing integer check left the integers")

    for module in (weyl, verify):
        for name in ("coset_elements", "levi_elements", "young_subgroup"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(weyl.WeylElt, "__pow__", refuse_power)
    for cached in (weyl.coset_census, weyl.shape_census, verify.shape_sums):
        cached.cache_clear()
    one_row = [CONFIGS[tag] for tag in (
        "two trivial blocks", "regular twist, block (2,)",
        "fixed pair and rotating pair", "fixed letter and rotating pair")]
    general = list(CONFIGS.values())
    regular = [CONFIGS["regular twist, block (2,)"],
               CONFIGS["regular twist, block (1,1)"]]
    for module in (weyl, verify):
        for name in ("class_representative", "coset_count"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse_element)
    monkeypatch.setattr(weyl.WeylElt, "cycle_type", refuse_element)
    for name in ("twisted_induction_trace", "eval_at_root"):
        monkeypatch.setattr(verify, name, refuse_element)
    reports = ([check_twisted_induction(cfg) for cfg in general]
               + [check_component_dims(cfg) for cfg in general])
    with monkeypatch.context() as patch:
        for module in (verify, weyl):
            for name in ("Cyclotomic", "Fraction"):
                patch.setattr(module, name, refuse_number)
        reports += ([check_roots_of_unity(cfg) for cfg in one_row]
                    + [check_closed_form(m, e)
                       for m, e in ((2, 2), (3, 2), (2, 3))]
                    + [check_mod_e_induction(cfg) for cfg in one_row]
                    + [check_component_induction(cfg) for cfg in regular])
    assert all(report.passed for report in reports)
    assert main(["eval", "--mu", "2,2,1", "--e", "2", "--nu", "2"]) == 0
    assert "MISMATCH" not in capsys.readouterr().out


def test_trace_poly_refuses_elements_outside_the_extension():
    # (1 2) permutes the three one-letter blocks, so it has an orbit
    # profile, but it lies outside the cyclic group the twist generates
    cfg = standard_block_config(1, 3)
    assert trace_poly(cfg, cfg.a).coeffs == (1,)
    with pytest.raises(ValueError, match="outside the extended subgroup"):
        trace_poly(cfg, from_cycles(3, (1, 2)))


def test_ungraded_induction_rows():
    for types in [[(2,), (2,)], [(2,), (1, 1)], [(1, 1), (1, 1)]]:
        report = check_ungraded_induction(4, types)
        assert report.passed, types
    with pytest.raises(ValueError, match="fill all the letters"):
        check_ungraded_induction(4, [(2,)])


def test_config_rejections():
    with pytest.raises(InvalidConfigError, match="cannot rotate 1 blocks"):
        block_shift_element(((1, 2),), 2)
    cfg = InductionConfig(n=4, e=2, blocks=((1, 2), (3, 4)),
                          block_types=(Partition((2,)), Partition((2,))),
                          a=identity_elt(4))
    with pytest.raises(InvalidConfigError,
                       match="order 1, expected e = 2"):
        validate_config(cfg)


# ---------------------------------------------------------------------------
# the catalog check fails honestly


def test_regular_catalog_report():
    report = check_regular_catalog()
    assert report.status == "fail"
    assert not report.passed
    # the one defective catalog entry: the order-5 twist attached to the
    # rank-7 Levi whose complement has type D5 is not actually regular
    assert report.counterexamples == [("E7 pi_L=(7,)", 5, False, True)]
    # the note carries the evidence: the four crossing roots, in
    # simple-root coordinates, whose hyperplanes hold the eigenspace;
    # then the work of the two exhaustive Levi sweeps
    assert report.notes == (
        "E7 pi_L=(7,): the zeta_5-eigenspace lies on the hyperplanes of the "
        "crossing roots [(0, 0, 0, 0, 0, -1, -1), (0, 0, 0, 0, 0, -1, 0), "
        "(0, 0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1, 1)] (simple-root "
        "coordinates); G2: 2 Levis, 0 components swept; "
        "F4: 14 Levis, 6 components swept")
    assert report.config == "46 cases"


# (family, rank, Levi labels, twist, e): a type A parent of rank r has
# r + 1 letters and its tail Levi of m letters has labels r-m+2..r;
# B and D parents have r letters and tail labels r-m+1..r
TAIL_CASES = [
    ("A", 2, (), (2, 1, 3), 2),
    ("A", 3, (), (2, 3, 1, 4), 3),
    ("A", 3, (3,), (2, 1, 3, 4), 2),
    ("A", 4, (), (2, 1, 4, 3, 5), 2),
    ("A", 4, (), (2, 3, 4, 1, 5), 4),
    ("A", 4, (4,), (2, 3, 1, 4, 5), 3),
    ("A", 4, (3, 4), (2, 1, 3, 4, 5), 2),
    ("A", 5, (), (2, 3, 4, 5, 1, 6), 5),
    ("A", 5, (5,), (2, 1, 4, 3, 5, 6), 2),
    ("A", 5, (5,), (2, 3, 4, 1, 5, 6), 4),
    ("A", 5, (4, 5), (2, 3, 1, 4, 5, 6), 3),
    ("A", 5, (3, 4, 5), (2, 1, 3, 4, 5, 6), 2),
    ("A", 6, (), (2, 1, 4, 3, 6, 5, 7), 2),
    ("A", 6, (), (2, 3, 1, 5, 6, 4, 7), 3),
    ("A", 6, (), (2, 3, 4, 5, 6, 1, 7), 6),
    ("A", 6, (6,), (2, 3, 4, 5, 1, 6, 7), 5),
    ("A", 6, (5, 6), (2, 1, 4, 3, 5, 6, 7), 2),
    ("A", 6, (5, 6), (2, 3, 4, 1, 5, 6, 7), 4),
    ("A", 6, (4, 5, 6), (2, 3, 1, 4, 5, 6, 7), 3),
    ("A", 6, (3, 4, 5, 6), (2, 1, 3, 4, 5, 6, 7), 2),
    ("A", 7, (), (2, 3, 4, 5, 6, 7, 1, 8), 7),
    ("A", 7, (7,), (2, 1, 4, 3, 6, 5, 7, 8), 2),
    ("A", 7, (7,), (2, 3, 1, 5, 6, 4, 7, 8), 3),
    ("A", 7, (7,), (2, 3, 4, 5, 6, 1, 7, 8), 6),
    ("A", 7, (6, 7), (2, 3, 4, 5, 1, 6, 7, 8), 5),
    ("A", 7, (5, 6, 7), (2, 1, 4, 3, 5, 6, 7, 8), 2),
    ("A", 7, (5, 6, 7), (2, 3, 4, 1, 5, 6, 7, 8), 4),
    ("A", 7, (4, 5, 6, 7), (2, 3, 1, 4, 5, 6, 7, 8), 3),
    ("A", 7, (3, 4, 5, 6, 7), (2, 1, 3, 4, 5, 6, 7, 8), 2),
    ("B", 4, (4,), (2, 3, 1, 4), 3),
    ("B", 5, (4, 5), (2, 3, 1, 4, 5), 3),
    ("B", 6, (6,), (2, 3, 4, 5, 1, 6), 5),
    ("B", 6, (4, 5, 6), (2, 3, 1, 4, 5, 6), 3),
    ("D", 5, (4, 5), (2, 3, 1, 4, 5), 3),
    ("D", 6, (4, 5, 6), (2, 3, 1, 4, 5, 6), 3),
]


def test_classical_tail_cases_are_pinned():
    # a case count alone misses labels shifted by one
    assert [(family, rank, pi_L, a.perm, e)
            for family, rank, pi_L, a, e in _classical_tail_cases()] \
        == TAIL_CASES


def test_reports_pass_iff_no_counterexamples():
    reports = [check_twisted_induction(two_blocks((2,))),
               check_component_dims(two_blocks((1, 1))),
               check_regular_catalog()]
    for report in reports:
        assert report.passed == (report.status == "pass")
        assert report.passed == (not report.counterexamples)


def test_all_checks_registry():
    assert set(ALL_CHECKS) == {
        "twisted-induction", "component-dims", "roots-of-unity",
        "mod-e-induction", "component-induction", "ungraded-induction",
        "closed-form-count", "regular-catalog",
    }
    for fn in ALL_CHECKS.values():
        assert callable(fn)
