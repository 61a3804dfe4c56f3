"""Checkers for the graded induction identities.

Each check assembles both sides of one identity with exact arithmetic
and returns a structured report.  The left sides come from Green
polynomials of the merged Jordan type; the right sides from coset
counts or Frobenius induction over the extended block subgroup.  A
small explicit matrix model of the induced module doubles as an
independent oracle for the trace formula.
"""

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .poly import Cyclotomic, IntPolynomial, eval_at_root
from .symfun import Partition, partitions_of, springer_graded_char
from .symfun import closed_form_coset_count
from .weyl import (
    ClassFunction,
    InductionConfig,
    SubgroupTable,
    SymmetricClasses,
    WeylElt,
    block_permutation,
    block_restriction,
    coset_character,
    coset_count,
    coset_elements,
    coset_exponent,
    embed_component_element,
    enumerate_group,
    extended_subgroup,
    from_cycles,
    induced_character,
    is_L_regular,
    levi_elements,
    orbits,
    regular_element,
    standard_block_config,
    validate_config,
    young_subgroup,
)
from .rootsys import build_root_system, levi_config


def class_representative(rho) -> WeylElt:
    """A permutation with the given cycle type, cycles on consecutive
    letters in decreasing part order."""
    rho = Partition(rho)
    cycles = []
    start = 1
    for part in rho:
        cycles.append(tuple(range(start, start + part)))
        start += part
    return from_cycles(rho.size, *cycles)


# ---------------------------------------------------------------------------
# the extension of the block character to the twisted subgroup


def _orbit_profile(cfg: InductionConfig, z: WeylElt):
    """How z moves the blocks around: one entry per block orbit, holding
    the orbit length, the cycle type of the return map on the starting
    block, and the block's Jordan type."""
    sigma = block_permutation(cfg.blocks, z)
    if sigma is None:
        raise ValueError("element does not permute the blocks")
    profile = []
    for orbit in orbits(sigma):
        start = orbit[0]
        inner = block_restriction(z ** len(orbit), cfg.blocks[start])
        profile.append((len(orbit), inner.cycle_type(), cfg.block_types[start]))
    return tuple(sorted(profile))


class ExtendedGradedCharacter:
    """Graded trace of every element of the twisted block subgroup.

    values maps (coset exponent i, orbit label) to the trace polynomial
    Sigma_n Tr(z, component of degree n) q^n.  A block orbit of length
    l under z contributes the per-block graded character of the return
    map with q replaced by q^l, so the i = 0 layer restricts to the
    ordinary product character of the block subgroup.
    """

    def __init__(self, config: InductionConfig):
        self.config = config
        self._block_chars = {jtype: springer_graded_char(jtype)
                             for jtype in set(config.block_types)}
        self.values = {}
        for i in range(config.e):
            for z in coset_elements(config, i):
                label = _orbit_profile(config, z)
                if (i, label) not in self.values:
                    self.values[(i, label)] = self._assemble(label)
        self._coset_profiles = {}

    def _assemble(self, label) -> IntPolynomial:
        poly = IntPolynomial((1,))
        for length, inner_type, jtype in label:
            factor = self._block_chars[jtype][inner_type]
            poly = poly * factor.compose_power(length)
        return poly

    def label_of(self, z: WeylElt):
        return _orbit_profile(self.config, z)

    def trace_poly(self, z: WeylElt) -> IntPolynomial:
        i = coset_exponent(self.config, z)
        return self.values[(i, self.label_of(z))]

    def coset_profile(self, i: int):
        """Per cycle type: the trace polynomials on the i-th coset with
        multiplicities, for class-function sums."""
        if i not in self._coset_profiles:
            counts = {}
            for z in coset_elements(self.config, i):
                key = (z.cycle_type(), self.label_of(z))
                counts[key] = counts.get(key, 0) + 1
            grouped = {}
            for (ctype, label), count in counts.items():
                grouped.setdefault(ctype, []).append(
                    (self.values[(i, label)], count))
            self._coset_profiles[i] = grouped
        return self._coset_profiles[i]


def extend_block_character(cfg: InductionConfig) -> ExtendedGradedCharacter:
    """Extension attached to a validated configuration: blocks fixed by
    the twist keep their own graded character, rotating families carry
    the cyclic permutation action on the tensor product."""
    validate_config(cfg)
    return ExtendedGradedCharacter(cfg)


def tensor_cyclic_extension(g, e: int) -> ExtendedGradedCharacter:
    """Extension for e equal blocks from the per-block graded character.

    g must be the graded Springer character of some Jordan type; the
    type is recovered by matching against the catalog for its degree.
    """
    nu = None
    for cand in partitions_of(g.n):
        if springer_graded_char(cand).values == g.values:
            nu = cand
            break
    if nu is None:
        raise ValueError("not a graded Springer character")
    return extend_block_character(standard_block_config(g.n, e, nu=nu))


def twisted_induction_trace(ext: ExtendedGradedCharacter, w: WeylElt,
                            i: int, j_root: int = 1) -> Cyclotomic:
    """Trace of the commuting pair (i-th twist, w) on the induced graded
    module, with the grading read through the j_root-th primitive root.

    Computed without touching the big group: the trace localizes to the
    cosets x with x^-1 w x in the i-th shifted coset, and those are
    counted by the centralizer weight.
    """
    cfg = ext.config
    e = cfg.e
    parent = SymmetricClasses(cfg.n)
    key = parent.key(w)
    point = Cyclotomic.zeta(e, (j_root * i) % e)
    total = Cyclotomic.zeta(e, 0) * 0
    for poly, count in ext.coset_profile(i % e).get(key, []):
        total = total + poly(point) * count
    weight = Fraction(parent.centralizer_order(key), len(levi_elements(cfg)))
    return total * weight


# ---------------------------------------------------------------------------
# explicit matrix model of the induced module

def _block_module(jtype: Partition):
    """Tiny explicit graded module for one block: the trivial module for
    a one-row type, the rank-one coinvariant algebra for (1,1)."""
    if len(jtype) == 1:
        return ((0,), {perm: ((1,),) for perm in [None]})
    if tuple(jtype) == (1, 1):
        one = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
        flip = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(-1)))
        return ((0, 1), {(1, 2): one, (2, 1): flip})
    raise ValueError(f"no explicit module for block type {tuple(jtype)}")


def _tensor_basis(dims):
    if not dims:
        return [()]
    rest = _tensor_basis(dims[1:])
    return [(k,) + t for k in range(dims[0]) for t in rest]


class _InducedModel:
    """Induced module built literally from its definition: basis indexed
    by (coset representative, tensor basis vector), operators kept as a
    coset permutation plus one small matrix per coset."""

    def __init__(self, cfg: InductionConfig, parent_table: SubgroupTable):
        self.cfg = cfg
        self.modules = [_block_module(t) for t in cfg.block_types]
        self.degrees = [m[0] for m in self.modules]
        self.dims = [len(d) for d in self.degrees]
        self.basis = _tensor_basis(self.dims)
        self.dim_v = len(self.basis)
        levi = list(levi_elements(cfg))
        self.levi_set = set(levi)
        table = SubgroupTable(levi)
        self.reps = table.coset_reps(parent_table)
        if len(self.reps) * self.dim_v > 200:
            raise ValueError("model too large")
        self.rep_index = {}
        for ri, r in enumerate(self.reps):
            for h in levi:
                self.rep_index[(r @ h).perm] = ri

    def degree(self, vec) -> int:
        return sum(self.degrees[b][k] for b, k in enumerate(vec))

    def _levi_matrix(self, h: WeylElt):
        """Matrix of an element of the plain block subgroup on the
        tensor space."""
        mat = [[Fraction(0)] * self.dim_v for _ in range(self.dim_v)]
        per_block = []
        for bi, (degs, mats) in enumerate(self.modules):
            if mats.get(None) is not None:
                per_block.append(mats[None])
            else:
                per_block.append(
                    mats[block_restriction(h, self.cfg.blocks[bi]).perm])
        for src, vec in enumerate(self.basis):
            for dst, wec in enumerate(self.basis):
                entry = Fraction(1)
                for b in range(len(vec)):
                    entry *= per_block[b][wec[b]][vec[b]]
                    if not entry:
                        break
                if entry:
                    mat[dst][src] = entry
        return mat

    def _shift_matrix(self):
        """Matrix of the twist generator on the tensor space: content of
        each block moves to the image block."""
        sigma = block_permutation(self.cfg.blocks, self.cfg.a)
        mat = [[Fraction(0)] * self.dim_v for _ in range(self.dim_v)]
        pos = {vec: i for i, vec in enumerate(self.basis)}
        for src, vec in enumerate(self.basis):
            out = [0] * len(vec)
            for b, k in enumerate(vec):
                out[sigma[b]] = k
            mat[pos[tuple(out)]][src] = Fraction(1)
        return mat

    def group_operator(self, w: WeylElt):
        """The action of w: a coset permutation and the return matrix.

        w maps the x-th summand to the one of wx, acting on the fiber
        by the leftover block-subgroup element.
        """
        perm = []
        mats = []
        for r in self.reps:
            wr = w @ r
            ri = self.rep_index[wr.perm]
            perm.append(ri)
            h = self.reps[ri].inverse() @ wr
            mats.append(self._levi_matrix(h))
        return perm, mats

    def twist_operator(self, j_root: int):
        """One application of the twist with the degree weight folded in:
        the x-th summand goes to that of x a^-1, the fiber picks up the
        shift action and zeta^degree."""
        e = self.cfg.e
        a_inv = self.cfg.a.inverse()
        shift = self._shift_matrix()
        perm = []
        mats = []
        for r in self.reps:
            ra = r @ a_inv
            ri = self.rep_index[ra.perm]
            perm.append(ri)
            h = self.reps[ri].inverse() @ ra
            hmat = self._levi_matrix(h)
            mat = _matmul_cyc(hmat, shift)
            for col, vec in enumerate(self.basis):
                weight = Cyclotomic.zeta(e, (j_root * self.degree(vec)) % e)
                for row in range(self.dim_v):
                    mat[row][col] = mat[row][col] * weight
            mats.append(mat)
        return perm, mats

    @staticmethod
    def compose(op2, op1):
        perm = [op2[0][t] for t in op1[0]]
        mats = [_matmul_cyc(op2[1][op1[0][x]], op1[1][x])
                for x in range(len(op1[0]))]
        return perm, mats

    @staticmethod
    def trace(op):
        perm, mats = op
        total = None
        for x, target in enumerate(perm):
            if target != x:
                continue
            m = mats[x]
            t = sum(m[k][k] for k in range(len(m)))
            total = t if total is None else total + t
        return 0 if total is None else total


def _matmul_cyc(a, b):
    n = len(a)
    out = []
    for r in range(n):
        row = []
        for c in range(n):
            acc = None
            for k in range(n):
                if a[r][k] and b[k][c]:
                    term = a[r][k] * b[k][c]
                    acc = term if acc is None else acc + term
            row.append(acc if acc is not None else Fraction(0))
        out.append(row)
    return out


def model_twisted_trace(cfg: InductionConfig, w: WeylElt, i: int,
                        j_root: int = 1):
    """Trace of the pair (i-th twist, w) computed on the explicit model,
    for block types with a known small module."""
    rs = build_root_system("A", cfg.n - 1)
    model = _InducedModel(cfg, enumerate_group(rs))
    op = model.group_operator(w)
    if i % cfg.e:
        twist = model.twist_operator(j_root)
        powered = twist
        for _ in range((i % cfg.e) - 1):
            powered = model.compose(twist, powered)
        op = model.compose(op, powered)
    value = model.trace(op)
    if isinstance(value, Fraction) or isinstance(value, int):
        return Cyclotomic.zeta(cfg.e, 0) * value
    return value


# ---------------------------------------------------------------------------
# reports


@dataclass
class VerificationReport:
    check: str
    config: str
    status: str
    counterexamples: list
    elapsed_ms: float
    notes: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def _config_echo(cfg: InductionConfig) -> str:
    types = ",".join("+".join(str(p) for p in t) for t in cfg.block_types)
    return f"n={cfg.n} e={cfg.e} blocks={cfg.blocks} types=({types})"


def _finish(check: str, config: str, counterexamples, t0: float,
            notes: str = "") -> VerificationReport:
    status = "pass" if not counterexamples else "fail"
    return VerificationReport(check=check, config=config, status=status,
                              counterexamples=list(counterexamples),
                              elapsed_ms=(time.perf_counter() - t0) * 1000.0,
                              notes=notes)


def _require_regular_blocks(cfg: InductionConfig):
    for jtype in cfg.block_types:
        if len(jtype) != 1:
            raise ValueError(
                "check needs a one-row Jordan type on every block, got "
                f"{tuple(jtype)}")


def _primitive_exponents(e: int):
    return [j for j in range(1, e) if math.gcd(j, e) == 1] or [0]


# ---------------------------------------------------------------------------
# the checks


def check_twisted_induction(cfg: InductionConfig) -> VerificationReport:
    """Pair traces on the induced graded module against the graded
    character of the merged type, for every class, twist exponent, and
    primitive root."""
    t0 = time.perf_counter()
    ext = extend_block_character(cfg)
    mu = cfg.merged_type()
    g = springer_graded_char(mu)
    bad = []
    tried = 0
    for rho in partitions_of(cfg.n):
        w = class_representative(rho)
        poly = g[rho]
        for i in range(cfg.e):
            for j in _primitive_exponents(cfg.e):
                lhs = twisted_induction_trace(ext, w, i, j)
                rhs = eval_at_root(poly, cfg.e, (j * i) % cfg.e)
                tried += 1
                if lhs != rhs:
                    bad.append((tuple(rho), (i, j), str(lhs), str(rhs)))
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
    index = Fraction(math.factorial(cfg.n),
                     len(levi_elements(cfg)) * cfg.e)
    expected = index * block_dim
    bad = []
    for k, d in enumerate(dims):
        if d != expected:
            bad.append(((1,) * cfg.n, k, d, str(expected)))
    notes = f"dims per residue {tuple(dims)}, expected {expected}"
    return _finish("component-dims", _config_echo(cfg), bad, t0, notes)


def check_roots_of_unity(cfg: InductionConfig) -> VerificationReport:
    """Green polynomial values at each power of the root against exact
    coset counts, plus invariance under the choice of primitive root."""
    t0 = time.perf_counter()
    _require_regular_blocks(cfg)
    validate_config(cfg)
    mu = cfg.merged_type()
    g = springer_graded_char(mu)
    bad = []
    for rho in partitions_of(cfg.n):
        w = class_representative(rho)
        poly = g[rho]
        for j in range(cfg.e):
            value = eval_at_root(poly, cfg.e, j)
            count = coset_count(w, cfg, j)
            if not value.is_rational or value.as_fraction() != count:
                bad.append((tuple(rho), j, str(value), str(count)))
            for t in _primitive_exponents(cfg.e):
                other = eval_at_root(poly, cfg.e, (t * j) % cfg.e)
                if other != value:
                    bad.append((tuple(rho), (j, t), str(value), str(other)))
    return _finish("roots-of-unity", _config_echo(cfg), bad, t0,
                   f"merged type {tuple(mu)}")


def check_mod_e_induction(cfg: InductionConfig) -> VerificationReport:
    """Sums of Betti-graded character coefficients in each residue class
    against the induced linear characters of the extended subgroup."""
    t0 = time.perf_counter()
    _require_regular_blocks(cfg)
    validate_config(cfg)
    mu = cfg.merged_type()
    g = springer_graded_char(mu)
    table = extended_subgroup(cfg)
    bad = []
    for k in range(cfg.e):
        ind = induced_character(table, coset_character(cfg, k))
        for rho in partitions_of(cfg.n):
            lhs = g[rho].mod_sum(cfg.e, k)
            rhs = ind[rho]
            if lhs != rhs:
                bad.append((tuple(rho), k, lhs, str(rhs)))
    return _finish("mod-e-induction", _config_echo(cfg), bad, t0,
                   f"merged type {tuple(mu)}")


def check_component_induction(cfg: InductionConfig) -> VerificationReport:
    """General block type on the distinguished fixed block: each residue
    piece against induction of the twist character tensored with the
    graded pieces of the block character."""
    t0 = time.perf_counter()
    tag = validate_config(cfg)
    if tag != "l-regular":
        raise ValueError(f"check needs the regular-eigenvector shape, got {tag}")
    distinguished = cfg.blocks[-1]
    if cfg.a.support() & set(distinguished):
        raise ValueError("twist must fix the distinguished block")
    nu = cfg.block_types[-1]
    g_block = springer_graded_char(nu)
    mu = cfg.merged_type()
    g = springer_graded_char(mu)
    e = cfg.e
    table = extended_subgroup(cfg)

    bad = []
    for k in range(e):
        def evaluate(y, k=k):
            i = coset_exponent(cfg, y)
            h = (cfg.a ** (-i)) @ y
            poly = g_block[block_restriction(h, distinguished).cycle_type()]
            acc = Cyclotomic.zeta(e, 0) * 0
            for n in range(poly.degree + 1):
                c = poly.coefficient(n)
                if c:
                    acc = acc + Cyclotomic.zeta(e, ((n - k) * i) % e) * c
            return acc

        ind = induced_character(table, ClassFunction(None, evaluate=evaluate))
        for rho in partitions_of(cfg.n):
            lhs = g[rho].mod_sum(e, k)
            rhs = ind[rho]
            if lhs != rhs:
                bad.append((tuple(rho), k, lhs, str(rhs)))
    return _finish("component-induction", _config_echo(cfg), bad, t0,
                   f"block type {tuple(nu)}, merged type {tuple(mu)}")


def check_ungraded_induction(n: int, block_types) -> VerificationReport:
    """With no twist at all, the character of the full fiber cohomology
    at q = 1 is induced from the product of the block characters."""
    t0 = time.perf_counter()
    types = [Partition(t) for t in block_types]
    blocks = []
    start = 1
    for jtype in types:
        blocks.append(tuple(range(start, start + jtype.size)))
        start += jtype.size
    if start != n + 1:
        raise ValueError("block types must fill all the letters")
    mu = Partition(tuple(sorted((p for t in types for p in t), reverse=True)))
    g = springer_graded_char(mu)
    table = SubgroupTable(young_subgroup(blocks))
    block_chars = [springer_graded_char(t) for t in types]

    def evaluate(y):
        total = 1
        for block, chars in zip(blocks, block_chars):
            total *= chars[block_restriction(y, block).cycle_type()](1)
        return total

    ind = induced_character(table, ClassFunction(None, evaluate=evaluate))
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
    bad = []
    off = []
    for rho in partitions_of(cfg.n):
        w = class_representative(rho)
        count = coset_count(w, cfg, 1)
        parts_val = closed_form_coset_count(m, e, rho, "parts")
        if parts_val != count:
            bad.append((tuple(rho), 1, parts_val, str(count)))
        if closed_form_coset_count(m, e, rho, "multiplicity") != count:
            off.append(tuple(rho))
    lead = "parts reading matches the census" if not bad else \
        "parts reading fails the census"
    if off:
        notes = f"{lead}; multiplicity reading differs on classes {off}"
    else:
        notes = f"{lead}; multiplicity reading agrees everywhere"
    return _finish("closed-form-count", f"m={m} e={e}", bad, t0, notes)


def _classical_tail_cases():
    """(family, rank, levi labels, twist, e) for the same-type tail
    subgroups with a catalog twist on the free letters."""
    cases = []
    for rank in range(2, 8):
        n = rank + 1
        for m in range(1, n - 1):
            free = n - m
            for e in range(2, free + 1):
                if free % e:
                    continue
                cycles = [tuple(range(k * e + 1, k * e + e + 1))
                          for k in range(free // e)]
                a = from_cycles(n, *cycles)
                cases.append(("A", rank, tuple(range(n - m + 1, n)), a, e))
    for family, low in (("B", 3), ("D", 4)):
        for rank in range(low, 7):
            min_m = 1 if family == "B" else 2
            for m in range(min_m, rank - 1):
                free = rank - m
                for e in range(3, free + 1, 2):
                    if free % e:
                        continue
                    cycles = [tuple(range(k * e + 1, k * e + e + 1))
                              for k in range(free // e)]
                    inner = from_cycles(free, *cycles)
                    a = WeylElt(perm=tuple(list(inner.perm)
                                           + list(range(free + 1, rank + 1))))
                    cases.append((family, rank,
                                  tuple(range(rank - m + 1, rank + 1)), a, e))
    return cases


def check_regular_catalog(family: str | None = None,
                          rank: int | None = None) -> VerificationReport:
    """Regularity of the catalog elements relative to parabolic
    subgroups: classical tail families must pass, the two small
    exceptional groups must yield nothing, and each spot claim of
    L-regularity in the two big exceptional groups is tested, a false
    one being reported as a counterexample.

    family and rank restrict the run to one slice of the catalog."""
    t0 = time.perf_counter()

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
    model_regulars = {
        1: [(WeylElt(perm=(2, 1)), 2)],
        2: [(from_cycles(3, (1, 2, 3)), 3), (from_cycles(3, (1, 2)), 2)],
    }
    exhaustive_sweep = False
    for fam, rk in [fr for fr in (("G", 2), ("F", 4)) if wanted(*fr)]:
        rs = build_root_system(fam, rk)
        exhaustive_sweep = True
        for size in range(1, rk):
            for pi_L in combinations(range(1, rk + 1), size):
                lv = levi_config(rs, pi_L)
                for comp in lv.components:
                    for model_elt, e in model_regulars.get(comp[1], []):
                        a = embed_component_element(rs, comp, model_elt)
                        tried += 1
                        if is_L_regular(a, e, lv):
                            bad.append((f"{fam}{rk} pi_L={pi_L}", e,
                                        True, False))
    spots = []
    if wanted("E", 6):
        rs6 = build_root_system("E", 6)
        lv6 = levi_config(rs6, (6,))
        comp = [c for c in lv6.components if (c[0], c[1]) == ("A", 4)][0]
        spots.append(("E6 pi_L=(6,)", lv6,
                      embed_component_element(rs6, comp,
                                              from_cycles(5, (1, 2, 3, 4, 5))), 5))
    if wanted("E", 7):
        rs7 = build_root_system("E", 7)
        lv67 = levi_config(rs7, (6, 7))
        comp = [c for c in lv67.components if (c[0], c[1]) == ("A", 4)][0]
        spots.append(("E7 pi_L=(6,7)", lv67,
                      embed_component_element(rs7, comp,
                                              from_cycles(5, (1, 2, 3, 4, 5))), 5))
        lv7 = levi_config(rs7, (7,))
        comp = [c for c in lv7.components if (c[0], c[1]) == ("D", 5)][0]
        spots.append(("E7 pi_L=(7,)", lv7,
                      embed_component_element(rs7, comp,
                                              regular_element("D", 5, 5, "a")), 5))
    notes = ""
    for name, lv, a, e in spots:
        tried += 1
        if not is_L_regular(a, e, lv):
            bad.append((name, e, False, True))
            if name == "E7 pi_L=(7,)":
                notes = ("the order-5 twist of the D5-type complement has "
                         "its eigenvector on the hyperplanes of four "
                         "crossing roots (two opposite pairs), so the "
                         "claimed admissibility fails")
    if family is not None and exhaustive_sweep and not spots and not bad:
        notes = "no L-regular elements"
    return _finish("regular-catalog", f"{tried} cases", bad, t0, notes)


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
