"""Enumerative oracles for the tests: routes the library no longer takes.

The coset census walked element by element gives the table the
library tallies from class sizes.  The extended subgroup, its coset
exponent and the linear coset characters give the right side of the
mod-e identity by Frobenius induction element by element; the explicit
matrix model of the induced module gives pair traces by multiplying
actual matrices, knowing nothing about Green polynomials.  All three
are slow on purpose and serve only to check the census route of the
library.  Whole-group enumeration, the classical fundamental degrees,
class representatives and sizes, the coinvariant graded character,
matrix rank, eigenspaces by elimination and reduction mod Phi_e by long
division live here too: only the tests use them.  So do charge, the Kostka-Foulkes polynomials
summed over semistandard tableaux by charge, and the Murnaghan-Nakayama
recursion on validated partitions: the routes the library took before
its Lusztig-Shoji solve and its beta-set characters.  The Dynkin
classifier that walked bonds, degrees and arms, and the inverse of a
matrix element by elimination, check the root counts and the powers
that replaced them.  Root systems
built in Fraction arithmetic throughout check the integer coordinates
of the library.  The class weights, norms and Green tables as
polynomials check the packed integers of the Lusztig-Shoji solve, the
signed digits read one at a time check its one-pass reader, and a
few methods the library dropped because only the tests called them
(Galois action, vector action, signed cycle type, type of Pi', conjugate
partition, sign character, items of a graded character, monomials,
reversal, shift and power substitution of polynomials, products and
integer combinations of polynomials, orbit profiles and the trace
polynomial of one element) live on here as functions.
The coset sums assembled as polynomials, one product of power
substitutions per orbit profile, check the sums the library folds mod
q^e - 1 by cyclic convolution.
The root-of-unity and closed-form checks as they ran in Fractions, one
class representative and one coset count per class, and the induced
residue characters as field elements scaled by Fractions, check the
integer comparisons that replaced them.  validate_config as it ran on
the root system A_{n-1}, with the Levi of the blocks, its crossing
roots and the eigenspace of the twist, checks the letter rules that
replaced it.  The twist of a rotating layout worked out from its
finished blocks, trying whether a fixed block leads, checks the builder
that lays the blocks out knowing it.  Orbit shapes read off a^j built
as a group element at every exponent, root values bucketed afresh per
exponent, and reduction along the dense power-residue rows check the
block-index powers, the residue fold and the sparse rows that replaced
them.  The twisted induction check as it ran through one class
representative and one pair of root evaluations per trace checks the
loop that reads each class by its cycle type and evaluates it once.
The roots-of-unity check comparing on integers at every exponent and
every primitive root checks the Galois descent that compares at one
exponent per divisor of e, and the twisted induction check comparing in
Q(zeta_e) at every primitive root checks the descent that compares each
class and twist exponent at one root.
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from math import factorial, gcd

from greenchar import symfun, verify
from greenchar.poly import (
    Cyclotomic,
    IntPolynomial,
    _echelon,
    cyclotomic_poly,
    cyclotomic_text,
    eval_at_root,
    kernel_basis,
    root_values,
)
from greenchar.rootsys import (
    LeviConfig,
    RootSystem,
    _classical_simple_roots,
    _close_under_reflections,
    _exceptional_cartan,
    build_root_system,
    levi_config,
)
from greenchar.symfun import (
    Partition,
    centralizer_order,
    char_sn,
    closed_form_coset_count,
    enumerate_ssyt,
    kostka_foulkes,
    partitions_of,
)
from greenchar.weyl import (
    DEFAULT_BOUND,
    CosetCounts,
    InductionConfig,
    InvalidConfigError,
    SubgroupTable,
    WeylElt,
    _matvec,
    _normalize_scalar,
    _require_regular_blocks,
    block_permutation,
    block_restriction,
    coset_count,
    coset_elements,
    eigenspace,
    from_cycles,
    levi_elements,
    levi_order,
    orbits,
    runs,
    shape_census,
    standard_block_config,
    trapping_roots,
    validate_config,
    young_subgroup,
)


# ---------------------------------------------------------------------------
# whole groups, class sizes, the coinvariant algebra, rank and eigenspaces


# fundamental degrees of the classical Weyl groups, by rank
DEGREES = {
    "A": lambda n: tuple(range(2, n + 2)),
    "B": lambda n: tuple(range(2, 2 * n + 1, 2)),
    "D": lambda n: tuple(range(2, 2 * n - 1, 2)) + (n,),
}


def weyl_order(family: str, rank: int) -> int:
    family = family.upper()
    if family == "A":
        return factorial(rank + 1)
    if family in ("B", "C"):
        return 2 ** rank * factorial(rank)
    if family == "D":
        return 2 ** (rank - 1) * factorial(rank)
    return {("E", 6): 51840, ("E", 7): 2903040, ("E", 8): 696729600,
            ("F", 4): 1152, ("G", 2): 12}[(family, rank)]


def enumerate_group(rs: RootSystem, bound=DEFAULT_BOUND) -> SubgroupTable:
    order = weyl_order(rs.family, rs.rank)
    if order > bound:
        raise ValueError(
            f"{rs.name} has order {order}, beyond the enumeration bound {bound}")
    if rs.family == "A":
        elements = [WeylElt(perm=p) for p in permutations(range(1, rs.rank + 2))]
    elif rs.family in ("B", "C"):
        n = rs.rank
        elements = [WeylElt(perm=tuple(s * v for s, v in zip(signs, p)))
                    for p in permutations(range(1, n + 1))
                    for signs in product((1, -1), repeat=n)]
    elif rs.family == "D":
        n = rs.rank
        elements = [WeylElt(perm=tuple(s * v for s, v in zip(signs, p)))
                    for p in permutations(range(1, n + 1))
                    for signs in product((1, -1), repeat=n)
                    if signs.count(-1) % 2 == 0]
    else:
        gens = [WeylElt(mat=rs.simple_reflection(i)) for i in range(1, rs.rank + 1)]
        table = SubgroupTable.from_generators(gens, bound=bound)
        assert len(table) == order
        return table
    assert len(elements) == order
    return SubgroupTable(elements)


def fraction_root_system(family: str, rank: int) -> dict:
    """simple_roots, gram, root_coords, roots and the simple reflection
    matrices of a root system, every coordinate a Fraction: the route
    build_root_system took before its coordinates became integers.  The
    Cartan matrix is read off the Fraction form, not taken from the
    library."""
    if family in "ABCD":
        dim, simples = _classical_simple_roots(family, rank)
        gram = tuple(tuple(Fraction(int(i == j)) for j in range(dim))
                     for i in range(dim))
        simples = tuple(tuple(Fraction(x) for x in s) for s in simples)
    else:
        cartan, _ = _exceptional_cartan(family, rank)
        # the half-norms of the simple roots
        d = {"E": [Fraction(1)] * rank,
             "F": [Fraction(1), Fraction(1), Fraction(1, 2), Fraction(1, 2)],
             "G": [Fraction(1), Fraction(3)]}[family]
        dim = rank
        gram = tuple(tuple(d[i] * cartan[i][j] for j in range(rank))
                     for i in range(rank))
        simples = tuple(tuple(Fraction(int(j == i)) for j in range(rank))
                        for i in range(rank))

    def inner(u, v):
        return sum(u[i] * gram[i][j] * v[j]
                   for i in range(dim) if u[i] for j in range(dim) if v[j])

    cartan = [[2 * inner(a, b) / inner(a, a) for b in simples] for a in simples]
    assert all(x.denominator == 1 for row in cartan for x in row)
    coords = _close_under_reflections(cartan)
    roots = tuple(tuple(sum((c * alpha[k] for c, alpha in zip(cs, simples)),
                            Fraction(0)) for k in range(dim)) for cs in coords)
    units = [tuple(Fraction(int(k == c)) for k in range(dim)) for c in range(dim)]
    reflections = []
    for alpha in simples:
        cols = []
        for u in units:
            coef = 2 * inner(u, alpha) / inner(alpha, alpha)
            cols.append(tuple(u[r] - coef * alpha[r] for r in range(dim)))
        reflections.append(tuple(tuple(col[r] for col in cols)
                                 for r in range(dim)))
    return {"simple_roots": simples, "gram": gram, "root_coords": coords,
            "roots": roots, "reflections": tuple(reflections)}


def class_representative(rho) -> WeylElt:
    """A permutation with the given cycle type, cycles on consecutive
    letters in decreasing part order."""
    rho = Partition(rho)
    return from_cycles(rho.size, *runs(rho))


def class_size(rho) -> int:
    rho = Partition(rho)
    return factorial(rho.size) // centralizer_order(rho)


def coinvariant_graded_char(n: int) -> dict:
    """Graded character of the coinvariant algebra of S_n in its
    n-dimensional permutation representation: the Molien-style quotient
    prod_{i=1..n} (1 - q^i) / det(1 - q w), computed by exact division.
    """
    num = phi_polynomial(n)
    return {rho: num.exact_div(poly_product(*map(one_minus_power, rho)))
            for rho in partitions_of(n)}


# ---------------------------------------------------------------------------
# Kostka-Foulkes polynomials by charge, characters by strip removal


def charge(tableau) -> int:
    """Charge of a semistandard tableau with partition content.

    Charge follows the Lascoux-Schutzenberger convention: the reading
    word runs bottom row to top, left to right.  Standard subwords are
    peeled off by cyclic scanning: take the leftmost 1, then the nearest
    2 to its left (wrapping around from the end), and so on; within a
    subword the index goes up by one exactly when letter r+1 sits to the
    right of r, and charge is the total of all indices.  Scanning
    leftward matters: picking the nearest successor to the right instead
    gives the wrong polynomial first at n = 5, e.g. K((4,1),(2,2,1))
    would come out 2q^3 instead of q^2 + q^3.  The easy checks
    K(lambda,lambda) = 1 and K((n),(1^n)) = q^(n(n-1)/2) do not pin the
    scan direction; the Gram-Schmidt test in test_symfun.py does.
    """
    word = [c for row in reversed(tableau) for c in row]
    content = {}
    for c in word:
        content[c] = content.get(c, 0) + 1
    mults = [content.get(i, 0) for i in range(1, max(content) + 1)] if content else []
    if any(mults[i] < mults[i + 1] for i in range(len(mults) - 1)) or 0 in mults:
        raise ValueError("charge needs partition content")

    alive = [True] * len(word)
    remaining = len(word)
    total = 0
    while remaining:
        cur = next(i for i in range(len(word)) if alive[i] and word[i] == 1)
        alive[cur] = False
        remaining -= 1
        index = 0
        target = 2
        while True:
            nxt = None
            for i in list(range(cur - 1, -1, -1)) + list(range(len(word) - 1, cur, -1)):
                if alive[i] and word[i] == target:
                    nxt = i
                    break
            if nxt is None:
                break
            if nxt > cur:
                index += 1
            total += index
            alive[nxt] = False
            remaining -= 1
            cur = nxt
            target += 1
    return total


def charge_kostka_foulkes(lam, mu) -> IntPolynomial:
    """K_{lambda,mu}(q) as the sum of q^charge(T) over SSYT(lambda, mu):
    the route kostka_foulkes took before the Lusztig-Shoji solve."""
    coeffs = [0]
    for t in enumerate_ssyt(lam, mu):
        c = charge(t)
        coeffs.extend([0] * (c + 1 - len(coeffs)))
        coeffs[c] += 1
    return IntPolynomial(coeffs)


def _strip_removals(lam, r):
    """Ways to remove one border strip of size r: (smaller partition, height)."""
    L = len(lam)
    betas = [lam[i] + (L - 1 - i) for i in range(L)]
    bset = set(betas)
    out = []
    for b in betas:
        nb = b - r
        if nb >= 0 and nb not in bset:
            height = sum(1 for x in betas if nb < x < b)
            new = sorted((bset - {b}) | {nb}, reverse=True)
            parts = [x - (L - 1 - i) for i, x in enumerate(new)]
            out.append((Partition([p for p in parts if p > 0]), height))
    return out


@lru_cache(maxsize=None)
def strip_character(lam, rho) -> int:
    """chi^lambda(rho) by Murnaghan-Nakayama on validated partitions:
    the recursion char_sn ran before it moved to beta-set bitmasks."""
    lam, rho = Partition(lam), Partition(rho)
    if not rho:
        return 1
    rest = Partition(rho[1:])
    return sum((-1) ** h * strip_character(new, rest)
               for new, h in _strip_removals(lam, rho[0]))


# ---------------------------------------------------------------------------
# the Lusztig-Shoji inputs and the Green table as polynomials


@lru_cache(maxsize=None)
def phi_polynomial(m: int) -> IntPolynomial:
    """phi_m(t) = prod over k <= m of (1 - t^k)."""
    return poly_product(*map(one_minus_power, range(1, m + 1)))


def class_weight_polynomial(n: int, rho) -> IntPolynomial:
    """W_rho = (n!/z_rho) phi_n / prod_i (1 - t^rho_i), by long division:
    the polynomial the library evaluates at X before its solve."""
    rho = Partition(rho)
    den = poly_product(*map(one_minus_power, rho))
    return poly_combination((factorial(n) // centralizer_order(rho),
                             phi_polynomial(n).exact_div(den)))


def norm_polynomial(n: int, nu) -> IntPolynomial:
    """D_nu = n! phi_n / b_nu, where b_nu is the product of phi_m over the
    part multiplicities m of nu."""
    b = poly_product(*map(phi_polynomial,
                          Partition(nu).multiplicities().values()))
    return poly_combination((factorial(n), phi_polynomial(n).exact_div(b)))


def assembled_green_table(mu) -> dict:
    """The Green polynomials of mu summed coefficient by coefficient over
    lambda, rho and the degree from kostka_foulkes and char_sn: the
    assembly springer_graded_char ran before it read the packed solve."""
    mu = Partition(mu)
    nmu = mu.n_stat
    terms = [(lam, reverse(kostka_foulkes(lam, mu), nmu).coeffs)
             for lam in partitions_of(mu.size) if kostka_foulkes(lam, mu)]
    values = {}
    for rho in partitions_of(mu.size):
        acc = [0] * (nmu + 1)
        for lam, coeffs in terms:
            chi = char_sn(lam, rho)
            for d, c in enumerate(coeffs):
                acc[d] += chi * c
        values[rho] = IntPolynomial(acc)
    return values


def signed_digits(value: int, count: int, width: int):
    """The count lowest signed base-2^width digits of value, each in
    [-2^(width-1), 2^(width-1)), and the rest, one digit at a time: the
    loop the solve read its values with before its one-pass reader."""
    half = 1 << (width - 1)
    digits = []
    for _ in range(count):
        digits.append(((value + half) & (2 * half - 1)) - half)
        value = (value - digits[-1]) >> width
    return digits, value


# ---------------------------------------------------------------------------
# methods the library dropped because only the tests called them


def monomial(n: int, c: int = 1) -> IntPolynomial:
    """c q^n."""
    return IntPolynomial((0,) * n + (c,))


def one_minus_power(k: int) -> IntPolynomial:
    """1 - q^k, for k >= 1."""
    return IntPolynomial((1,) + (0,) * (k - 1) + (-1,))


def poly_product(*factors) -> IntPolynomial:
    """The product of integer polynomials, by convolution."""
    cs = [1]
    for p in factors:
        out = [0] * (len(cs) + len(p.coeffs))
        for i, a in enumerate(cs):
            for j, b in enumerate(p.coeffs):
                out[i + j] += a * b
        cs = out
    return IntPolynomial(cs)


def poly_combination(*terms) -> IntPolynomial:
    """The sum of c p over the pairs (c, p) of an int and a polynomial."""
    cs = [0] * max((len(p.coeffs) for _, p in terms), default=0)
    for c, p in terms:
        for i, a in enumerate(p.coeffs):
            cs[i] += c * a
    return IntPolynomial(cs)


def reverse(p: IntPolynomial, n: int) -> IntPolynomial:
    """q^n * p(1/q) as a polynomial; requires n >= deg p."""
    if n < p.degree:
        raise ValueError("reversal degree smaller than the polynomial degree")
    cs = [0] * (n + 1)
    for i, c in enumerate(p.coeffs):
        cs[n - i] = c
    return IntPolynomial(cs)


def shift(p: IntPolynomial, k: int) -> IntPolynomial:
    """q^k * p."""
    if k < 0:
        raise ValueError("negative shift")
    return IntPolynomial((0,) * k + p.coeffs)


def compose_power(p: IntPolynomial, k: int) -> IntPolynomial:
    """p(q^k)."""
    if k < 1:
        raise ValueError("power substitution needs k >= 1")
    if not p.coeffs:
        return IntPolynomial()
    cs = [0] * (k * p.degree + 1)
    for i, c in enumerate(p.coeffs):
        cs[k * i] = c
    return IntPolynomial(cs)


def orbit_profile(cfg: InductionConfig, z: WeylElt):
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


def power_orbit_shape(cfg: InductionConfig, j: int):
    """weyl.orbit_shape as it built a^j as a group element, then a fresh
    letter-to-block map for it, at every exponent."""
    sigma = block_permutation(cfg.blocks, cfg.a ** (j % cfg.e))
    if sigma is None:
        raise ValueError("element does not permute the blocks")
    return tuple(sorted((len(orbit), len(cfg.blocks[orbit[0]]),
                         cfg.block_types[orbit[0]]) for orbit in orbits(sigma)))


def trace_poly(cfg: InductionConfig, z: WeylElt) -> IntPolynomial:
    """The graded trace polynomial of one element of the twisted block
    subgroup, assembled from its own orbit profile."""
    if not any(z in coset_elements(cfg, i) for i in range(cfg.e)):
        raise ValueError("element lies outside the extended subgroup")
    return assemble(orbit_profile(cfg, z))


def assemble(profile) -> IntPolynomial:
    """The trace polynomial of an element with this orbit profile: the
    product over its orbits of the block character of the return map's
    type, with q replaced by q^(orbit length)."""
    return poly_product(*(
        compose_power(symfun.springer_graded_char(jtype)[inner_type], length)
        for length, inner_type, jtype in profile))


@lru_cache(maxsize=None)
def polynomial_shape_sums(shape) -> dict:
    """verify.shape_sums as it built each cycle type's sum over a coset
    of the given orbit shape unfolded, of degree up to n(mu): one
    assembled polynomial per orbit profile of the census, times its
    count."""
    return {ctype: poly_combination(*((count, assemble(profile))
                                      for profile, count in by_profile.items()))
            for ctype, by_profile in shape_census(shape).items()}


def fold(p: IntPolynomial, e: int) -> IntPolynomial:
    """p mod q^e - 1, of degree < e."""
    return IntPolynomial([p.mod_sum(e, r) for r in range(e)])


def conjugate(lam) -> Partition:
    """The transposed Young diagram."""
    lam = Partition(lam)
    if not lam:
        return Partition()
    return Partition(tuple(sum(1 for p in lam if p > i) for i in range(lam[0])))


def galois(z: Cyclotomic, j: int) -> Cyclotomic:
    """Field automorphism sending the basis root to its j-th power;
    needs gcd(j, e) = 1."""
    j %= z.e
    if gcd(j, z.e) != 1:
        raise ValueError(f"exponent {j} is not invertible mod {z.e}")
    acc = [0] * z.e
    for k, c in enumerate(z.coords):
        if c:
            acc[(k * j) % z.e] += c
    return Cyclotomic.from_poly(z.e, acc)


def apply(w: WeylElt, vec):
    """Image of an ambient vector under w."""
    if w.perm is not None:
        out = [0] * len(w.perm)
        for i, v in enumerate(w.perm):
            out[abs(v) - 1] = vec[i] if v > 0 else -vec[i]
        return tuple(out)
    return _matvec(w.matrix, vec)


def signed_cycle_type(w: WeylElt):
    """(lengths of the positive cycles, lengths of the negative cycles),
    each a partition."""
    pos, neg = [], []
    for letters, sign in w.signed_cycles():
        (pos if sign > 0 else neg).append(len(letters))
    return (Partition(sorted(pos, reverse=True)),
            Partition(sorted(neg, reverse=True)))


def pi_prime_type(lv: LeviConfig) -> str:
    """Dynkin type of the simple roots orthogonal to Pi_L, such as
    "A1+A1", or "empty"."""
    if not lv.components:
        return "empty"
    return "+".join(f"{letter}{rank}" for letter, rank, _ in lv.components)


def _component_arms(nodes, adj, branch):
    arms = []
    for nxt in adj[branch]:
        length = 1
        prev, cur = branch, nxt
        while True:
            ahead = [k for k in adj[cur] if k != prev]
            if not ahead:
                break
            prev, cur = cur, ahead[0]
            length += 1
        arms.append(length)
    return sorted(arms)


def bond_classify_component(nodes, cartan, norms):
    """Dynkin type of one connected subdiagram, as (letter, rank, nodes),
    from its bonds, node degrees and arm lengths: the route
    rootsys._classify_component took before it counted roots."""
    nodes = tuple(sorted(nodes))
    adj = {i: [j for j in nodes if j != i and cartan[i - 1][j - 1] != 0] for i in nodes}
    bonds = {}
    for i in nodes:
        for j in adj[i]:
            if i < j:
                bonds[(i, j)] = cartan[i - 1][j - 1] * cartan[j - 1][i - 1]
    if any(m == 3 for m in bonds.values()):
        return ("G", 2, nodes)
    doubles = [p for p, m in bonds.items() if m == 2]
    if doubles:
        assert len(doubles) == 1
        i, j = doubles[0]
        if len(nodes) == 2:
            return ("B", 2, nodes)
        if len(adj[i]) == 2 and len(adj[j]) == 2 and len(nodes) == 4:
            return ("F", 4, nodes)
        end = i if len(adj[i]) == 1 else j
        other = j if end == i else i
        letter = "B" if norms[end - 1] < norms[other - 1] else "C"
        return (letter, len(nodes), nodes)
    degs = {i: len(adj[i]) for i in nodes}
    if not nodes:
        raise ValueError("empty component")
    if max(degs.values(), default=0) <= 2:
        return ("A", len(nodes), nodes)
    branch = [i for i in nodes if degs[i] == 3]
    assert len(branch) == 1, "unrecognized diagram"
    arms = _component_arms(nodes, adj, branch[0])
    if arms[0] == 1 and arms[1] == 1:
        return ("D", len(nodes), nodes)
    assert arms[0] == 1 and arms[1] == 2 and arms[2] in (2, 3, 4)
    return ("E", len(nodes), nodes)


def rank(rows) -> int:
    _, pivots, _ = _echelon(rows)
    return len(pivots)


def long_division_residue(e: int, coeffs) -> tuple:
    """The power-basis coordinates of sum(coeffs[k] x^k) mod Phi_e, all
    Fractions, by long division by Phi_e: the route Cyclotomic.from_poly
    took before its table of power residues."""
    phi_cs = cyclotomic_poly(e).coeffs
    phi = len(phi_cs) - 1
    rem = [Fraction(c) for c in coeffs]
    for top in range(len(rem) - 1, phi - 1, -1):
        c = rem[top] / phi_cs[-1]
        if c:
            for i, p in enumerate(phi_cs):
                rem[top - phi + i] -= c * p
    rem = rem[:phi]
    return tuple(rem + [Fraction(0)] * (phi - len(rem)))


@lru_cache(maxsize=None)
def dense_power_residues(e: int):
    """The integer coordinates of x^k mod Phi_e for k < e, each row all
    phi(e) of them, zeros included."""
    phi_cs = cyclotomic_poly(e).coeffs[:-1]
    row = (1,) + (0,) * (len(phi_cs) - 1)
    rows = [row]
    for _ in range(e - 1):
        top = row[-1]
        row = tuple(r - top * c for r, c in zip((0,) + row[:-1], phi_cs))
        rows.append(row)
    return tuple(rows)


def dense_reduce(e: int, coeffs) -> list:
    """poly._reduce as it walked the dense power-residue rows."""
    table = dense_power_residues(e)
    phi = len(table[0])
    if len(coeffs) > e:
        buckets = [0] * e
        for k, c in enumerate(coeffs):
            buckets[k % e] += c
        coeffs = buckets
    out = list(coeffs[:phi])
    out += [0] * (phi - len(out))
    for b, row in zip(coeffs[phi:], table[phi:]):
        if b:
            for i, r in enumerate(row):
                if r:
                    out[i] += b * r
    return out


def per_exponent_root_values(p: IntPolynomial, e: int, exponents) -> list:
    """poly.root_values as it filled e buckets from every coefficient
    anew for each exponent, reduced by the dense rows."""
    values = []
    for j in exponents:
        buckets = [0] * e
        for k, c in enumerate(p.coeffs):
            buckets[(j * k) % e] += c
        values.append(tuple(dense_reduce(e, buckets)))
    return values


def matrix_eigenspace(a: WeylElt, e: int, j: int = 1):
    """The zeta_e^j-eigenspace of a by elimination on its matrix less
    zeta: the route the library keeps only for matrix elements."""
    zeta = Cyclotomic.zeta(e, j)
    m = a.matrix
    return kernel_basis([[x - zeta if r == c else x for c, x in enumerate(row)]
                         for r, row in enumerate(m)])


def elimination_inverse(a: WeylElt) -> WeylElt:
    """The inverse of a matrix element read off the reduced echelon form
    of [M | I], which is [I | M^-1]: the route WeylElt.inverse took
    before it raised the element to its order less one."""
    n = a.n
    m, _, _ = _echelon([tuple(row) + tuple(int(r == c) for c in range(n))
                        for r, row in enumerate(a.matrix)])
    return WeylElt(mat=[row[n:] for row in m])


# ---------------------------------------------------------------------------
# the extended subgroup and the induced module


def enumerated_census(cfg: InductionConfig, j: int):
    """The j-th shifted coset tallied element by element: each cycle
    type maps to {orbit profile: number of coset elements with both}."""
    aj = cfg.a ** (j % cfg.e)
    census = {}
    for z in (aj @ h for h in young_subgroup(cfg.blocks)):
        census.setdefault(z.cycle_type(), Counter())[orbit_profile(cfg, z)] += 1
    return census


@lru_cache(maxsize=None)
def _levi_set(cfg: InductionConfig):
    return frozenset(levi_elements(cfg))


@lru_cache(maxsize=None)
def extended_subgroup(cfg: InductionConfig) -> SubgroupTable:
    elements = []
    for j in range(cfg.e):
        elements.extend(coset_elements(cfg, j))
    return SubgroupTable(elements)


def coset_exponent(cfg: InductionConfig, y: WeylElt) -> int:
    inv = cfg.a.inverse()
    probe = y
    for j in range(cfg.e):
        if probe in _levi_set(cfg):
            return j
        probe = inv @ probe
    raise ValueError("element lies outside the extended subgroup")


def coset_character(cfg: InductionConfig, k: int):
    """Linear character of the extended subgroup that reads off the
    coset exponent: value zeta_e^(-k i) on the i-th shifted coset."""

    def evaluate(y):
        i = coset_exponent(cfg, y)
        return Cyclotomic.zeta(cfg.e, (-k * i) % cfg.e)

    return evaluate


# ---------------------------------------------------------------------------
# explicit matrix model of the induced module


def coset_reps(sub: SubgroupTable, parent: SubgroupTable):
    """Left-coset representatives of sub inside the parent table."""
    covered = set()
    reps = []
    for x in parent.elements:
        if x in covered:
            continue
        reps.append(x)
        covered.update(x @ h for h in sub.elements)
    return tuple(reps)


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
        self.reps = coset_reps(table, parent_table)
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
# the Fraction route of the root-of-unity and closed-form checks


def fraction_roots_of_unity(cfg: InductionConfig):
    """The counterexamples and notes check_roots_of_unity reported when
    it compared field elements with Fractions: every value at every power
    of the root by eval_at_root, the count of a class representative by
    coset_count, Galois invariance by field equality.  The Green table is
    read through the symfun module, so a test can replace it there."""
    _require_regular_blocks(cfg)
    validate_config(cfg)
    mu = cfg.merged_type()
    g = symfun.springer_graded_char(mu)
    primitive = [t for t in range(1, cfg.e) if gcd(t, cfg.e) == 1] or [0]
    bad = []
    for rho in partitions_of(cfg.n):
        w = class_representative(rho)
        values = [eval_at_root(g[rho], cfg.e, j) for j in range(cfg.e)]
        for j, value in enumerate(values):
            count = coset_count(w, cfg, j)
            if not value.is_rational or value.as_fraction() != count:
                bad.append((tuple(rho), j, str(value), str(count)))
            for t in primitive:
                other = values[(t * j) % cfg.e]
                if other != value:
                    bad.append((tuple(rho), (j, t), str(value), str(other)))
    return bad, f"merged type {tuple(mu)}"


def all_exponent_roots_of_unity(cfg: InductionConfig):
    """The status, config, counterexamples and notes check_roots_of_unity
    reported when it compared on integers at every exponent j < e, and
    each value with its conjugates at every primitive t, with no Galois
    descent.  The Green table is read through the symfun module and the
    census through CosetCounts, so a test can replace either."""
    _require_regular_blocks(cfg)
    validate_config(cfg)
    mu = cfg.merged_type()
    g = symfun.springer_graded_char(mu)
    e = cfg.e
    counts = CosetCounts(cfg, range(e))
    primitive = [t for t in range(1, e) if gcd(t, e) == 1] or [0]
    bad = []
    for rho in partitions_of(cfg.n):
        values = root_values(g[rho], e, range(e))
        for j, (value, scaled) in enumerate(zip(values, counts.scaled(rho))):
            if not counts.agrees(value, scaled):
                bad.append((tuple(rho), j, cyclotomic_text(e, value),
                            counts.text(scaled)))
            for t in primitive:
                other = values[(t * j) % e]
                if other != value:
                    bad.append((tuple(rho), (j, t), cyclotomic_text(e, value),
                                cyclotomic_text(e, other)))
    return ("fail" if bad else "pass", verify._config_echo(cfg), bad,
            f"merged type {tuple(mu)}")


def fraction_closed_form(m: int, e: int):
    """The counterexamples of check_closed_form by the Fraction route,
    and the classes where the multiplicity reading differs."""
    cfg = standard_block_config(m, e)
    bad, off = [], []
    for rho in partitions_of(cfg.n):
        count = coset_count(class_representative(rho), cfg, 1)
        parts_val = closed_form_coset_count(m, e, rho, "parts")
        if parts_val != count:
            bad.append((tuple(rho), 1, parts_val, str(count)))
        if closed_form_coset_count(m, e, rho, "multiplicity") != count:
            off.append(tuple(rho))
    return bad, off


# ---------------------------------------------------------------------------
# the twisted induction check read through one class representative


def representative_twisted_induction(cfg: InductionConfig):
    """The status, config, counterexamples and notes check_twisted_induction
    reported when it built one class representative per class and, for
    every trace, walked it back to its cycle type in
    twisted_induction_trace, divided by |L| afresh and evaluated both
    polynomials by eval_at_root.  The Green table is read through the
    symfun module and the coset sums through the verify module, so a
    test can replace either."""
    verify.extend_block_character(cfg)  # validates cfg
    mu = cfg.merged_type()
    g = symfun.springer_graded_char(mu)
    primitive = [j for j in range(1, cfg.e) if gcd(j, cfg.e) == 1] or [0]
    bad = []
    tried = 0
    for rho in partitions_of(cfg.n):
        w = class_representative(rho)
        poly = g[rho]
        for i in range(cfg.e):
            for j in primitive:
                lhs = verify.twisted_induction_trace(cfg, w, i, j)
                rhs = eval_at_root(poly, cfg.e, (j * i) % cfg.e)
                tried += 1
                if lhs != rhs:
                    bad.append((tuple(rho), (i, j), str(lhs), str(rhs)))
    return ("fail" if bad else "pass", verify._config_echo(cfg), bad,
            f"merged type {tuple(mu)}; {tried} traces compared")


def all_primitive_twisted_induction(cfg: InductionConfig):
    """The status, config, counterexamples and notes check_twisted_induction
    reported when it compared every class, twist exponent and primitive
    root in Q(zeta_e), with no Galois descent: per class the Green values
    at every power and the weight z_rho/|L| once, per twist exponent the
    coset sum at the powers (j i) mod e of the primitive j in one call.
    The Green table is read through the symfun module and the coset sums
    through the verify module, so a test can replace either."""
    sums_by_exponent = verify.extend_block_character(cfg)
    mu = cfg.merged_type()
    g = symfun.springer_graded_char(mu)
    e = cfg.e
    order = levi_order(cfg)
    primitive = [j for j in range(1, e) if gcd(j, e) == 1] or [0]
    none = IntPolynomial()
    bad = []
    tried = 0
    for rho in partitions_of(cfg.n):
        green = root_values(g[rho], e, range(e))
        weight = Fraction(centralizer_order(rho), order)
        for i, sums in enumerate(sums_by_exponent):
            powers = [(j * i) % e for j in primitive]
            induced = root_values(sums.get(rho, none), e, powers)
            for j, k, coords in zip(primitive, powers, induced):
                lhs = Cyclotomic(e, coords) * weight
                rhs = Cyclotomic(e, green[k])
                tried += 1
                if lhs != rhs:
                    bad.append((tuple(rho), (i, j), str(lhs), str(rhs)))
    return ("fail" if bad else "pass", verify._config_echo(cfg), bad,
            f"merged type {tuple(mu)}; {tried} traces compared")



# ---------------------------------------------------------------------------
# the Fraction route of the mod-e and component induction checks


def induced_residues(cfg: InductionConfig) -> dict:
    """Induced class function of zeta^(-k i) times the graded trace at
    zeta^i on the i-th shifted coset, keyed by (cycle type, k): the
    coefficient of q^n in coset_sums[i] lands in bucket i (n - k) mod e,
    and the buckets are reduced mod Phi_e once and scaled by z/(e |L|)."""
    e = cfg.e
    order = e * levi_order(cfg)
    by_exponent = verify.coset_sums(cfg)
    values = {}
    for rho in partitions_of(cfg.n):
        weight = Fraction(centralizer_order(rho), order)
        for k in range(e):
            buckets = [0] * e
            for i, sums in enumerate(by_exponent):
                for n, c in enumerate(sums.get(rho, IntPolynomial()).coeffs):
                    buckets[(i * (n - k)) % e] += c
            values[rho, k] = _normalize_scalar(
                Cyclotomic.from_poly(e, buckets) * weight)
    return values


def fraction_residue_induction(cfg: InductionConfig, detail: str = ""):
    """The counterexamples and notes the mod-e and component induction
    checks reported when they compared each residue slice with the
    induced value as a field element scaled by the Fraction z/(e |L|).
    The Green table is read through the symfun module and the coset
    sums through the verify module, so a test can replace either."""
    mu = cfg.merged_type()
    g = symfun.springer_graded_char(mu)
    rhs = induced_residues(cfg)
    bad = []
    for k in range(cfg.e):
        for rho in partitions_of(cfg.n):
            lhs = g[rho].mod_sum(cfg.e, k)
            if lhs != rhs[rho, k]:
                bad.append((tuple(rho), k, lhs, str(rhs[rho, k])))
    return bad, f"{detail}merged type {tuple(mu)}"


def fraction_mod_e_induction(cfg: InductionConfig):
    _require_regular_blocks(cfg)
    validate_config(cfg)
    return fraction_residue_induction(cfg)


def fraction_component_induction(cfg: InductionConfig):
    tag = validate_config(cfg)
    if tag != "l-regular":
        raise ValueError(f"check needs the regular-eigenvector shape, got {tag}")
    if cfg.a.support() & set(cfg.blocks[-1]):
        raise ValueError("twist must fix the distinguished block")
    return fraction_residue_induction(
        cfg, f"block type {tuple(cfg.block_types[-1])}, ")


# ---------------------------------------------------------------------------
# validate_config on the root system A_{n-1}


def config_pi_L(cfg: InductionConfig):
    """The simple roots alpha_i with letters i and i + 1 in one block."""
    labels = []
    for block in cfg.blocks:
        labels.extend(range(block[0], block[-1]))
    return tuple(labels)


def config_levi(cfg: InductionConfig) -> LeviConfig:
    return levi_config(build_root_system("A", cfg.n - 1), config_pi_L(cfg))


def rootsys_validate_config(cfg: InductionConfig) -> str:
    """validate_config as it ran on the root system: Pi' from the Gram
    form, the eigenspace of the twist paired with every crossing root,
    and each crossing root tested on the letters of the rotating
    blocks, in the order of the roots."""
    order = cfg.a.order()
    if order != cfg.e:
        raise InvalidConfigError(
            f"twisting element has order {order}, expected e = {cfg.e}")
    if cfg.e == 1:
        return "ungraded"
    sigma = block_permutation(cfg.blocks, cfg.a)
    if sigma is None:
        raise InvalidConfigError(
            "twisting element does not permute the blocks, so it fails "
            "to normalize the block subgroup")
    levi = config_levi(cfg)
    if levi.pi_prime:
        big = [b for b in cfg.blocks if len(b) > 1]
        if len(big) > 1:
            raise InvalidConfigError(
                "more than one nonabelian block factor; the fixed Levi "
                "must be simple modulo its center")
        allowed = set()
        for label in levi.pi_prime:
            allowed.update((label, label + 1))
        moved = cfg.a.support()
        if not moved <= allowed:
            raise InvalidConfigError(
                "twisting element moves letters outside the span of the "
                "simple roots orthogonal to the blocks")
        beta = next(trapping_roots(levi.parent, eigenspace(cfg.a, cfg.e, 1),
                                   levi.crossing_roots()), None)
        if beta is not None:
            raise InvalidConfigError(
                "twisting element is not admissible: its eigenspace "
                "lies inside the hyperplane of the crossing root "
                f"{levi.parent.coords(beta)} (simple-root coordinates)")
        return "l-regular"
    rotating = []
    for orbit in orbits(sigma):
        if len(orbit) == 1:
            bi = orbit[0]
            if any(cfg.a.perm[letter - 1] != letter for letter in cfg.blocks[bi]):
                raise InvalidConfigError(
                    "twisting element acts inside a block it fixes")
        elif len(orbit) == cfg.e:
            types = {cfg.block_types[bi] for bi in orbit}
            if len(types) != 1:
                raise InvalidConfigError(
                    "blocks in one cyclic orbit carry different Jordan types")
            rotating.extend(orbit)
        else:
            raise InvalidConfigError(
                f"blocks rotate in an orbit of length {len(orbit)}, not e = {cfg.e}")
    if not rotating:
        raise InvalidConfigError("no block rotates; the twist does nothing")
    family_blocks = [cfg.blocks[bi] for bi in rotating]
    for beta in levi.crossing_roots():
        if all(len({beta[letter - 1] for letter in block}) == 1
               for block in family_blocks):
            raise InvalidConfigError(
                f"crossing root {levi.parent.coords(beta)} (simple-root "
                "coordinates) is orthogonal to every rotating block")
    return "block-cyclic"


# ---------------------------------------------------------------------------
# the rotating layout worked out from finished blocks


def block_shift_element(blocks, e: int) -> WeylElt:
    """Canonical cyclic twist for a block layout: consecutive runs of e
    equal-size blocks rotate, an optional leading block stays fixed."""
    blocks = tuple(tuple(b) for b in blocks)
    n = sum(len(b) for b in blocks)

    def assemble(start):
        perm = list(range(1, n + 1))
        p = start
        while p < len(blocks):
            run = blocks[p:p + e]
            if len(run) < e or len({len(b) for b in run}) != 1:
                return None
            for t in range(e):
                src, dst = run[t], run[(t + 1) % e]
                for k, letter in enumerate(src):
                    perm[letter - 1] = dst[k]
            p += e
        return WeylElt(perm=tuple(perm))

    result = assemble(0)
    if result is None and len(blocks) > 1:
        result = assemble(1)
    if result is None:
        raise InvalidConfigError(
            f"cannot rotate {len(blocks)} blocks in runs of {e}")
    return result
