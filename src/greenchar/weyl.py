"""Elements of the finite reflection groups, at desk scale.

Classical elements are signed one-line permutations: entry i of the
tuple is w(i), with a minus sign when the i-th coordinate vector is
sent to minus a coordinate vector.  Type A elements carry no signs.
Exceptional elements are plain integer matrices on the ambient space
of their root system.  Both forms compose with ``@`` and the
convention is (u @ v)(x) = u(v(x)), so conjugation x^-1 w x applies x
first.

Containers of elements must stay within one form: equality across the
two forms falls back to the matrix, but hashing does not.  Every
public constructor in this module keeps one family in one form, so
the situation does not arise in practice.

The regular-element catalog lists, for each classical family and each
admissible order e, a canonical element whose zeta_e-eigenspace
escapes every reflecting hyperplane.  Admissibility is a divisibility
condition on e; the catalog refuses anything else by naming the
condition that failed.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import chain, permutations, product, zip_longest
from math import factorial, lcm, prod
from operator import mul

from .poly import Cyclotomic, kernel_basis
from .symfun import (Partition, centralizer_order, partitions_of,
                     trusted_partition)

# rootsys is imported only where a root system is built, so a block
# configuration of the general linear group loads none; the RootSystem
# and LeviConfig annotations below are never evaluated

DEFAULT_BOUND = 10 ** 7

def _identity_matrix(n: int):
    return tuple(tuple(int(r == c) for c in range(n)) for r in range(n))


def _matmul(a, b):
    n = len(a)
    return tuple(tuple(sum(a[r][k] * b[k][c] for k in range(n) if a[r][k])
                       for c in range(n)) for r in range(n))


def _matvec(m, v):
    n = len(m)
    return tuple(sum(m[r][c] * v[c] for c in range(n) if m[r][c]) for r in range(n))


class WeylElt:
    """A group element, as a signed permutation, a matrix, or both."""

    __slots__ = ("perm", "_mat")

    def __init__(self, perm=None, mat=None):
        if perm is None and mat is None:
            raise ValueError("a WeylElt needs a permutation or a matrix")
        self.perm = tuple(perm) if perm is not None else None
        self._mat = tuple(tuple(row) for row in mat) if mat is not None else None
        if self.perm is not None:
            n = len(self.perm)
            if sorted(abs(v) for v in self.perm) != list(range(1, n + 1)):
                raise ValueError(f"not a signed permutation: {self.perm}")

    @property
    def n(self) -> int:
        return len(self.perm) if self.perm is not None else len(self._mat)

    @property
    def matrix(self):
        if self._mat is None:
            n = len(self.perm)
            rows = [[0] * n for _ in range(n)]
            for i, v in enumerate(self.perm):
                rows[abs(v) - 1][i] = 1 if v > 0 else -1
            self._mat = tuple(tuple(r) for r in rows)
        return self._mat

    def __matmul__(self, other: "WeylElt") -> "WeylElt":
        if self.perm is not None and other.perm is not None:
            comp = []
            for v in other.perm:
                w = self.perm[abs(v) - 1]
                comp.append(w if v > 0 else -w)
            return WeylElt(perm=tuple(comp))
        return WeylElt(mat=_matmul(self.matrix, other.matrix))

    def inverse(self) -> "WeylElt":
        if self.perm is not None:
            inv = [0] * len(self.perm)
            for i, v in enumerate(self.perm, start=1):
                inv[abs(v) - 1] = i if v > 0 else -i
            return WeylElt(perm=tuple(inv))
        return self ** (self.order() - 1)

    def __pow__(self, k: int) -> "WeylElt":
        if k < 0:
            return self.inverse() ** (-k)
        result = identity_elt(self.n) if self.perm is not None \
            else WeylElt(mat=_identity_matrix(self.n))
        base = self
        while k:
            if k & 1:
                result = result @ base
            base = base @ base
            k >>= 1
        return result

    def is_identity(self) -> bool:
        if self.perm is not None:
            return all(v == i for i, v in enumerate(self.perm, start=1))
        return self._mat == _identity_matrix(self.n)

    def signed_cycles(self):
        """Orbits of the underlying permutation, each with its sign."""
        assert self.perm is not None, "cycle data needs the permutation form"
        return _walk(self.perm)

    def cycle_type(self) -> Partition:
        return trusted_partition(sorted(
            (len(c) for c, _ in _walk(self.perm)), reverse=True))

    def order(self) -> int:
        if self.perm is not None:
            return lcm(*(len(c) * (1 if sign > 0 else 2)
                         for c, sign in self.signed_cycles()))
        k, m = 1, self
        while not m.is_identity():
            m = m @ self
            k += 1
        return k

    def support(self):
        assert self.perm is not None
        return frozenset(i for i, v in enumerate(self.perm, start=1) if v != i)

    def __eq__(self, other):
        if not isinstance(other, WeylElt):
            return NotImplemented
        if self.perm is not None and other.perm is not None:
            return self.perm == other.perm
        return self.matrix == other.matrix

    def __hash__(self):
        return hash(self.perm) if self.perm is not None else hash(self._mat)

    def __repr__(self):
        if self.perm is not None:
            return f"WeylElt{self.perm}"
        return f"WeylElt(<{self.n}x{self.n} matrix>)"


def identity_elt(n: int) -> WeylElt:
    return WeylElt(perm=tuple(range(1, n + 1)))


def _walk(perm):
    """The cycles of a signed one-line permutation of 1..n, each listed
    from its smallest letter, with the product of the signs along it."""
    seen = [False] * (len(perm) + 1)
    cycles = []
    for start in range(1, len(perm) + 1):
        if seen[start]:
            continue
        letters = []
        sign = 1
        cur = start
        while not seen[cur]:
            seen[cur] = True
            letters.append(cur)
            cur = perm[cur - 1]
            if cur < 0:
                sign = -sign
                cur = -cur
        cycles.append((tuple(letters), sign))
    return cycles


def from_cycles(n: int, *cycles, negative=()) -> WeylElt:
    """The signed permutation of 1..n with the given cycles; a negative
    cycle sends its last letter to minus its first."""
    perm = list(range(1, n + 1))
    for sign, group in ((1, cycles), (-1, negative)):
        for cycle in group:
            for i, letter in enumerate(cycle, start=1):
                image = cycle[i % len(cycle)]
                perm[letter - 1] = -image if sign < 0 and i == len(cycle) else image
    return WeylElt(perm=tuple(perm))


def runs(sizes):
    """Consecutive runs of letters from 1 on, one of each given size."""
    out = []
    start = 1
    for size in sizes:
        out.append(tuple(range(start, start + size)))
        start += size
    return tuple(out)


def pad(a: WeylElt, n: int) -> WeylElt:
    """a on its own letters, fixing the further letters up to n."""
    return WeylElt(perm=a.perm + tuple(range(a.n + 1, n + 1)))


# ---------------------------------------------------------------------------
# group enumeration


class SubgroupTable:
    """An explicit subgroup as its element list."""

    def __init__(self, elements):
        self.elements = tuple(elements)

    @classmethod
    def from_generators(cls, gens, bound=DEFAULT_BOUND):
        gens = tuple(gens)
        n = gens[0].n
        start = identity_elt(n) if gens[0].perm is not None \
            else WeylElt(mat=_identity_matrix(n))
        seen = {start}
        ordered = [start]
        frontier = [start]
        while frontier:
            next_frontier = []
            for x in frontier:
                for g in gens:
                    y = x @ g
                    if y not in seen:
                        if len(seen) >= bound:
                            raise ValueError(
                                f"closure exceeded the bound {bound}")
                        seen.add(y)
                        ordered.append(y)
                        next_frontier.append(y)
            frontier = next_frontier
        if start.perm is not None:
            ordered.sort(key=lambda e: e.perm)
        return cls(ordered)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


# ---------------------------------------------------------------------------
# class functions


def _normalize_scalar(x):
    if isinstance(x, Cyclotomic) and x.is_rational:
        x = x.as_fraction()
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    return x


def induced_character(H: SubgroupTable, chi) -> dict:
    """Frobenius induction from an explicit subgroup of the full symmetric
    group on the letters the elements act on.

    chi is a class function of H, called on its elements; the result
    maps each cycle type to the induced value, rational ones as int or
    Fraction."""
    sums = dict.fromkeys(partitions_of(H.elements[0].n), 0)
    for y in H.elements:
        sums[y.cycle_type()] += chi(y)
    return {rho: _normalize_scalar(
                Fraction(centralizer_order(rho), len(H)) * total)
            for rho, total in sums.items()}


# ---------------------------------------------------------------------------
# regular elements


def _need(condition: bool, message: str):
    if not condition:
        raise ValueError(message)


# The catalog by family and variant: the parity e must have (None for
# either), and (k, s) with e dividing k*n - s, n the number of letters.
# The cycles run over the first (k*n - s)/k letters: e-cycles, or
# negative e/2-cycles when e must be even.
_CATALOG = {"A": {"a": (None, 1, 0), "b": (None, 1, 1)},
            "B": {"a": (1, 1, 0), "b": (0, 2, 0)},
            "D": {"a": (1, 1, 0), "b": (1, 1, 1), "c": (0, 1, 0),
                  "d": (0, 2, 2)}}
_VARIANT_NAMES = {"A": "a and b", "B": "a and b", "D": "a through d"}


def regular_element(family: str, rank: int, e: int, variant: str = "a") -> WeylElt:
    """Catalog element of order e with a regular zeta_e-eigenvector.

    Each admissible (family, e, variant) names one canonical signed
    permutation; the divisibility conditions are exactly the admissible
    ones, and violations raise with the failed condition spelled out.
    """
    name = family.upper()
    variant = variant.lower()
    _need(e >= 1, f"order e must be positive, got {e}")
    # type C shares type B's signed permutations, so it reads B's row
    family = "B" if name == "C" else name
    _need(family in _CATALOG, f"no catalog for family {family!r}")
    _need(variant in _CATALOG[family], f"type {name} has variants "
          f"{_VARIANT_NAMES[family]}, got {variant!r}")
    parity, k, s = _CATALOG[family][variant]
    n = rank + 1 if family == "A" else rank
    needs = f"type {name} variant {variant} needs"
    _need(parity is None or e % 2 == parity,
          f"{needs} {'odd' if parity else 'even'} e, got e={e}")
    _need((k * n - s) % e == 0, f"{needs} e | {k * n - s}, got e={e}")
    covered = (k * n - s) // k
    if parity != 0:
        return from_cycles(n, *runs([e] * (covered // e)))
    cycles = runs([e // 2] * (2 * covered // e))
    if family == "D" and len(cycles) % 2:
        # the leftover letter keeps the total sign count even
        cycles += ((n,),)
    return from_cycles(n, negative=cycles)


def eigenspace(a: WeylElt, e: int, j: int = 1):
    """Exact basis of the zeta_e^j eigenspace of a on the ambient space.

    A signed permutation gives one vector per cycle c_0 -> ... -> c_{L-1}
    whose sign product s equals zeta^L: v[c_0] = 1 and v[c_{t+1}] =
    sign_t * zeta^-1 * v[c_t], zero off the cycle.  A matrix element is
    solved by elimination."""
    if a.perm is not None:
        basis = []
        for letters, sign in _walk(a.perm):
            # zeta^L is zeta_e^turn; it equals s when 2*turn is 0 or e
            turn = j * len(letters) % e
            if 2 * turn != (0 if sign > 0 else e):
                continue
            v = [Cyclotomic.zero(e)] * len(a.perm)
            flipped = False
            for t, letter in enumerate(letters):
                root = Cyclotomic.zeta(e, -j * t)
                v[letter - 1] = -root if flipped else root
                flipped ^= a.perm[letter - 1] < 0
            basis.append(tuple(v))
        return basis
    zeta = Cyclotomic.zeta(e, j % e)
    m = a.matrix
    n = len(m)
    rows = [[m[r][c] - zeta if r == c else m[r][c] for c in range(n)]
            for r in range(n)]
    return kernel_basis(rows)


def trapping_roots(rs: RootSystem, basis, roots):
    """The roots whose hyperplane holds every basis vector, in order.

    A vector over Q(zeta) is the sum of zeta^k times rational vectors,
    and 1, zeta, ... are independent over Q, so it pairs to zero with a
    rational root exactly when each rational part does: the test runs
    in rational arithmetic, one form per part, read off the Gram columns."""
    forms = []
    for v in basis:
        coords = [x.coords if isinstance(x, Cyclotomic) else (x,) for x in v]
        for k in range(max(map(len, coords))):
            part = [c[k] if k < len(c) else 0 for c in coords]
            forms.append([sum(map(mul, part, col)) for col in rs.gram])
    return (beta for beta in roots
            if not any(sum(f[i] * b for i, b in enumerate(beta) if b)
                       for f in forms))


def is_L_regular(a: WeylElt, e: int, cfg: LeviConfig) -> bool:
    """True when the zeta_e-eigenspace escapes the hyperplane of every
    crossing root (of every root, for an empty Levi).  Over an infinite
    field a finite union of proper subspaces cannot cover the
    eigenspace, so this finds a single eigenvector off all of them."""
    basis = eigenspace(a, e)
    return bool(basis) and next(trapping_roots(
        cfg.parent, basis, cfg.crossing_roots()), None) is None


# ---------------------------------------------------------------------------
# embedding subsystem elements


def reflection_word(rs: RootSystem, w: WeylElt):
    """Express w as a word in the simple reflections of its root system."""
    coords_of = dict(zip(rs.roots, rs.root_coords))
    ident = _identity_matrix(rs.dim)
    cur = w.matrix
    suffix = []
    limit = len(rs.roots) // 2 + 1
    while cur != ident:
        for i in range(1, rs.rank + 1):
            image = _matvec(cur, rs.simple_roots[i - 1])
            coords = coords_of.get(tuple(image))
            if coords is None:
                raise ValueError("matrix does not permute the roots")
            if any(c < 0 for c in coords):
                suffix.append(i)
                cur = _matmul(cur, rs.simple_reflection(i))
                break
        else:
            raise ValueError("no descent found; matrix is not in the group")
        if len(suffix) > limit:
            raise ValueError("word grew past the number of positive roots")
    return tuple(reversed(suffix))


def _match_component(parent: RootSystem, nodes, letter: str, rank: int):
    """Order the component's labels so they mirror the model numbering."""
    from .rootsys import build_root_system
    model = build_root_system(letter, rank)
    nodes = list(nodes)
    order = []

    def fits(cand, pos):
        for k, prev in enumerate(order):
            if model.cartan[pos][k] != parent.cartan[cand - 1][prev - 1]:
                return False
            if model.cartan[k][pos] != parent.cartan[prev - 1][cand - 1]:
                return False
        return True

    def place(pos):
        if pos == rank:
            return True
        for cand in nodes:
            if cand in order or not fits(cand, pos):
                continue
            order.append(cand)
            if place(pos + 1):
                return True
            order.pop()
        return False

    if not place(0):
        raise ValueError(f"component {nodes} does not match type {letter}{rank}")
    return tuple(order)


def embed_component_element(parent: RootSystem, component, model_elt: WeylElt) -> WeylElt:
    """Carry an element of a component's model group into the parent group.

    The component is one (letter, rank, nodes) entry of a LeviConfig;
    the element is rewritten as a word in the model's simple reflections
    and replayed on the matching parent labels.
    """
    from .rootsys import build_root_system
    letter, rank, nodes = component
    order = _match_component(parent, nodes, letter, rank)
    model = build_root_system(letter, rank)
    word = reflection_word(model, model_elt)
    mat = _identity_matrix(parent.dim)
    for i in word:
        mat = _matmul(mat, parent.simple_reflection(order[i - 1]))
    return WeylElt(mat=mat)


# ---------------------------------------------------------------------------
# induction configurations on the full linear group


class InvalidConfigError(ValueError):
    pass


class InductionConfig(namedtuple("InductionConfig", "n e blocks block_types a")):
    """A block Levi of the general linear group plus a twisting element.

    blocks partition the letters 1..n into consecutive runs; the block
    subgroup is the product of the symmetric groups on the runs.  Each
    block carries the Jordan type of its unipotent factor.  The element
    a supplies the cyclic twist; validate_config decides which of the
    two admissible shapes the data has.  A config is immutable, equal
    and hashed by value, so it keys the caches below.
    """

    __slots__ = ()

    def __new__(cls, n, e, blocks, block_types, a):
        for block, jtype, run in zip(blocks, block_types,
                                     runs(map(len, blocks)), strict=True):
            if tuple(block) != run:
                raise ValueError(f"blocks must be consecutive runs, got {block}")
            if not isinstance(jtype, Partition):
                raise ValueError("block types must be Partition instances")
            if jtype.size != len(block):
                raise ValueError(
                    f"Jordan type {jtype} does not fill a block of {len(block)}")
        if sum(map(len, blocks)) != n:
            raise ValueError("blocks do not cover the letters")
        if a.n != n or any(v < 0 for v in a.perm):
            raise ValueError("the twisting element must be a plain permutation")
        return super().__new__(cls, n, e, blocks, block_types, a)

    @classmethod
    def _make(cls, fields):
        return cls(*fields)  # so that _replace checks its result too

    def merged_type(self) -> Partition:
        return trusted_partition(sorted(
            chain.from_iterable(self.block_types), reverse=True))


def _config_echo(cfg: InductionConfig) -> str:
    types = ",".join("+".join(str(p) for p in t) for t in cfg.block_types)
    return f"n={cfg.n} e={cfg.e} blocks={cfg.blocks} types=({types})"


def _require_regular_blocks(cfg: InductionConfig):
    for jtype in cfg.block_types:
        if len(jtype) != 1:
            raise ValueError(
                "check needs a one-row Jordan type on every block, got "
                f"{tuple(jtype)}")


def young_subgroup(blocks):
    """The product of the symmetric groups on consecutive runs of
    letters covering 1..n, in lexicographic order of the permutations:
    each element is the concatenation of its images of the blocks."""
    return tuple(WeylElt(perm=tuple(chain.from_iterable(images)))
                 for images in product(*(permutations(b) for b in blocks)))


def block_permutation(blocks, z: WeylElt):
    """How z permutes the blocks: sigma with z(blocks[i]) =
    blocks[sigma[i]], or None when z splits some block."""
    index_of = {letter: bi for bi, block in enumerate(blocks) for letter in block}
    sigma = []
    for block in blocks:
        targets = {index_of[z.perm[letter - 1]] for letter in block}
        if len(targets) != 1:
            return None
        sigma.append(targets.pop())
    return tuple(sigma)


def orbits(sigma):
    """Cycles of a permutation of 0..len(sigma)-1, each listed from its
    smallest index."""
    return [tuple(i - 1 for i in letters)
            for letters, _ in _walk([i + 1 for i in sigma])]


def block_restriction(z: WeylElt, block) -> WeylElt:
    """z on a block it maps onto itself, relabelled to act on 1..k."""
    shift = block[0] - 1
    return WeylElt(perm=tuple(z.perm[letter - 1] - shift for letter in block))


@lru_cache(maxsize=None)
def levi_elements(cfg: InductionConfig):
    """The block subgroup as explicit permutations."""
    return young_subgroup(cfg.blocks)


@lru_cache(maxsize=None)
def coset_elements(cfg: InductionConfig, j: int):
    aj = cfg.a ** (j % cfg.e)
    return tuple(aj @ h for h in levi_elements(cfg))


def levi_order(cfg: InductionConfig) -> int:
    """Order of the block subgroup: the product of |block|! over blocks."""
    return prod(factorial(len(block)) for block in cfg.blocks)


@lru_cache(maxsize=None)
def _twist_blocks(cfg: InductionConfig):
    """sigma, how the twist permutes the blocks; None when it splits one."""
    return block_permutation(cfg.blocks, cfg.a)


def orbit_shape(cfg: InductionConfig, j: int):
    """How the j-th shifted coset moves the blocks, as far as its census
    can tell: the sorted (orbit length, block size, block type) of each
    orbit of sigma^j, the type being that of the orbit's first block.
    sigma^j is composed on block indices; only a twist that splits a
    block, some power of which may still permute them, is raised to the
    j-th power itself."""
    k = j % cfg.e
    sigma = _twist_blocks(cfg)
    if sigma is None:
        power = block_permutation(cfg.blocks, cfg.a ** k)
        if power is None:
            raise ValueError("element does not permute the blocks")
    else:
        power = range(len(sigma))
        for _ in range(k):
            power = [sigma[b] for b in power]
    return tuple(sorted((len(orbit), len(cfg.blocks[orbit[0]]),
                         cfg.block_types[orbit[0]]) for orbit in orbits(power)))


def coset_census(cfg: InductionConfig, j: int):
    """The j-th shifted coset a^j W_L tallied from class sizes, walking
    no element: each cycle type maps to {orbit profile: number of coset
    elements with both}.

    An element z = a^j h moves the blocks as sigma^j does, sigma being
    how a moves them.  On an orbit of length L of blocks of size m, the
    return map of z^L on the orbit's first block is the product of L
    block-to-block bijections that h picks freely, so each permutation
    of the block is the return map of m!^(L-1) choices, and each type
    lambda of m arises m!^(L-1) m!/z_lambda times and adds L*lambda to
    the cycle type of z (Macdonald, Symmetric Functions and Hall
    Polynomials, I.7).  Orbits choose independently, so the table
    depends on the orbit shape alone, and exponents and configurations
    of one shape share one table, cached per shape by shape_census; this
    function keeps no cache of its own.  The table is a plain dict of plain
    dicts, and its keys are built from sorted parts without Partition's
    checks (trusted_partition).  Counts, graded traces and induced
    residue characters are all read off it; every caller shares it and
    none may change it."""
    return shape_census(orbit_shape(cfg, j))


@lru_cache(maxsize=None)
def shape_census(shape):
    """The census of a coset of the given orbit shape (see coset_census).

    Each orbit's choices carry their scaled parts L*lambda and their
    weight m!^L/z_lambda, so a pick only sorts its parts into a key,
    built without Partition's checks, and multiplies its weights."""
    choices = []
    for length, m, jtype in shape:
        # m!^(L-1) choices per return map, m!/z_lambda maps of type lambda
        ways = factorial(m) ** length
        choices.append([((length, lam, jtype), [length * part for part in lam],
                         ways // centralizer_order(lam))
                        for lam in partitions_of(m)])
    census = {}
    for picks in product(*choices):
        rho = trusted_partition(sorted(
            chain.from_iterable(scaled for _, scaled, _ in picks), reverse=True))
        profile = tuple(sorted(entry for entry, _, _ in picks))
        count = prod(n for _, _, n in picks)
        by_profile = census.setdefault(rho, {})
        by_profile[profile] = by_profile.get(profile, 0) + count
    return census


def coset_count(w: WeylElt, cfg: InductionConfig, j: int) -> Fraction:
    """Number of cosets of the block subgroup whose twist-shifted copy
    meets the conjugacy class of w, counted with the centralizer weight."""
    key = w.cycle_type()
    matches = sum(coset_census(cfg, j).get(key, {}).values())
    return Fraction(centralizer_order(key) * matches, levi_order(cfg))


def census_agrees(order: int, green, z: int, census) -> bool:
    """Whether order * green == z * census coordinate by coordinate, the
    shorter tuple padded with zeros: the one rule comparing a Green value
    with its census side z/order * census, with nothing divided."""
    for g, c in zip_longest(green, census, fillvalue=0):
        if order * g != z * c:
            return False
    return True


class CosetCounts:
    """Coset counts of one configuration as integers, keyed by cycle type.

    The count of class rho at the j-th shift is z_rho * m / |L|, m being
    the census matches of type rho there; z_rho * m is formed once per
    census entry when the counts are built, for census_agrees.  Exponents
    whose coset_census is one table share one dict of counts, so
    by_exponent[i] is by_exponent[j] exactly when their tables are one
    object; each table is kept while its id keys the dicts."""

    def __init__(self, cfg: InductionConfig, exponents):
        self.order = levi_order(cfg)
        built = {}
        self.by_exponent = []
        for j in exponents:
            census = coset_census(cfg, j)
            if id(census) not in built:
                built[id(census)] = census, {
                    rho: centralizer_order(rho) * sum(by_profile.values())
                    for rho, by_profile in census.items()}
            self.by_exponent.append(built[id(census)][1])

    def scaled(self, rho: Partition) -> list:
        """z_rho * m at each exponent, in the order given."""
        return [scaled.get(rho, 0) for scaled in self.by_exponent]

    def agrees(self, coords, scaled: int) -> bool:
        """Whether the value with these coordinates is that count."""
        return census_agrees(self.order, coords, 1, (scaled,))

    def text(self, scaled: int) -> str:
        """That count as coset_count prints it."""
        return str(Fraction(scaled, self.order))


def rotating_config(e: int, types, fixed: Partition | None = None) -> InductionConfig:
    """An optional fixed block of type fixed, then e consecutive blocks of
    each type in types, in order.  The twist sends letter k of each block
    in a family to letter k of the next block, and the last block back to
    the first; at e = 1 it is the identity, the ungraded configuration."""
    if e < 1:
        raise InvalidConfigError(f"order e must be positive, got e={e}")
    lead = () if fixed is None else (fixed,)
    block_types = lead + tuple(nu for nu in types for _ in range(e))
    blocks = runs(t.size for t in block_types)
    cycles = (cycle for f in range(len(lead), len(blocks), e)
              for cycle in zip(*blocks[f:f + e]))
    n = sum(map(len, blocks))
    return InductionConfig(n=n, e=e, blocks=blocks, block_types=block_types,
                           a=from_cycles(n, *cycles))


def standard_block_config(m: int, e: int, nu: Partition | None = None,
                          fixed_size: int = 0,
                          fixed_type: Partition | None = None) -> InductionConfig:
    """e blocks of size m and type nu (one row by default), after a fixed
    block of fixed_size letters and type fixed_type when fixed_size > 0."""
    nu = nu if nu is not None else Partition((m,))
    fixed = (fixed_type if fixed_type is not None
             else Partition((fixed_size,))) if fixed_size else None
    for jtype, size in ((fixed, fixed_size), (nu, m)):
        if jtype is not None and jtype.size != size:
            raise ValueError(f"Jordan type {jtype} does not fill a block of {size}")
    return rotating_config(e, [nu], fixed)


def l_regular_config(n: int, m: int, e: int, nu: Partition | None = None,
                     variant: str = "a") -> InductionConfig:
    """One block of size m on the last letters; the catalog element of
    the complementary symmetric group supplies the twist (of the whole
    group when the block is a single letter)."""
    if not 1 <= m <= n - 1:
        raise ValueError(f"the distinguished block holds m={m} of n={n} "
                         f"letters; it needs 1 <= m <= n - 1 = {n - 1}")
    free = n if m == 1 else n - m
    return InductionConfig(
        n=n, e=e, blocks=runs([1] * (n - m) + [m]),
        block_types=(Partition((1,)),) * (n - m)
        + (nu if nu is not None else Partition((m,)),),
        a=pad(regular_element("A", free - 1, e, variant), n))


def _first_trapped_root(cfg: InductionConfig, covered):
    """Simple-root coordinates of the first crossing root e_i - e_j with
    neither i nor j in covered, in the order of the roots of A_{n-1}
    (sorted coordinates); None when the other letters lie in one block.
    Only a failing config lists its trapped roots."""
    block_of = {letter: bi for bi, block in enumerate(cfg.blocks)
                for letter in block}
    rest = [letter for letter in block_of if letter not in covered]
    if len({block_of[i] for i in rest}) <= 1:
        return None
    # e_i - e_j is +-(alpha_lo + ... + alpha_(hi-1)), signed as i < j
    return min(tuple((1 if i < j else -1) if min(i, j) <= k < max(i, j)
                     else 0 for k in range(1, cfg.n))
               for i in rest for j in rest if block_of[i] != block_of[j])


def validate_config(cfg: InductionConfig) -> str:
    """Classify the configuration, or explain why it is inadmissible.

    Returns "l-regular" when the twist lives in the group orthogonal to
    the blocks and has a regular eigenvector clearing every crossing
    hyperplane, and "block-cyclic" when the blocks themselves rotate in
    families of e with no crossing root orthogonal to all of them.
    An identity twist (e = 1) validates as "ungraded".

    Everything is decided on letters; no root system is built.  The
    crossing roots are the e_i - e_j with i and j in different blocks,
    and alpha_i is orthogonal to every block root exactly when letters
    i and i + 1 are one-letter blocks.  Then:

    - a crossing root is orthogonal to a rotating block B exactly when
      B holds neither i nor j, or has one letter;
    - the zeta_e-eigenspace of the twist has one vector per cycle
      c_0 -> ... -> c_{L-1} with e | L, v[c_t] = zeta^-t.  The twist
      has order e, so such a cycle has length e and its entries differ:
      the eigenspace lies on the hyperplane of e_i - e_j exactly when
      neither i nor j lies on an e-cycle.

    A failure names the first such root in the order of A_{n-1}.
    """
    order = cfg.a.order()
    if order != cfg.e:
        raise InvalidConfigError(
            f"twisting element has order {order}, expected e = {cfg.e}")
    if cfg.e == 1:
        return "ungraded"
    sigma = _twist_blocks(cfg)
    if sigma is None:
        raise InvalidConfigError(
            "twisting element does not permute the blocks, so it fails "
            "to normalize the block subgroup")
    lone = {block[0] for block in cfg.blocks if len(block) == 1}
    # the letters spanned by the simple roots orthogonal to the blocks
    allowed = {letter for i in lone if i + 1 in lone for letter in (i, i + 1)}
    if allowed:
        # candidate for the regular-eigenvector shape
        big = [b for b in cfg.blocks if len(b) > 1]
        if len(big) > 1:
            raise InvalidConfigError(
                "more than one nonabelian block factor; the fixed Levi "
                "must be simple modulo its center")
        moved = cfg.a.support()
        if not moved <= allowed:
            raise InvalidConfigError(
                "twisting element moves letters outside the span of the "
                "simple roots orthogonal to the blocks")
        beta = _first_trapped_root(cfg, {
            letter for letters, _ in _walk(cfg.a.perm)
            if len(letters) == cfg.e for letter in letters})
        if beta is not None:
            raise InvalidConfigError(
                "twisting element is not admissible: its eigenspace "
                "lies inside the hyperplane of the crossing root "
                f"{beta} (simple-root coordinates)")
        return "l-regular"
    # candidate for the rotating-blocks shape
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
    beta = _first_trapped_root(cfg, {
        letter for bi in rotating if len(cfg.blocks[bi]) > 1
        for letter in cfg.blocks[bi]})
    if beta is not None:
        raise InvalidConfigError(
            f"crossing root {beta} (simple-root coordinates) is orthogonal "
            "to every rotating block")
    return "block-cyclic"
