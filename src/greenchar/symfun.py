"""Symmetric-group combinatorics for GL_n graded characters.

Partitions, Kostka-Foulkes polynomials, Murnaghan-Nakayama character
values, and the graded character of the cohomology of a fixed-point
(Springer) fiber attached to a nilpotent of Jordan type mu.  The graded
character value at cycle type rho is the Green polynomial of GL_n for
that pair, assembled as

    sum over lambda of  chi^lambda(rho) * q^{n(mu)} K_{lambda,mu}(1/q).

Kostka-Foulkes polynomials come from the type-A case of the
Lusztig-Shoji algorithm (Lusztig, Character sheaves V, 1986; Shoji,
Green functions of reductive groups over a finite field, 1987), not
from tableaux.  With phi_n(t) = prod over k <= n of (1 - t^k), n! phi_n
times the Gram matrix of Schur functions in the Hall-Littlewood inner
product is the integer polynomial matrix

    Omega_{lambda,kappa} = sum over rho of chi^lambda_rho chi^kappa_rho W_rho,
    W_rho = (n!/z_rho) phi_n / prod_i (1 - t^{rho_i}),

and Omega = K D K^T with K unitriangular for dominance and
D_nu = n! phi_n / b_nu (Macdonald, Symmetric Functions and Hall
Polynomials, III.2-III.6).  Peeling Omega from the bottom of the
dominance order gives, for lambda strictly above kappa,

    K(lambda,kappa) D_kappa = Omega_{lambda,kappa}
        - sum over tau strictly below kappa of K(lambda,tau) D_tau K(kappa,tau).

The solve runs on the values of these polynomials at X = 2^B, one
Python int each (Kronecker substitution).  Evaluation is a ring map,
so every product, difference and exact quotient is exact whatever the
size of the coefficients.  No polynomial is formed: phi_m(X) is one
product of integers for each m <= n, and each W_rho and D_nu is phi_n(X)
divided in integers by prod_i (1 - X^{rho_i}), or by the product of
phi_m(X) over the part multiplicities m of nu.  A wrong table raises
ArithmeticError instead of being returned: every quotient must leave
no remainder, every K must be nonnegative, and for each kappa the
diagonal Omega_{kappa,kappa} - sum over tau of K(kappa,tau)^2 D_tau
must give D_kappa back.

The Green table of mu stays packed too.  Its value at rho is
S_rho(X) = sum over lambda dominating mu of chi^lambda_rho K(lambda,mu)(X),
read back as n(mu) + 1 signed base-X digits and reversed.  K(lambda,mu)
is read back by the same reader, to n(mu) - n(lambda) + 1 digits.  The
reader takes all count digits in one pass: it adds X/2 times
1 + X + ... + X^(count-1) to the value, so that each signed digit plus
X/2 is one plain base-X digit of the sum, read with a shift and a mask.
B matters only when a value is read back, and a value left above the
last digit read (the sum shifted past it) raises ArithmeticError.
Every coefficient of S_rho is at most
sum over lambda of chi^lambda(1) K(lambda,mu)(1) = n!/prod_i mu_i! <= n!
in absolute value, because |chi^lambda_rho| <= chi^lambda(1) and K has
nonnegative coefficients; so B = bit_length(n!) + 1 bits hold each
signed digit, and the nonnegative digits of K as well.  As a guard on
the whole table, the coefficients at the identity class must sum to
n!/prod_i mu_i!, the Euler characteristic of the Springer fibre, or
the build raises ArithmeticError.  The tests compare the solve with
charge summed over semistandard tableaux, which shares no inner
product with it, with a Gram-Schmidt orthogonalisation, and the packed
weights and tables with the polynomial route they replace.

Characters run Murnaghan-Nakayama on beta-sets held as bitmasks:
removing a border strip of size r moves one bead down r places.

springer_graded_char is cached: each Jordan type is built once per
process, and every caller gets the same table, a read-only mapping from
each cycle type to its Green polynomial, so no caller can change it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from math import factorial, prod
from operator import ge, mul
from types import MappingProxyType

from greenchar.poly import Cyclotomic, IntPolynomial, eval_at_root


class Partition(tuple):
    """Weakly decreasing tuple of positive parts; () is the empty partition.
    A Partition passed in is returned as it is, not checked again."""

    def __new__(cls, parts=()):
        if type(parts) is Partition:
            return parts
        parts = tuple(parts)
        for p in parts:
            if isinstance(p, bool) or not isinstance(p, int):
                raise ValueError(f"partition parts must be ints, got {p!r}")
        if any(p < 1 for p in parts):
            raise ValueError(f"partition parts must be positive: {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts must be weakly decreasing: {parts}")
        return super().__new__(cls, parts)

    @property
    def size(self) -> int:
        return sum(self)

    @property
    def n_stat(self) -> int:
        """The statistic n(lambda) = sum (i-1) * lambda_i."""
        return sum(i * p for i, p in enumerate(self))

    def multiplicities(self) -> dict:
        out = {}
        for p in self:
            out[p] = out.get(p, 0) + 1
        return out

    def sign(self) -> int:
        """Sign character of S_n on this cycle type."""
        return (-1) ** (self.size - len(self))


@lru_cache(maxsize=None)
def centralizer_order(rho) -> int:
    """z_rho, the order of the centralizer of an element of cycle type rho
    in S_|rho|: the product over the parts i of i^m m!, where m is the
    multiplicity of i.  Cached per cycle type, since every census and
    class weight asks for it again."""
    out = 1
    for part, mult in Partition(rho).multiplicities().items():
        out *= part ** mult * factorial(mult)
    return out


def trusted_partition(parts) -> Partition:
    """The Partition of parts the caller knows to be positive and weakly
    decreasing, built without the checks of Partition()."""
    return tuple.__new__(Partition, parts)


@lru_cache(maxsize=None)
def partitions_of(n: int):
    """All partitions of n in reverse lexicographic order, (n) first."""
    if n < 0:
        raise ValueError("negative size")
    out = []

    def rec(remaining, maxpart, prefix):
        if remaining == 0:
            out.append(Partition(prefix))
            return
        for p in range(min(maxpart, remaining), 0, -1):
            rec(remaining - p, p, prefix + (p,))

    rec(n, n, ())
    return tuple(out)


# off the library path; ROADMAP item 1 retargets the tracer probe on it
def enumerate_ssyt(shape, weight):
    """All semistandard tableaux of the given shape and content.

    A tableau is a tuple of row tuples.  Cells are filled in row-major
    order trying smaller values first, so the output order is
    deterministic (lexicographic in the row-major entry sequence).
    """
    shape, weight = Partition(shape), Partition(weight)
    if shape.size != weight.size:
        raise ValueError("shape and weight must have the same size")
    k = len(weight)
    counts = list(weight)
    rows = [[0] * r for r in shape]
    cells = [(r, c) for r, ln in enumerate(shape) for c in range(ln)]
    out = []

    def rec(idx):
        if idx == len(cells):
            out.append(tuple(tuple(row) for row in rows))
            return
        r, c = cells[idx]
        lo = rows[r][c - 1] if c else 1
        if r:
            lo = max(lo, rows[r - 1][c] + 1)
        for v in range(lo, k + 1):
            if counts[v - 1]:
                counts[v - 1] -= 1
                rows[r][c] = v
                rec(idx + 1)
                rows[r][c] = 0
                counts[v - 1] += 1

    rec(0)
    return out


class _KostkaSolve:
    """The Lusztig-Shoji solve of Omega = K D K^T for one n, run on the
    values of every polynomial at X = 2^width (see the module docstring).

    Entries are computed on demand and kept: K(lam, kappa) for lam
    dominating kappa, and per kappa the products D_tau K(kappa, tau) for
    every tau strictly below it, so each term of a sum is one product.
    The sums walk per-partition lists, each built from the prefix sums
    the first time it is asked for: the partitions strictly below kappa,
    and those weakly above mu, in the order of partitions_of.  No partition
    dominates one before it in that order, so each list is one scan of
    one side of its partition.
    """

    def __init__(self, n: int):
        self.parts = partitions_of(n)
        self.width = factorial(n).bit_length() + 1
        x = 1 << self.width
        phi = [1]
        for k in range(1, n + 1):
            phi.append(phi[-1] * (1 - x ** k))
        self.weights = [_class_weight(rho, x, phi) for rho in self.parts]
        self.norms = {nu: _norm(nu, phi) for nu in self.parts}
        self.prefix = {nu: tuple(accumulate(nu + (0,) * (n - len(nu))))
                       for nu in self.parts}
        self.chars = {}
        self.packed = {}
        self.rows = {}
        self.below = {}
        self.above = {}
        self.offsets = {}

    def dominates(self, lam, mu) -> bool:
        return all(map(ge, self.prefix[lam], self.prefix[mu]))

    def _below(self, kappa):
        """The partitions strictly below kappa, in the order of
        partitions_of."""
        below = self.below.get(kappa)
        if below is None:
            top = self.prefix[kappa]
            below = self.below[kappa] = [
                tau for tau in self.parts[self.parts.index(kappa) + 1:]
                if all(map(ge, top, self.prefix[tau]))]
        return below

    def _above(self, mu):
        """The partitions weakly above mu, in the order of partitions_of."""
        above = self.above.get(mu)
        if above is None:
            bottom = self.prefix[mu]
            above = self.above[mu] = [
                lam for lam in self.parts[:self.parts.index(mu) + 1]
                if all(map(ge, self.prefix[lam], bottom))]
        return above

    def _omega(self, lam, kappa) -> int:
        """Omega_{lam,kappa} at X: sum over rho of chi^lam chi^kappa W_rho."""
        return sum(map(mul, map(mul, self._chars(lam), self._chars(kappa)),
                       self.weights))

    def _chars(self, lam):
        row = self.chars.get(lam)
        if row is None:
            beads = _beads(lam)
            row = self.chars[lam] = tuple(_murnaghan_nakayama(beads, rho)
                                          for rho in self.parts)
        return row

    def _row(self, kappa):
        """(tau, D_tau K(kappa, tau)) for every tau strictly below kappa,
        once the diagonal has given D_kappa back."""
        row = self.rows.get(kappa)
        if row is None:
            row = []
            rest = self._omega(kappa, kappa)
            for tau in self._below(kappa):
                k = self._packed(kappa, tau)
                scaled = self.norms[tau] * k
                row.append((tau, scaled))
                rest -= k * scaled
            if rest != self.norms[kappa]:
                raise ArithmeticError(
                    f"Omega does not factor at {tuple(kappa)}: wrong D")
            self.rows[kappa] = row
        return row

    def _packed(self, lam, kappa) -> int:
        """K(lam, kappa) at X, for lam dominating kappa."""
        if lam == kappa:
            return 1
        k = self.packed.get((lam, kappa))
        if k is None:
            rest = self._omega(lam, kappa)
            for tau, scaled in self._row(kappa):
                rest -= self._packed(lam, tau) * scaled
            k, rem = divmod(rest, self.norms[kappa])
            if rem or k < 0:
                raise ArithmeticError(
                    f"K({tuple(lam)}, {tuple(kappa)}) is not an integer "
                    "polynomial with nonnegative coefficients")
            self.packed[lam, kappa] = k
        return k

    def _digits(self, value: int, count: int):
        """The count lowest signed base-X digits of value, and the rest.

        Each signed digit d lies in [-half, half), so d + half is one
        base-X digit of value + offset, offset = sum over i < count of
        half X^i: every digit is one shift and one mask of that sum, and
        the rest is the sum shifted past its count lowest digits."""
        width = self.width
        half = 1 << (width - 1)
        offset = self.offsets.get(count)
        if offset is None:
            offset = self.offsets[count] = (
                half * ((1 << width * count) - 1) // ((1 << width) - 1))
        value += offset
        mask = (1 << width) - 1
        digits = [(value >> shift & mask) - half
                  for shift in range(0, width * count, width)]
        return digits, value >> width * count

    def polynomial(self, lam, mu) -> IntPolynomial:
        """K(lam, mu) read off the base-X digits of its value."""
        if not self.dominates(lam, mu):
            return IntPolynomial()
        degree = mu.n_stat - lam.n_stat
        coeffs, rest = self._digits(self._packed(lam, mu), degree + 1)
        if rest:
            raise ArithmeticError(f"K({tuple(lam)}, {tuple(mu)}) has degree "
                                  f"above n(mu) - n(lam) = {degree}")
        return IntPolynomial(coeffs)

    def green_table(self, mu) -> dict:
        """The Green polynomial of (mu, rho) for every rho, in the order
        of partitions_of: the signed base-X digits of sum over lam of
        chi^lam_rho K(lam, mu)(X), reversed to degree n(mu)."""
        above = self._above(mu)
        ks = [self._packed(lam, mu) for lam in above]
        columns = zip(*map(self._chars, above))
        nmu = mu.n_stat
        table = {}
        for rho, column in zip(self.parts, columns):
            coeffs, rest = self._digits(sum(map(mul, column, ks)), nmu + 1)
            if rest:
                raise ArithmeticError(
                    f"Green polynomial of {tuple(mu)} at {tuple(rho)} has "
                    f"degree above n(mu) = {nmu}")
            table[rho] = IntPolynomial(coeffs[::-1])
        euler = factorial(mu.size) // prod(factorial(p) for p in mu)
        if sum(table[self.parts[-1]].coeffs) != euler:
            raise ArithmeticError(
                f"Green table of {tuple(mu)} misses the Euler characteristic "
                f"{euler} of the Springer fibre")
        return table


def _exact_quotient(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError("inexact division of values at X")
    return q


def _class_weight(rho, x: int, phi) -> int:
    """W_rho at X = x: (n!/z_rho) phi_n(X) / prod_i (1 - X^rho_i), where
    phi lists phi_0(X), ..., phi_n(X)."""
    n = rho.size
    return (_exact_quotient(phi[n], prod(1 - x ** part for part in rho))
            * (factorial(n) // centralizer_order(rho)))


def _norm(nu, phi) -> int:
    """D_nu at X: n! phi_n(X) / b_nu(X), where b_nu is the product of
    phi_m over the part multiplicities m of nu."""
    n = nu.size
    return _exact_quotient(factorial(n) * phi[n],
                           prod(phi[m] for m in nu.multiplicities().values()))


@lru_cache(maxsize=None)
def _kostka_solve(n: int) -> _KostkaSolve:
    return _KostkaSolve(n)


@lru_cache(maxsize=None)
def kostka_foulkes(lam, mu) -> IntPolynomial:
    """K_{lambda,mu}(q), zero unless lambda dominates mu, from the
    Lusztig-Shoji solve of size |lambda| (shared by every pair of that
    size)."""
    lam, mu = Partition(lam), Partition(mu)
    if lam.size != mu.size:
        raise ValueError("partitions must have the same size")
    return _kostka_solve(lam.size).polynomial(lam, mu)


def _beads(lam) -> int:
    """Beta-set of lam as a bitmask: part i of l parts (i from 0) is a
    bead at lam_i + l - 1 - i."""
    out = 0
    for i, part in enumerate(lam):
        out |= 1 << (part + len(lam) - 1 - i)
    return out


@lru_cache(maxsize=None)
def _murnaghan_nakayama(beads: int, rho: tuple) -> int:
    """chi at cycle type rho of the partition with this beta-set, which
    has no bead at 0.  Removing a border strip of size r moves a bead
    from b down to an empty place b - r; the strip's height is the
    number of beads strictly between."""
    if not rho:
        return 1
    r, rest = rho[0], rho[1:]
    between = (1 << (r - 1)) - 1
    total = 0
    for b in range(r, beads.bit_length()):
        if beads >> b & 1 and not beads >> (b - r) & 1:
            moved = beads ^ (1 << b) ^ (1 << (b - r))
            while moved & 1:  # a bead at 0 is a zero part
                moved >>= 1
            value = _murnaghan_nakayama(moved, rest)
            height = (beads >> (b - r + 1) & between).bit_count()
            total += -value if height & 1 else value
    return total


@lru_cache(maxsize=None)
def char_sn(lam, rho) -> int:
    """Irreducible character of S_n: chi^lambda at cycle type rho."""
    lam, rho = Partition(lam), Partition(rho)
    if lam.size != rho.size:
        raise ValueError("lambda and rho must partition the same n")
    return _murnaghan_nakayama(_beads(lam), rho)


@lru_cache(maxsize=None)
def springer_graded_char(mu) -> MappingProxyType:
    """Graded character of the cohomology of the fiber for Jordan type mu.

    A read-only mapping from each cycle type rho, in the order of
    partitions_of(|mu|), to the Green polynomial: the coefficient of
    q^d at the identity is the 2d-th Betti number of the fiber, and the
    top degree at the identity is n(mu).  Read off the Lusztig-Shoji
    solve of size |mu| (see the module docstring).  Cached per Jordan
    type (a tuple and the equal Partition share one entry, and a tuple
    looks up the same value as its Partition); the size is not capped
    here, callers that take n from a user check it first.
    """
    mu = Partition(mu)
    return MappingProxyType(_kostka_solve(mu.size).green_table(mu))


def green_at_root(mu, rho, e: int, j: int) -> Cyclotomic:
    """Green polynomial for (mu, rho) evaluated at the j-th power of a
    primitive e-th root of unity."""
    return eval_at_root(springer_graded_char(mu)[Partition(rho)], e, j)


def closed_form_coset_count(m: int, e: int, rho, reading: str = "parts") -> int:
    """Closed-form prediction for the normalized twisted coset count in
    GL_{em} with Levi (GL_m)^e, for an element of cycle type rho.

    Two readings of the divisibility condition are implemented:
    "parts" demands e divide every part of rho, "multiplicity" demands
    e divide every part multiplicity.  Both return e^(number of parts)
    when the condition holds and 0 otherwise.  The "parts" reading is
    the one that matches the brute-force coset counts; "multiplicity"
    is kept so the verifier can report the discrepancy explicitly.
    """
    rho = Partition(rho)
    if rho.size != e * m:
        raise ValueError("cycle type must partition e*m")
    if reading == "parts":
        ok = all(p % e == 0 for p in rho)
    elif reading == "multiplicity":
        ok = all(mult % e == 0 for mult in rho.multiplicities().values())
    else:
        raise ValueError(f"unknown reading {reading!r}")
    return e ** len(rho) if ok else 0
