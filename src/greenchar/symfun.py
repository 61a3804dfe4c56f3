"""Symmetric-group combinatorics for GL_n graded characters.

Partitions, semistandard tableaux, the charge statistic, Kostka-Foulkes
polynomials, Murnaghan-Nakayama character values, and the graded
character of the cohomology of a fixed-point (Springer) fiber attached
to a nilpotent of Jordan type mu.  The graded character value at cycle
type rho is the Green polynomial of GL_n for that pair, assembled as

    sum over lambda of  chi^lambda(rho) * q^{n(mu)} K_{lambda,mu}(1/q).

Charge follows the Lascoux-Schutzenberger convention: reading word taken
bottom row to top row and left to right, standard subwords extracted by
cyclic scanning with each successor sought leftward, the index of a
letter rises exactly when it sits to the right of its predecessor.  The
easy cross-checks K(lambda,lambda) = 1 and K((n),(1^n)) = q^(n(n-1)/2)
do not pin the scan direction; the tests therefore also compare against
a Gram-Schmidt computation in the Hall-Littlewood inner product, which
detects the difference (it first matters at n = 5).

springer_graded_char is cached: each Jordan type is built once per
process, and every caller gets the same GradedCharacter.  Its values
are a read-only mapping, so no caller can change a shared table.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial
from types import MappingProxyType

from greenchar.poly import Cyclotomic, IntPolynomial, eval_at_root


class Partition(tuple):
    """Weakly decreasing tuple of positive parts; () is the empty partition."""

    def __new__(cls, parts=()):
        parts = tuple(int(p) for p in parts)
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

    def conjugate(self) -> "Partition":
        if not self:
            return Partition()
        return Partition(tuple(sum(1 for p in self if p > i) for i in range(self[0])))

    def centralizer_order(self) -> int:
        """Order of the centralizer of this cycle type in S_|lambda|."""
        out = 1
        for part, mult in self.multiplicities().items():
            out *= part ** mult * factorial(mult)
        return out

    def sign(self) -> int:
        """Sign character of S_n on this cycle type."""
        return (-1) ** (self.size - len(self))


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


def class_size(rho) -> int:
    rho = Partition(rho)
    return factorial(rho.size) // rho.centralizer_order()


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


def charge(tableau) -> int:
    """Charge of a semistandard tableau with partition content.

    Reading word runs bottom row to top, left to right.  Standard
    subwords are peeled off by cyclic scanning: take the leftmost 1,
    then the nearest 2 to its left (wrapping around from the end), and
    so on; within a subword the index goes up by one exactly when
    letter r+1 sits to the right of r, and charge is the total of all
    indices.  Scanning leftward matters: picking the nearest successor
    to the right instead gives the wrong polynomial first at n = 5,
    e.g. K((4,1),(2,2,1)) would come out 2q^3 instead of q^2 + q^3.
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


@lru_cache(maxsize=None)
def kostka_foulkes(lam, mu) -> IntPolynomial:
    """K_{lambda,mu}(q) = sum of q^charge(T) over SSYT(lambda, mu)."""
    lam, mu = Partition(lam), Partition(mu)
    if lam.size != mu.size:
        raise ValueError("partitions must have the same size")
    coeffs = {}
    for t in enumerate_ssyt(lam, mu):
        c = charge(t)
        coeffs[c] = coeffs.get(c, 0) + 1
    if not coeffs:
        return IntPolynomial()
    top = max(coeffs)
    return IntPolynomial(tuple(coeffs.get(d, 0) for d in range(top + 1)))


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
def char_sn(lam, rho) -> int:
    """Irreducible character of S_n: chi^lambda at cycle type rho."""
    lam, rho = Partition(lam), Partition(rho)
    if lam.size != rho.size:
        raise ValueError("lambda and rho must partition the same n")
    if not rho:
        return 1
    r = rho[0]
    rest = Partition(rho[1:])
    return sum((-1) ** h * char_sn(new, rest) for new, h in _strip_removals(lam, r))


def sn_dim(lam) -> int:
    lam = Partition(lam)
    return char_sn(lam, Partition([1] * lam.size))


class GradedCharacter:
    """Class function on S_n with IntPolynomial values, keyed by cycle
    type; values is a read-only mapping."""

    def __init__(self, n: int, values):
        self.n = n
        self.values = MappingProxyType({Partition(r): v for r, v in values.items()})
        if set(self.values) != set(partitions_of(n)):
            raise ValueError("graded character must cover every cycle type")

    def __getitem__(self, rho) -> IntPolynomial:
        return self.values[Partition(rho)]

    def items(self):
        return [(rho, self.values[rho]) for rho in partitions_of(self.n)]

    def __eq__(self, other):
        return (isinstance(other, GradedCharacter)
                and self.n == other.n and self.values == other.values)

    def __repr__(self):
        return f"GradedCharacter(n={self.n})"


@lru_cache(maxsize=None)
def springer_graded_char(mu) -> GradedCharacter:
    """Graded character of the cohomology of the fiber for Jordan type mu.

    Value at cycle type rho is the Green polynomial: the coefficient of
    q^d at the identity is the 2d-th Betti number of the fiber, and the
    top degree at the identity is n(mu).  Cached per Jordan type (a
    tuple and the equal Partition share one entry); the size is not
    capped here, callers that take n from a user check it first.
    """
    mu = Partition(mu)
    n = mu.size
    nmu = mu.n_stat
    terms = []
    for lam in partitions_of(n):
        kf = kostka_foulkes(lam, mu)
        if kf:
            assert kf.degree <= nmu
            terms.append((lam, kf.reverse(nmu)))
    values = {}
    for rho in partitions_of(n):
        acc = IntPolynomial()
        for lam, p in terms:
            acc = acc + char_sn(lam, rho) * p
        values[rho] = acc
    return GradedCharacter(n, values)


def green_at_root(mu, rho, e: int, j: int) -> Cyclotomic:
    """Green polynomial for (mu, rho) evaluated at the j-th power of a
    primitive e-th root of unity."""
    return eval_at_root(springer_graded_char(mu)[Partition(rho)], e, j)


def coinvariant_graded_char(n: int) -> GradedCharacter:
    """Graded character of the coinvariant algebra of S_n in its
    n-dimensional permutation representation: the Molien-style quotient
    prod_{i=1..n} (1 - q^i) / det(1 - q w), computed by exact division.
    """
    num = IntPolynomial((1,))
    for i in range(1, n + 1):
        num = num * (IntPolynomial((1,)) - IntPolynomial.monomial(i))
    values = {}
    for rho in partitions_of(n):
        den = IntPolynomial((1,))
        for part in rho:
            den = den * (IntPolynomial((1,)) - IntPolynomial.monomial(part))
        values[rho] = num.exact_div(den)
    return GradedCharacter(n, values)


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
