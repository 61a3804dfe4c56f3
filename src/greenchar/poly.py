"""Exact scalar arithmetic for the rest of the package.

Integer polynomials in one variable q, cyclotomic polynomials, elements
of cyclotomic number fields in the power basis, and exact linear algebra
(reduced echelon form and right kernel) over the rationals or over a
cyclotomic field.  That one Gauss-Jordan elimination is the package's
only solver, behind kernels and field inverses (a Weyl matrix inverse
is a power), and IntPolynomial.divmod_exact is the only long division.
IntPolynomial is a coefficient type, not a ring: it is built, compared,
hashed, evaluated, divided exactly and summed by residue, and no
library path adds or multiplies two polynomials.

A field element keeps its coordinates as Python ints while they are
integral.  Reduction mod Phi_e reads one cached table per conductor,
the integer coordinates of x^k for k < e, each row kept as its nonzero
entries: Phi_e is monic, so the table is integral, and x^e = 1, so any
coefficient list folds mod e and then reduces by integer multiply-adds.
Fractions arise only where a value really is rational: inverses (one
rational elimination) and products with rational weights.  All values
are immutable after construction and safe to share between threads;
nothing in this module ever touches a float.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


def render_terms(coeffs, var: str) -> str:
    """Plain text for sum(coeffs[k] * var^k), lowest degree first, such
    as "1 - q + 2q^2" or "-1/2 + z"; "0" when every coefficient is zero.
    Coefficients may be ints or Fractions.

    Each nonzero term is written with its sign, as "+ 2q^2" or "- q",
    the unit terms read whole from cached rows of power strings; the
    lead sign of the joined text then becomes "" or "-"."""
    names, plus, minus = _power_names(var, len(coeffs))
    text = " ".join([(plus[k] if c == 1 else f"+ {c}{names[k]}") if c > 0
                     else (minus[k] if c == -1 else f"- {-c}{names[k]}")
                     for k, c in enumerate(coeffs) if c])
    if not text:
        return "0"
    return text[2:] if text[0] == "+" else "-" + text[2:]


@lru_cache(maxsize=None)
def _power_names(var: str, length: int):
    """The powers "", var, var^2, ... of a coefficient list of this
    length, and its unit terms "+ 1", "+ var", ... and "- 1", "- var", ...."""
    names = ("", var) + tuple(f"{var}^{k}" for k in range(2, length))
    units = ("1",) + names[1:]
    return (names, tuple("+ " + u for u in units),
            tuple("- " + u for u in units))


class IntPolynomial:
    """Dense polynomial in q with integer coefficients.

    coeffs[n] is the coefficient of q^n.  Canonical form: no trailing
    zero coefficients, the zero polynomial is the empty tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        for c in cs:
            if not isinstance(c, int):
                raise TypeError(f"integer coefficient expected, got {c!r}")
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, IntPolynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return len(self.coeffs) < 2 and (self.coeffs or (0,))[0] == other
        return NotImplemented

    def __hash__(self):
        # a constant equals and hashes as its int, or an integral Fraction
        if len(self.coeffs) < 2:
            return hash(self.coeffs[0] if self.coeffs else 0)
        return hash(("IntPolynomial", self.coeffs))

    def __call__(self, x):
        """Evaluate by Horner's rule; x may be an int, Fraction or Cyclotomic.
        At powers of a root of unity, root_values is the faster route."""
        acc = x - x
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def divmod_exact(self, other: "IntPolynomial"):
        """Polynomial division; raises unless quotient and remainder are integral.

        Long division in integers: a quotient coefficient is integral
        exactly when the leading coefficient divides the running one.
        """
        b = other.coeffs
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        d = len(b) - 1
        a = list(self.coeffs)
        quo = [0] * max(0, len(a) - d)
        for i in range(len(a) - 1, d - 1, -1):
            c, r = divmod(a[i], b[-1])
            if r:
                raise ValueError("non-integral polynomial division")
            if c:
                quo[i - d] = c
                for k, bc in enumerate(b):
                    a[i - d + k] -= c * bc
        return IntPolynomial(quo), IntPolynomial(a[:d])

    def exact_div(self, other: "IntPolynomial") -> "IntPolynomial":
        quo, rem = self.divmod_exact(other)
        if rem:
            raise ValueError("inexact polynomial division")
        return quo

    def mod_sum(self, e: int, k: int) -> int:
        """Sum of the coefficients in degrees congruent to k mod e."""
        return sum(self.coeffs[k % e::e])

    def __repr__(self):
        return f"IntPolynomial({render_terms(self.coeffs, 'q')!r})"


@lru_cache(maxsize=None)
def cyclotomic_poly(e: int) -> IntPolynomial:
    """The e-th cyclotomic polynomial, computed by exact division of x^e - 1."""
    if e < 1:
        raise ValueError("conductor must be positive")
    num = IntPolynomial((-1,) + (0,) * (e - 1) + (1,))
    for d in range(1, e):
        if e % d == 0:
            num = num.exact_div(cyclotomic_poly(d))
    return num


def euler_phi(e: int) -> int:
    return cyclotomic_poly(e).degree


@lru_cache(maxsize=None)
def _power_residues(e: int):
    """phi(e) and the integer coordinates of x^k mod Phi_e in the power
    basis, k < e, each row kept as its nonzero (index, coordinate) pairs.

    Phi_e is monic of degree phi: x^(k+1) is x^k shifted up one place,
    with its top coordinate t folded back as t * x^phi = -t * (Phi_e - x^phi).
    """
    phi_cs = cyclotomic_poly(e).coeffs[:-1]
    row = (1,) + (0,) * (len(phi_cs) - 1)
    rows = [row]
    for _ in range(e - 1):
        top = row[-1]
        row = tuple(r - top * c for r, c in zip((0,) + row[:-1], phi_cs))
        rows.append(row)
    return len(phi_cs), tuple(tuple((i, r) for i, r in enumerate(row) if r)
                              for row in rows)


def _reduce(e: int, coeffs) -> list:
    """Coordinates of sum(coeffs[k] x^k) mod Phi_e: fold the exponents
    mod e (x^e = 1), then add each folded bucket times its power residue."""
    phi, table = _power_residues(e)
    if len(coeffs) > e:
        buckets = [0] * e
        for k, c in enumerate(coeffs):
            buckets[k % e] += c
        coeffs = buckets
    out = list(coeffs[:phi])
    out += [0] * (phi - len(out))
    for b, row in zip(coeffs[phi:], table[phi:]):
        if b:
            for i, r in row:
                out[i] += b * r
    return out


class Cyclotomic:
    """Element of the cyclotomic field obtained by adjoining a primitive
    e-th root of unity to the rationals.

    Stored as the reduced residue mod Phi_e(x) in the power basis
    1, x, ..., x^(phi(e)-1); the class variable returned by zeta(e) is the
    coset of x, the distinguished primitive root.  Coordinates are ints
    or Fractions, never floats: integer input stays integral through
    sums, products and reduction (the table of power residues is
    integral), and Fractions come only from rational scalars and from
    inverse(), which solves x * self = 1 by one rational elimination.
    An int and a Fraction of equal value compare and hash alike, so
    equality and hashing do not depend on which one a coordinate is,
    and equality against ints and Fractions works whenever the element
    is rational.  Elements of different conductors compare by value when
    both are rational; otherwise == raises TypeError, as + does, instead
    of calling equal values unequal.
    """

    __slots__ = ("e", "coords")

    def __init__(self, e: int, coords):
        phi = euler_phi(e)
        cs = tuple(coords)
        if len(cs) != phi:
            raise ValueError(f"conductor {e} needs {phi} coordinates, got {len(cs)}")
        for c in cs:
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"int or Fraction coordinate expected, got {c!r}")
        self.e = e
        self.coords = cs

    @classmethod
    def from_poly(cls, e: int, coeffs) -> "Cyclotomic":
        """Reduce an arbitrary int or Fraction coefficient list mod Phi_e."""
        return cls(e, _reduce(e, list(coeffs)))

    @classmethod
    def from_fraction(cls, e: int, x) -> "Cyclotomic":
        # Phi_e has degree at least 1, so a constant is already reduced
        return cls(e, (x,) + (0,) * (euler_phi(e) - 1))

    @classmethod
    def zero(cls, e: int) -> "Cyclotomic":
        return cls.from_poly(e, [])

    @classmethod
    def one(cls, e: int) -> "Cyclotomic":
        return cls.from_fraction(e, 1)

    @classmethod
    def zeta(cls, e: int, j: int = 1) -> "Cyclotomic":
        """The j-th power of the distinguished primitive e-th root of unity."""
        j %= e
        return cls.from_poly(e, [0] * j + [1])

    @property
    def is_rational(self) -> bool:
        return not any(self.coords[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.coords[0])

    def _lift(self, other):
        if isinstance(other, (int, Fraction)):
            return Cyclotomic.from_fraction(self.e, other)
        if isinstance(other, Cyclotomic):
            if other.e == self.e:
                return other
            if other.is_rational:
                return Cyclotomic.from_fraction(self.e, other.as_fraction())
            if self.is_rational:
                return None  # caller retries from the other side
            raise TypeError("cyclotomic elements of different conductors")
        return NotImplemented

    def __add__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        if o is None:
            return other + self.as_fraction()
        return Cyclotomic(self.e, tuple(a + b for a, b in zip(self.coords, o.coords)))

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.e, tuple(-c for c in self.coords))

    def __sub__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        if o is None:
            return -(other - self.as_fraction())
        return Cyclotomic(self.e, tuple(a - b for a, b in zip(self.coords, o.coords)))

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Cyclotomic(self.e, tuple(c * other for c in self.coords))
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        if o is None:
            return other * self.as_fraction()
        cs = [0] * (2 * len(self.coords) - 1)
        for i, x in enumerate(self.coords):
            if x:
                for j, y in enumerate(o.coords):
                    cs[i + j] += x * y
        return Cyclotomic(self.e, _reduce(self.e, cs))

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        """Solve x * self = 1 by one rational elimination.  Column k of
        M holds the coordinates of self * zeta^k; a nonzero element of a
        field has an inverse, so M is invertible and the reduced echelon
        form of [M | 1] is [I | self^-1]."""
        if not self:
            raise ZeroDivisionError("inverse of zero")
        cols = [_reduce(self.e, (0,) * k + self.coords)
                for k in range(len(self.coords))]
        m, _, _ = _echelon([list(row) + [int(i == 0)]
                            for i, row in enumerate(zip(*cols))])
        return Cyclotomic(self.e, [row[-1] for row in m])

    def __truediv__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        if o is None:
            return other.inverse() * self.as_fraction()
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = Cyclotomic.one(self.e)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __bool__(self):
        return any(self.coords)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational and self.coords[0] == other
        if isinstance(other, Cyclotomic):
            if other.e == self.e:
                return self.coords == other.coords
            if self.is_rational and other.is_rational:
                return self.coords[0] == other.coords[0]
            raise TypeError("cyclotomic elements of different conductors")
        return NotImplemented

    def __hash__(self):
        if self.is_rational:
            return hash(self.coords[0])
        return hash((self.e, self.coords))

    def __repr__(self):
        return cyclotomic_text(self.e, self.coords)


def cyclotomic_text(e: int, coords) -> str:
    """repr of the element of conductor e with these coordinates."""
    return f"Cyclotomic(e={e}: {render_terms(coords, 'z')})"


def eval_at_root(p: IntPolynomial, e: int, j: int) -> Cyclotomic:
    """p evaluated at the j-th power of the distinguished primitive e-th root."""
    return Cyclotomic(e, root_values(p, e, (j,))[0])


def root_values(p: IntPolynomial, e: int, exponents) -> list:
    """The coordinates of p at the j-th power of the distinguished
    primitive e-th root, for each j in exponents.

    The root satisfies x^e = 1, so the coefficient of q^k lands on the
    power x^(jk mod e): the coefficients are summed into e integer
    buckets and reduced mod Phi_e once, instead of one field
    multiplication per coefficient as in Horner's rule.  The coefficients
    are first summed by residue mod e, once for all the exponents, and
    each nonzero residue sum r lands on x^(jr mod e).
    """
    if e < 1:
        raise ValueError("conductor must be positive")
    cs = p.coeffs
    sums = [(r, s) for r in range(min(e, len(cs))) if (s := sum(cs[r::e]))]
    values = []
    for j in exponents:
        buckets = [0] * e
        for r, s in sums:
            buckets[(j * r) % e] += s
        values.append(tuple(_reduce(e, buckets)))
    return values


# Exact linear algebra.  Matrices are plain sequences of rows; entries may
# be ints, Fractions, or Cyclotomic elements of one conductor.  Elimination
# is Gauss-Jordan to the reduced row echelon form: pivot on the first
# nonzero entry, scale the pivot row by one inversion, then clear the pivot
# column above and below.  That form is unique, so results are
# deterministic, and it stays exact over any of the supported scalar domains.

def _prepare(rows):
    m = [[Fraction(x) if isinstance(x, int) else x for x in row] for row in rows]
    if not m:
        raise ValueError("matrix needs at least one row")
    ncols = len(m[0])
    for row in m:
        if len(row) != ncols:
            raise ValueError("ragged matrix")
    return m, ncols


def _echelon(rows):
    """The reduced row echelon form, its pivot columns and its width."""
    m, ncols = _prepare(rows)
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = 1 / m[r][c]
        top = m[r] = [x * inv if x else x for x in m[r]]
        for i, row in enumerate(m):
            f = row[c]
            if f and i != r:
                m[i] = [x - f * y if y else x for x, y in zip(row, top)]
        pivots.append(c)
    return m, pivots, ncols


def kernel_basis(rows):
    """Exact basis of the right null space; empty iff full column rank.

    One vector per free column, read off the reduced echelon form: 1 in
    its own free column and 0 in the other free columns.  The vectors of
    a matrix with a cyclotomic entry are cyclotomic, even rational ones.
    """
    m, pivots, ncols = _echelon(rows)
    e = next((x.e for row in m for x in row if isinstance(x, Cyclotomic)), None)
    zero = Fraction(0) if e is None else Cyclotomic.zero(e)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [zero] * ncols
        v[f] = zero + 1
        for row, p in zip(m, pivots):
            v[p] = zero - row[f]
        basis.append(tuple(v))
    return basis
