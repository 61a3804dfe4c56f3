"""Exact scalar arithmetic for the rest of the package.

Integer polynomials in one variable q, cyclotomic polynomials, elements
of cyclotomic number fields in the power basis, and exact linear algebra
(rank and right kernel) over the rationals or over a cyclotomic field.
All values are immutable after construction and safe to share between
threads; nothing in this module ever touches a float.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd


def render_terms(coeffs, var: str) -> str:
    """Plain text for sum(coeffs[k] * var^k), lowest degree first, such
    as "1 - q + 2q^2" or "-1/2 + z"; "0" when every coefficient is zero.
    Coefficients may be ints or Fractions."""
    out = []
    for k, c in enumerate(coeffs):
        if not c:
            continue
        if k == 0:
            term = str(abs(c))
        else:
            power = var if k == 1 else f"{var}^{k}"
            term = power if abs(c) == 1 else f"{abs(c)}{power}"
        if not out:
            out.append(("-" if c < 0 else "") + term)
        else:
            out.append(("- " if c < 0 else "+ ") + term)
    return " ".join(out) or "0"


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

    @classmethod
    def monomial(cls, n: int, c: int = 1) -> "IntPolynomial":
        return cls((0,) * n + (c,))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coefficient(self, n: int) -> int:
        return self.coeffs[n] if 0 <= n < len(self.coeffs) else 0

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, IntPolynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.coeffs == (() if other == 0 else (other,))
        return NotImplemented

    def __hash__(self):
        return hash(("IntPolynomial", self.coeffs))

    def __add__(self, other):
        if isinstance(other, int):
            other = IntPolynomial((other,))
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        cs = list(a)
        for i, c in enumerate(b):
            cs[i] += c
        return IntPolynomial(cs)

    __radd__ = __add__

    def __neg__(self):
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, int):
            other = IntPolynomial((other,))
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial(tuple(c * other for c in self.coeffs))
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return IntPolynomial()
        cs = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    cs[i + j] += a * b
        return IntPolynomial(cs)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = IntPolynomial((1,))
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __call__(self, x):
        """Evaluate by Horner's rule; x may be an int, Fraction or Cyclotomic.
        At a root of unity, eval_at_root is the faster route."""
        acc = x - x
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def divmod_exact(self, other: "IntPolynomial"):
        """Polynomial division; raises unless quotient and remainder are integral."""
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        rem = [Fraction(c) for c in self.coeffs]
        d = other.degree
        lead = Fraction(other.coeffs[-1])
        quo = [Fraction(0)] * max(0, len(rem) - d)
        for i in range(len(rem) - 1, d - 1, -1):
            c = rem[i] / lead
            if c:
                quo[i - d] = c
                for k, oc in enumerate(other.coeffs):
                    rem[i - d + k] -= c * oc

        def back(fs):
            out = []
            for f in fs:
                if f.denominator != 1:
                    raise ValueError("non-integral polynomial division")
                out.append(int(f))
            return out

        return IntPolynomial(back(quo)), IntPolynomial(back(rem))

    def exact_div(self, other: "IntPolynomial") -> "IntPolynomial":
        quo, rem = self.divmod_exact(other)
        if rem:
            raise ValueError("inexact polynomial division")
        return quo

    def reverse(self, n: int) -> "IntPolynomial":
        """q^n * p(1/q) as a polynomial; requires n >= deg p."""
        if n < self.degree:
            raise ValueError("reversal degree smaller than the polynomial degree")
        cs = [0] * (n + 1)
        for i, c in enumerate(self.coeffs):
            cs[n - i] = c
        return IntPolynomial(cs)

    def compose_power(self, k: int) -> "IntPolynomial":
        """p(q^k)."""
        if k < 1:
            raise ValueError("power substitution needs k >= 1")
        if not self.coeffs:
            return IntPolynomial()
        cs = [0] * (k * self.degree + 1)
        for i, c in enumerate(self.coeffs):
            cs[k * i] = c
        return IntPolynomial(cs)

    def shift(self, k: int) -> "IntPolynomial":
        """q^k * p."""
        if k < 0:
            raise ValueError("negative shift")
        return IntPolynomial((0,) * k + self.coeffs)

    def mod_sum(self, e: int, k: int) -> int:
        """Sum of the coefficients in degrees congruent to k mod e."""
        k %= e
        return sum(c for i, c in enumerate(self.coeffs) if i % e == k)

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


# Helpers on raw Fraction coefficient lists (used for reduction mod Phi_e
# and for the extended Euclid behind cyclotomic inversion).

def _fp_trim(cs):
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _fp_sub_scaled(a, b, c, shift):
    # a -= c * x^shift * b, in place; a must be long enough
    for i, bc in enumerate(b):
        if bc:
            a[i + shift] -= c * bc
    return a


def _fp_divmod(a, b):
    a = _fp_trim(list(a))
    b = _fp_trim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    d = len(b) - 1
    lead = b[-1]
    quo = [Fraction(0)] * max(0, len(a) - d)
    for i in range(len(a) - 1, d - 1, -1):
        c = a[i] / lead
        if c:
            quo[i - d] = c
            _fp_sub_scaled(a, b, c, i - d)
    return _fp_trim(quo), _fp_trim(a[:d])


def _fp_mul(a, b):
    if not a or not b:
        return []
    cs = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                cs[i + j] += x * y
    return _fp_trim(cs)


def _fp_sub(a, b):
    cs = list(a) + [Fraction(0)] * max(0, len(b) - len(a))
    for i, y in enumerate(b):
        cs[i] -= y
    return _fp_trim(cs)


def _fp_ext_gcd(a, b):
    """(g, s, t) with s*a + t*b = g, over Q[x]."""
    r0, r1 = _fp_trim(list(a)), _fp_trim(list(b))
    s0, s1 = [Fraction(1)], []
    t0, t1 = [], [Fraction(1)]
    while r1:
        q, r = _fp_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _fp_sub(s0, _fp_mul(q, s1))
        t0, t1 = t1, _fp_sub(t0, _fp_mul(q, t1))
    return r0, s0, t0


class Cyclotomic:
    """Element of the cyclotomic field obtained by adjoining a primitive
    e-th root of unity to the rationals.

    Stored as the reduced residue mod Phi_e(x) in the power basis
    1, x, ..., x^(phi(e)-1); the class variable returned by zeta(e) is the
    coset of x, the distinguished primitive root.  Equality against ints
    and Fractions works whenever the element is rational.
    """

    __slots__ = ("e", "coords")

    def __init__(self, e: int, coords):
        phi = euler_phi(e)
        cs = tuple(Fraction(c) for c in coords)
        if len(cs) != phi:
            raise ValueError(f"conductor {e} needs {phi} coordinates, got {len(cs)}")
        self.e = e
        self.coords = cs

    @classmethod
    def from_poly(cls, e: int, coeffs) -> "Cyclotomic":
        """Reduce an arbitrary rational coefficient list mod Phi_e."""
        phi_cs = [Fraction(c) for c in cyclotomic_poly(e).coeffs]
        _, rem = _fp_divmod([Fraction(c) for c in coeffs], phi_cs)
        phi = len(phi_cs) - 1
        rem = rem + [Fraction(0)] * (phi - len(rem))
        return cls(e, rem)

    @classmethod
    def from_fraction(cls, e: int, x) -> "Cyclotomic":
        return cls.from_poly(e, [Fraction(x)])

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
        return all(c == 0 for c in self.coords[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self!r} is not rational")
        return self.coords[0]

    def galois(self, j: int) -> "Cyclotomic":
        """Field automorphism sending the basis root z to z^j; needs gcd(j,e)=1."""
        j %= self.e
        if gcd(j, self.e) != 1:
            raise ValueError(f"exponent {j} is not invertible mod {self.e}")
        acc = [Fraction(0)] * self.e
        for k, c in enumerate(self.coords):
            if c:
                acc[(k * j) % self.e] += c
        return Cyclotomic.from_poly(self.e, acc)

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
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        if o is None:
            return other * self.as_fraction()
        return Cyclotomic.from_poly(self.e, _fp_mul(list(self.coords), list(o.coords)))

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        if not self:
            raise ZeroDivisionError("inverse of zero")
        phi_cs = [Fraction(c) for c in cyclotomic_poly(self.e).coeffs]
        g, s, _ = _fp_ext_gcd(list(self.coords), phi_cs)
        # Phi_e is irreducible over Q, so the gcd is a nonzero constant
        assert len(g) == 1
        c = g[0]
        return Cyclotomic.from_poly(self.e, [x / c for x in s])

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
            return False
        return NotImplemented

    def __hash__(self):
        if self.is_rational:
            return hash(self.coords[0])
        return hash((self.e, self.coords))

    def __repr__(self):
        return f"Cyclotomic(e={self.e}: {render_terms(self.coords, 'z')})"


def eval_at_root(p: IntPolynomial, e: int, j: int) -> Cyclotomic:
    """p evaluated at the j-th power of the distinguished primitive e-th root.

    The root satisfies x^e = 1, so the coefficient of q^k lands on the
    power x^(jk mod e): the coefficients are summed into e integer
    buckets and reduced mod Phi_e once, instead of one field
    multiplication per coefficient as in Horner's rule.
    """
    if e < 1:
        raise ValueError("conductor must be positive")
    buckets = [0] * e
    for k, c in enumerate(p.coeffs):
        buckets[(j * k) % e] += c
    return Cyclotomic.from_poly(e, buckets)


# Exact linear algebra.  Matrices are plain sequences of rows; entries may
# be ints, Fractions, or Cyclotomic elements of one conductor.  Elimination
# is fraction-free (Bareiss) with first-nonzero pivoting, so it is
# deterministic and stays exact over any of the supported scalar domains.

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
    m, ncols = _prepare(rows)
    pivots = []
    prev = None
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        piv = m[r][c]
        for i in range(r + 1, len(m)):
            row = m[i]
            if prev is None:
                m[i] = [piv * row[k] - row[c] * m[r][k] for k in range(ncols)]
            else:
                m[i] = [(piv * row[k] - row[c] * m[r][k]) / prev for k in range(ncols)]
        pivots.append(c)
        prev = piv
        r += 1
        if r == len(m):
            break
    return m, pivots, ncols


def rank(rows) -> int:
    _, pivots, _ = _echelon(rows)
    return len(pivots)


def _unify(vec):
    e = next((x.e for x in vec if isinstance(x, Cyclotomic)), None)
    if e is None:
        return tuple(Fraction(x) for x in vec)
    return tuple(x if isinstance(x, Cyclotomic) else Cyclotomic.from_fraction(e, x)
                 for x in vec)


def kernel_basis(rows):
    """Exact basis of the right null space; empty iff full column rank.

    One basis vector per free column, found by back substitution on the
    echelon form, so results are deterministic.
    """
    m, pivots, ncols = _echelon(rows)
    if ncols == 0:
        return []
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i in range(len(pivots) - 1, -1, -1):
            p = pivots[i]
            s = Fraction(0)
            for k in range(p + 1, ncols):
                if v[k]:
                    s = s + m[i][k] * v[k]
            v[p] = -s / m[i][p]
        basis.append(_unify(v))
    return basis
