"""Faults for the failure paths of the checks.

Each fault edits one value a check reads, for one configuration or one
Jordan type alone, and is a context manager: it patches a module
attribute on entry and puts it back on exit, leaving every cached table
as it was.  The tests of ``tests/test_verify.py`` compare the checks
with their reference routes under these faults, and the ``faults``
corpus of ``tests/cli_parity.py`` runs the CLI under them; neither needs
pytest for it.
"""

from contextlib import contextmanager
from math import gcd
from types import MappingProxyType

from greenchar import symfun, verify, weyl
from greenchar.poly import IntPolynomial
from greenchar.symfun import Partition


@contextmanager
def patched(modules, name, value):
    """Set the attribute name of each module to value, and restore it."""
    saved = [(module, getattr(module, name)) for module in modules]
    for module in modules:
        setattr(module, name, value)
    try:
        yield
    finally:
        for module, original in saved:
            setattr(module, name, original)


def flip_green_coefficient(mu, rho, e):
    """Negate the top coefficient of the Green polynomial of (mu, rho) in
    a degree prime to e, so that the values at the primitive roots turn
    irrational; the library and the reference routes both see it."""
    original = symfun.springer_graded_char
    table = dict(original(mu))
    coeffs = list(table[rho].coeffs)
    k = max(i for i, c in enumerate(coeffs) if c and gcd(i, e) == 1)
    coeffs[k] = -coeffs[k]
    table[rho] = IntPolynomial(coeffs)
    flipped = MappingProxyType(table)
    return patched((symfun, verify), "springer_graded_char", lambda nu: (
        flipped if Partition(nu) == mu else original(nu)))


def flip_census_count(cfg, j, rho):
    """Negate one count of the census of cfg's j-th shifted coset at the
    cycle type rho; the shared table itself stays as it was."""
    original = weyl.coset_census

    def census(c, i):
        table = original(c, i)
        if (c, i) != (cfg, j):
            return table
        table = {key: dict(value) for key, value in table.items()}
        profile = next(iter(table[rho]))
        table[rho][profile] = -table[rho][profile]
        return table
    return patched((weyl,), "coset_census", census)


def flip_coset_sum(cfg, i):
    """Negate the top coefficient of one cycle type's sum over cfg's i-th
    shifted coset alone.  The table of its orbit shape is shared with
    the Galois-conjugate exponents, and stays as it was: a flip there
    would keep every induced value rational."""
    def negate_top(coeffs):
        coeffs[-1] = -coeffs[-1]
    return edit_coset_sum(cfg, i, negate_top)


def shift_coset_sum(cfg, i):
    """Move one unit of one cycle type's sum over cfg's i-th shifted coset
    alone from the residue r of its lowest nonzero coefficient to
    r + 1 mod e.  Its value at q = 1 stays as it was; at zeta^(j i) it
    moves by zeta^(j i r)(zeta^(j i) - 1), which is zero only for i = 0."""
    def shift(coeffs):
        r = next(r for r, c in enumerate(coeffs) if c)
        coeffs += [0] * (cfg.e - len(coeffs))
        coeffs[r] -= 1
        coeffs[(r + 1) % cfg.e] += 1
    return edit_coset_sum(cfg, i, shift)


def edit_coset_sum(cfg, i, edit):
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
    return patched((verify,), "coset_sums", edited)
