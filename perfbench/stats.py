"""Percentiles by the Harrell-Davis estimator.

A sweep pass has few items (39 in roots_sweep) with latencies spread
over four orders of magnitude, so the plain sample median jumps between
neighbouring items from run to run.  The Harrell-Davis estimate of a
quantile q weights every order statistic by a Beta((n+1)q, (n+1)(1-q))
probability mass, which cut the run-to-run spread of the roots_sweep
median from about 12% to about 5% in trials.
"""

import math

TAIL_BEYOND = 10


def _beta_cf(a, b, x):
    """Continued fraction for the incomplete beta function (modified
    Lentz method)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):
        m2 = 2 * m
        for aa in (m * (b - m) * x / ((a - 1.0 + m2) * (a + m2)),
                   -(a + m) * (a + b + m) * x / ((a + m2) * (a + 1.0 + m2))):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + aa / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-14:
            return h
    raise ArithmeticError("incomplete beta did not converge")


def beta_cdf(x, a, b):
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log(1.0 - x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def quantile(values, q):
    """Harrell-Davis estimate of the q-quantile of values."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 1:
        return ordered[0]
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    cdf = [beta_cdf(i / n, a, b) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * v for i, v in enumerate(ordered))


def tail(values, per_pass):
    """(estimate, percentile) of the highest percentile with at least
    TAIL_BEYOND samples beyond it in one pass of per_pass items, so the
    percentile stays the same however many passes a run makes.  With
    fewer items than that, the 50th percentile."""
    q = max((per_pass - TAIL_BEYOND) / per_pass, 0.5)
    return quantile(values, q), 100.0 * q
