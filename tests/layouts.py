"""The block layouts on n letters that the config builders make, each
with the ``verify`` flags that rebuild it: ``--mu --nu --e`` for a
rotating layout of ``standard_block_config`` and ``--n --nu --e
--variant`` for a regular-twist one of ``l_regular_config``.  The
twisted-induction equality gate of ``tests/test_verify.py`` walks the
layouts, and the ``twisted`` corpus of ``tests/cli_parity.py`` asks for
each of them by its flags.
"""

from itertools import product

from greenchar.symfun import partitions_of
from greenchar.weyl import (
    InvalidConfigError,
    l_regular_config,
    standard_block_config,
    validate_config,
)


def parts(p):
    return ",".join(map(str, p))


def block_layouts(n):
    """Every layout on n letters that standard_block_config and
    l_regular_config build and validate_config accepts, each once and in
    this order, mapped to the flags of the first build that made it: e >= 2 rotating blocks of
    each type of m letters after a fixed block of each type of the
    letters left over, then one block of each type beside the catalog
    twist of each order and variant."""
    built = []
    for e in range(2, n + 1):
        for m in range(1, n // e + 1):
            for nu in partitions_of(m):
                for tau in (partitions_of(n - e * m) if n > e * m
                            else [None]):
                    cfg = standard_block_config(m, e, nu, n - e * m, tau)
                    built.append((cfg, ["--mu", parts(cfg.merged_type()),
                                        "--nu", parts(nu), "--e", str(e)]))
    for m, e, variant in product(range(1, n), range(2, n + 1), "ab"):
        for nu in partitions_of(m):
            try:
                cfg = l_regular_config(n, m, e, nu, variant)
            except ValueError:  # the catalog has no such twist
                continue
            built.append((cfg, ["--n", str(n), "--nu", parts(nu),
                                "--e", str(e), "--variant", variant]))
    layouts = {}
    for cfg, flags in built:
        try:
            validate_config(cfg)
        except InvalidConfigError:
            continue
        layouts.setdefault(cfg, flags)
    return layouts

