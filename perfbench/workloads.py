"""The four workloads: fixed pools of inputs, put in order by the seed.

Every pool is generated here from plain numbers; the program under test
only ever sees the configurations and argument vectors built from them.
A sweep item is ``{"id", "check", "args"}``, where ``args`` is a JSON
description the child process turns into greenchar objects; a CLI item
is ``{"id", "argv"}``.
"""

import json
import random

WORKLOADS = ("roots_sweep", "trace_sweep", "induction_sweep", "cli_cold")


def _partitions(n, largest=None):
    """Partitions of n as lists, largest part first, (n) first."""
    if n == 0:
        return [[]]
    largest = n if largest is None else largest
    out = []
    for p in range(min(n, largest), 0, -1):
        out.extend([p] + rest for rest in _partitions(n - p, p))
    return out


def _std(m, e, nu=None, fixed_size=0, fixed_type=None):
    return ["std", m, e, nu, fixed_size, fixed_type]


def one_row_configs():
    """The 39 block configs with one-row types and n <= 8: ten pure
    rotating families, then every shape with one fixed block."""
    out = [_std(m, e) for m, e in [(1, 2), (2, 2), (3, 2), (4, 2), (1, 3),
                                   (2, 3), (1, 4), (2, 4), (1, 5), (1, 6)]]
    for e in range(2, 8):
        for m in range(1, 8):
            for k in range(1, 9):
                if k + e * m <= 8:
                    out.append(_std(m, e, fixed_size=k))
    return out


def general_type_configs():
    """The 86 general-block-type configs: rotating families with n <= 6
    (fixed block swept over all its types too), then one block of any
    type beside a regular twist, n <= 7."""
    out = []
    for m, e in [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6),
                 (2, 2), (2, 3), (3, 2)]:
        out.extend(_std(m, e, nu) for nu in _partitions(m))
    for k in range(1, 5):
        for m in range(1, 6):
            for e in range(2, 6):
                if k + m * e > 6:
                    continue
                for tau in _partitions(k):
                    out.extend(_std(m, e, nu, k, tau) for nu in _partitions(m))
    for n in range(3, 8):
        for m in range(1, n - 1):
            gap = n - m
            for e in range(2, gap + 1):
                if gap % e:
                    continue
                variant = "b" if m == 1 else "a"
                out.extend(["lreg", n, m, e, nu, variant]
                           for nu in _partitions(m))
    return out


def block_type_multisets(n):
    """Every multiset of block types filling n letters, each once."""
    seen = []
    for kappa in _partitions(n):
        combos = [[]]
        for k in kappa:
            combos = [c + [nu] for c in combos for nu in _partitions(k)]
        for combo in combos:
            key = sorted(combo, reverse=True)
            if key not in seen:
                seen.append(key)
    return seen


def _sweep(check, specs):
    return [{"id": f"{check} {json.dumps(spec, separators=(',', ':'))}",
             "check": check, "args": spec}
            for spec in specs]


# Requests for cli_cold.  All ask for --format json so the output has a
# canonical form; --jobs is never passed (the default is 1).  Only
# one-row --nu values go to eval.
CLI_POOL = [
    "green --mu 1,1,1,1,1,1,1,1,1,1",
    "green --mu 2,2",
    "green --mu 2,2,2,1,1,1",
    "green --mu 3,2,2,1,1,1",
    "green --mu 2,1,1,1,1,1,1,1,1",
    "green --mu 4,3,2,1",
    "eval --mu 2,2 --e 2 --nu 2",
    "eval --mu 3,3,1 --e 2 --nu 3",
    "eval --mu 2,2,2 --e 3 --nu 2",
    "eval --mu 4,4,1 --e 2 --nu 4",
    "eval --mu 2,2,2,2,1 --e 4 --nu 2",
    "eval --mu 1,1,1,1,1,1,1,1,1 --e 3",
    "verify --check all --mu 2,2,1 --nu 2 --e 2",
    "verify --check all --mu 3,3 --nu 3 --e 2",
    "verify --check all --n 5 --nu 2 --e 3",
    "verify --check all --mu 2,2,2,1 --nu 2 --e 3",
    "verify --check all --mu 1,1,1,1,1,1 --nu 1 --e 6",
    "verify --check all --n 7 --nu 3 --e 2",
    "verify --check regular-catalog --family E --rank 6",
    "verify --check regular-catalog --family E --rank 7",
    "verify --check regular-catalog --family F --rank 4",
    "verify --check regular-catalog --family G --rank 2",
    "verify --check closed-form-count --nu 2 --e 2",
    "verify --check ungraded-induction --nu 3 --nu 2,1",
    "regular --family A --rank 5 --e 3",
    "regular --family D --rank 4 --e 2 --variant c",
    "regular --family B --rank 4 --e 4 --variant b --pi-L 4",
    "config-validate --mu 2,2 --nu 2 --e 2",
    "config-validate --n 5 --nu 2 --e 3",
]


def pool(workload):
    """Every item of a workload, in canonical order.  The sweeps list
    their groups in the order they run."""
    if workload == "roots_sweep":
        return [_sweep("check_roots_of_unity", one_row_configs())]
    if workload == "trace_sweep":
        return [_sweep("check_twisted_induction", general_type_configs())]
    if workload == "induction_sweep":
        ungraded = [[n, combo] for n in range(2, 8)
                    for combo in block_type_multisets(n)]
        return [_sweep("check_ungraded_induction", ungraded),
                _sweep("check_mod_e_induction", one_row_configs())]
    if workload == "cli_cold":
        return [[{"id": line, "argv": line.split() + ["--format", "json"]}
                 for line in CLI_POOL]]
    raise ValueError(f"unknown workload {workload!r}")


def ordered(groups, rng: random.Random):
    """One pass: every item once, shuffled within its group by rng."""
    out = []
    for group in groups:
        group = list(group)
        rng.shuffle(group)
        out.extend(group)
    return out
