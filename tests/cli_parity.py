"""Digests of the CLI's answers over fixed request corpora, for checking
that a change leaves every output byte and exit code as it was.

Each request runs in process through ``greenchar.cli.main`` in json,
text and csv, with ``verify.time.perf_counter`` frozen so that
``elapsed_ms`` reads 0.0.  For each corpus the script prints the
number of requests and one sha256 over every request's argument
vector, exit code, stdout and stderr, in order.  Run it once on each
side of a change and compare the lines:

    PYTHONPATH=src python tests/cli_parity.py [corpus ...]

The corpora: ``regular`` asks for the catalog twist of A1-A7, B2-B7,
C2-C7, D3-D7, E6 and G2 at every e <= 12 and variant a-d, and, where
that twist exists, relative to every pi_L of at most five labels;
``regular-catalog`` runs every family and rank slice of the catalog,
in either case, the empty ones included, and the full catalog;
``cli-cold`` is the pool of requests the benchmark's ``cli_cold``
workload sends; ``roots`` runs ``verify --check roots-of-unity`` and
``eval --nu`` on every one-row shape ``--mu mu --nu m --e e`` with
e >= 2 and at most 10 letters: e blocks of one row of m letters, after
a fixed block of one row when mu has letters left over; ``green`` asks
``green --mu mu`` for every Jordan type mu of 1 to 10 letters;
``configs`` runs ``verify --check all`` on each configuration of the
benchmark's ``trace_sweep`` pool, by ``--mu --nu --e`` for a rotating
layout and by ``--n --nu --e --variant`` for a regular-twist one, which
pins the twisted, mod-e and component induction outputs, then ``eval``
at three large conductors, up to the cap e = 200, which pins
``render_terms`` on long values; ``twisted`` runs ``verify --check
twisted-induction`` on every layout of ``tests/layouts.py``
``block_layouts(n)`` with n <= 8, each by the flags of the build that
made it; ``faults`` runs the ``verify --check all`` requests of
``configs`` each under the faults of ``tests/faults.py`` in turn, one at
a time and in process, which pins the counterexample texts and their
order.

Tier-1 asserts the recorded digests of the seven fast corpora,
``cli-cold``, ``regular-catalog``, ``roots``, ``green``, ``configs``,
``twisted`` and ``faults`` (about 11 s together;
``tests/test_cli.py::test_cli_parity_corpus_keeps_its_digest``).
``regular`` takes about 30 s, so its digest stays a manual run of this
script.  So does the inventory of what the fast corpora leave unused:

    PYTHONPATH=src python tests/cli_parity.py --uncalled

traces every call while the seven fast corpora run (about 25 s), prints
each function of the package that none of them calls, with its length
in lines, and fails unless the names are those of ``UNCALLED``.  The
file has no ``test_`` prefix, so pytest does not collect it.
"""

import hashlib
import importlib.util
import sys
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from functools import partial
from inspect import CO_NEWLOCALS
from io import StringIO
from itertools import combinations
from pathlib import Path
from types import CodeType

from greenchar import cli, verify, weyl
from greenchar.symfun import Partition, partitions_of
from greenchar.weyl import l_regular_config, standard_block_config
from faults import (flip_census_count, flip_coset_sum, flip_green_coefficient,
                    shift_coset_sum)
from layouts import block_layouts, parts

FORMATS = ("json", "text", "csv")
SYSTEMS = ([("A", r) for r in range(1, 8)] + [("B", r) for r in range(2, 8)]
           + [("C", r) for r in range(2, 8)] + [("D", r) for r in range(3, 8)]
           + [("E", 6), ("G", 2)])
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
SRC = Path(cli.__file__).parent


def run(argv):
    """Exit code, stdout and stderr of one request."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # refused by the argument parser
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def regular_requests():
    for family, rank in SYSTEMS:
        labels = range(1, rank + 1)
        levis = [pi_L for size in range(1, min(rank, 5) + 1)
                 for pi_L in combinations(labels, size)]
        for e in range(1, 13):
            for variant in "abcd":
                argv = ["regular", "--family", family, "--rank", str(rank),
                        "--e", str(e), "--variant", variant]
                yield argv
                if run(argv)[0] == 0:
                    for pi_L in levis:
                        yield argv + ["--pi-L", ",".join(map(str, pi_L))]


def catalog_requests():
    families = [None] + list("ABCDEFGX") + list("abcdefg")
    for family in families:
        for rank in [None] + list(range(1, 9)):
            argv = ["verify", "--check", "regular-catalog"]
            if family is not None:
                argv += ["--family", family]
            if rank is not None:
                argv += ["--rank", str(rank)]
            yield argv


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def cold_requests():
    # the pool asks for json; the format is appended below instead
    for line in load_workloads().CLI_POOL:
        yield line.split()


def trace_sweep_checks():
    """The verify --check all request of each configuration of the
    trace_sweep pool, with the configuration it asks for."""
    for spec in load_workloads().general_type_configs():
        # every item names its block types, and its fixed type if any
        if spec[0] == "std":
            _, m, e, nu, fixed_size, fixed_type = spec
            mu = sorted(nu * e + (fixed_type or []), reverse=True)
            flags = ["--mu", parts(mu), "--nu", parts(nu), "--e", str(e)]
            cfg = standard_block_config(
                m, e, Partition(nu), fixed_size,
                Partition(fixed_type) if fixed_type else None)
        else:
            _, n, m, e, nu, variant = spec
            flags = ["--n", str(n), "--nu", parts(nu), "--e", str(e),
                     "--variant", variant]
            cfg = l_regular_config(n, m, e, Partition(nu), variant)
        yield ["verify", "--check", "all"] + flags, cfg


def config_requests():
    for argv, _ in trace_sweep_checks():
        yield argv
    for mu, e in (((1,) * 10, 200), ((2, 2, 1, 1, 1, 1), 128),
                  ((3, 3, 2), 97)):
        yield ["eval", "--mu", parts(mu), "--e", str(e)]


def fault_requests():
    """Each request of trace_sweep_checks under each fault in turn, as
    (argv, fault name, fault): a Green coefficient of the identity class
    negated, a census count of the first shifted coset negated where
    the roots-of-unity check reads the census (one-row blocks), and one
    coset sum negated in the last shifted coset and moved up one
    residue in the first."""
    for argv, cfg in trace_sweep_checks():
        yield argv, "green", partial(flip_green_coefficient, cfg.merged_type(),
                                     Partition((1,) * cfg.n), cfg.e)
        if all(len(jtype) == 1 for jtype in cfg.block_types):
            yield argv, "census", partial(
                flip_census_count, cfg, 1,
                next(iter(weyl.coset_census(cfg, 1))))
        yield argv, "flip", partial(flip_coset_sum, cfg, cfg.e - 1)
        yield argv, "shift", partial(shift_coset_sum, cfg, 1)


def twisted_requests():
    for n in range(2, 9):
        for flags in block_layouts(n).values():
            yield ["verify", "--check", "twisted-induction"] + flags


def roots_requests():
    for e in range(2, 11):
        for m in range(1, 10 // e + 1):
            for k in range(10 - m * e + 1):
                mu = sorted([m] * e + ([k] if k else []), reverse=True)
                flags = ["--mu", parts(mu), "--nu", str(m),
                         "--e", str(e)]
                yield ["verify", "--check", "roots-of-unity"] + flags
                yield ["eval"] + flags


def green_requests():
    for n in range(1, 11):
        for mu in partitions_of(n):
            yield ["green", "--mu", ",".join(map(str, mu))]


CORPORA = {"regular": regular_requests, "regular-catalog": catalog_requests,
           "cli-cold": cold_requests, "roots": roots_requests,
           "green": green_requests, "configs": config_requests,
           "twisted": twisted_requests, "faults": fault_requests}
FAST = ("cli-cold", "regular-catalog", "roots", "green", "configs",
        "twisted", "faults")

# the functions of the package that no fast corpus calls, as --uncalled
# lists them
UNCALLED = (
    "poly.Cyclotomic.__hash__",
    "poly.Cyclotomic.__pow__",
    "poly.Cyclotomic.__truediv__",
    "poly.Cyclotomic.as_fraction",
    "poly.Cyclotomic.is_rational",
    "poly.Cyclotomic.one",
    "poly.IntPolynomial.__eq__",
    "poly.IntPolynomial.__hash__",
    "poly.IntPolynomial.__repr__",
    "poly.eval_at_root",
    "rootsys.RootSystem.__repr__",
    "rootsys.RootSystem.ambient",
    "rootsys.RootSystem.name",
    "symfun.Partition.sign",
    "symfun._KostkaSolve.dominates",
    "symfun._KostkaSolve.polynomial",
    "symfun.char_sn",
    "symfun.enumerate_ssyt",
    "symfun.enumerate_ssyt.<locals>.rec",
    "symfun.green_at_root",
    "symfun.kostka_foulkes",
    "verify.VerificationReport.passed",
    "verify.twisted_induction_trace",
    "weyl.InductionConfig._make",
    "weyl.SubgroupTable.__iter__",
    "weyl.SubgroupTable.from_generators",
    "weyl.WeylElt.__matmul__",
    "weyl.WeylElt.__pow__",
    "weyl.WeylElt.__repr__",
    "weyl.WeylElt.inverse",
    "weyl.WeylElt.is_identity",
    "weyl.coset_count",
    "weyl.coset_elements",
    "weyl.identity_elt",
    "weyl.levi_elements",
)


def digest(requests):
    """The number of requests and one sha256 over all their answers.  A
    request is an argument vector, or (argv, name, fault) for one run
    under the context manager fault() makes, named in the digest."""
    h = hashlib.sha256()
    count = 0
    for request in requests:
        argv, name, fault = (request if isinstance(request, tuple)
                             else (request, None, nullcontext))
        text = " ".join(argv) + (f" under {name}" if name else "")
        for fmt in FORMATS:
            with fault():
                code, out, err = run(argv + ["--format", fmt])
            for part in (text, fmt, str(code), out, err):
                h.update(part.encode())
                h.update(b"\0")
            count += 1
    return count, h.hexdigest()


def src_functions():
    """Every named function of the package, nested ones and methods
    included, as (file stem, qualified name, first line) of its code
    object, mapped to its name and its number of lines."""
    functions = {}
    for path in sorted(SRC.glob("*.py")):
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack += [c for c in code.co_consts if isinstance(c, CodeType)]
            # class bodies make no new locals; lambdas and comprehensions
            # are named <...>
            if code.co_flags & CO_NEWLOCALS and code.co_name[0] != "<":
                last = max(line for _, _, line in code.co_lines() if line)
                functions[path.stem, code.co_qualname, code.co_firstlineno] = (
                    f"{path.stem}.{code.co_qualname}",
                    last - code.co_firstlineno + 1)
    return functions


def uncalled():
    """(name, lines) of each function of the package that no fast corpus
    calls, by module and qualified name, from a trace of every call made
    while the fast corpora run."""
    called = {}

    def trace(frame, event, arg):
        called[id(frame.f_code)] = frame.f_code

    sys.settrace(trace)
    try:
        for name in FAST:
            digest(CORPORA[name]())
    finally:
        sys.settrace(None)
    reached = {(Path(code.co_filename).stem, code.co_qualname,
                code.co_firstlineno) for code in called.values()}
    return [entry for key, entry in sorted(src_functions().items())
            if key not in reached]


def main(names):
    verify.time.perf_counter = lambda: 0.0
    if names == ["--uncalled"]:
        found = uncalled()
        for name, lines in found:
            print(f"{name} ({lines} lines)")
        print(f"uncalled: {len(found)} functions, "
              f"{sum(lines for _, lines in found)} lines")
        if [name for name, _ in found] != list(UNCALLED):
            raise SystemExit("uncalled: the list differs from UNCALLED")
        return
    for name in names or CORPORA:
        if name not in CORPORA:
            raise SystemExit(f"unknown corpus {name!r}; "
                             f"choose from {', '.join(CORPORA)}")
        count, hexdigest = digest(CORPORA[name]())
        print(f"{name} {count} {hexdigest}")


if __name__ == "__main__":
    main(sys.argv[1:])
