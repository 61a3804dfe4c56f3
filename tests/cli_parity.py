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
made it.

Tier-1 asserts the recorded digests of the six fast corpora,
``cli-cold``, ``regular-catalog``, ``roots``, ``green``, ``configs`` and
``twisted`` (about 8 s together;
``tests/test_cli.py::test_cli_parity_corpus_keeps_its_digest``).
``regular`` takes about 30 s, so its digest stays a manual run of this
script.  The file has no ``test_`` prefix, so pytest does not collect
it.
"""

import hashlib
import importlib.util
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from itertools import combinations
from pathlib import Path

from greenchar import cli, verify
from greenchar.symfun import partitions_of
from layouts import block_layouts, parts

FORMATS = ("json", "text", "csv")
SYSTEMS = ([("A", r) for r in range(1, 8)] + [("B", r) for r in range(2, 8)]
           + [("C", r) for r in range(2, 8)] + [("D", r) for r in range(3, 8)]
           + [("E", 6), ("G", 2)])
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


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


def config_requests():
    for spec in load_workloads().general_type_configs():
        # every item names its block types, and its fixed type if any
        if spec[0] == "std":
            _, _, e, nu, _, fixed_type = spec
            mu = sorted(nu * e + (fixed_type or []), reverse=True)
            flags = ["--mu", parts(mu), "--nu", parts(nu), "--e", str(e)]
        else:
            _, n, _, e, nu, variant = spec
            flags = ["--n", str(n), "--nu", parts(nu), "--e", str(e),
                     "--variant", variant]
        yield ["verify", "--check", "all"] + flags
    for mu, e in (((1,) * 10, 200), ((2, 2, 1, 1, 1, 1), 128),
                  ((3, 3, 2), 97)):
        yield ["eval", "--mu", parts(mu), "--e", str(e)]


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
           "twisted": twisted_requests}


def digest(requests):
    """The number of requests and one sha256 over all their answers."""
    h = hashlib.sha256()
    count = 0
    for argv in requests:
        for fmt in FORMATS:
            code, out, err = run(argv + ["--format", fmt])
            for part in (" ".join(argv), fmt, str(code), out, err):
                h.update(part.encode())
                h.update(b"\0")
            count += 1
    return count, h.hexdigest()


def main(names):
    verify.time.perf_counter = lambda: 0.0
    for name in names or CORPORA:
        if name not in CORPORA:
            raise SystemExit(f"unknown corpus {name!r}; "
                             f"choose from {', '.join(CORPORA)}")
        count, hexdigest = digest(CORPORA[name]())
        print(f"{name} {count} {hexdigest}")


if __name__ == "__main__":
    main(sys.argv[1:])
