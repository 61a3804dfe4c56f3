"""Fresh-interpreter worker for the benchmark.

    python3 child.py [--trace SPANS] sweep JOB.json
    python3 child.py --cal FILE [--trace SPANS] cli -- ARGV...
    python3 child.py --cal FILE setup

``sweep`` runs the items listed in JOB.json (see sweep.py).  ``cli``
runs ``greenchar.cli.main(ARGV)`` as the console script does: the CLI's
own stdout, stderr and exit code pass through.  ``setup`` imports
greenchar.cli and builds its parser.  With --cal a calibration loop runs
first and last, on this process's core, and FILE receives a JSON object
with the two durations (``cal``) and, for setup, the seconds the import
and parser took (``setup_s``).  With --trace the span tracer is
installed before any work and its spans are written to SPANS at the end.
"""

import sys
from time import perf_counter


def work(mode, rest, tracer, report):
    if mode == "sweep":
        from sweep import run_sweep
        run_sweep(rest[0], tracer)
        return 0
    start = perf_counter()
    import greenchar.cli as cli
    if mode == "setup":
        cli.build_parser()
        report["setup_s"] = perf_counter() - start
        return 0
    if tracer is not None:
        tracer.item = 0
    return cli.main(rest[1:] if rest[:1] == ["--"] else rest)


def main(argv):
    options = {}
    while argv[0] in ("--cal", "--trace"):
        options[argv[0]], argv = argv[1], argv[2:]
    if "--cal" in options:
        import calibrate
        first = calibrate.measure()
    tracer = None
    if "--trace" in options:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    report = {}
    try:
        return work(argv[0], argv[1:], tracer, report)
    finally:
        if tracer is not None:
            sys.stdout.flush()
            tracer.dump(options["--trace"])
        if "--cal" in options:
            report["cal"] = [first, calibrate.measure()]
            import json
            with open(options["--cal"], "w") as fh:
                json.dump(report, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
