"""Record reference.json: the verdict of every item in every pool.

    python3 perfbench/record.py

Runs each pool once, untraced, in canonical order, and stores per item
the status, counterexample keys, exit code (CLI items) and output
digest.  It refuses to record unless the known state holds: every sweep
item passes, every CLI request exits 0 except the honest E7 failure of
the regular-element catalog, which exits 1 with its one counterexample,
and the Green table for mu = (2,2) has 1 + q at the class (2,1,1).
"""

import contextlib
import io
import json
import sys
from time import perf_counter

import workloads
from run import REFERENCE, SRC, Runner, verdict

E7_REQUEST = "verify --check regular-catalog --family E --rank 7"
E7_WITNESS = [["E7 pi_L=(7,)", "5"]]


def green_22_row():
    sys.path.insert(0, str(SRC))
    from greenchar.cli import main
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(["green", "--mu", "2,2", "--format", "json"])
    rows = json.loads(out.getvalue())["rows"]
    return next(r["coeffs"] for r in rows if r["class"] == [2, 1, 1])


def record_pool(runner, workload):
    items = [item for group in workloads.pool(workload) for item in group]
    if workload == "cli_cold":
        records = [runner.cli_request(item) for item in items]
    else:
        _, records = runner.sweep_pass(items)
    problems = []
    for item, record in zip(items, records):
        if "error" in record:
            problems.append(f"{item['id']}: {record['error']}")
        elif workload != "cli_cold" and record["status"] != "pass":
            problems.append(f"{item['id']}: status {record['status']}")
        elif workload == "cli_cold":
            expected = (1, E7_WITNESS) if item["id"] == E7_REQUEST else (0, [])
            if (record["exit"], record["ce"]) != expected:
                problems.append(f"{item['id']}: exit {record['exit']}, "
                                f"counterexamples {record['ce']}")
    if problems:
        raise SystemExit("refusing to record:\n" + "\n".join(problems))
    return {item["id"]: verdict(record) for item, record in zip(items, records)}


def main():
    if green_22_row() != [1, 1]:
        raise SystemExit("refusing to record: green --mu 2,2 lost the row "
                         "(2,1,1) = 1 + q")
    runner = Runner(perf_counter() + 900)
    reference = {}
    for workload in workloads.WORKLOADS:
        start = perf_counter()
        reference[workload] = record_pool(runner, workload)
        print(f"{workload}: {len(reference[workload])} items, "
              f"{perf_counter() - start:.1f} s", file=sys.stderr)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True)
                         + "\n")


if __name__ == "__main__":
    main()
