"""Self-test of the benchmark on a few items of each workload.

    python3 perfbench/smoke.py

For every workload it runs the first three items of each pool group,
once untraced and once traced, and checks that the verdicts match the
reference, that the printed metric names and units are exactly those
in BENCHMARK.json, and that every end-to-end value is positive.  Then
it corrupts one recorded digest and checks that the comparison reports
that item.  Exits 0 when everything holds.
"""

import copy
import json
import sys

import workloads
from run import ROOT, load_reference, run


def expected_metrics():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            spec["workloads"])


def main():
    end_to_end, per_layer, listed = expected_metrics()
    problems = []
    if [w["name"] for w in listed] != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json lists other workloads than "
                        f"{workloads.WORKLOADS}")
    reference = load_reference()
    for workload in workloads.WORKLOADS:
        small = [group[:3] for group in workloads.pool(workload)]
        for trace, wanted in ((False, end_to_end), (True, per_layer)):
            result, details, _ = run(workload, 0, 0, trace, reference, small)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            tag = f"{workload} trace={int(trace)}"
            if got != wanted:
                problems.append(f"{tag}: metric names or units differ from "
                                f"BENCHMARK.json: {sorted(set(got) ^ set(wanted))}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{tag}: verdicts differ: {details}")
            if not trace and not all(m["value"] > 0
                                     for m in result["metrics"].values()):
                problems.append(f"{tag}: a metric is not positive")
            print(f"{tag}: {result['attempted']} items ok", file=sys.stderr)
    corrupted = copy.deepcopy(reference)
    victim = workloads.pool("roots_sweep")[0][0]["id"]
    corrupted["roots_sweep"][victim]["digest"] = "0" * 64
    small = [workloads.pool("roots_sweep")[0][:1]]
    result, details, _ = run("roots_sweep", 0, 0, False, corrupted, small)
    if result["correct"] or details["mismatched"] != [victim]:
        problems.append("a corrupted reference digest went unnoticed")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("smoke: " + ("ok" if not problems else f"{len(problems)} failures"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
