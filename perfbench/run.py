"""greenchar benchmark: time to verdict on four seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src``.  Every sweep pass and every CLI request starts a fresh
interpreter, so the program's lru caches begin cold as in a real CLI or
test run.  The harness is one process with no threads; children run
one at a time and are timed from outside with perf_counter.  Reported
times are scaled by calibration loops run inside the children
(calibrate.py); the measured ones are in the details.

With --trace 0 it reports the end-to-end metrics: repeated passes until
S seconds are used (at least one; a pass is never cut short, because
its metric is the time to its last verdict).  With --trace 1 it runs
one untraced and one traced pass over the same items, checks that they
give the same verdicts, and reports the per-layer metrics from the
spans.  Every verdict is compared with reference.json, recorded by
record.py.  The last line of stdout is the result object; the line
before it holds the details (environment, sample counts, mismatches).
"""

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import selectors
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import calibrate
import stats
import workloads
from tracer import PER_LAYER, TraceSummary, load

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"
CHILD = HERE / "child.py"
REFERENCE = HERE / "reference.json"

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("item_p50_ms", "ms"),
              ("item_tail_ms", "ms"), ("peak_rss_mb", "MB")]
SETUP_REPS = 15
HARD_LIMIT_S = 165.0

# fields of a CLI JSON report that carry its verdict; timings, prose
# notes and any fields added later stay out of the digest
VERDICT_KEYS = ("command", "check", "config", "status", "counterexamples",
                "mu", "n", "e", "j", "rows", "shape", "family", "rank",
                "variant", "pi_L", "element", "perm", "order", "regular",
                "eigenspace_dim")


class BenchError(Exception):
    pass


def child_env():
    """Environment for every child: the checkout's sources, a pinned hash
    seed, and no GREENCHAR_BOUND (cli reads it as letters, weyl as a
    group order)."""
    env = dict(os.environ)
    env.pop("GREENCHAR_BOUND", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    """Starts children one at a time under one hard deadline."""

    def __init__(self, hard_deadline):
        self.hard_deadline = hard_deadline
        self.env = child_env()

    def _remaining(self):
        left = self.hard_deadline - perf_counter()
        if left <= 0:
            raise BenchError("run exceeded its time limit")
        return left

    def _calibrated(self, args):
        """Run the child with a calibration loop first and last in it.
        Returns (exit code, stdout, stderr, record) where the record has
        the latency from spawn to exit less the two loops (for setup, the
        child's own import and parser time), and that scaled by them."""
        OUT.mkdir(exist_ok=True)
        cal_file = OUT / f"cal-{os.getpid()}.json"
        cal_file.unlink(missing_ok=True)
        cmd = [sys.executable, str(CHILD), "--cal", str(cal_file)] + args
        start = perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=self.env, cwd=ROOT)
        try:
            out, err = proc.communicate(timeout=self._remaining())
        except subprocess.TimeoutExpired:
            raise BenchError(f"child timed out: {args}")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        elapsed = perf_counter() - start
        try:
            report = json.loads(cal_file.read_text())
        except (OSError, ValueError):
            raise BenchError(f"child wrote no calibration: {args}: "
                             + err.decode(errors="replace")[-400:])
        latency = report.get("setup_s", elapsed - sum(report["cal"]))
        return proc.returncode, out, err, {
            "latency_s": latency,
            "scaled_s": calibrate.scale(latency, report["cal"])}

    def setup(self):
        """Seconds a fresh interpreter takes to import greenchar.cli and
        build its parser, as a timed record."""
        code, _, err, record = self._calibrated(["setup"])
        if code != 0:
            raise BenchError("cannot import greenchar.cli: "
                             + err.decode(errors="replace")[-400:])
        return record

    def sweep_pass(self, items, spans=None):
        """One pass in a fresh interpreter.  Returns (wall, verdict
        records); the wall runs from start to the last verdict line, less
        the child's calibration loops, which also give each record its
        ``scaled_s``."""
        OUT.mkdir(exist_ok=True)
        job = OUT / f"job-{os.getpid()}.json"
        job.write_text(json.dumps(items))
        cmd = [sys.executable, str(CHILD)]
        if spans is not None:
            cmd += ["--trace", str(spans)]
        cmd += ["sweep", str(job)]
        lines = []
        with open(OUT / "child-stderr.log", "ab") as err:
            start = perf_counter()
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                    env=self.env, cwd=ROOT)
            try:
                with selectors.DefaultSelector() as sel:
                    sel.register(proc.stdout, selectors.EVENT_READ)
                    fd = proc.stdout.fileno()
                    buf = b""
                    while True:
                        if not sel.select(self._remaining()):
                            raise BenchError("sweep child timed out")
                        chunk = os.read(fd, 1 << 16)
                        if not chunk:
                            break
                        now = perf_counter()
                        buf += chunk
                        *complete, buf = buf.split(b"\n")
                        lines.extend((now, json.loads(line))
                                     for line in complete if line)
                proc.wait(timeout=self._remaining())
            finally:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
                proc.stdout.close()
        records = [obj for _, obj in lines if "cal_s" not in obj]
        if proc.returncode != 0 or len(records) != len(items):
            raise BenchError(f"sweep child exited {proc.returncode} after "
                             f"{len(records)} of {len(items)} verdicts")
        events, owners = [], []
        calibrating = 0.0
        for arrival, obj in lines:
            for kind, seconds in obj.get("events") or [("cal", obj["cal_s"])]:
                events.append((kind, seconds))
                if kind == "work":
                    owners.append(obj)
                else:
                    calibrating += seconds
            if "cal_s" not in obj:
                wall = arrival - start - calibrating
        for record in records:
            record["scaled_s"] = 0.0
        for owner, scaled in zip(owners, calibrate.scale_timeline(events)):
            owner["scaled_s"] += scaled
        return wall, records

    def cli_request(self, item, spans=None):
        """One CLI request in a fresh interpreter: latency and verdict."""
        args = ["--trace", str(spans)] if spans is not None else []
        code, out, err, timing = self._calibrated(args + ["cli", "--"]
                                                  + item["argv"])
        record = cli_verdict(code, out)
        if b"Traceback" in err:
            record["error"] = err.decode(errors="replace")[-400:]
        record.update(timing)
        return record


def cli_verdict(code, stdout: bytes):
    """Exit code, statuses, counterexample keys and a digest of the
    verdict fields of the canonical JSON output."""
    text = stdout.decode(errors="replace")
    try:
        payload = json.loads(text) if text.strip() else []
    except ValueError:
        payload = text
    reports = payload if isinstance(payload, list) else [payload]
    kept = [{k: r[k] for k in VERDICT_KEYS if k in r}
            if isinstance(r, dict) else r for r in reports]
    ce = [[str(w["class"]), str(w["index"])] for r in reports
          if isinstance(r, dict) for w in r.get("counterexamples", [])]
    digest = hashlib.sha256(json.dumps(kept, sort_keys=True,
                                       separators=(",", ":")).encode())
    return {"exit": code, "ce": ce, "digest": digest.hexdigest(),
            "status": [r["status"] for r in reports
                       if isinstance(r, dict) and "status" in r]}


VERDICT_FIELDS = ("exit", "status", "ce", "digest")


def verdict(record):
    return {k: record[k] for k in VERDICT_FIELDS if k in record}


def passes(workload, item_passes, runner, seconds, spans_dir=None):
    """Run passes until the next one would overrun `seconds` (at least
    one).  Returns [(measured wall, [(item, record)])] and, when
    tracing, the span files written.  A cli_cold pass is one cycle
    through the pool; its wall is the sum of its request latencies."""
    done = []
    span_files = []
    start = perf_counter()
    for items in item_passes:
        if workload == "cli_cold":
            pairs = []
            for index, item in enumerate(items):
                spans = None
                if spans_dir is not None:
                    spans = spans_dir / f"request-{index}.jsonl"
                    span_files.append(spans)
                pairs.append((item, runner.cli_request(item, spans)))
            wall = sum(record["latency_s"] for _, record in pairs)
        else:
            spans = None
            if spans_dir is not None:
                spans = spans_dir / "sweep.jsonl"
                span_files.append(spans)
            wall, records = runner.sweep_pass(items, spans)
            pairs = list(zip(items, records))
        done.append((wall, pairs))
        if perf_counter() - start + wall > seconds:
            break
    return done, span_files


def scaled_wall(wall, pairs):
    """A pass's wall scaled by the ratio its items' times were scaled by."""
    return wall * (sum(r["scaled_s"] for _, r in pairs)
                   / sum(r["latency_s"] for _, r in pairs))


def compare(workload, pairs, reference):
    """(mismatched ids, errored ids) against the recorded reference."""
    ref = reference[workload]
    mismatched, errored = [], []
    for item, record in pairs:
        if "error" in record:
            errored.append(item["id"])
        expected = ref.get(item["id"])
        if expected is None or verdict(record) != expected:
            mismatched.append(item["id"])
    return mismatched, errored


def environment():
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=10)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": commit, "source_sha256": digest.hexdigest()}


def run(workload, seed, seconds, trace, reference, pool=None):
    """One benchmark run; returns (result, details)."""
    start = perf_counter()
    runner = Runner(start + HARD_LIMIT_S)
    groups = pool if pool is not None else workloads.pool(workload)
    rng = random.Random(f"{workload}:{seed}")

    def item_passes():
        while True:
            yield workloads.ordered(groups, rng)

    details = {"workload": workload, "seed": seed, "trace": trace}
    details.update(environment())
    runner.setup()  # writes the bytecode caches; not timed
    if not trace:
        setup = [runner.setup() for _ in range(SETUP_REPS)]
        done, _ = passes(workload, item_passes(), runner, seconds)
        pairs = [pair for _, ps in done for pair in ps]
        summary = {}
        for label, field in (("scaled", "scaled_s"), ("measured", "latency_s")):
            latencies = [record[field] for _, record in pairs]
            walls = [scaled_wall(w, ps) if field == "scaled_s" else w
                     for w, ps in done]
            tail_s, tail_pct = stats.tail(latencies, len(done[0][1]))
            summary[label] = {
                "setup_s": statistics.median(r[field] for r in setup),
                "wall_s": statistics.median(walls),
                "item_p50_ms": stats.quantile(latencies, 0.5) * 1000.0,
                "item_tail_ms": tail_s * 1000.0}
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        values = dict(summary["scaled"], peak_rss_mb=peak_kb / 1024.0)
        units = dict(END_TO_END)
        details.update({"passes": len(done), "samples": len(pairs),
                        "tail_percentile": tail_pct,
                        "measured": summary["measured"]})
        traced_mismatch = []
    else:
        items = next(item_passes())
        (plain_wall, plain), = passes(workload, [items], runner, 0)[0]
        spans_dir = OUT / f"trace-{workload}-seed{seed}"
        spans_dir.mkdir(parents=True, exist_ok=True)
        done, span_files = passes(workload, [items], runner, 0, spans_dir)
        (traced_wall, traced), = done
        summary = TraceSummary()
        overhead = []
        for path, (_, record) in zip(span_files, traced):
            header, spans = load(path)
            main_s = summary.add(header, spans)
            if workload == "cli_cold":
                overhead.append(record["latency_s"] - main_s
                                - header["tracer_s"])
        ratio = scaled_wall(traced_wall, traced) / scaled_wall(plain_wall, plain)
        values = {name: summary.metric(name, ratio, overhead)
                  for name, _, _ in PER_LAYER}
        units = {name: unit for name, unit, _ in PER_LAYER}
        traced_mismatch = [item["id"] for (item, a), (_, b)
                           in zip(plain, traced) if verdict(a) != verdict(b)]
        pairs = plain + traced
        details.update({"untraced_wall_s": plain_wall,
                        "traced_wall_s": traced_wall,
                        "spans_dir": str(spans_dir.relative_to(ROOT))})
    mismatched, errored = compare(workload, pairs, reference)
    failed = {i for i in mismatched + errored + traced_mismatch}
    details.update({"attempted": len(pairs),
                    "verdict_mismatches": len(mismatched),
                    "error_ratio": len(errored) / len(pairs),
                    "traced_untraced_differ": traced_mismatch,
                    "mismatched": sorted(set(mismatched))[:20],
                    "errored": sorted(set(errored))[:20],
                    "run_s": perf_counter() - start})
    per_item = [[item["id"], record["latency_s"], record.get("scaled_s")]
                for item, record in pairs]
    result = {"correct": not (mismatched or errored or traced_mismatch),
              "attempted": len(pairs),
              "failed": sum(1 for item, _ in pairs if item["id"] in failed),
              "metrics": {name: {"value": values[name], "unit": units[name]}
                          for name in values}}
    return result, details, per_item


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "greenchar" / "__init__.py").is_file():
        print(f"error: no greenchar sources under {SRC}", file=sys.stderr)
        return 2
    try:
        reference = load_reference()
        result, details, per_item = run(args.workload, args.seed,
                                        args.seconds, bool(args.trace),
                                        reference)
    except (BenchError, OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({"details": details, "result": result,
                                        "items": per_item}, indent=1))
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
