"""Sweep passes inside the child: items run in order, one JSON verdict
line each on stdout as soon as it is known.

Calibration loops (calibrate.py) run every TICK_S seconds.  Those that
run inside an item are listed in its ``events`` between its pieces of
work; the others get lines of their own (``{"cal_s": ...}``).
"""

import hashlib
import json
import signal
import sys
from time import perf_counter

import calibrate

# seconds of wall time between two calibration loops
TICK_S = 0.1


class Ticker:
    """Calibration loops at a steady cadence, stamped with perf_counter.

    Untraced, a SIGALRM timer runs them, so a long item is split into
    pieces with a speed measurement near each.  Traced, they run only
    between items, so span durations never include them.  The handler
    only appends to ``ticks``; the reader keeps a cursor into it, so no
    signal masking is needed.
    """

    def __init__(self, timer):
        self.ticks = []
        self.read = 0
        self.last = perf_counter()
        if timer:
            signal.signal(signal.SIGALRM, self.tick)
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def tick(self, signum=None, frame=None):
        start = perf_counter()
        calibrate.measure()
        self.last = perf_counter()
        self.ticks.append((start, self.last))

    def maybe_tick(self):
        if perf_counter() - self.last >= TICK_S:
            self.tick()

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def _take(self, until):
        taken = []
        while self.read < len(self.ticks) and self.ticks[self.read][0] < until:
            taken.append(self.ticks[self.read])
            self.read += 1
        return taken

    def split(self, start, end):
        """Calibration lines before the item, and the item's events: its
        work pieces between the calibrations that ran inside it."""
        before = [{"cal_s": b - a} for a, b in self._take(start)]
        events = []
        mark = start
        for a, b in self._take(end):
            events += [["work", a - mark], ["cal", b - a]]
            mark = b
        events.append(["work", end - mark])
        return before, events

    def rest(self):
        return [{"cal_s": b - a} for a, b in self._take(float("inf"))]


def report_verdict(rep):
    """Status, counterexample keys and a digest of a VerificationReport's
    verdict fields (timings and prose notes left out)."""
    witnesses = [[str(x) for x in item] for item in rep.counterexamples]
    body = {"check": rep.check, "config": rep.config, "status": rep.status,
            "counterexamples": witnesses}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return {"status": rep.status, "ce": [w[:2] for w in witnesses],
            "digest": hashlib.sha256(text.encode()).hexdigest()}


def build_args(check, args):
    from greenchar.symfun import Partition
    from greenchar.weyl import l_regular_config, standard_block_config

    def part(p):
        return Partition(p) if p is not None else None

    if check == "check_ungraded_induction":
        n, types = args
        return (n, [tuple(t) for t in types])
    if args[0] == "std":
        _, m, e, nu, fixed_size, fixed_type = args
        return (standard_block_config(m, e, part(nu), fixed_size,
                                      part(fixed_type)),)
    _, n, m, e, nu, variant = args
    return (l_regular_config(n, m, e, part(nu), variant),)


def run_sweep(job_path, tracer):
    import greenchar.verify as verify
    with open(job_path) as fh:
        items = json.load(fh)
    inputs = [build_args(item["check"], item["args"]) for item in items]

    def emit(record):
        sys.stdout.write(json.dumps(record) + "\n")
        sys.stdout.flush()

    ticker = Ticker(timer=tracer is None)
    ticker.tick()
    for index, (item, args) in enumerate(zip(items, inputs)):
        if tracer is not None:
            ticker.maybe_tick()
            tracer.item = index
        check = getattr(verify, item["check"])
        start = perf_counter()
        try:
            record = report_verdict(check(*args))
        except Exception as exc:  # an item that raises is counted, not fatal
            record = {"error": f"{type(exc).__name__}: {exc}"}
        end = perf_counter()
        before, record["events"] = ticker.split(start, end)
        record["latency_s"] = sum(x for kind, x in record["events"]
                                  if kind == "work")
        for line in before:
            emit(line)
        emit(record)
    ticker.stop()
    ticker.tick()
    for line in ticker.rest():
        emit(line)
