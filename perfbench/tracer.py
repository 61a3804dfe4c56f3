"""Span tracer installed from outside greenchar, and the per-layer metrics
derived from its spans.

Each probe replaces one public function or method with a wrapper that
records a span (name, start, end, parent span, item id, key, size).  A
name imported with ``from .x import f`` lives on in the importing
module, so installation rebinds every greenchar module attribute, every
module-level dict value (``verify.ALL_CHECKS``) and every class
attribute that still points at the original.  Spans stay in memory
until ``dump``; ``aggregate`` turns them into calls, inclusive time and
self time (duration minus the time covered by child spans).
"""

import functools
import json
import statistics
import sys
from time import perf_counter

MODULES = ("greenchar.poly", "greenchar.rootsys", "greenchar.symfun",
           "greenchar.weyl", "greenchar.verify", "greenchar.cli")

VERIFY_CHECKS = ("check_roots_of_unity", "check_twisted_induction",
                 "check_ungraded_induction", "check_mod_e_induction",
                 "check_component_dims", "check_component_induction",
                 "check_closed_form", "check_regular_catalog")


def _key_first(args, kwargs):
    return repr(args[0])


# (module, attribute path, span name, key of the call or None, record the
# result's length as the span size)
PROBES = [
    ("greenchar.symfun", "springer_graded_char", "symfun.springer_graded_char",
     _key_first, False),
    ("greenchar.symfun", "green_at_root", "symfun.green_at_root", None, False),
    ("greenchar.symfun", "kostka_foulkes", "symfun.kostka_foulkes", None, False),
    ("greenchar.symfun", "enumerate_ssyt", "symfun.enumerate_ssyt", None, True),
    ("greenchar.poly", "eval_at_root", "poly.eval_at_root", None, False),
    ("greenchar.poly", "Cyclotomic.__mul__", "poly.Cyclotomic.mul", None, False),
    ("greenchar.poly", "Cyclotomic.inverse", "poly.Cyclotomic.inverse", None,
     False),
    ("greenchar.poly", "kernel_basis", "poly.kernel_basis", None, False),
    ("greenchar.rootsys", "build_root_system", "rootsys.build_root_system",
     None, False),
    ("greenchar.rootsys", "levi_config", "rootsys.levi_config", None, False),
    ("greenchar.weyl", "eigenspace", "weyl.eigenspace", None, False),
    ("greenchar.weyl", "validate_config", "weyl.validate_config", _key_first,
     False),
    ("greenchar.weyl", "SubgroupTable.from_generators",
     "weyl.SubgroupTable.from_generators", None, True),
    ("greenchar.weyl", "induced_character", "weyl.induced_character", None,
     False),
    ("greenchar.weyl", "coset_count", "weyl.coset_count", None, False),
    ("greenchar.weyl", "coset_elements", "weyl.coset_elements", None, True),
    ("greenchar.weyl", "is_L_regular", "weyl.is_L_regular", None, False),
    ("greenchar.verify", "extend_block_character",
     "verify.extend_block_character", None, False),
    ("greenchar.verify", "twisted_induction_trace",
     "verify.twisted_induction_trace", None, False),
    ("greenchar.cli", "main", "cli.main", None, False),
] + [("greenchar.verify", name, f"verify.{name}", None, False)
     for name in VERIFY_CHECKS]

# counted on every call, without a span: too frequent to time one by one
COUNTERS = [("greenchar.weyl", "WeylElt.__init__", "weyl.WeylElt.constructed")]

# lru caches whose hits and misses are read from cache_info()
CACHES = [("greenchar.symfun", "kostka_foulkes", "symfun.kostka_foulkes"),
          ("greenchar.symfun", "char_sn", "symfun.char_sn")]

TIMED = ("symfun.springer_graded_char", "symfun.green_at_root",
         "poly.eval_at_root", "poly.Cyclotomic.mul", "poly.Cyclotomic.inverse",
         "poly.kernel_basis", "weyl.eigenspace", "weyl.validate_config",
         "weyl.SubgroupTable.from_generators", "weyl.induced_character",
         "weyl.coset_count", "rootsys.build_root_system",
         "rootsys.levi_config", "weyl.is_L_regular",
         "verify.twisted_induction_trace")

# every per-layer metric, with its unit and direction, in report order
PER_LAYER = (
    [("symfun.springer_graded_char.self_s", "s", "lower"),
     ("symfun.springer_graded_char.calls_per_mu", "calls/mu", "lower")]
    + [(f"{name}.{stat}", unit, "lower") for name in TIMED
       for stat, unit in (("calls", "count"), ("s", "s"))]
    + [("weyl.validate_config.calls_per_config", "calls/config", "lower"),
       ("weyl.SubgroupTable.from_generators.elements", "count", "lower"),
       ("weyl.WeylElt.constructed", "count", "lower"),
       ("weyl.coset_elements.elements", "count", "lower"),
       ("symfun.kostka_foulkes.misses", "count", "lower"),
       ("symfun.kostka_foulkes.hit_ratio", "ratio", "higher"),
       ("symfun.kostka_foulkes.s", "s", "lower"),
       ("symfun.enumerate_ssyt.tableaux", "count", "lower"),
       ("symfun.char_sn.hit_ratio", "ratio", "higher")]
    + [(f"verify.{name}.{stat}", unit, "lower") for name in VERIFY_CHECKS
       for stat, unit in (("calls", "count"), ("s", "s"), ("self_s", "s"))]
    + [("verify.extend_block_character.s", "s", "lower"),
       ("cli.main.s", "s", "lower"),
       ("cli.main.self_s", "s", "lower"),
       ("cli.process_overhead_s", "s", "lower"),
       ("trace.overhead_ratio", "ratio", "lower")])


def _resolve(module_name: str, attr: str):
    """(owner, last attribute name, raw attribute) for a dotted path
    such as "Cyclotomic.__mul__" inside a module."""
    owner = sys.modules[module_name]
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], owner.__dict__[parts[-1]]


def _rebind(original, replacement):
    """Point every greenchar reference to original at replacement."""
    for module_name in MODULES:
        module = sys.modules[module_name]
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, replacement)
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is original:
                        value[k] = replacement
            elif isinstance(value, type) and value.__module__ == module_name:
                for attr, v in list(vars(value).items()):
                    if v is original:
                        setattr(value, attr, replacement)


class Tracer:
    """In-memory span recorder.  ``item`` tags spans with the work item
    the benchmark is running."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {}
        self.item = None
        self.install_s = 0.0
        self._caches = []

    def install(self):
        start = perf_counter()
        for module_name in MODULES:
            __import__(module_name)
        for module_name, attr, name in CACHES:
            self._caches.append((name, getattr(sys.modules[module_name], attr)))
        for module_name, attr, name, key_fn, sized in PROBES:
            owner, last, target = _resolve(module_name, attr)
            if isinstance(target, classmethod):
                wrapped = classmethod(self._span(name, target.__func__,
                                                 key_fn, sized))
                setattr(owner, last, wrapped)
            else:
                _rebind(target, self._span(name, target, key_fn, sized))
        for module_name, attr, name in COUNTERS:
            owner, last, target = _resolve(module_name, attr)
            _rebind(target, self._counter(name, target))
        self.install_s = perf_counter() - start

    def _span(self, name, fn, key_fn, sized):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            key = key_fn(args, kwargs) if key_fn else None
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            size = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if sized:
                    size = len(result)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.item, key, size)
        return probe

    def _counter(self, name, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return probe

    def cache_counts(self):
        out = {}
        for name, fn in self._caches:
            info = fn.cache_info()
            out[name] = {"hits": info.hits, "misses": info.misses}
        return out

    def dump(self, path: str):
        """Write the spans as JSON lines after one header line.  The
        header carries the counters, the cache statistics and the time
        the tracer itself spent installing and serializing."""
        start = perf_counter()
        lines = [json.dumps(span) for span in self.spans]
        header = {"counts": self.counts, "caches": self.cache_counts(),
                  "tracer_s": self.install_s + perf_counter() - start}
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            fh.write("\n".join(lines))


def load(path: str):
    with open(path) as fh:
        header = json.loads(fh.readline())
        spans = [tuple(json.loads(line)) for line in fh if line.strip()]
    return header, spans


def _empty_row():
    return {"calls": 0, "s": 0.0, "self_s": 0.0, "keys": set(), "size": 0}


def aggregate(spans):
    """Per span name: calls, inclusive seconds counting only the outermost
    span of a recursion, self seconds, distinct keys and summed sizes."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _item, _key, _size in spans:
        if parent >= 0:
            covered[parent] += end - start
    out = {}
    for index, (name, start, end, parent, _item, key, size) in enumerate(spans):
        row = out.setdefault(name, _empty_row())
        row["calls"] += 1
        row["self_s"] += (end - start) - covered[index]
        if key is not None:
            row["keys"].add(key)
        if size is not None:
            row["size"] += size
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            row["s"] += end - start
    return out


class TraceSummary:
    """Totals over several span files (one per traced child process)."""

    def __init__(self):
        self.rows = {}
        self.counts = {}
        self.caches = {}

    def add(self, header, spans):
        """Fold in one span file; returns its total cli.main seconds."""
        for name, row in aggregate(spans).items():
            mine = self.rows.setdefault(name, _empty_row())
            for field in ("calls", "s", "self_s", "size"):
                mine[field] += row[field]
            mine["keys"] |= row["keys"]
        for name, value in header["counts"].items():
            self.counts[name] = self.counts.get(name, 0) + value
        for name, info in header["caches"].items():
            mine = self.caches.setdefault(name, {"hits": 0, "misses": 0})
            mine["hits"] += info["hits"]
            mine["misses"] += info["misses"]
        return sum(s[2] - s[1] for s in spans if s[0] == "cli.main")

    def metric(self, full_name: str, overhead_ratio: float,
               process_overhead: list):
        """Value of one PER_LAYER metric."""
        if full_name == "trace.overhead_ratio":
            return overhead_ratio
        if full_name == "cli.process_overhead_s":
            return statistics.median(process_overhead) if process_overhead \
                else 0.0
        if full_name in self.counts:
            return self.counts[full_name]
        name, stat = full_name.rsplit(".", 1)
        if stat in ("misses", "hit_ratio"):
            info = self.caches.get(name, {"hits": 0, "misses": 0})
            if stat == "misses":
                return info["misses"]
            total = info["hits"] + info["misses"]
            return info["hits"] / total if total else 0.0
        row = self.rows.get(name, _empty_row())
        if stat in ("calls", "s", "self_s"):
            return row[stat]
        if stat in ("calls_per_mu", "calls_per_config"):
            return row["calls"] / len(row["keys"]) if row["keys"] else 0.0
        if stat in ("elements", "tableaux"):
            return row["size"]
        raise KeyError(full_name)
