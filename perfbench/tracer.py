"""In-memory spans around the public functions of the program's layers.

Each wrapped call records (name, start_ns, end_ns, parent index) in a flat
list. Wrappers replace the function under every name a `malmsten` module
binds it to, so `from .x import f` call sites are traced too.
"""

import contextlib
import gzip
import importlib
import json
import sys
import time
from collections import defaultdict


def _n_terms(args, kwargs, result):
    return (args[1] if len(args) > 1 else kwargs["n_terms"]) - 1


def _depth_used(args, kwargs, result):
    return result[2]


def _nodes(args, kwargs, result):
    return result.nodes


# Public functions traced, as "module.function" under the malmsten package,
# each with an optional observer whose number is summed per function: terms
# summed by the partial-sum kernel, averaging depth used, quadrature nodes.
TRACED = {
    "cli.evaluate": None,
    "verify.run_checks": None,
    "verify.comparison_report": None,
    "closed_form.malmsten_closed": None,
    "closed_form.zero_limit": None,
    "closed_form.special_value": None,
    "kummer.kummer_closed_eval": None,
    "kummer.kummer_partial": None,
    "kummer.derived_sum_identity": None,
    "series.series_eval": None,
    "series.log_sine_sum": None,
    "series.sawtooth_partial": None,
    "series.coeff_a": None,
    "quadrature.quad_eval": _nodes,
    "quadrature.quad_jn": None,
    "quadrature.quad_tan_form": None,
    "acceleration.accelerated_limit": _depth_used,
    "kernels.log_sine_partials": _n_terms,
    "kernels.recip_sine_partials": _n_terms,
    "kernels.weighted_average_limit": None,
    "special_functions.log_gamma": None,
    "special_functions.digamma": None,
}


class Tracer:
    """Records spans while installed; `uninstall` restores every binding."""

    def __init__(self):
        self.spans = []  # (name, start_ns, end_ns, parent) with parent -1 at the root
        self.observed = defaultdict(int)  # function name -> summed observer value
        self._stack = []
        self._patched = []

    @contextlib.contextmanager
    def span(self, name):
        """A span the benchmark opens itself, around its calls into a layer."""
        idx = self._open(name)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(idx, t0, time.perf_counter_ns())

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append((name, 0, 0, self._stack[-1] if self._stack else -1))
        self._stack.append(idx)
        return idx

    def _close(self, idx, t0, t1):
        self._stack.pop()
        name, _, _, parent = self.spans[idx]
        self.spans[idx] = (name, t0, t1, parent)

    def _wrap(self, name, fn, observe):
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = self._open(name)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, t0, clock())
            if observe is not None:
                self.observed[name] += observe(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap each function of TRACED under every name a malmsten module
        binds it to."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "malmsten" or n.startswith("malmsten."))]
        for target, observe in TRACED.items():
            mod_name, _, fn_name = target.rpartition(".")
            try:
                mod = importlib.import_module(f"malmsten.{mod_name}")
            except ImportError:
                continue
            original = getattr(mod, fn_name, None)
            if original is None:
                continue
            wrapper = self._wrap(target, original, observe)
            for module in modules + [mod]:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path):
        """Write the spans as gzipped JSON: a name table and integer rows."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[n], t0, t1, parent] for n, t0, t1, parent in self.spans]
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent"],
                       "names": names, "spans": rows}, fh)


def _covered(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Per-span self time in ns: duration minus the time its children cover."""
    children = defaultdict(list)
    for name, t0, t1, parent in spans:
        if parent >= 0:
            children[parent].append((t0, t1))
    return [(t1 - t0) - _covered(children.get(i, ()), t0, t1)
            for i, (_, t0, t1, _) in enumerate(spans)]


def aggregate(spans):
    """{name: (calls, total_ns, self_ns)} over all spans."""
    out = defaultdict(lambda: [0, 0, 0])
    for (name, t0, t1, _), own in zip(spans, self_times(spans)):
        agg = out[name]
        agg[0] += 1
        agg[1] += t1 - t0
        agg[2] += own
    return {name: tuple(v) for name, v in out.items()}
