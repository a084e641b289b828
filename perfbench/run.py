#!/usr/bin/env python3
"""Benchmark of malmsten: route throughput, `verify` wall time and set-up time,
with every returned value checked against a 40-digit mpmath oracle.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep-band --seed 1 --seconds 55 --trace 0

Workloads (see perfbench/README.md): sweep-band, sweep-edge. Each
pass of a run imports malmsten afresh and draws fresh seeded angles, with
their oracle values, untimed. It then times each part of `malmsten verify`
(its check groups and its closed-vs-quadrature report), and evaluates every
route over each batch of the angles, rotating the order of the routes from
batch to batch. Passes follow each other in a closed loop on one thread
until --seconds have passed. --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer metrics of BENCHMARK.json. The last line
of standard output is the JSON result; a copy with the run's metadata is
written under .perfbench_out/. Its `attempted` and `failed` count the
operations of the untimed first pass (`malmsten verify --json` and every
route over the angles of pass 0), so they depend on the seed alone, not on
how many passes fit into --seconds.
"""

import argparse
import cmath
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import Tracer, aggregate
from workloads import BATCH, ROUTES, WORKLOADS, RouteTally, make_points, oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_PROBES = 15  # set-up measurements per run, spread over its passes
EXPECTED_CHECKS = 203


class ProgramMissing(Exception):
    pass


def load_program():
    """A fresh import of malmsten from this checkout's src/ and nowhere else.

    Every pass starts from a fresh import, so that nothing the program keeps
    in memory, such as results cached by angle, carries over from one pass
    to the next: a pass costs what it would cost a new process.
    """
    if not (SRC / "malmsten" / "__init__.py").is_file():
        raise ProgramMissing(f"no malmsten package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "malmsten" or n.startswith("malmsten.")]:
        del sys.modules[name]
    import malmsten
    import malmsten.cli
    import malmsten.domain
    import malmsten.verify

    if Path(malmsten.__file__).resolve().parent != (SRC / "malmsten").resolve():
        raise ProgramMissing(f"imported malmsten from {malmsten.__file__}, not {SRC}")
    return malmsten


def _child(args):
    """Run a fresh interpreter that ignores PYTHON* variables and user site."""
    return subprocess.run([sys.executable, "-E", "-s", *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)


def setup_probe():
    """Seconds for a fresh interpreter to import malmsten and finish one cold
    evaluation of each route, timed inside the child."""
    return float(_child([str(HERE / "probe.py"), str(SRC)] + [m for m, _ in ROUTES]).stdout)


_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)\s*$")


def measure_import_ms():
    """Median import cost per malmsten module from `python -X importtime`:
    self time per module, and the total under `malmsten`."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import malmsten, malmsten.cli"
    samples = []
    for i in range(SETUP_PROBES + 1):
        err = _child(["-X", "importtime", "-c", code]).stderr
        if i == 0:
            continue
        sample = {"total": 0.0}
        for line in err.splitlines():
            m = _IMPORT_LINE.match(line)
            if not m or not m.group(4).startswith("malmsten"):
                continue
            self_us, cum_us, indent, name = m.groups()
            module = name.split(".", 1)[1] if "." in name else "malmsten"
            sample[module] = int(self_us) / 1e3
            if len(indent) == 1:  # imported by the probe itself, not nested
                sample["total"] += int(cum_us) / 1e3
        samples.append(sample)
    return {f"setup.import_ms.{k}": statistics.median(s.get(k, 0.0) for s in samples)
            for k in samples[0]}


class Measurements:
    """Timings and checked outcomes of a run's passes."""

    def __init__(self):
        self.passes = 0
        self.verify_part_s = {}  # verify part -> best time in s
        self.setup_s = []
        # per route: slot -> best latency in s, and the slots that returned a value
        self.best_s = {m: {} for m, _ in ROUTES}
        self.returned = {m: set() for m, _ in ROUTES}
        self.tally = {m: RouteTally() for m, _ in ROUTES}
        self.work = {m: [0, 0] for m, _ in ROUTES}  # summed Evaluation.work, evaluations
        self.checks_attempted = 0
        self.checks_failed = 0
        self.correct = True

    @property
    def attempted(self):
        return self.checks_attempted + sum(t.attempted for t in self.tally.values())

    @property
    def failed(self):
        return self.checks_failed + sum(t.failed for t in self.tally.values())


class Bench:
    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.pass_no = 0
        self.load()
        n = len(self.points)
        self.batches = [range(i, min(i + BATCH, n)) for i in range(0, n, BATCH)]
        self.schedule = random.Random(f"schedule:{seed}")

    def load(self):
        """Untimed: a freshly imported program, and this pass's angles with
        their oracle values."""
        self.program = load_program()
        self.points = make_points(self.workload, self.seed, self.pass_no)
        self.refs = [oracle(p) for p in self.points]

    def run_cli_verify(self, ms):
        """`malmsten verify --json` in-process, checked: exit 0, pass, 203 checks."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.program.cli.main(["verify", "--json"])
        report = json.loads(buf.getvalue().strip().splitlines()[-1])
        ms.checks_attempted += report["num_checks"]
        ms.checks_failed += sum(not c["pass"] for c in report["checks"])
        if code != 0 or report["pass"] is not True or report["num_checks"] != EXPECTED_CHECKS:
            ms.correct = False

    def run_verify(self, ms, tracer):
        """The work of one `verify`, timed part by part: each check group
        through `run_checks(only=[g])`, then `comparison_report()`."""
        v = self.program.verify
        records = []
        span = tracer.span("bench.verify") if tracer else contextlib.nullcontext()
        with span:
            for part in (*v.GROUPS, "comparison_report"):
                t0 = time.perf_counter()
                if part == "comparison_report":
                    v.comparison_report()
                else:
                    records.extend(v.run_checks(only=[part]))
                t = time.perf_counter() - t0
                if t < ms.verify_part_s.get(part, math.inf):
                    ms.verify_part_s[part] = t
        ms.checks_attempted += len(records)
        ms.checks_failed += sum(not r.passed for r in records)
        if len(records) != EXPECTED_CHECKS or not all(r.passed for r in records):
            ms.correct = False

    def run_batch(self, ms, method, idx, tracer=None):
        evaluate = self.program.cli.evaluate  # looked up per batch so a tracer's wrapper is used
        Angle = self.program.domain.Angle
        clock = time.perf_counter
        points = self.points
        outs = []
        lat = []
        span = tracer.span(f"bench.sweep.{method}") if tracer else contextlib.nullcontext()
        with span:
            for i in idx:
                t0 = clock()
                try:
                    out = evaluate(Angle(points[i]), method)
                except Exception as exc:  # a raise or refusal is a failed operation
                    out = exc
                lat.append(clock() - t0)
                outs.append(out)
        best = ms.best_s[method]
        for i, t in zip(idx, lat):
            if t < best.get(i, math.inf):
                best[i] = t
        self.check(ms, method, idx, outs)

    def check(self, ms, method, idx, outs):
        tally = ms.tally[method]
        work = ms.work[method]
        before = tally.malformed
        for i, out in zip(idx, outs):
            tally.add(out, self.refs[i])
            if not isinstance(out, Exception):
                ms.returned[method].add(i)
                work[0] += out.work
                work[1] += 1
        if tally.malformed != before:
            ms.correct = False

    def run_pass(self, ms, tracer=None, after_batch=None):
        """On a freshly imported program and fresh angles, one verify's work,
        then every route over every batch of angles.

        The batches, and the slots within each, come in a new seeded order
        in every pass, so that a slot's repeats do not keep meeting the
        same phase of any periodic load on the machine.
        """
        self.pass_no += 1
        self.load()
        methods = [m for m, _ in ROUTES]
        if tracer is not None:
            tracer.install()
        try:
            self.run_verify(ms, tracer)
            for n, batch in enumerate(self.schedule.sample(self.batches, len(self.batches))):
                idx = self.schedule.sample(batch, len(batch))
                k = (ms.passes * len(self.batches) + n) % len(methods)
                for method in methods[k:] + methods[:k]:
                    self.run_batch(ms, method, idx, tracer)
                if after_batch is not None:
                    after_batch()
        finally:
            if tracer is not None:
                tracer.uninstall()
        ms.passes += 1

    def run(self, seconds):
        """Closed loop of whole passes until `seconds` have passed (at least one).

        Makes SETUP_PROBES set-up measurements between batches at even
        intervals, so that they span the whole run rather than one phase of
        the machine's load.
        """
        ms = Measurements()
        start = time.perf_counter()
        probe_at = [start + (j + 0.5) * seconds / SETUP_PROBES for j in range(SETUP_PROBES)]

        def probe_when_due():
            while probe_at and time.perf_counter() >= probe_at[0]:
                probe_at.pop(0)
                ms.setup_s.append(setup_probe())

        while ms.passes == 0 or time.perf_counter() < start + seconds:
            self.run_pass(ms, after_batch=probe_when_due)
        for _ in probe_at:
            ms.setup_s.append(setup_probe())
        return ms

    def run_traced(self, seconds, tracer):
        """Untraced and traced passes in turn, so that both see the same load."""
        plain, traced = Measurements(), Measurements()
        deadline = time.perf_counter() + seconds
        while plain.passes == 0 or time.perf_counter() < deadline:
            self.run_pass(plain)
            self.run_pass(traced, tracer)
        return plain, traced

    def first_pass(self):
        """Untimed pass before any timed one: `malmsten verify --json`, then
        every route over the angles of pass 0 once.

        Warms the interpreter; its counts are the failure counts of the
        workload as generated, and the `attempted` and `failed` of the
        result: the same seed gives the same operations and the same counts.
        """
        ms = Measurements()
        self.run_cli_verify(ms)
        everything = range(len(self.points))
        for method, _ in ROUTES:
            self.run_batch(ms, method, everything)
        return ms


def percentile(values, q):
    """Nearest-rank q-th percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q / 100 * len(s)) - 1)]


def end_to_end(ms):
    """End-to-end metrics from the best time of each unit of work in a run.

    Other tenants of the machine slow it by up to ~1.7x for seconds at a
    time, so a median over repeats measures them as much as the program. The
    best time of each slot, of each part of `verify` and of set-up over the
    passes does not.
    """
    m = {"verify_s": math.fsum(ms.verify_part_s.values())}
    for method, key in ROUTES:
        best = ms.best_s[method]
        m[f"{key}_pts_per_s"] = len(best) / math.fsum(best.values())
        tally = ms.tally[method]
        m[f"{key}_verified_frac"] = 1.0 - tally.failed / tally.attempted
    for method in ("series", "quad"):
        best = [ms.best_s[method][i] for i in ms.returned[method]]
        for q in (90, 99):
            m[f"{method}_point_p{q}_ms"] = 1e3 * percentile(best, q)
    m["ops_verified_frac"] = 1.0 - ms.failed / ms.attempted
    if ms.setup_s:
        m["setup_s"] = min(ms.setup_s)
    return m


def _median_time(fn, repeats, inner=1):
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        samples.append((time.perf_counter() - t0) / inner)
    return statistics.median(samples)


def kernel_micro_us(program):
    """The kernel microbenchmarks of benchmarks/bench_kernels.py at fixed sizes."""
    k = getattr(program, "kernels", None)
    if k is None:
        return {}
    theta = math.pi / 2 + math.pi
    z = cmath.exp(1j * theta)
    partials = k.log_sine_partials(theta, 2000, 40)
    return {
        "kernels.log_sine_partials_n100_us":
            1e6 * _median_time(lambda: k.log_sine_partials(theta, 100, 40), 21, 10),
        "kernels.log_sine_partials_n2000_us":
            1e6 * _median_time(lambda: k.log_sine_partials(theta, 2000, 40), 21),
        "kernels.weighted_average_limit_d16_w40_us":
            1e6 * _median_time(lambda: k.weighted_average_limit(partials, z, 16), 21, 10),
    }


def per_layer(program, first, plain, traced, tracer):
    """Per-layer metrics: span aggregates per traced pass, first-pass counts,
    untraced best times of the verify parts, fixed-size kernel timings and
    tracing overhead."""
    agg = aggregate(tracer.spans)
    per_pass = 1.0 / traced.passes

    def calls(name):
        return agg.get(name, (0, 0, 0))[0]

    def self_ms(name):
        return agg.get(name, (0, 0, 0))[2] / 1e6 * per_pass

    m = {}
    for name in ("kernels.log_sine_partials", "kernels.weighted_average_limit",
                 "kernels.recip_sine_partials", "quadrature.quad_eval",
                 "quadrature.quad_jn", "quadrature.quad_tan_form",
                 "special_functions.log_gamma", "closed_form.malmsten_closed",
                 "kummer.kummer_closed_eval", "cli.evaluate", "series.coeff_a",
                 "kummer.kummer_partial"):
        m[f"{name}.self_ms"] = self_ms(name)
    terms = tracer.observed["kernels.log_sine_partials"]
    m["kernels.log_sine_partials.terms"] = terms * per_pass
    m["kernels.ns_per_term"] = agg["kernels.log_sine_partials"][2] / terms if terms else 0.0
    nodes = tracer.observed["quadrature.quad_eval"]
    m["quadrature.ns_per_node"] = agg["quadrature.quad_eval"][1] / nodes if nodes else 0.0
    depth_calls = calls("acceleration.accelerated_limit")
    m["acceleration.depth_used_mean"] = (
        tracer.observed["acceleration.accelerated_limit"] / depth_calls if depth_calls else 0.0)
    m["special_functions.log_gamma.calls"] = calls("special_functions.log_gamma") * per_pass
    m["closed_form.zero_limit.calls"] = calls("closed_form.zero_limit") * per_pass
    for method, key in ROUTES:
        work, n = plain.work[method]
        if key == "series":
            m["series.terms_per_point"] = work / n if n else 0.0
        elif key.startswith("quad"):
            m[f"{key}.nodes_per_point"] = work / n if n else 0.0
        t = first.tally[method]
        m[f"{key}.raised"] = t.raised
        m[f"{key}.est_violations"] = t.est_violations
        m[f"{key}.err_over_est_max"] = t.err_over_est_max
    m["ops_failed_frac"] = plain.failed / plain.attempted
    for part, t in plain.verify_part_s.items():
        name = "comparison_report" if part == "comparison_report" else f"group.{part}"
        m[f"verify.{name}_ms"] = 1e3 * t
    m.update(kernel_micro_us(program))
    m.update(measure_import_ms())
    untraced, with_trace = end_to_end(plain), end_to_end(traced)
    for method in ("series", "quad"):
        for q in (90, 99):
            m[f"{method}.point_p{q}_ms"] = untraced[f"{method}_point_p{q}_ms"]
    m["trace.overhead.verify_ms"] = 1e3 * (with_trace["verify_s"] - untraced["verify_s"])
    for _, key in ROUTES:
        rate, traced_rate = untraced[f"{key}_pts_per_s"], with_trace[f"{key}_pts_per_s"]
        m[f"trace.overhead.{key}_us_per_pt"] = 1e6 * (1.0 / traced_rate - 1.0 / rate)
    return m


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "malmsten").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts and path.suffix not in (".pyc", ".so"):
            h.update(path.relative_to(SRC).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def metadata(program, args, n_points, passes):
    import mpmath

    return {
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "python": platform.python_version(),
        "backend": program.BACKEND,
        "nproc": os.cpu_count(),
        "mpmath": mpmath.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "points": n_points,
        "batch": BATCH,
        "passes": passes,
    }


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        load_program()
        import mpmath  # noqa: F401  (the oracle)
    except (ProgramMissing, ImportError) as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed)
    first = bench.first_pass()
    n_points = len(bench.points)

    if not args.trace:
        setup_probe()  # warm-up: writes the bytecode caches a user's install has
        timed = bench.run(args.seconds)
        values = end_to_end(timed)
        checked = [timed]
    else:
        tracer = Tracer()
        plain, traced = bench.run_traced(args.seconds, tracer)
        values = per_layer(bench.program, first, plain, traced, tracer)
        timed = plain
        checked = [plain, traced]
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json.gz")

    meta = metadata(bench.program, args, n_points, timed.passes)
    declared = declared_metrics(args.trace)
    # a per-layer metric of a module or function the program no longer has reads 0
    missing = [d["name"] for d in declared if d["name"] not in values and not args.trace]
    if missing:
        print(f"perfbench: metrics not computed: {missing}", file=sys.stderr)
        return 1
    metrics = {d["name"]: {"value": float(values.get(d["name"], 0.0)), "unit": d["unit"]}
               for d in declared}

    print(f"# {args.workload} seed={args.seed} passes={timed.passes} "
          f"points={n_points} backend={meta['backend']}")
    print(f"# {'route':<10} {'raised':>7} {'est_viol':>9} {'err/est max':>12}  (first pass)")
    for method, key in ROUTES:
        t = first.tally[method]
        print(f"# {key:<10} {t.raised:>7} {t.est_violations:>9} {t.err_over_est_max:>12.3g}")
    print(f"# ops_failed_frac {first.failed / first.attempted:.6g} "
          f"({first.failed} of {first.attempted}, first pass)")
    print(f"# ops_failed_frac {timed.failed / timed.attempted:.6g} "
          f"({timed.failed} of {timed.attempted}, timed passes)")
    for name, v in metrics.items():
        print(f"# {name:<44} {v['value']:>14.6g} {v['unit']}")
    print("# meta " + json.dumps(meta))

    result = {
        "correct": all(r.correct for r in checked) and first.correct,
        "attempted": first.attempted,
        "failed": first.failed,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    first_pass = {key: vars(first.tally[method]) for method, key in ROUTES}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"meta": meta, "first_pass": first_pass, "result": result}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
