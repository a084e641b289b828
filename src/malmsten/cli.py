"""Command-line front end: evaluate I(phi) by any method, cross-validate
all routes, sweep phi ranges, and emit machine-readable reports.

Exit codes: 0 success / all checks pass, 1 numeric check failed,
2 usage, domain or output-file error, 3 nonconvergence.
"""

import argparse
import json
import math
import os
import re
import sys
import tempfile

from .closed_form import SpecialCase, special_value, two_pi_over_3_forms
from .dispatch import evaluate
from .domain import Angle, Method
from .errors import DomainError, NonConvergenceError
from .verify import GROUPS, run_checks

_PHI_RE = re.compile(r"^([+-]?)(?:(\d+)\*)?pi(?:/(\d+))?$")

METHODS = tuple(m.value for m in Method)

# A sweep evaluates every point before it writes its file, so the number of
# points is bounded up front.
MAX_SWEEP_POINTS = 10**6


def parse_phi(expr):
    """Parse a phi expression: decimal literal, pi, pi/INT, INT*pi/INT."""
    s = expr.strip().replace(" ", "")
    m = _PHI_RE.match(s)
    if m:
        sign = -1.0 if m.group(1) == "-" else 1.0
        num = int(m.group(2)) if m.group(2) else 1
        den = int(m.group(3)) if m.group(3) else 1
        if den == 0:
            raise DomainError(f"zero denominator in phi expression {expr!r}")
        return sign * num * math.pi / den
    try:
        return float(s)
    except ValueError:
        raise DomainError(f"cannot parse phi expression {expr!r}") from None


def _g17(x):
    return f"{x:.17g}"


def _use_color():
    return sys.stdout.isatty() and not os.environ.get("NO_COLOR")


def _pass_fail(ok):
    word = "PASS" if ok else "FAIL"
    if _use_color():
        return f"\x1b[32m{word}\x1b[0m" if ok else f"\x1b[31m{word}\x1b[0m"
    return word


def cmd_eval(args):
    phi = parse_phi(args.phi)
    angle = Angle(phi)
    ev = evaluate(angle, args.method, args.tol)
    if args.json:
        print(json.dumps({
            "phi": phi,
            "value": ev.value,
            "method": ev.method.value,
            "est_error": ev.est_error,
            "work": ev.work,
        }))
    else:
        print(f"phi={_g17(phi)} value={_g17(ev.value)} method={ev.method.value} "
              f"est_error={ev.est_error:.3e} work={ev.work}")
    return 0


def cmd_verify(args):
    only = args.only.split(",") if args.only else None
    records = run_checks(only=only)
    # the closed_quad group's records are the closed-vs-quad grid
    deltas = [r.residual for r in records if r.name.startswith("closed_vs_quad[")]
    max_delta = max(deltas) if deltas else None
    all_pass = all(r.passed for r in records)
    if args.json:
        print(json.dumps({
            "pass": all_pass,
            "num_checks": len(records),
            "max_grid_delta": max_delta,
            "checks": [r.as_dict() for r in records],
        }))
    else:
        for r in records:
            print(f"{_pass_fail(r.passed)} {r.name} "
                  f"residual={r.residual:.3e} tol={r.tolerance:.1e}")
        n_ok = sum(r.passed for r in records)
        grid = "" if max_delta is None else f"; max closed-vs-quad grid delta {max_delta:.3e}"
        print(f"{n_ok}/{len(records)} checks passed{grid}")
    return 0 if all_pass else 1


def _sweep_records(phis, methods):
    for p in phis:
        angle = Angle(p)
        yield p, {m: evaluate(angle, m) for m in methods}


def _atomic_write(path, text):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".sweep-")
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        # mkstemp makes the file 0600; give it the mode open() gives a new file
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            # name the path the user gave, not the temporary file
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def cmd_sweep(args):
    start, stop = parse_phi(args.start), parse_phi(args.stop)
    step = args.step
    if not (-math.pi < start < stop < math.pi):
        raise DomainError("sweep range must satisfy -pi < from < to < pi")
    if not step > 0.0:
        raise DomainError("step must be positive")
    methods = sorted(set(args.methods.split(",")))
    for m in methods:
        if m not in METHODS:
            raise DomainError(f"unknown method {m!r}")
    span = (stop - start) / step + 1e-9
    if not span < MAX_SWEEP_POINTS:
        raise DomainError(f"sweep would exceed {MAX_SWEEP_POINTS} points; use a larger step")
    n = int(span) + 1
    # the slack lets the last point round past stop, even to pi itself
    phis = [min(start + i * step, stop) for i in range(n)]

    if args.json:
        records = []
        for p, evs in _sweep_records(phis, methods):
            records.append({
                "phi": p,
                "methods": {
                    m: {"value": evs[m].value, "est_error": evs[m].est_error,
                        "work": evs[m].work}
                    for m in methods
                },
                "deltas": {f"{m1}|{m2}": abs(evs[m1].value - evs[m2].value)
                           for i, m1 in enumerate(methods) for m2 in methods[i + 1:]},
            })
        _atomic_write(args.out, json.dumps(records, indent=2) + "\n")
    else:
        lines = ["phi,method,value,est_error,work"]
        for p, evs in _sweep_records(phis, methods):
            for m in methods:
                ev = evs[m]
                lines.append(
                    f"{_g17(p)},{m},{_g17(ev.value)},{_g17(ev.est_error)},{ev.work}"
                )
        _atomic_write(args.out, "\n".join(lines) + "\n")
    print(f"wrote {len(phis)} grid points x {len(methods)} methods to {args.out}")
    return 0


_TABLE_ROWS = (
    ("pi/3", SpecialCase.PI_OVER_3),
    ("pi/2", SpecialCase.PI_OVER_2),
    ("2*pi/3", SpecialCase.TWO_PI_OVER_3),
)


def cmd_table(args):
    rows = []
    failed = False
    for label, case in _TABLE_ROWS:
        angle = Angle(case.value)
        row = {"phi": label, "tabulated_rhs": special_value(case).value}
        for m in ("closed", "series", "quad"):
            try:
                row[m] = evaluate(angle, m).value
            except NonConvergenceError:
                row[m] = None
                failed = True
        row["closed_minus_quad"] = (
            abs(row["closed"] - row["quad"])
            if row["closed"] is not None and row["quad"] is not None else None
        )
        if case is SpecialCase.TWO_PI_OVER_3:
            a, b = two_pi_over_3_forms()
            row["printed_forms_delta"] = abs(a - b)
        rows.append(row)
    if args.json:
        print(json.dumps(rows))
    else:
        header = f"{'phi':>8} {'tabulated_rhs':>22} {'closed':>22} {'series':>22} {'quad':>22} {'|closed-quad|':>14}"
        print(header)
        for row in rows:
            cells = []
            for key in ("tabulated_rhs", "closed", "series", "quad"):
                v = row[key]
                cells.append("FAILED".rjust(22) if v is None else f"{v:>22.16g}")
            delta = row["closed_minus_quad"]
            dtxt = "n/a".rjust(14) if delta is None else f"{delta:>14.3e}"
            print(f"{row['phi']:>8} {' '.join(cells)} {dtxt}")
            if "printed_forms_delta" in row:
                print(f"{'':>8} both printed forms at 2*pi/3 agree to "
                      f"{row['printed_forms_delta']:.3e}")
    return 1 if failed else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="malmsten",
        description="Numerical verification workbench for Malmsten's logarithmic integral",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate I(phi) by one method")
    p_eval.add_argument("--phi", required=True, help="angle: decimal, pi, pi/N, M*pi/N")
    p_eval.add_argument("--method", choices=METHODS, default="closed")
    p_eval.add_argument("--tol", type=float, default=None)
    p_eval.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p_eval.set_defaults(func=cmd_eval)

    p_verify = sub.add_parser("verify", help="run the full cross-validation suite")
    p_verify.add_argument("--only", default=None,
                          help=f"comma-separated check groups from: {','.join(GROUPS)}")
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="tabulate methods over a phi grid")
    p_sweep.add_argument("--from", dest="start", required=True)
    p_sweep.add_argument("--to", dest="stop", required=True)
    p_sweep.add_argument("--step", type=float, required=True)
    p_sweep.add_argument("--methods", default="closed,quad")
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--json", action="store_true", help="write JSON instead of CSV")
    p_sweep.set_defaults(func=cmd_sweep)

    p_table = sub.add_parser("table", help="special values with all methods side by side")
    p_table.add_argument("--json", action="store_true")
    p_table.set_defaults(func=cmd_table)

    return parser


_ANGLE_FLAGS = ("--phi", "--from", "--to")


def _fuse_negative_angles(argv):
    """Turn ['--phi', '-pi/3'] into ['--phi=-pi/3'] so argparse does not
    mistake the negative angle expression for an option."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _ANGLE_FLAGS and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None):
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _fuse_negative_angles(list(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except NonConvergenceError as exc:
        print(f"error: nonconvergence: {exc}", file=sys.stderr)
        return 3
    except (DomainError, ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
