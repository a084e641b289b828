"""Tests of the benchmark's own logic: seeded inputs, the oracle, the output
check and the span arithmetic.

Run from the repository root: python3 -m pytest perfbench
"""

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from malmsten import SpecialCase, cli, special_value, zero_limit  # noqa: E402
from malmsten.domain import Angle  # noqa: E402
from malmsten.errors import DomainError  # noqa: E402

from tracer import Tracer, aggregate, self_times  # noqa: E402
from workloads import BATCH, WORKLOADS, RouteTally, make_points, oracle  # noqa: E402


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_same_points(workload):
    assert make_points(workload, 7, 2) == make_points(workload, 7, 2)
    assert all(abs(p) < math.pi for p in make_points(workload, 7, 2))


@pytest.mark.parametrize("workload", ["sweep-band", "sweep-edge"])
def test_other_seed_or_pass_gives_other_points(workload):
    assert make_points(workload, 7, 2) != make_points(workload, 8, 2)
    assert not set(make_points(workload, 7, 2)) & set(make_points(workload, 7, 3))


def test_band_slots_keep_their_stratum_and_batches_span_the_band():
    width = 5.8 / 1000
    passes = [make_points("sweep-band", 3, k) for k in range(3)]
    for a, b, c in zip(*passes):
        # the three passes draw a slot's angle from the same stratum
        assert max(a, b, c) - min(a, b, c) < width
    points = passes[0]
    assert len(points) == 1000 and all(abs(p) <= 2.9 for p in points)
    for start in range(0, len(points), BATCH):
        batch = sorted(points[start:start + BATCH])
        # one point in each of BATCH equal strata of [-2.9, 2.9], up to rounding
        for j, p in enumerate(batch):
            assert -2.9 + j * 10 * width - 1e-12 <= p <= -2.9 + (j + 1) * 10 * width + 1e-12


def test_edge_points_split_between_zero_and_pi():
    points = make_points("sweep-edge", 3, 0)
    for start in range(0, len(points), BATCH):
        batch = points[start:start + BATCH]
        near_zero = [p for p in batch if abs(p) <= 3e-2]
        near_pi = [p for p in batch if math.pi - abs(p) <= 0.25 + 1e-12]
        assert len(near_zero) == len(near_pi) == BATCH // 2
    assert any(Angle(p).is_zero for p in points)
    assert any(math.pi - abs(p) < 1e-3 for p in points)  # past the quadrature guard band
    signs = [p > 0 for p in points]
    assert signs == [p > 0 for p in make_points("sweep-edge", 4, 1)]
    for start in range(0, len(points), BATCH // 2):
        # each half batch, near 0 or near pi, alternates in sign
        half = signs[start:start + BATCH // 2]
        assert all(a != b for a, b in zip(half, half[1:]))


@pytest.mark.parametrize("case", list(SpecialCase))
def test_oracle_matches_special_values(case):
    ref = special_value(case)
    hi, lo = oracle(case.value)
    assert abs(hi - ref.value) <= ref.est_error
    assert abs(lo) <= 1e-16 * abs(hi)


def test_oracle_at_zero_is_the_exact_limit():
    ref = zero_limit()
    hi, _ = oracle(0.0)
    assert abs(hi - ref.value) <= ref.est_error
    # continuous through zero: I(phi) ~ I(0) - 0.046 phi^2 for small phi
    assert abs(oracle(1e-3)[0] - hi + 0.046e-6) < 0.005e-6


def test_route_tally_counts_each_failure_kind():
    tally = RouteTally()
    phi = 1.0
    ref = oracle(phi)
    good = cli.evaluate(Angle(phi), "closed")
    tally.add(good, ref)
    tally.add(DomainError("refused"), ref)
    bad = type(good)(good.phi, good.value + 1e-9, good.method, 1e-12, 1)
    tally.add(bad, ref)
    assert (tally.attempted, tally.raised, tally.est_violations) == (3, 1, 1)
    assert tally.failed == 2
    assert tally.err_over_est_max == pytest.approx(1e3, rel=1e-3)


def test_self_time_subtracts_the_time_children_cover():
    spans = [
        ("root", 0, 100, -1),
        ("a", 10, 40, 0),
        ("c", 20, 30, 1),
        ("b", 50, 70, 0),
        ("c", 72, 75, 0),
    ]
    assert self_times(spans) == [100 - 30 - 20 - 3, 30 - 10, 10, 20, 3]
    assert aggregate(spans)["c"] == (2, 13, 13)


def test_self_time_counts_overlapping_children_once():
    spans = [("root", 0, 100, -1), ("a", 10, 60, 0), ("b", 40, 120, 0)]
    # children cover [10, 100] within the root: 90 ns
    assert self_times(spans)[0] == 10


def test_tracer_wraps_names_bound_by_from_import_and_restores_them():
    from malmsten import closed_form, kummer, special_functions

    original = special_functions.log_gamma
    tracer = Tracer()
    tracer.install()
    try:
        assert closed_form.log_gamma is not original
        assert kummer.log_gamma is closed_form.log_gamma
        cli.evaluate(Angle(1.0), "closed")
    finally:
        tracer.uninstall()
    assert closed_form.log_gamma is original and kummer.log_gamma is original
    names = [s[0] for s in tracer.spans]
    assert names[0] == "cli.evaluate"
    assert "closed_form.malmsten_closed" in names
    assert names.count("special_functions.log_gamma") >= 2
    by_name = {s[0]: i for i, s in enumerate(tracer.spans)}
    assert tracer.spans[by_name["closed_form.malmsten_closed"]][3] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_counts_depend_on_the_seed_alone(workload):
    from run import Bench

    saved = {n: m for n, m in sys.modules.items() if n == "malmsten" or n.startswith("malmsten.")}
    try:
        first, again = (Bench(workload, 5).first_pass() for _ in range(2))
    finally:
        sys.modules.update(saved)  # later tests use the modules imported above
    assert first.attempted == again.attempted == 5203
    assert first.failed == again.failed > 0
    assert [vars(first.tally[m]) for m in first.tally] == [vars(again.tally[m]) for m in again.tally]
