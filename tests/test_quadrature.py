"""Tests for the double-exponential quadrature oracle: both integral
representations, the tangent form, the inner integrals, the error
estimate contract, and the node tables shared by every evaluation."""

import math
import sys
import threading
from functools import partial

import pytest

from malmsten import dispatch, evaluate, quadrature
from malmsten.domain import Angle, Evaluation, Method
from malmsten.errors import DomainError
from malmsten.quadrature import (
    GUARD_BAND,
    integrand_exp,
    integrand_tan,
    integrand_unit,
    quad_eval,
    quad_jn,
    quad_tan_form,
    quad_unit_eval,
)
from malmsten.series import j_n

FROZEN_I = {
    math.pi / 2: -0.26044280630098844554,
    2.0: -0.55414999826134329422,
    2.9: -9.962541299450457968,
}
FROZEN_TAN = -0.26044280630098844554  # same value as I(pi/2)


def test_integrand_unit_zero_crossing():
    # ln ln(1/x) vanishes at x = 1/e regardless of phi
    assert integrand_unit(1.0 / math.e, Angle(0.7)) == 0.0
    assert integrand_unit(1.0 / math.e, Angle(-2.5)) == 0.0


def test_integrand_unit_value():
    # at phi = pi/2 the denominator is 1 + x^2
    x = 0.25
    expected = math.log(math.log(1.0 / x)) / (1.0 + x * x)
    assert abs(integrand_unit(x, Angle(math.pi / 2)) - expected) < 1e-15


def test_integrand_exp_matches_unit():
    # substituting x = e^{-u} maps one integrand onto the other times e^{-u}
    for u in (0.2, 1.0, 3.0):
        x = math.exp(-u)
        lhs = integrand_exp(u, Angle(1.3))
        rhs = x * integrand_unit(x, Angle(1.3))
        assert abs(lhs - rhs) <= 1e-14 * max(1.0, abs(rhs))


def test_integrand_tan_zero_crossing():
    y = math.atan(math.e)
    assert abs(integrand_tan(y)) < 1e-13


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 2.0])
def test_integrand_unit_domain(bad):
    with pytest.raises(DomainError):
        integrand_unit(bad, Angle(1.0))


def test_integrand_exp_tan_domain():
    with pytest.raises(DomainError):
        integrand_exp(0.0, Angle(1.0))
    with pytest.raises(DomainError):
        integrand_tan(math.pi / 4)
    with pytest.raises(DomainError):
        integrand_tan(math.pi / 2)


@pytest.mark.parametrize("phi, expected", sorted(FROZEN_I.items()))
def test_quad_frozen_oracle(phi, expected):
    for route in (quad_eval, quad_unit_eval):
        r = route(Angle(phi))
        assert r.converged
        assert abs(r.value - expected) <= 1e-11


def test_representations_agree():
    for k in range(10):
        p = -3.0 + 6.0 * k / 9.0
        a = Angle(p)
        delta = abs(quad_unit_eval(a).value - quad_eval(a).value)
        assert delta <= 1e-10


def test_error_estimate_is_honest():
    for p in (0.0, 0.5, 2.0, 2.9):
        r = quad_eval(Angle(p))
        refined = quad_eval(Angle(p), 1e-14)
        assert refined.converged
        assert r.est_error > 0.0
        assert abs(r.value - refined.value) <= 10.0 * r.est_error


def test_tan_form():
    r = quad_tan_form()
    assert r.converged
    assert abs(r.value - FROZEN_TAN) <= 1e-11


def test_tan_form_requires_right_angle():
    with pytest.raises(DomainError):
        evaluate(Angle(1.0), "quad-tan")
    # exactly pi/2 is accepted through the library entry point too
    r = evaluate(Angle(math.pi / 2), "quad-tan")
    assert abs(r.value - FROZEN_TAN) <= 1e-11
    # Evaluation applies the same rule to a quad-tan result elsewhere
    with pytest.raises(DomainError):
        Evaluation(Angle(1.0), r.value, Method.QUAD_TAN, r.est_error, r.work)


def test_quad_tan_refuses_the_angle_before_it_integrates(monkeypatch):
    def must_not_run(**kwargs):
        raise RuntimeError("quad_tan_form ran at an angle quad-tan refuses")

    monkeypatch.setattr(dispatch, "quad_tan_form", must_not_run)
    with pytest.raises(DomainError):
        evaluate(Angle(1.0), "quad-tan")
    with pytest.raises(RuntimeError):
        evaluate(Angle(math.pi / 2), "quad-tan")


def test_guard_band():
    edge = math.pi - GUARD_BAND / 2.0
    with pytest.raises(DomainError):
        quad_eval(Angle(edge))
    with pytest.raises(DomainError):
        quad_eval(Angle(-edge))


@pytest.mark.parametrize("n", range(21))
def test_quad_jn_matches_closed(n):
    r = quad_jn(n)
    assert r.converged
    assert abs(r.value - j_n(n)) <= 1e-10


def test_quad_jn_domain():
    with pytest.raises(DomainError):
        quad_jn(-1)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"tol": 0.0},
        {"tol": -1e-12},
        {"tol": math.inf},
        {"tol": math.nan},
    ],
)
def test_config_validation(kwargs):
    # the tolerance is the quadrature's one setting, checked by every route
    with pytest.raises(DomainError):
        quad_eval(Angle(1.0), **kwargs)
    with pytest.raises(DomainError):
        quad_unit_eval(Angle(1.0), **kwargs)
    with pytest.raises(DomainError):
        quad_tan_form(**kwargs)


def test_result_metadata():
    r = quad_eval(Angle(1.0))
    assert r.nodes > 50
    assert r.converged
    assert r.est_error <= 1e-11


# (value, est_error) as float.hex() and node count, from before the node
# tables were added: the tables must leave every result bitwise unchanged
FROZEN_HEX = {
    ("quad", 0.5): ("-0x1.32d5f1b233fdcp-4", "0x1.092c04a82e8ccp-51", 305),
    ("quad-unit", 0.5): ("-0x1.32d5f1b233fdcp-4", "0x1.092c04a82e8ccp-52", 132),
    ("quad", 2.0): ("-0x1.1bb98c6f38cb4p-1", "0x1.092c04a82e8ccp-51", 305),
    ("quad-unit", 2.0): ("-0x1.1bb98c6f38cb5p-1", "0x1.0000000000000p-51", 132),
    ("quad", 2.9): ("-0x1.3ecd2369460c8p+3", "0x1.74c3826e44c82p-49", 407),
    ("quad-unit", 2.9): ("-0x1.3ecd2369460c8p+3", "0x1.4a392ab6b4c00p-49", 245),
    ("quad", -3.1): ("-0x1.e305697eb5a91p+6", "0x1.2084960254174p-43", 405),
    ("quad-unit", -3.1): ("-0x1.e305697eb5a91p+6", "0x1.e000000000000p-43", 243),
    ("quad-tan", None): ("-0x1.0ab184de2a327p-2", "0x1.8530000000000p-42", 72),
    ("jn", 0): ("-0x1.2788cfc6fb618p-1", "0x1.092c04a82e8ccp-51", 305),
    ("jn", 7): ("-0x1.540d57e5798fap-2", "0x1.42b40f09505d2p-45", 167),
    ("jn", 20): ("-0x1.6134a88cbe7c2p-3", "0x1.208d9a6f14c00p-45", 125),
}
DEEP_PHI = math.pi - 1.0001e-3  # just inside the guard band: the deepest tables


def _run(route, arg):
    if route == "quad":
        return quad_eval(Angle(arg))
    if route == "quad-unit":
        return quad_unit_eval(Angle(arg))
    if route == "quad-tan":
        return quad_tan_form()
    return quad_jn(arg)


def _bits(r):
    return r.value.hex(), r.est_error.hex(), r.nodes


@pytest.fixture
def empty_tables():
    quadrature._NODES.clear()
    yield quadrature._NODES


@pytest.fixture
def node_calls(monkeypatch):
    """Count the calls to the node functions behind the tables."""
    calls = []
    for name in ("_tanh_sinh_node", "_exp_sinh_node"):
        original = getattr(quadrature, name)

        def counted(*args, original=original):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(quadrature, name, counted)
    return calls


def _strips(tables):
    # (key, level, sign) -> strip; the other entries are the centre nodes
    return {name: strip for name, strip in tables.items() if isinstance(name[0], tuple)}


def _spacing(level):
    # a strip's step h and stride in j: level 0 takes every j, a deeper
    # level only the odd j, the nodes the levels before it lack
    return 0.5 ** level, (1 if level == 0 else 2)


def _stored(tables):
    # the node-function calls behind the tables: one per centre node and per
    # strip entry, plus the None that ended each strip that left range
    # before its t passed _T_MAX
    calls = len(tables) - len(_strips(tables))
    for (_, level, _), strip in _strips(tables).items():
        h, step_j = _spacing(level)
        left_range = (1 + len(strip) * step_j) * h <= quadrature._T_MAX
        calls += len(strip) + left_range
    return calls


@pytest.mark.parametrize("key", sorted(FROZEN_HEX, key=repr))
def test_frozen_bits(empty_tables, key):
    # cold tables, then warm tables after the deepest evaluation
    assert _bits(_run(*key)) == FROZEN_HEX[key]
    quad_eval(Angle(DEEP_PHI))
    quad_unit_eval(Angle(-DEEP_PHI))
    assert _bits(_run(*key)) == FROZEN_HEX[key]


def test_result_does_not_depend_on_evaluation_order(empty_tables):
    first = [_bits(quad_eval(Angle(0.5))), _bits(quad_unit_eval(Angle(0.5)))]
    deep = [_bits(quad_eval(Angle(DEEP_PHI))), _bits(quad_unit_eval(Angle(DEEP_PHI)))]
    again = [_bits(quad_eval(Angle(0.5))), _bits(quad_unit_eval(Angle(0.5)))]
    assert again == first
    empty_tables.clear()
    assert [_bits(quad_eval(Angle(DEEP_PHI))), _bits(quad_unit_eval(Angle(DEEP_PHI)))] == deep


def test_each_node_is_computed_once(empty_tables, node_calls):
    quad_eval(Angle(2.9))
    quad_unit_eval(Angle(2.9))
    computed = len(node_calls)
    assert computed == _stored(empty_tables) > 0
    # these reach no deeper level and no further along any strip
    for route in (quad_eval, quad_unit_eval):
        for p in (2.9, 0.5, -1.0):
            route(Angle(p))
    assert len(node_calls) == computed
    # a deeper evaluation adds only the strips of the levels it reaches
    quad_eval(Angle(DEEP_PHI))
    assert len(node_calls) == _stored(empty_tables) > computed
    assert len(set(node_calls)) == len(node_calls)


def test_tables_shared_by_threads(empty_tables, node_calls):
    # threads that fill the same cold tables at once store each node once
    # and see the same results as one thread
    angles = [DEEP_PHI, 0.5, -2.9, 2.0, -DEEP_PHI, 1e-3]
    expected = [_bits(quad_eval(Angle(p))) for p in angles]
    n_threads = 4
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            empty_tables.clear()
            node_calls.clear()
            start = threading.Barrier(n_threads)
            results = {}

            def work(i):
                start.wait()
                results[i] = [_bits(quad_eval(Angle(p))) for p in angles[i:] + angles[:i]]

            threads = [threading.Thread(target=work, args=(i,)) for i in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
            assert not any(t.is_alive() for t in threads)
            for i in range(n_threads):
                assert results[i] == expected[i:] + expected[:i]
            assert len(node_calls) == _stored(empty_tables)
    finally:
        sys.setswitchinterval(interval)


def test_strips_are_whole(empty_tables):
    # each stored strip holds every node of its level and sign, up to the
    # first None or t past _T_MAX, not only the nodes its first walk used
    quad_eval(Angle(DEEP_PHI))
    quad_unit_eval(Angle(0.5))
    quad_tan_form()
    node_of = {"ts": quadrature._tanh_sinh_node, "es": quadrature._exp_sinh_node}
    strips = _strips(empty_tables)
    assert {key for key, _, _ in strips} == {
        ("ts", 0.0, 1.0), ("es", 1.0), ("ts", math.pi / 4, math.pi / 2)}
    for (key, level, sign), strip in strips.items():
        node = partial(node_of[key[0]], *key[1:])
        h, step_j = _spacing(level)
        expected = []
        j = 1
        while j * h <= quadrature._T_MAX and node(sign * j * h) is not None:
            expected.append(node(sign * j * h))
            j += step_j
        assert strip == tuple(expected)
