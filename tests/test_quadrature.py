"""Tests for the double-exponential quadrature oracle: both integral
representations, the tangent form, the inner integrals, the error
estimate contract, and the integrand tables shared by every evaluation."""

import math
import sys
import threading
from functools import partial

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from malmsten import dispatch, evaluate, quadrature
from malmsten.domain import Angle, Evaluation, Method
from malmsten.errors import DomainError, InternalInconsistencyError, NonConvergenceError
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
from test_oracle import jn_oracle, oracle

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


# cos(phi) < -0.5, where the denominator regroups y + cos(phi) as
# (1 + cos phi) - (1 - y); the ends +-(pi - 1e-3) of the guard band included
REGROUPED_PHI = [2.1, 2.5, -2.5, 2.9, -3.0, math.pi - 1e-3, -(math.pi - 1e-3)]


@pytest.mark.parametrize("phi", REGROUPED_PHI)
def test_integrands_on_the_regrouped_branch(phi):
    # against 40 digits at the exact binary64 arguments, with x -> 1 and
    # u -> 0, where the denominator tends to 2 (1 + cos phi) and cancels most
    with mpmath.workdps(40):
        c = mpmath.cos(mpmath.mpf(phi))
        for x in (1e-300, 1e-9, 0.01, 0.2, 0.5, 0.9, 0.999, 1.0 - 1e-9, 1.0 - 2.0 ** -53):
            xm = mpmath.mpf(x)
            exact = mpmath.log(mpmath.log(1 / xm)) / (1 + 2 * xm * c + xm * xm)
            assert abs(integrand_unit(x, Angle(phi)) - exact) <= 4e-15 * abs(exact)
        for u in (1e-300, 1e-9, 1e-3, 0.1, 0.5, 2.0, 5.0, 30.0, 700.0):
            y = mpmath.exp(-mpmath.mpf(u))
            exact = y * mpmath.log(mpmath.mpf(u)) / (1 + 2 * y * c + y * y)
            assert abs(integrand_exp(u, Angle(phi)) - exact) <= 4e-15 * abs(exact)


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
        assert abs(r.value - expected) <= 1e-11


def test_representations_agree():
    for k in range(10):
        p = -3.0 + 6.0 * k / 9.0
        a = Angle(p)
        delta = abs(quad_unit_eval(a).value - quad_eval(a).value)
        assert delta <= 1e-10


def test_tan_form():
    r = quad_tan_form()
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


@pytest.mark.parametrize("c, y, one_minus_y", [(-0.25, 0.25, 0.75), (-0.75, 0.75, 0.25)])
def test_a_zero_denominator_raises_a_typed_error(empty_tables, monkeypatch, c, y, one_minus_y):
    # y + c == 0 with s^2 == 0 makes a denominator exactly 0, on the plain
    # branch and on the regrouped one: a fault of the tables or the parts,
    # reported as one and not as a ZeroDivisionError.  quad_eval runs as it
    # is, on a stub of its table (the centre node alone) and impossible parts
    def node(t):
        return (1.0, y, y, one_minus_y) if t == 0.0 else None

    def numerator(weight, x, dist_a, dist_b):
        return weight, x, dist_b

    monkeypatch.setitem(quadrature._TABLES, "exp", (node, numerator))
    monkeypatch.setattr(quadrature, "_denominator_parts", lambda phi_val: (c, 0.0, 1.0 + c))
    with pytest.raises(InternalInconsistencyError):
        quad_eval(Angle(1.0))


def _table_strips(table):
    """Every strip of the integrand table `table`, at every level a
    quadrature can reach."""
    return [quadrature._strip_at(table, level, sign) for level in range(quadrature.MAX_LEVEL + 1)
            for sign in ((0.0, 1.0, -1.0) if level == 0 else (1.0, -1.0))]


@pytest.mark.parametrize("table", ["exp", "unit", "tan", "jn"])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(phi=st.floats(min_value=-(math.pi - GUARD_BAND), max_value=math.pi - GUARD_BAND),
       decades=st.floats(min_value=0.0, max_value=8.0), n=st.integers(0, 40))
def test_no_term_past_a_cut_exceeds_small_at(table, phi, decades, n):
    # the cut comes from phi-free envelopes and a lower bound on the
    # denominator; every term past it, computed in floats as the level driver
    # computes it, is at most small_at.  jn sums w y^n over quad's own table;
    # quad-tan sums its weighted numerators alone, as jn does at n = 0
    rule = {"exp": quadrature._phi_terms, "unit": quadrature._phi_terms,
            "tan": lambda phi: quadrature._power_terms(0),
            "jn": lambda phi: quadrature._power_terms(n)}[table](phi)
    small_at = 1e-20 * 10.0 ** decades
    d_min, strip_terms, _ = rule
    for strip in _table_strips("exp" if table == "jn" else table):
        past = strip[0][quadrature._cut(strip, small_at, d_min):]
        assert all(abs(term) <= small_at for term in strip_terms(past))


@pytest.mark.parametrize("n", range(21))
def test_quad_jn_matches_closed(n):
    r = quad_jn(n)
    assert abs(r.value - j_n(n)) <= 1e-10


def test_quad_jn_domain():
    # a non-finite n once ran every level and raised NonConvergenceError (nan)
    # or returned -2.2e-16 (inf)
    for n in (-1, math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            quad_jn(n)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"tol": 0.0},
        {"tol": -1e-12},
        {"tol": math.inf},
        {"tol": math.nan},
    ],
)
def test_quadrature_refuses_a_bad_tol(kwargs):
    # the tolerance is the quadrature's one setting, checked by every route
    with pytest.raises(DomainError):
        quad_eval(Angle(1.0), **kwargs)
    with pytest.raises(DomainError):
        quad_unit_eval(Angle(1.0), **kwargs)
    with pytest.raises(DomainError):
        quad_tan_form(**kwargs)


@pytest.mark.parametrize(
    "route",
    [partial(quad_eval, Angle(1.0)), partial(quad_unit_eval, Angle(1.0)), quad_tan_form,
     partial(quad_jn, 3)],
    ids=["quad_eval", "quad_unit_eval", "quad_tan_form", "quad_jn"])
def test_an_unconverged_quadrature_raises(monkeypatch, route):
    # with the first level the last, no two levels can agree: each route
    # raises itself and carries its best estimate
    monkeypatch.setattr(quadrature, "MAX_LEVEL", 0)
    with pytest.raises(NonConvergenceError) as exc_info:
        route()
    assert math.isfinite(exc_info.value.best_estimate)


def test_result_metadata():
    r = quad_eval(Angle(1.0))
    assert r.nodes > 50
    assert r.est_error <= 1e-11


# (value, est_error) as float.hex() and node count.  Every row was frozen
# again when each strip came to be cut at its phi-free envelope: the node
# counts fell, and two values moved by 1 ulp (quad at 2.9, quad-unit at 0.5).
# The quad and jn rows were frozen again when quad's table moved from the
# exp-sinh to the exp-exp transform: the node counts fell but at -3.1, and
# two values moved by 1 ulp (quad at 0.5 and -3.1, now the bits of
# quad-unit, and jn at 20).  Each value is within its est_error of the 40-digit oracle (quad,
# quad-unit, quad-tan) or of the closed form (jn).  A result must not depend
# on the state of the tables.
FROZEN_HEX = {
    ("quad", 0.5): ("-0x1.32d5f1b233fdep-4", "0x1.06e2000000000p-41", 63),
    ("quad-unit", 0.5): ("-0x1.32d5f1b233fdep-4", "0x1.d5d9f17c17118p-53", 113),
    ("quad", 2.0): ("-0x1.1bb98c6f38cb5p-1", "0x1.10ad2480af405p-51", 126),
    ("quad-unit", 2.0): ("-0x1.1bb98c6f38cb5p-1", "0x1.4000000000000p-51", 113),
    ("quad", 2.9): ("-0x1.3ecd2369460c9p+3", "0x1.e000000000000p-46", 125),
    ("quad-unit", 2.9): ("-0x1.3ecd2369460c8p+3", "0x1.5d0548f98ea80p-48", 221),
    ("quad", -3.1): ("-0x1.e305697eb5a91p+6", "0x1.f6b3bba07946fp-45", 248),
    ("quad-unit", -3.1): ("-0x1.e305697eb5a91p+6", "0x1.0000000000000p-42", 219),
    ("quad-tan", None): ("-0x1.0ab184de2a327p-2", "0x1.8530000000000p-42", 56),
    ("jn", 0): ("-0x1.2788cfc6fb619p-1", "0x1.8000000000000p-50", 63),
    ("jn", 7): ("-0x1.540d57e5798f9p-2", "0x1.0600000000000p-43", 63),
    ("jn", 20): ("-0x1.6134a88cbe4bbp-3", "0x1.f70ed52ef8703p-51", 126),
}
DEEP_PHI = math.pi - 1.0001e-3  # just inside the guard band: the deepest tables

# integrand table -> (numerator, node function, the node function's interval)
TABLES = {
    "unit": ("_unit_numerator", "_tanh_sinh_node", (0.0, 1.0)),
    "exp": ("_exp_numerator", "_exp_exp_node", ()),
    "tan": ("_tan_numerator", "_tanh_sinh_node", (math.pi / 4, math.pi / 2)),
}


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
    quadrature._NODES.clear()


def _count_calls(monkeypatch, slot, calls_of):
    """Patch slot `slot` of each entry of `_TABLES` (0: the node function,
    1: the numerator) to append the arguments of each call to calls_of(table)."""
    for table, entry in list(quadrature._TABLES.items()):
        calls = calls_of(table)

        def counted(*args, original=entry[slot], calls=calls):
            calls.append(args)
            return original(*args)

        monkeypatch.setitem(quadrature._TABLES, table,
                            entry[:slot] + (counted,) + entry[slot + 1:])


@pytest.fixture
def node_calls(monkeypatch):
    """The calls to the node functions the tables are built from."""
    calls = []
    _count_calls(monkeypatch, 0, lambda table: calls)
    return calls


@pytest.fixture
def numerator_calls(monkeypatch):
    """The calls to each table's numerator, keyed by table."""
    calls = {table: [] for table in TABLES}
    _count_calls(monkeypatch, 1, calls.__getitem__)
    return calls


@pytest.fixture
def envelope_calls(monkeypatch):
    """For each call to `_envelopes`: its strip entries, and whether the
    table lock was held."""
    calls = []
    original = quadrature._envelopes

    def counted(entries):
        calls.append((entries, quadrature._NODES_LOCK.locked()))
        return original(entries)

    monkeypatch.setattr(quadrature, "_envelopes", counted)
    return calls


def _assert_envelopes_built_once_under_the_lock(envelope_calls, tables):
    assert len(envelope_calls) == len(tables)
    assert all(locked for _, locked in envelope_calls)
    built = sorted(map(repr, (entries for entries, _ in envelope_calls)))
    assert built == sorted(map(repr, (strip[0] for strip in tables.values())))


def _numerator_counts(numerator_calls):
    return {name: len(calls) for name, calls in numerator_calls.items()}


def _spacing(level):
    # a strip's step h and stride in j: level 0 takes every j, a deeper
    # level only the odd j, the nodes the levels before it lack
    return 0.5 ** level, (1 if level == 0 else 2)


def _node_calls_behind(tables):
    # the node-function calls behind the stored strips: one per entry, plus
    # the None that ended each strip that left range before its t passed
    # _T_MAX; sign 0 holds the centre alone
    calls = 0
    for (_, level, sign), (entries, _, _) in tables.items():
        h, step_j = _spacing(level)
        left_range = sign != 0.0 and (1 + len(entries) * step_j) * h <= quadrature._T_MAX
        calls += len(entries) + left_range
    return calls


def _stored_numerators(tables):
    # table -> the entries stored in its strips
    counts = dict.fromkeys(TABLES, 0)
    for (table, _, _), (entries, _, _) in tables.items():
        counts[table] += len(entries)
    return counts


@pytest.mark.parametrize("key", sorted(FROZEN_HEX, key=repr))
def test_frozen_bits(empty_tables, key):
    # cold tables, then warm tables after the deepest evaluation
    assert _bits(_run(*key)) == FROZEN_HEX[key]
    quad_eval(Angle(DEEP_PHI))
    quad_unit_eval(Angle(-DEEP_PHI))
    assert _bits(_run(*key)) == FROZEN_HEX[key]


def _exact(key):
    """The 40-digit value a frozen row stands for."""
    route, arg = key
    if route == "jn":
        return jn_oracle(arg)
    if route == "quad-tan":
        # Vardi: (pi/2) ln(Gamma(3/4) sqrt(2 pi) / Gamma(1/4))
        return mpmath.pi / 2 * mpmath.log(
            mpmath.gamma(0.75) * mpmath.sqrt(2 * mpmath.pi) / mpmath.gamma(0.25))
    return oracle(arg)


@pytest.mark.parametrize(
    "key", sorted((k for k in FROZEN_HEX if k[0] in ("quad", "quad-unit")), key=repr)
    + sorted((k for k in FROZEN_HEX if k[0] not in ("quad", "quad-unit")), key=repr))
def test_frozen_rows_hold_against_the_oracle(key):
    value, est, _ = FROZEN_HEX[key]
    with mpmath.workdps(40):
        err = abs(mpmath.mpf(float.fromhex(value)) - _exact(key))
    assert err <= float.fromhex(est)


def test_result_does_not_depend_on_evaluation_order(empty_tables):
    first = [_bits(quad_eval(Angle(0.5))), _bits(quad_unit_eval(Angle(0.5)))]
    deep = [_bits(quad_eval(Angle(DEEP_PHI))), _bits(quad_unit_eval(Angle(DEEP_PHI)))]
    again = [_bits(quad_eval(Angle(0.5))), _bits(quad_unit_eval(Angle(0.5)))]
    assert again == first
    empty_tables.clear()
    assert [_bits(quad_eval(Angle(DEEP_PHI))), _bits(quad_unit_eval(Angle(DEEP_PHI)))] == deep


def test_each_node_is_computed_once(empty_tables, node_calls, numerator_calls,
                                    envelope_calls):
    # each entry of each table is computed once, from one node-function
    # call, and each strip's envelopes once, under the lock
    quad_eval(Angle(2.9))
    quad_unit_eval(Angle(2.9))
    computed = len(node_calls)
    assert computed == _node_calls_behind(empty_tables) > 0
    numerators = _numerator_counts(numerator_calls)
    assert numerators == _stored_numerators(empty_tables)
    assert numerators["unit"] > 0 and numerators["exp"] > 0
    # these reach no deeper level and no further along any strip
    for route in (quad_eval, quad_unit_eval):
        for p in (2.9, 0.5, -1.0):
            route(Angle(p))
    for n in (0, 7, 20):
        quad_jn(n)
    assert len(node_calls) == computed
    assert _numerator_counts(numerator_calls) == numerators
    # a deeper evaluation adds only the strips of the levels it reaches
    quad_eval(Angle(DEEP_PHI))
    assert len(node_calls) == _node_calls_behind(empty_tables) > computed
    stored = _stored_numerators(empty_tables)
    assert stored["exp"] > numerators["exp"]
    for name, calls in numerator_calls.items():
        assert len(calls) == len(set(calls)) == stored[name]
    _assert_envelopes_built_once_under_the_lock(envelope_calls, empty_tables)


def test_warm_evaluations_compute_no_node(empty_tables, node_calls, numerator_calls,
                                         monkeypatch):
    # once the tables hold the strips, a node costs one denominator and one
    # divide: no node function, no numerator, no log or exp
    routes = [partial(quad_eval, Angle(DEEP_PHI)), partial(quad_unit_eval, Angle(DEEP_PHI)),
              quad_tan_form]
    for route in routes:
        route()
    node_calls.clear()
    for calls in numerator_calls.values():
        calls.clear()
    logs = _CountingMath()
    monkeypatch.setattr(quadrature, "math", logs)
    nodes = 0
    for route in routes + [partial(quad_eval, Angle(0.5)), partial(quad_unit_eval, Angle(-2.0))]:
        nodes += route().nodes
    assert nodes > 1000
    # quad_jn reads quad's warm strips as w y^n: no log or exp at all
    for n in (0, 3, 20):
        quad_jn(n)
    assert len(node_calls) == 0
    assert not any(numerator_calls.values())
    assert logs.calls == {}


class _CountingMath:
    """The math module, counting the calls to its log and exp functions."""

    COUNTED = ("log", "log1p", "exp", "expm1")

    def __init__(self):
        self.calls = {}

    def __getattr__(self, name):
        function = getattr(math, name)
        if name not in self.COUNTED:
            return function

        def counted(*args):
            self.calls[name] = self.calls.get(name, 0) + 1
            return function(*args)

        return counted


def test_tables_shared_by_threads(empty_tables, node_calls, numerator_calls,
                                  envelope_calls):
    # threads that fill the same cold tables at once, through both routes,
    # store each entry once, from one node-function call, and each strip's
    # envelopes once, under the lock, and see the same results as one thread
    work = [(quad_eval, DEEP_PHI), (quad_unit_eval, 0.5), (quad_eval, -2.9),
            (quad_unit_eval, -DEEP_PHI), (quad_eval, 2.0), (quad_unit_eval, 1e-3)]
    expected = [_bits(route(Angle(p))) for route, p in work]
    n_threads = 4
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            empty_tables.clear()
            node_calls.clear()
            envelope_calls.clear()
            for calls in numerator_calls.values():
                calls.clear()
            start = threading.Barrier(n_threads)
            results = {}

            def run(i):
                start.wait()
                results[i] = [_bits(route(Angle(p))) for route, p in work[i:] + work[:i]]

            threads = [threading.Thread(target=run, args=(i,)) for i in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
            assert not any(t.is_alive() for t in threads)
            for i in range(n_threads):
                assert results[i] == expected[i:] + expected[:i]
            assert len(node_calls) == _node_calls_behind(empty_tables)
            assert _numerator_counts(numerator_calls) == _stored_numerators(empty_tables)
            _assert_envelopes_built_once_under_the_lock(envelope_calls, empty_tables)
    finally:
        sys.setswitchinterval(interval)


def _suffix_maxima(values):
    """-max(values[k:]) at each k, by one plain walk from the end."""
    out = []
    top = -math.inf
    for v in reversed(values):
        top = max(top, v)
        out.append(-top)
    return tuple(reversed(out))


def test_strips_are_whole(empty_tables):
    # each stored strip holds its numerator at every node of its level and
    # sign, up to the first None or t past _T_MAX, not only the nodes its
    # first evaluation summed, and beside them its two envelopes: the suffix
    # maxima of |wn| and of |wn| / (1 - y)^2, negated
    quad_eval(Angle(DEEP_PHI))
    quad_unit_eval(Angle(0.5))
    quad_tan_form()
    assert {table for table, _, _ in empty_tables} == set(TABLES)
    for (table, level, sign), (entries, neg_e1, neg_e2) in empty_tables.items():
        assert neg_e1 == _suffix_maxima([abs(wn) for wn, _, _ in entries])
        assert neg_e2 == _suffix_maxima([abs(wn) / d / d for wn, _, d in entries])
        numerator_name, node_name, interval = TABLES[table]
        numerator = getattr(quadrature, numerator_name)
        node = partial(getattr(quadrature, node_name), *interval)
        if sign == 0.0:
            assert entries == (numerator(*node(0.0)),)
            continue
        h, step_j = _spacing(level)
        expected = []
        j = 1
        while j * h <= quadrature._T_MAX and node(sign * j * h) is not None:
            expected.append(numerator(*node(sign * j * h)))
            j += step_j
        assert entries == tuple(expected)
