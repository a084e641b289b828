"""Tests for the four record types: Angle, Evaluation, QuadResult and
CheckRecord.  Each is built positionally and by keyword, is read-only,
equals and hashes by its fields and only within its own type, has a fixed
repr, survives pickle and deepcopy, and keeps its validation."""

import copy
import math
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from malmsten.domain import Angle, Evaluation, Method
from malmsten.errors import DomainError
from malmsten.quadrature import QuadResult
from malmsten.verify import CheckRecord

ANGLE = (Angle, (1.0,), "Angle(phi=1.0)")
EVALUATION = (
    Evaluation,
    (Angle(1.0), 0.1, Method.CLOSED, 1e-16, 3),
    "Evaluation(phi=Angle(phi=1.0), value=0.1, method=<Method.CLOSED: 'closed'>, "
    "est_error=1e-16, work=3)",
)
QUAD_RESULT = (
    QuadResult,
    (1.0, 1e-16, 3),
    "QuadResult(value=1.0, est_error=1e-16, nodes=3)",
)
CHECK_RECORD = (
    CheckRecord,
    ("closed_vs_quad[phi=+1.000000]", 1.0, 1.0, 0.0, 1e-12, True),
    "CheckRecord(name='closed_vs_quad[phi=+1.000000]', lhs=1.0, rhs=1.0, "
    "residual=0.0, tolerance=1e-12, passed=True)",
)
RECORDS = pytest.mark.parametrize(
    "cls, args, text", [ANGLE, EVALUATION, QUAD_RESULT, CHECK_RECORD],
    ids=["Angle", "Evaluation", "QuadResult", "CheckRecord"],
)
FIELDS = {
    Angle: ("phi",),
    Evaluation: ("phi", "value", "method", "est_error", "work"),
    QuadResult: ("value", "est_error", "nodes"),
    CheckRecord: ("name", "lhs", "rhs", "residual", "tolerance", "passed"),
}


def _other(cls, args):
    """args with one field changed, still valid for cls."""
    if cls is CheckRecord:
        return (args[0] + "x",) + args[1:]
    return (args[0] / 2 if cls is Angle else args[0],) + (
        () if cls is Angle else (args[1] + 1.0,) + args[2:])


# --- construction and field access ---


@RECORDS
def test_fields_positional_and_by_keyword(cls, args, text):
    fields = FIELDS[cls]
    by_position = cls(*args)
    by_keyword = cls(**dict(zip(fields, args)))
    for name, value in zip(fields, args):
        assert getattr(by_position, name) is value
        assert getattr(by_keyword, name) is value
    assert by_position == by_keyword


@RECORDS
def test_wrong_arity_raises_type_error(cls, args, text):
    with pytest.raises(TypeError):
        cls(*args[:-1])
    with pytest.raises(TypeError):
        cls(*args, 0)


# --- equality and hashing ---


@RECORDS
def test_equal_by_fields(cls, args, text):
    assert cls(*args) == cls(*args)
    assert not cls(*args) != cls(*args)
    assert cls(*args) != cls(*_other(cls, args))
    assert not cls(*args) == cls(*_other(cls, args))


@RECORDS
def test_never_equal_to_a_plain_tuple_of_its_fields(cls, args, text):
    rec = cls(*args)
    for plain in (tuple(args), list(args)):
        assert rec != plain
        assert plain != rec
        assert not rec == plain
        assert not plain == rec


def test_quad_result_is_not_a_tuple_for_equality():
    assert QuadResult(1.0, 1e-16, 3) != (1.0, 1e-16, 3)
    assert Angle(1.0) != (1.0,)
    assert Angle(1.0) != 1.0


@RECORDS
def test_hash_agrees_with_equality(cls, args, text):
    a, b = cls(*args), cls(*args)
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert len({a, cls(*_other(cls, args))}) == 2
    assert {a: 1}[b] == 1


def test_angle_signed_zeros_are_equal_and_hash_alike():
    assert Angle(0.0) == Angle(-0.0)
    assert hash(Angle(0.0)) == hash(Angle(-0.0))


# --- read-only ---


@RECORDS
def test_fields_are_read_only(cls, args, text):
    rec = cls(*args)
    for name in FIELDS[cls]:
        with pytest.raises(AttributeError):
            setattr(rec, name, args[0])
        with pytest.raises(AttributeError):
            delattr(rec, name)
    with pytest.raises(AttributeError):
        rec.extra = 1
    assert rec == cls(*args)


# --- repr ---


@RECORDS
def test_repr(cls, args, text):
    assert repr(cls(*args)) == text


# --- pickle and deepcopy ---


@RECORDS
@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trip(cls, args, text, protocol):
    rec = cls(*args)
    back = pickle.loads(pickle.dumps(rec, protocol))
    assert type(back) is cls
    assert back == rec
    assert hash(back) == hash(rec)
    assert repr(back) == text


@RECORDS
def test_copy_and_deepcopy_round_trip(cls, args, text):
    rec = cls(*args)
    for back in (copy.copy(rec), copy.deepcopy(rec)):
        assert type(back) is cls
        assert back == rec
        assert repr(back) == text


def test_pickled_evaluation_keeps_its_method_member():
    ev = pickle.loads(pickle.dumps(Evaluation(*EVALUATION[1])))
    assert ev.method is Method.CLOSED
    assert type(ev.phi) is Angle


# --- validation ---


@pytest.mark.parametrize("phi", [math.nan, math.pi, -math.pi, math.inf, -math.inf, 4.0])
def test_angle_outside_the_domain_raises(phi):
    with pytest.raises(DomainError):
        Angle(phi)


@pytest.mark.parametrize("phi", [0.0, 1e-300, -3.14159, math.nextafter(math.pi, 0.0)])
def test_angle_inside_the_domain_builds(phi):
    assert Angle(phi).phi == phi


def test_angle_is_zero():
    assert Angle(0.0).is_zero
    assert Angle(-9.9e-7).is_zero
    assert not Angle(1e-6).is_zero
    assert not Angle(-2.0).is_zero


@pytest.mark.parametrize("est_error", [-1e-300, -1.0, -math.inf])
def test_evaluation_negative_est_error_raises(est_error):
    with pytest.raises(ValueError):
        Evaluation(Angle(1.0), 0.1, Method.CLOSED, est_error, 1)


@pytest.mark.parametrize("work", [0, -1, 0.5])
def test_evaluation_work_below_one_raises(work):
    with pytest.raises(ValueError):
        Evaluation(Angle(1.0), 0.1, Method.CLOSED, 0.0, work)


def test_evaluation_bounds_are_inclusive():
    ev = Evaluation(Angle(1.0), 0.1, Method.CLOSED, 0.0, 1)
    assert ev.est_error == 0.0 and ev.work == 1


def test_evaluation_quad_tan_away_from_half_pi_raises():
    with pytest.raises(DomainError):
        Evaluation(Angle(1.0), 0.1, Method.QUAD_TAN, 1e-16, 3)
    ev = Evaluation(Angle(math.pi / 2), 0.1, Method.QUAD_TAN, 1e-16, 3)
    assert ev.method is Method.QUAD_TAN


def test_check_record_as_dict():
    rec = CheckRecord(*CHECK_RECORD[1])
    assert rec.as_dict() == {
        "name": "closed_vs_quad[phi=+1.000000]",
        "lhs": 1.0,
        "rhs": 1.0,
        "residual": 0.0,
        "tolerance": 1e-12,
        "pass": True,
    }
    assert list(rec.as_dict()) == ["name", "lhs", "rhs", "residual", "tolerance", "pass"]


# --- NaN is neither a nonnegative estimate nor a work count ---


def test_evaluation_nan_est_error_raises():
    with pytest.raises(ValueError):
        Evaluation(Angle(1.0), 0.1, Method.CLOSED, math.nan, 1)


def test_evaluation_nan_work_raises():
    with pytest.raises(ValueError):
        Evaluation(Angle(1.0), 0.1, Method.CLOSED, 1e-16, math.nan)


@RECORDS
def test_replace_keeps_the_type(cls, args, text):
    rec = cls(*args)
    assert rec._replace() == rec
    assert type(rec._replace()) is cls


def test_replace_validates():
    with pytest.raises(DomainError):
        Angle(1.0)._replace(phi=math.pi)
    with pytest.raises(ValueError):
        Evaluation(*EVALUATION[1])._replace(est_error=math.nan)


# --- importing the library stays light ---


def test_import_loads_no_introspection_modules():
    """A fresh interpreter that imports malmsten and its command line
    loads none of the modules that dataclasses would pull in."""
    src = Path(__file__).resolve().parents[1] / "src"
    heavy = ["dataclasses", "inspect", "ast", "dis", "tokenize"]
    code = (f"import sys; sys.path.insert(0, {str(src)!r}); "
            "import malmsten, malmsten.cli; "
            f"print(' '.join(m for m in {heavy!r} if m in sys.modules))")
    out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.split() == []
