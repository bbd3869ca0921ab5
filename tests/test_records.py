"""The record classes behave as frozen dataclasses.

Each record is compared with a reference that dataclasses.make_dataclass
builds from the same fields and defaults, frozen and with the same eq
(the record's own __post_init__ included): construction, repr, ==, hash,
the dataclasses introspection functions, pickle and copy, the refusal to
assign or delete, and __match_args__.
"""

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from reactlin import (
    AllOrtho,
    AmplificationMethod,
    AmplificationResult,
    AngleModPi,
    AngularEquilibrium,
    AngularPhaseLine,
    Classification,
    ComplexPairEigen,
    DistinctRealEigen,
    DistinctRealOrtho,
    Mat2,
    NoRealOrtho,
    RepeatedDefectiveEigen,
    RepeatedFullEigen,
    RepeatedOrtho,
    RTParams,
    Stability,
    StandardFormKind,
    StandardFormResult,
    TransientSummary,
)
from reactlin.dynamics import NonautConfig, SweepPoint, SweepResult, Trajectory
from conftest import A_SPIRAL

_ANGLE = AngleModPi(0.3)
_POINT = SweepPoint(-3.0, 0.25, True)

# (record class, its field names in order, positional arguments)
RECORDS = [
    (AngleModPi, "value", (0.3,)),
    (Mat2, "a11 a12 a21 a22", (1.0, 2.0, 3.0, 4.0)),
    (RTParams, "m_r m_t p theta_r", (-1.0, 2.0, 3.0, _ANGLE)),
    (DistinctRealEigen, "lambda1 lambda2 theta1 theta2 delta_t p_r",
     (-1.0, -3.0, _ANGLE, AngleModPi(1.2), 0.45, 1.0)),
    (ComplexPairEigen, "re im", (-1.0, 2.0)),
    (RepeatedFullEigen, "lam", (-2.0,)),
    (RepeatedDefectiveEigen, "lam theta0", (-2.0, _ANGLE)),
    (DistinctRealOrtho, "mu1 mu2 phi1 phi2 delta_r p_t",
     (3.0, 1.0, _ANGLE, AngleModPi(1.2), 0.45, 1.0)),
    (NoRealOrtho, "", ()),
    (AllOrtho, "mu", (2.0,)),
    (RepeatedOrtho, "mu phi0", (2.0, _ANGLE)),
    (TransientSummary, "rho1 rho2 reactive_set classification is_reactive is_attenuating",
     (1.0, -3.0, (0.1, 0.9), Classification.REACTIVE_ATTRACTOR, True, True)),
    (AngularEquilibrium, "angle stability", (_ANGLE, Stability.ATTRACTING)),
    (AngularPhaseLine, "equilibria all_angles",
     ((AngularEquilibrium(_ANGLE, Stability.REPELLING),), False)),
    (StandardFormResult, "kind matrix gamma",
     (StandardFormKind.R_CENTERED, Mat2(1.0, 2.0, 3.0, 4.0), 0.25)),
    (AmplificationResult, "rho_max t_max theta_entry method",
     (2.5, 0.75, _ANGLE, AmplificationMethod.CLOSED_ARC)),
    (Trajectory, "t x1 x2 step method",
     (np.array([0.0, 0.5]), np.array([1.0, 0.5]), np.array([0.0, 0.25]), 0.5, "rk4")),
    (NonautConfig, "base k", (A_SPIRAL, -3.0)),
    (SweepPoint, "k log_slope growing", (-3.0, 0.25, True)),
    (SweepResult, "points analytic_window empirical_window max_abs_boundary_error",
     ((_POINT,), (-5.0, -1.0), (-5.5, -0.5), 0.5)),
]
NO_EQ = {Trajectory}
# The records with defaults: leading arguments that leave the rest to them,
# and the defaults.
DEFAULTS = {RTParams: ((-1.0, 2.0, 0.0), {"theta_r": None})}


def reference(cls, names):
    """The frozen dataclass the record stands in for."""
    defaults = DEFAULTS.get(cls, ((), {}))[1]
    spec = [(n, cls.__annotations__[n], dataclasses.field(default=defaults[n]))
            if n in defaults else (n, cls.__annotations__[n]) for n in names]
    namespace = {"__post_init__": cls.__post_init__} if hasattr(cls, "__post_init__") else {}
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True, eq=cls not in NO_EQ,
                                      namespace=namespace)


def state(obj) -> str:
    """The field values of obj, by repr (exact for floats, and defined for arrays)."""
    return repr([getattr(obj, f.name) for f in dataclasses.fields(obj)])


@pytest.fixture(params=RECORDS, ids=[r[0].__name__ for r in RECORDS])
def case(request):
    cls, names, args = request.param
    return cls, reference(cls, names.split()), names.split(), args


def test_every_record_is_covered():
    import reactlin
    modules = [getattr(reactlin, m) for m in ("core", "spectra", "forms", "synthesis",
                                               "amplification", "dynamics")]
    records = {v for m in modules for v in vars(m).values()
               if isinstance(v, type) and dataclasses.is_dataclass(v)}
    assert records == {r[0] for r in RECORDS}


def test_construction(case):
    cls, ref, names, args = case
    rec = cls(*args)
    assert state(rec) == state(ref(*args)) == repr(list(args))
    assert state(cls(**dict(zip(names, args)))) == state(rec)
    if cls in DEFAULTS:
        head, defaults = DEFAULTS[cls]
        assert state(cls(*head)) == state(ref(*head)) == repr([*head, *defaults.values()])
    with pytest.raises(TypeError):
        cls(*args, 0.0)
    assert cls.__doc__ and cls.__doc__ != ref.__doc__  # a docstring, not the signature


def test_repr_eq_hash(case):
    cls, ref, names, args = case
    rec, ref_rec = cls(*args), ref(*args)
    assert repr(rec) == repr(ref_rec)
    assert (rec == cls(*args)) is (ref_rec == ref(*args)) is (cls not in NO_EQ)
    assert rec == rec and rec != ref_rec and ref_rec != rec
    assert (cls.__hash__ is object.__hash__) is (ref.__hash__ is object.__hash__)
    if cls not in NO_EQ:
        assert hash(rec) == hash(ref_rec) == hash(cls(*args))


def test_eq_compares_every_field():
    for i in range(4):
        entries = [1.0, 2.0, 3.0, 4.0]
        entries[i] = -0.5
        assert Mat2(1.0, 2.0, 3.0, 4.0) != Mat2(*entries)
    assert AngularEquilibrium(_ANGLE, Stability.ATTRACTING) != AngularEquilibrium(
        _ANGLE, Stability.REPELLING)


def test_dataclass_introspection(case):
    cls, ref, names, args = case
    rec, ref_rec = cls(*args), ref(*args)
    assert dataclasses.is_dataclass(cls) and dataclasses.is_dataclass(rec)
    assert isinstance(vars(cls)["__dataclass_fields__"], dict)  # cached on first read
    assert [f.name for f in dataclasses.fields(rec)] == names
    assert repr(dataclasses.fields(cls)) == repr(dataclasses.fields(ref))
    assert repr(dataclasses.asdict(rec)) == repr(dataclasses.asdict(ref_rec))
    assert repr(dataclasses.astuple(rec)) == repr(dataclasses.astuple(ref_rec))
    changes = dict(zip(names[:1], args[:1]))
    assert type(dataclasses.replace(rec, **changes)) is cls
    assert state(dataclasses.replace(rec, **changes)) == state(rec)
    assert cls.__match_args__ == ref.__match_args__ == tuple(names)


def test_pickle_and_copy(case):
    cls, ref, names, args = case
    rec = cls(*args)
    for twin in (pickle.loads(pickle.dumps(rec)), copy.copy(rec), copy.deepcopy(rec)):
        assert type(twin) is cls and state(twin) == state(rec)
        assert (twin == rec) is (cls not in NO_EQ)
    ref_rec = ref(*args)
    assert state(copy.copy(ref_rec)) == state(copy.deepcopy(ref_rec)) == state(rec)


def test_frozen(case):
    cls, ref, names, args = case
    rec, ref_rec = cls(*args), ref(*args)
    for name in (*names, "not_a_field"):
        for obj in (rec, ref_rec):
            with pytest.raises(dataclasses.FrozenInstanceError) as assign:
                setattr(obj, name, 1.0)
            with pytest.raises(dataclasses.FrozenInstanceError) as delete:
                delattr(obj, name)
            assert str(assign.value) == f"cannot assign to field {name!r}"
            assert str(delete.value) == f"cannot delete field {name!r}"
    assert state(rec) == state(cls(*args))


def test_introspection_is_built_on_first_read():
    from reactlin.core import _record

    @_record
    class Pair:
        """Two numbers."""

        a: float
        b: float = 2.0

    assert not isinstance(vars(Pair)["__dataclass_fields__"], dict)
    assert [(f.name, f.default) for f in dataclasses.fields(Pair(1.0))] == [
        ("a", dataclasses.MISSING), ("b", 2.0)]  # first read through an instance
    assert isinstance(vars(Pair)["__dataclass_fields__"], dict)
    assert Pair(1.0) == Pair(1.0, 2.0) and Pair.__match_args__ == ("a", "b")
