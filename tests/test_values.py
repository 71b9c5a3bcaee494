"""Value semantics of the frozen spec and result classes.

Each public value class is constructed positionally and by keyword,
keeps its defaults and validation texts, prints the field-by-field repr
that error texts embed, compares equal (with equal hashes) only to
objects of its own class, refuses assignment, and survives pickle and
copy.  ``replace`` builds a validated copy and rejects unknown fields.
"""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from spinsym import (AlgebraSpec, CheckReport, CheckResult, ModelSpec,
                     Operator, OpSpace, __version__)
from spinsym.errors import DegenerateCouplingError, ShapeMismatchError
from spinsym.lie import MetricTensor, metric

F = Fraction
SP2 = AlgebraSpec(2, -1)
SRC = Path(__file__).resolve().parents[1] / "src"


def _result(status="pass", witness=()):
    return CheckResult("serre", (("L", "3"),), status, 7, witness)


# one representative per class, built positionally, with its exact repr
VALUES = [
    (AlgebraSpec(2, -1), "AlgebraSpec(N=2, theta0=-1)"),
    (OpSpace(2, 3), "OpSpace(spin_dim=2, sites=3)"),
    (ModelSpec(SP2, 3, "sutherland"),
     "ModelSpec(algebra=AlgebraSpec(N=2, theta0=-1), sites=3, "
     "kind='sutherland', lam='star', omega='symbolic')"),
    (ModelSpec(AlgebraSpec(3, 1), 2, "confined", F(1, 3), F(2)),
     "ModelSpec(algebra=AlgebraSpec(N=3, theta0=1), sites=2, "
     "kind='confined', lam=Fraction(1, 3), omega=Fraction(2, 1))"),
    (_result("fail", ("w",)),
     "CheckResult(name='serre', params=(('L', '3'),), status='fail', "
     "millis=7, witness=('w',), notes=())"),
    (CheckReport((_result(),)),
     "CheckReport(results=(CheckResult(name='serre', params=(('L', '3'),), "
     "status='pass', millis=7, witness=(), notes=()),), "
     f"engine_version={__version__!r})"),
    (metric(SP2),
     "MetricTensor(labels=((1, 1), (1, 2), (2, 1)), "
     "matrix=((Fraction(1, 1), Fraction(0, 1), Fraction(0, 1)), "
     "(Fraction(0, 1), Fraction(0, 1), Fraction(2, 1)), "
     "(Fraction(0, 1), Fraction(2, 1), Fraction(0, 1))), "
     "inverse=((Fraction(1, 1), Fraction(0, 1), Fraction(0, 1)), "
     "(Fraction(0, 1), Fraction(0, 1), Fraction(1, 2)), "
     "(Fraction(0, 1), Fraction(1, 2), Fraction(0, 1))))"),
]
IDS = [type(v).__name__ for v, _ in VALUES]


class TestConstruction:
    def test_keyword_equals_positional(self):
        assert AlgebraSpec(N=2, theta0=-1) == AlgebraSpec(2, -1)
        assert OpSpace(spin_dim=2, sites=3) == OpSpace(2, 3)
        assert ModelSpec(algebra=SP2, sites=3, kind="calogero", lam=F(1),
                         omega="symbolic") == ModelSpec(SP2, 3, "calogero", F(1))
        assert CheckResult(name="serre", params=(("L", "3"),), status="pass",
                           millis=7) == _result()
        assert CheckReport(results=(), engine_version="x") \
            == CheckReport((), "x")
        g = metric(SP2)
        assert MetricTensor(labels=g.labels, matrix=g.matrix,
                            inverse=g.inverse) == g

    def test_defaults(self):
        ms = ModelSpec(SP2, 3, "sutherland")
        assert (ms.lam, ms.omega) == ("star", "symbolic")
        r = _result()
        assert (r.witness, r.notes) == ((), ())
        assert CheckReport(()).engine_version == __version__

    def test_field_reads(self):
        ms = ModelSpec(SP2, 4, "confined", "symbolic", F(3))
        assert (ms.algebra, ms.sites, ms.kind, ms.lam, ms.omega) \
            == (SP2, 4, "confined", "symbolic", F(3))
        assert ms.space == OpSpace(2, 4)
        assert (SP2.N, SP2.theta0) == (2, -1)

    @pytest.mark.parametrize("build, message", [
        (lambda: AlgebraSpec(1, 1), "N must be at least 2"),
        (lambda: AlgebraSpec(3, 0), "theta0 must be +1 or -1"),
        (lambda: AlgebraSpec(3, -1), "theta0 = -1 requires even N"),
        (lambda: OpSpace(0, 2),
         "OpSpace needs positive spin dimension and sites"),
        (lambda: OpSpace(2, 0),
         "OpSpace needs positive spin dimension and sites"),
        (lambda: ModelSpec(SP2, 3, "xxz"), "unknown model kind 'xxz'"),
        (lambda: ModelSpec(SP2, 1, "calogero"),
         "at least two sites are required"),
        (lambda: ModelSpec(SP2, 3, "calogero", "free"),
         "bad coupling mode 'free'"),
        (lambda: ModelSpec(SP2, 3, "confined", "star", "zero"),
         "bad trap mode 'zero'"),
        # exact values only: an int (not a bool) or a Fraction
        (lambda: AlgebraSpec(4.0, -1), "N must be an integer, not 4.0"),
        (lambda: ModelSpec(SP2, 3.0, "calogero"),
         "sites must be an integer, not 3.0"),
        (lambda: ModelSpec(SP2, 2, "calogero", lam=0.5),
         "bad coupling mode 0.5"),
        (lambda: ModelSpec(SP2, 2, "calogero", lam=None),
         "bad coupling mode None"),
        (lambda: ModelSpec(SP2, 2, "calogero", lam=True),
         "bad coupling mode True"),
        (lambda: ModelSpec(SP2, 2, "confined", omega=0.25),
         "bad trap mode 0.25"),
        (lambda: CheckResult("x", (), "maybe", 0), "bad status 'maybe'"),
        (lambda: CheckResult("x", (), "fail", 0),
         "failing check without witness"),
        (lambda: OpSpace(2, 3.0), "OpSpace sites must be an integer, not 3.0"),
        (lambda: OpSpace(True, 2),
         "OpSpace spin dimension must be an integer, not True"),
        (lambda: OpSpace("2", 3),
         "OpSpace spin dimension must be an integer, not '2'"),
    ])
    def test_validation_texts(self, build, message):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message

    def test_bool_theta0_rejected(self):
        # kept out of the table above: its text would repeat a case id there
        with pytest.raises(ValueError) as info:
            AlgebraSpec(3, True)
        assert str(info.value) == "theta0 must be +1 or -1"

    def test_degenerate_star_coupling_rejected(self):
        with pytest.raises(DegenerateCouplingError):
            ModelSpec(AlgebraSpec(4, 1), 3, "calogero")
        ModelSpec(AlgebraSpec(4, 1), 3, "calogero", "symbolic")


class TestValueSemantics:
    @pytest.mark.parametrize("value, text", VALUES, ids=IDS)
    def test_repr(self, value, text):
        assert repr(value) == text
        assert str(value) == text

    def test_repr_in_error_text(self):
        with pytest.raises(ShapeMismatchError) as info:
            Operator.identity(OpSpace(2, 2)) + Operator.identity(OpSpace(2, 3))
        assert str(info.value) == ("mixed operator spaces: OpSpace(spin_dim=2, "
                                   "sites=2) and OpSpace(spin_dim=2, sites=3)")

    @pytest.mark.parametrize("value, text", VALUES, ids=IDS)
    def test_equal_values_hash_equal(self, value, text):
        twin = type(value)(*(getattr(value, name)
                             for name in _field_names(value)))
        assert twin == value and not twin != value
        assert hash(twin) == hash(value)
        assert len({value, twin}) == 1

    def test_unequal_values(self):
        assert AlgebraSpec(2, -1) != AlgebraSpec(4, -1)
        assert OpSpace(2, 3) != OpSpace(3, 2)
        assert ModelSpec(SP2, 3, "calogero") != ModelSpec(SP2, 3, "sutherland")
        assert _result() != _result("fail", ("w",))

    def test_no_equality_across_classes(self):
        assert AlgebraSpec(2, 1) != OpSpace(2, 1)
        assert OpSpace(2, 1) != AlgebraSpec(2, 1)
        assert AlgebraSpec(2, 1) != (2, 1)
        assert len({AlgebraSpec(2, 1), OpSpace(2, 1)}) == 2

    @pytest.mark.parametrize("value, text", VALUES, ids=IDS)
    def test_assignment_refused(self, value, text):
        name = _field_names(value)[0]
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, before)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is before

    @pytest.mark.parametrize("value, text", VALUES, ids=IDS)
    def test_pickle_and_copy_round_trips(self, value, text):
        for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value),
                     copy.deepcopy(value)):
            assert type(twin) is type(value)
            assert twin == value
            assert repr(twin) == text

    def test_specs_key_caches(self):
        assert metric(AlgebraSpec(2, -1)) is metric(SP2)


class TestReplace:
    def test_replaces_named_fields(self):
        ms = ModelSpec(SP2, 3, "confined", F(1, 2), F(3))
        other = ms.replace(lam="symbolic", omega="symbolic")
        assert other == ModelSpec(SP2, 3, "confined", "symbolic", "symbolic")
        assert ms.lam == F(1, 2)
        assert ms.replace() == ms
        assert ms.replace(sites=2).sites == 2

    def test_validates(self):
        with pytest.raises(ValueError) as info:
            ModelSpec(SP2, 3, "calogero").replace(sites=1)
        assert str(info.value) == "at least two sites are required"

    def test_unknown_field_rejected(self):
        with pytest.raises(TypeError):
            ModelSpec(SP2, 3, "calogero").replace(site=2)
        with pytest.raises(TypeError):
            OpSpace(2, 3).replace(dim=2)


def _field_names(value):
    return {AlgebraSpec: ("N", "theta0"),
            OpSpace: ("spin_dim", "sites"),
            ModelSpec: ("algebra", "sites", "kind", "lam", "omega"),
            CheckResult: ("name", "params", "status", "millis", "witness",
                          "notes"),
            CheckReport: ("results", "engine_version"),
            MetricTensor: ("labels", "matrix", "inverse")}[type(value)]


def test_cli_import_skips_dataclasses_and_inspect():
    """The value classes are hand-written because importing ``dataclasses``
    pulls in ``inspect`` (and ``ast``, ``dis``, ``tokenize``) and dominates
    the CLI's start-up time.  ``-S`` keeps a site ``.pth`` file from
    importing either module first."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import spinsym.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run([sys.executable, "-S", "-c", code, str(SRC)],
                         capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "[]"


def test_cli_import_finds_no_lie_generator():
    """``lie.lie_generators`` is found on first use, so importing the CLI
    does none of its closures."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import spinsym.cli; "
            "from spinsym import lie; "
            "print(lie.lie_generators.cache_info().currsize)")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run([sys.executable, "-S", "-c", code, str(SRC)],
                         capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "0"
