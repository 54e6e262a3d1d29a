"""The six public records, built on `errors.Record`, behave as frozen records.

Each is built by position and by keyword in field order, validates in
`__post_init__` with its named errors, refuses assignment, and prints,
compares and hashes by its tuple of field values. `vars(record)` is the field
dict that `analyze --json` and `sample --json` print. A wrapper around
`cls.__init__` that calls the original, as the benchmark's tracer installs,
still builds each record, and restoring the original leaves it working.
"""

import functools

import numpy as np
import pytest

from gdneg.bloch import BlochForm, decompose
from gdneg.errors import InvalidRange, InvalidState, Record, UnknownFamily
from gdneg.families import FamilySpec, build
from gdneg.io_cli import SampleSummary, run_sample
from gdneg.measures import MeasureReport, bounds_check
from gdneg.states import DensityMatrix, PureState

RHO = build(FamilySpec("rho1", (5.0, 2.0)))
BELL = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
REPORT = dict(negativity=0.5, negativity_sq=0.25, discord=0.125, discord_exact=True, gap=0.125,
              pt_negative_count=1, pt_negative_cap=1, bounds_ok=True)
SUMMARY = dict(dims=(2, 3), count=10, seed=1, ensemble="pure", violations=0, max_gap=0.5,
               min_gap=-0.5, bound_failures=0)

# class: its fields, in order, and their values for one record
RECORDS = {
    DensityMatrix: dict(m=2, n=3, mat=RHO.mat),
    PureState: dict(m=2, n=2, amplitudes=BELL),
    MeasureReport: REPORT,
    BlochForm: dict(m=2, n=2, x=np.zeros(3), y=np.zeros(3), T=np.eye(3)),
    FamilySpec: dict(name="rho1", params=(5.0, 2.0)),
    SampleSummary: SUMMARY,
}
HASHABLE = (MeasureReport, FamilySpec, SampleSummary)
IDS = [cls.__name__ for cls in RECORDS]


def same_fields(a, b):
    """Field by field equality, arrays by their entries."""
    assert type(a) is type(b)
    for name in a._fields:
        x, y = getattr(a, name), getattr(b, name)
        assert np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y, name


@pytest.mark.parametrize("cls, values", RECORDS.items(), ids=IDS)
class TestEveryRecord:
    def test_fields_are_the_annotations_in_order(self, cls, values):
        assert issubclass(cls, Record)
        assert cls._fields == cls.__match_args__ == tuple(values)

    def test_positional_and_keyword_construction_agree(self, cls, values):
        by_position = cls(*values.values())
        same_fields(by_position, cls(**values))
        first, *rest = values
        same_fields(by_position, cls(values[first], **{name: values[name] for name in rest}))
        assert list(vars(by_position)) == list(values)

    def test_bad_arguments_raise_type_error(self, cls, values):
        first, *rest = values
        for args, kwargs in [
            ((*values.values(), None), {}),  # one positional too many
            ((*values.values(),), {"nope": 1}),  # not a field
            ((*values.values(),), {first: values[first]}),  # given twice
            ((), {name: values[name] for name in rest}),  # missing
            ((), {}),
        ]:
            with pytest.raises(TypeError, match=rf"^{cls.__name__}\({', '.join(values)}\) cannot take "
                                                rf"{len(args)} positional arguments"):
                cls(*args, **kwargs)

    def test_assignment_and_deletion_raise(self, cls, values):
        record = cls(**values)
        for name in (*values, "not_a_field"):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(record, name, 0)
            with pytest.raises(AttributeError, match="cannot delete field"):
                delattr(record, name)
        same_fields(record, cls(**values))

    def test_repr_names_every_field(self, cls, values):
        record = cls(**values)
        shown = ", ".join(f"{name}={getattr(record, name)!r}" for name in values)
        assert repr(record) == f"{cls.__name__}({shown})"

    def test_equality_and_hash_follow_the_field_tuple(self, cls, values):
        record = cls(**values)
        twin = cls(**{k: v.copy() if isinstance(v, np.ndarray) else v for k, v in values.items()})
        assert record == record and not record != record
        assert record != (*values.values(),) and record != object()
        if cls in HASHABLE:
            assert record == twin and hash(record) == hash(twin) == hash(record._values())
            assert len({record, twin}) == 1
        else:  # an ndarray field: the tuple comparison asks for an array's truth value
            with pytest.raises(ValueError, match="truth value"):
                record == twin
            with pytest.raises(TypeError, match="unhashable"):
                hash(record)

    def test_a_wrapped_init_builds_and_restoring_it_leaves_the_class_working(self, cls, values):
        original = cls.__init__
        calls = []

        @functools.wraps(original)
        def traced(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        cls.__init__ = traced
        try:
            wrapped = cls(*values.values())
            assert calls == [wrapped]
            same_fields(wrapped, cls(**values))
            assert len(calls) == 2
        finally:
            cls.__init__ = original
        same_fields(cls(*values.values()), wrapped)
        assert len(calls) == 2


@pytest.mark.parametrize("build_record, error, message", [
    (lambda: DensityMatrix(0, 3, RHO.mat), InvalidState,
     "dimensions must be positive integers, got 0x3"),
    (lambda: DensityMatrix(2, 2, RHO.mat), InvalidState,
     r"shape \(6, 6\) does not match dimensions 2x2"),
    (lambda: DensityMatrix(1, 2, np.diag([np.nan, 1.0])), InvalidState,
     "finiteness invariant violated: non-finite entries"),
    (lambda: DensityMatrix(1, 2, [[0.5, 0.2], [0.0, 0.5]]), InvalidState,
     "hermiticity invariant violated: residual 0.2"),
    (lambda: DensityMatrix(1, 2, np.diag([0.5, 0.6])), InvalidState,
     "trace invariant violated: residual 0.1"),
    (lambda: DensityMatrix(1, 2, np.diag([1.5, -0.5])), InvalidState,
     "positivity invariant violated: min eigenvalue -0.5"),
    (lambda: PureState(2, 3, BELL), InvalidState,
     "amplitude vector length 4 does not match dimensions 2x3"),
    (lambda: PureState(2, 2, [1.0, 1.0, 0.0, 0.0]), InvalidState,
     "norm invariant violated: residual 0.414214"),
    (lambda: FamilySpec("rho9", (1.0,)), UnknownFamily, "unknown family 'rho9'"),
    (lambda: FamilySpec("rho1", (1.0,)), InvalidRange, r"rho1 takes 2 parameter\(s\), got 1"),
], ids=["dims", "shape", "nan", "hermiticity", "trace", "positivity", "amplitudes", "norm",
        "family", "arity"])
def test_validation_errors(build_record, error, message):
    with pytest.raises(error, match=f"^{message}"):
        build_record()


def test_post_init_normalises_fields():
    spec = FamilySpec("rho1", [5, 2])
    assert spec.params == (5.0, 2.0) and type(spec.params[0]) is float
    assert spec == FamilySpec("rho1", (5.0, 2.0)) and hash(spec) == hash(("rho1", (5.0, 2.0)))
    rho = DensityMatrix(1, 2, [[0.5, 0.0], [0.0, 0.5]])
    assert rho.mat.dtype == complex and not rho.mat.flags.writeable
    pure = PureState(2, 2, BELL.reshape(2, 2))
    assert pure.amplitudes.shape == (4,) and not pure.amplitudes.flags.writeable
    bloch = decompose(pure.projector())
    assert bloch._fields == ("m", "n", "x", "y", "T")
    assert np.allclose(bloch.T, np.diag([1.0, -1.0, 1.0]))


def test_json_field_dicts():
    report = bounds_check(RHO)
    assert vars(report) == {
        "negativity": 0.565382001874867, "negativity_sq": 0.31965680804403207,
        "discord": 0.23781212841854937, "discord_exact": True, "gap": 0.0818446796254827,
        "pt_negative_count": 2, "pt_negative_cap": 2, "bounds_ok": True,
    }
    assert vars(run_sample(2, 3, 300, 42, "hilbert-schmidt")) == {
        "dims": (2, 3), "count": 300, "seed": 42, "ensemble": "hilbert-schmidt",
        "violations": 0, "max_gap": -0.02435469727442256, "min_gap": -0.14555656529583297,
        "bound_failures": 0,
    }
