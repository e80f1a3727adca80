"""The contract of ``linalg.Record``, the base of every result the package
returns: construction, read-only fields, repr, equality and hash over the
shown fields, ``replace`` and validation; and that importing the package
generates no code (no ``dataclasses``)."""

import os
import subprocess
import sys
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest

import biham
from biham import cli
from biham.commutant import read_off_operator
from biham.compatibility import check_compatible, pencil_member
from biham.decomposition import (
    Block,
    canonical_basis,
    decompose,
    group_signature,
    synthesize_pair,
)
from biham.dynamics import (
    bi_preserving_algebra,
    certify_recursion,
    conservation_probe,
    recursion_basis,
)
from biham.linalg import DEFAULT_TOL, Record, StructureError, Tolerance
from biham.structures import (
    LinearField,
    QuadraticForm,
    Violation,
    field_preserves,
    form_pair,
    phase_generator,
)
from conftest import diag_triple

FIXTURES = Path(__file__).parent / "fixtures"

MODULES = [m for name, m in sorted(sys.modules.items()) if name.startswith("biham.")]
RECORDS = sorted({cls for m in MODULES for cls in vars(m).values()
                  if isinstance(cls, type) and issubclass(cls, Record) and cls is not Record},
                 key=lambda cls: cls.__name__)


@pytest.fixture(scope="module")
def samples():
    """One instance of every record class, each made the way the package
    makes it."""
    pair = synthesize_pair([(2.0, 1, 1), (3.0, -1, 1)], seed=1)
    d = decompose(pair)
    member = pencil_member(d, 0.5)
    second = form_pair(pair.t2.g.m, pair.t2.omega.m)
    found = [
        Tolerance(), pair.t1, pair, d, d.blocks[0], member, member.blocks[0],
        group_signature(d), canonical_basis(d.blocks[0]), bi_preserving_algebra(d),
        certify_recursion(d), read_off_operator(d),
        conservation_probe(recursion_basis(pair)[0], pair, (0.5,)),
        field_preserves(phase_generator(pair.t1), pair.t1), LinearField.dilation(4),
        QuadraticForm(np.eye(4)), Violation("J1_J2_commutator", 0.5), second, second.g,
        check_compatible(diag_triple(1.0, 4.0), diag_triple(2.0, 6.0)),
        cli.load_document(str(FIXTURES / "reference_4d.json")),
    ]
    return {type(r): r for r in found}


def _same(a, b) -> bool:
    return a is b or (isinstance(a, np.ndarray) and np.array_equal(a, b))


def test_no_code_generation_at_import():
    # one fresh interpreter, the bare package import
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, biham; print('dataclasses' in sys.modules)"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
    assert [cls for m in MODULES for cls in vars(m).values()
            if isinstance(cls, type) and hasattr(cls, "__dataclass_fields__")] == []


def test_every_record_class_is_exported_and_sampled(samples):
    exported = {v for v in vars(biham).values() if isinstance(v, type)}
    assert set(RECORDS) == set(samples)
    assert set(RECORDS) - exported == {cli.InputDocument}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
class TestContract:
    def test_positional_and_keyword_construction(self, samples, cls):
        r = samples[cls]
        values = [getattr(r, f) for f in cls._fields]
        for built in (cls(*values), cls(**dict(zip(cls._fields, values))),
                      cls(*values[:1], **dict(zip(cls._fields[1:], values[1:])))):
            assert type(built) is cls
            assert list(vars(built)) == list(cls._fields)
            assert all(_same(getattr(built, f), v) for f, v in zip(cls._fields, values))

    def test_missing_or_unknown_argument(self, samples, cls):
        r = samples[cls]
        values = [getattr(r, f) for f in cls._fields]
        required = [f for f in cls._fields if f not in cls._defaults]
        if required:
            with pytest.raises(TypeError, match="missing required arguments: " + required[-1]):
                cls(*values[:cls._fields.index(required[-1])])
        with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
            cls(*values, bogus=1)
        with pytest.raises(TypeError, match="multiple values"):
            cls(*values, **{cls._fields[0]: values[0]})
        with pytest.raises(TypeError, match="arguments but"):
            cls(*values, None)

    def test_read_only(self, samples, cls):
        r = samples[cls]
        name = cls._fields[0]
        before = getattr(r, name)
        with pytest.raises(AttributeError, match="read-only"):
            setattr(r, name, None)
        with pytest.raises(AttributeError, match="read-only"):
            delattr(r, name)
        with pytest.raises(AttributeError, match="read-only"):
            r.unknown = 1
        assert getattr(r, name) is before

    def test_replace_builds_a_new_record(self, samples, cls):
        r = samples[cls]
        name = cls._fields[-1]
        copy = r.replace()
        assert type(copy) is cls and copy is not r
        assert all(_same(getattr(copy, f), getattr(r, f)) for f in cls._fields)
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            r.replace(bogus=1)
        assert r.replace(**{name: getattr(r, name)}) is not r

    def test_cached_properties_computed_once(self, samples, cls):
        r = samples[cls].replace()
        for attr, prop in vars(cls).items():
            if isinstance(prop, cached_property):
                try:
                    first = getattr(r, attr)
                except biham.NumericalCheckError:
                    continue
                assert vars(r)[attr] is first and getattr(r, attr) is first


class TestDefaultsAndValidation:
    def test_defaults_are_class_attributes(self):
        assert Tolerance().rel == Tolerance.rel == 1e-9
        assert Tolerance(rel=1e-8).cluster_gap == Tolerance.cluster_gap
        assert QuadraticForm(np.eye(2)).tol is DEFAULT_TOL
        # a transfer operator's cluster sizes are a field with no default:
        # every operator is read off a decomposition that certified them
        op = read_off_operator(decompose(synthesize_pair([(2.0, 1, 1)], seed=1)))
        assert op.cluster_sizes == (1,) and "cluster_sizes" not in type(op)._defaults
        with pytest.raises(TypeError, match="missing required arguments: cluster_sizes"):
            type(op)(*[getattr(op, f) for f in type(op)._fields[:-1]])

    def test_tolerance_validated_on_construction_and_replace(self):
        with pytest.raises(ValueError, match="rel must be finite and in"):
            Tolerance(rel=2.0)
        with pytest.raises(ValueError, match="cluster_gap"):
            Tolerance().replace(rel=1e-5)
        loose = Tolerance().replace(rel=1e-8)
        assert loose == Tolerance(1e-8, 1e-7) and loose is not DEFAULT_TOL

    def test_quadratic_form_symmetrizes(self):
        q = QuadraticForm([[1.0, 2.0 + 1e-12], [2.0, 1.0]])
        np.testing.assert_array_equal(q.matrix, q.matrix.T)
        assert not q.matrix.flags.writeable
        with pytest.raises(StructureError):
            QuadraticForm([[1.0, 3.0], [2.0, 1.0]])
        with pytest.raises(StructureError):
            q.replace(matrix=np.array([[1.0, 3.0], [2.0, 1.0]]))

    def test_linear_field_validated(self):
        with pytest.raises(ValueError, match="square"):
            LinearField(np.ones((2, 3)))
        field = LinearField([[0.0, 1.0], [-1.0, 0.0]])
        assert field.matrix.dtype == np.float64 and not field.matrix.flags.writeable


class TestReprEqualityHash:
    def test_tolerance_equality_and_hash(self):
        assert Tolerance() == Tolerance(1e-9, 1e-7) == DEFAULT_TOL
        assert hash(Tolerance()) == hash(DEFAULT_TOL)
        assert Tolerance(rel=1e-8) != DEFAULT_TOL
        assert {Tolerance(): 1}[Tolerance(cluster_gap=1e-7)] == 1
        assert (Tolerance() == (1e-9, 1e-7)) is False
        assert repr(DEFAULT_TOL) == "Tolerance(rel=1e-09, cluster_gap=1e-07)"

    def test_hidden_fields_out_of_repr_equality_and_hash(self):
        one, other = np.eye(2), 2.0 * np.eye(2)
        assert Block(2.0, 1, 2, 0, one, one) == Block(2.0, 1, 2, 0, other, other)
        assert hash(Block(2.0, 1, 2, 0, one, one)) == hash(Block(2.0, 1, 2, 0, other, other))
        assert Block(2.0, 1, 2, 0, one, one) != Block(3.0, 1, 2, 0, one, one)
        q = QuadraticForm(np.eye(2))
        assert "tol" not in repr(q) and q.replace(tol=Tolerance(rel=1e-8)).tol.rel == 1e-8
        member = pencil_member(decompose(synthesize_pair([(2.0, 1, 1)], seed=1)), 0.5)
        assert repr(member).startswith("PencilMember(gamma=0.5, admissible=True, blocks=(")
        assert "pair" not in repr(member)

    def test_equality_needs_the_same_class(self):
        assert Violation("a", 1.0) == Violation(name="a", residual=1.0)
        assert Violation("a", 1.0) != Violation("a", 2.0)
        assert repr(Violation("a", 1.0)) == "Violation(name='a', residual=1.0)"

        class Other(Record):
            name: str
            residual: float

        assert Other("a", 1.0) != Violation("a", 1.0)
