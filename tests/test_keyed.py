"""Value equality of the parent objects: rings, tables and specs.

Each class compares and hashes through `base_rings.Keyed` on its `key`.
Every object below is built twice, past the caching factories, so the
equalities are by value and not by identity.
"""

import pytest

from cycord.base_rings import GAUSSIAN, BaseRing, Keyed, ResidueTable, RingKind
from cycord.extension import ExtensionSpec, IdealSpec
from cycord.order import AlgebraSpec, OrderMatrix, TwistedRing, load_algebra
from cycord.residue import FiniteField, QuotientRing, ResidueRing
from cycord.structure import MatRing


def _ext():
    return load_algebra("golden_u_i").ext


def _ext_fixing_everything():
    """The golden extension's tables with sigma replaced by the identity."""
    ext = _ext()
    identity = [[GAUSSIAN.one if r == c else GAUSSIAN.zero for c in range(ext.n)]
                for r in range(ext.n)]
    return ExtensionSpec(ext.base, ext.n, ext.mult_table, identity, ext.embeddings)


def _matrix(*coords):
    algebra = load_algebra("golden_u_i")
    return algebra.matrix(algebra.element([algebra.ext.from_ints(*coords)] * algebra.n))


def _table(alpha="3"):
    return ResidueTable(GAUSSIAN, GAUSSIAN.parse(alpha))


def _quotient(alpha):
    return QuotientRing(load_algebra("golden_u_i"), IdealSpec(GAUSSIAN.parse(alpha)))


# class: (build an object, build it with one key field changed)
CASES = {
    BaseRing: (lambda: BaseRing(RingKind.GAUSSIAN), lambda: BaseRing(RingKind.EISENSTEIN)),
    ResidueTable: (_table, lambda: _table("1+i")),
    ExtensionSpec: (_ext, _ext_fixing_everything),
    AlgebraSpec: (lambda: load_algebra("golden_u_i"),
                  lambda: load_algebra("golden_u_i", u="1+i")),
    OrderMatrix: (lambda: _matrix(1, 0), lambda: _matrix(0, 1)),
    ResidueRing: (lambda: ResidueRing(_ext(), GAUSSIAN.element(3)),
                  lambda: ResidueRing(_ext(), GAUSSIAN.element(1, 1))),
    QuotientRing: (lambda: _quotient("3"), lambda: _quotient("1+i")),
    FiniteField: (lambda: FiniteField(3, 2), lambda: FiniteField(3, 1)),
    MatRing: (lambda: MatRing(_table(), 2), lambda: MatRing(_table(), 3)),
}


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_parent_objects_compare_by_key(cls):
    build, changed = CASES[cls]
    a, b, c = build(), build(), changed()
    assert type(a) is type(b) is type(c) is cls and issubclass(cls, Keyed)
    assert a is not b
    assert a == b and not a != b and hash(a) == hash(b)
    assert a != c and c != a and a.key != c.key
    assert len({a, b, c}) == 2
    assert a != a.key and a != object()


def test_quotient_never_equals_its_algebra():
    algebra = load_algebra("golden_u_i")
    quotient = QuotientRing(algebra, IdealSpec(GAUSSIAN.element(3)))
    assert isinstance(quotient, TwistedRing) and isinstance(algebra, TwistedRing)
    assert quotient != algebra and algebra != quotient
    assert quotient.algebra == algebra


def test_equal_keys_of_two_types_differ():
    class Left(Keyed):
        key = (1, 2)

    class Right(Keyed):
        key = (1, 2)

    assert Left() == Left() and hash(Left()) == hash(Right())
    assert Left() != Right() and Right() != Left()
