"""Tests for natural orders, the matrix embedding, and reduced determinants."""

import importlib
import inspect
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cycord
from cycord.base_rings import EISENSTEIN, GAUSSIAN, RingElement, radix_decode, residue_table
from cycord.errors import IncompatibleAlgebras, IncompatibleRings
from cycord.extension import IdealSpec
from cycord.order import (
    SHIPPED_ALGEBRAS,
    OrderMatrix,
    box_digits,
    box_elements,
    box_values,
    digit_rows,
    load_algebra,
)
from cycord.residue import CodeElement, ResidueElement
from cycord.structure import MatElement

coords = st.integers(min_value=-4, max_value=4)


def order_elements(algebra):
    pair = st.tuples(coords, coords)
    ext = algebra.ext

    def build(rows):
        return algebra.element(ext.from_ints(*row) for row in rows)

    row = st.tuples(*[pair] * ext.n)
    return st.tuples(*[row] * algebra.n).map(build)


@pytest.mark.parametrize("name", SHIPPED_ALGEBRAS)
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_flat_ints_round_trip(name, data):
    algebra = load_algebra(name)
    rational = algebra.ext.base.kind.name == "RATIONAL"
    count = algebra.n * algebra.ext.n * (1 if rational else 2)
    draws = data.draw(st.lists(coords, min_size=count, max_size=count))
    stream = iter(draws)
    x = algebra.from_draws(lambda: next(stream))
    assert next(stream, None) is None  # no b draw over Z
    # coordinates are drawn in flat_ints order, a before b
    flat = [v for a in draws for v in (a, 0)] if rational else draws
    assert x.flat_ints() == tuple(flat)
    assert algebra.from_flat_ints(x.flat_ints()) == x


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_embedding_reverses_products(golden, data):
    x = data.draw(order_elements(golden))
    y = data.draw(order_elements(golden))
    assert (x * y).matrix() == y.matrix() * x.matrix()


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_transposed_embedding_preserves_products(q7, data):
    x = data.draw(order_elements(q7))
    y = data.draw(order_elements(q7))
    def transposed(M):  # entry (r, c) moves to (c, r)
        return OrderMatrix(M.ext, tuple(zip(*M.entries)))

    lhs = transposed((x * y).matrix())
    rhs = transposed(x.matrix()) * transposed(y.matrix())
    assert lhs == rhs


def test_matrix_of_z_pinned(golden):
    ext = golden.ext
    M = golden.z.matrix()
    u_ok = ext.from_base(golden.u)
    assert M.entries[0][0] == ext.zero
    assert M.entries[0][1] == u_ok
    assert M.entries[1][0] == ext.one
    assert M.entries[1][1] == ext.zero


def test_matrix_of_scalar_is_diagonal(golden):
    ext = golden.ext
    theta = ext.basis_element(1)
    M = golden.from_ok(theta).matrix()
    assert M.entries[0][0] == theta
    assert M.entries[1][1] == theta.sigma()
    assert M.entries[0][1] == ext.zero
    assert M.entries[1][0] == ext.zero


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_reduced_det_multiplicative(golden, data):
    x = data.draw(order_elements(golden))
    y = data.draw(order_elements(golden))
    assert (x * y).reduced_det() == x.reduced_det() * y.reduced_det()


@pytest.mark.parametrize(
    "name,sign",
    [("golden_u_i", -1), ("gauss_over_Q", -1), ("q7_cubic", 1), ("q15_quartic", -1)],
)
def test_reduced_det_of_z_pinned(name, sign):
    algebra = load_algebra(name)
    expected = algebra.u if sign == 1 else -algebra.u
    assert algebra.z.reduced_det() == expected


@pytest.mark.parametrize("name", ["golden_u_i", "q7_cubic", "q15_quartic"])
def test_reduced_det_of_z_to_the_n(name):
    # z^n acts as the scalar u, so its matrix is u*I with determinant u^n
    algebra = load_algebra(name)
    assert (algebra.z ** algebra.n).reduced_det() == algebra.u ** algebra.n


@given(st.data(), st.tuples(coords, coords))
@settings(max_examples=40, deadline=None)
def test_reduced_det_scaling(golden, data, pair):
    x = data.draw(order_elements(golden))
    alpha = golden.ext.base.element(*pair)
    assert (x * alpha).reduced_det() == alpha ** golden.n * x.reduced_det()


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_charpoly_matches_det_and_is_monic(golden, data):
    x = data.draw(order_elements(golden))
    poly = x.ring.charpoly(x)
    n = golden.n
    assert len(poly) == n + 1
    assert poly[-1] == golden.ext.base.one
    sign = golden.ext.base.one if n % 2 == 0 else -golden.ext.base.one
    assert poly[0] == sign * x.reduced_det()


def test_charpoly_of_z_pinned(golden):
    # z^2 = u means the reduced characteristic polynomial is t^2 - u
    base = golden.ext.base
    assert golden.charpoly(golden.z) == (-golden.u, base.zero, base.one)


def test_division_box_has_no_zero_determinants(golden):
    assert golden.claims_division
    for x in box_elements(golden, 1):
        if x.is_zero:
            continue
        assert x.abs_det_sq() > 0


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_division_samples_have_no_zero_determinants(q7, data):
    assert q7.claims_division
    x = data.draw(order_elements(q7))
    if not x.is_zero:
        assert x.abs_det_sq() > 0


def test_abs_det_sq_matches_numeric(golden):
    import numpy as np

    for x in box_elements(golden, 1)[:200]:
        numeric = abs(np.linalg.det(np.array(x.matrix().numeric()))) ** 2
        assert abs(numeric - x.abs_det_sq()) <= 1e-6 * max(1.0, x.abs_det_sq())


@pytest.mark.parametrize("base, count", [(2, 1), (2, 6), (3, 4), (5, 3), (7, 2)])
def test_digit_rows_match_radix_decode(base, count):
    full = digit_rows(base, count)
    assert full.dtype == np.int64
    assert full.tolist() == [radix_decode(i, base, count) for i in range(base ** count)]
    # an offset window [lo, hi), and one running to the end
    lo, hi = base ** count // 3, base ** count - 1
    assert digit_rows(base, count, lo, hi).tolist() == full[lo:hi].tolist()
    assert digit_rows(base, count, lo).tolist() == full[lo:].tolist()


@pytest.mark.parametrize("name", SHIPPED_ALGEBRAS)
@given(data=st.data())
@settings(max_examples=20, deadline=None, derandomize=True)
def test_positions_round_trip(shipped, name, data):
    algebra = shipped[name]
    positions = algebra.int_positions()
    values = data.draw(st.lists(coords, min_size=len(positions), max_size=len(positions)))
    x = algebra.from_positions(positions, values)
    flat = x.flat_ints()
    assert [flat[p] for p in positions] == values
    assert all(v == 0 for p, v in enumerate(flat) if p not in positions)
    assert algebra.from_positions(positions, [flat[p] for p in positions]) == x
    # over Z there are no b positions: every position is an a-coordinate
    if algebra.ext.base.kind.name == "RATIONAL":
        assert positions == list(range(0, len(flat), 2))
    else:
        assert positions == list(range(len(flat)))
    # the positions of some z-slots are those of the whole that lie in them
    per_slot = 2 * algebra.ext.n
    for slots in ([0], [algebra.n - 1], range(1, algebra.n)):
        assert algebra.int_positions(slots) == [p for p in positions if p // per_slot in slots]


def test_box_values_ordering():
    assert box_values(2) == [0, 1, -1, 2, -2]


@pytest.mark.parametrize("bound, count, dtype", [
    (0, 3, np.int8), (1, 1, np.int8), (1, 8, np.int8), (2, 3, np.int8),
    (127, 1, np.int8), (128, 1, np.int16),  # +128 does not fit int8
])
def test_box_digits_are_narrow(bound, count, dtype):
    rows = box_digits(bound, count)
    assert rows.dtype == dtype
    values = box_values(bound)
    d = len(values)
    assert rows.tolist() == [[values[i // d ** m % d] for m in range(count)]
                             for i in range(d ** count)]


def test_box_elements_count_and_order(golden):
    elems = box_elements(golden, 1)
    # 2 z-coords x 2 basis coords x 2 integer parts, 3 digit choices each
    assert len(elems) == 3 ** 8
    assert elems[0].is_zero
    assert elems[1].flat_ints() == (0, 0, 0, 0, 0, 0, 0, 1)
    seen = {e.flat_ints() for e in elems}
    assert len(seen) == len(elems)
    assert all(abs(v) <= 1 for e in elems[:500] for v in e.flat_ints())


def test_u_override_clears_division_claim(gauss, gauss_u5):
    assert gauss.claims_division
    assert not gauss_u5.claims_division
    assert gauss_u5.u == gauss.ext.base.element(5)
    same = load_algebra("gauss_over_Q", u="-1")
    assert same.claims_division


def test_load_algebra_rejects_unknown():
    with pytest.raises(FileNotFoundError):
        load_algebra("no_such_algebra")


def test_element_shape_checks(golden):
    ext = golden.ext
    with pytest.raises(ValueError):
        golden.element([ext.one])
    with pytest.raises(IncompatibleAlgebras):
        golden.element([1, 2])


def test_mixed_scalar_products(golden):
    ext = golden.ext
    x = golden.z + golden.one
    assert 2 * x == x + x
    assert x * 2 == x + x
    alpha = ext.base.element(0, 1)
    assert x * alpha == alpha * x  # base ring scalars are central
    assert (x * alpha).zcoords[0] == x.zcoords[0] * ext.from_base(alpha)


def drawn_elements(algebra):
    """Order elements over any base ring, through `from_draws`."""
    rational = algebra.ext.base.kind.name == "RATIONAL"
    count = algebra.n * algebra.ext.n * (1 if rational else 2)
    return st.lists(coords, min_size=count, max_size=count).map(
        lambda draws: algebra.from_draws(iter(draws).__next__))


def _coords(matrix):
    return tuple(tuple(e.coords for e in row) for row in matrix.entries)


@pytest.mark.parametrize("name", SHIPPED_ALGEBRAS)
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_matrix_product_and_det_match_object_loop(shipped, objloop, name, data):
    algebra = shipped[name]
    ext = algebra.ext
    x = data.draw(drawn_elements(algebra))
    y = data.draw(drawn_elements(algebra))
    A, B = x.matrix(), y.matrix()
    assert _coords(A) == objloop.matrix(algebra, x)
    assert _coords(A * B) == objloop.matmul(ext, _coords(A), _coords(B))
    det = objloop.reduced_det(algebra, x)
    assert all(c.is_zero for c in det[1:])
    assert x.reduced_det() == det[0]


@pytest.mark.parametrize("name", SHIPPED_ALGEBRAS)
@given(data=st.data())
@settings(max_examples=20, deadline=None, derandomize=True)
def test_order_product_matches_term_by_term(shipped, objloop, name, data):
    algebra = shipped[name]

    def draw():
        # zero z-coordinates take the product's skip paths
        x = data.draw(drawn_elements(algebra))
        drop = data.draw(st.lists(st.booleans(), min_size=algebra.n, max_size=algebra.n))
        return algebra.element(algebra.ext.zero if d else c for d, c in zip(drop, x.zcoords))

    x, y = draw(), draw()
    assert x * y == objloop.twisted_mul(algebra, x, y)


def test_matrix_product_across_specs(golden, q7):
    M = golden.z.matrix()
    same = load_algebra("golden_u_i").z.matrix()
    assert same.ext is not M.ext
    u, zero = M.ext.from_base(golden.u), M.ext.zero
    assert same * M == M * M == OrderMatrix(M.ext, [[u, zero], [zero, u]])
    with pytest.raises(IncompatibleAlgebras):
        M * q7.z.matrix()


# -- the shared RingElement base ---------------------------------------------------


def law_cases(golden, q7):
    """Name -> (x, y, an element of another ring, the error it raises)."""
    from cycord.residue import FiniteField, quotient_of
    from cycord.structure import MatRing

    ext, i = golden.ext, GAUSSIAN.element(0, 1)
    Q = quotient_of(golden, IdealSpec(GAUSSIAN.element(1, 1), 2))
    Q3 = quotient_of(golden, IdealSpec(GAUSSIAN.element(3)))
    mat = MatRing(residue_table(GAUSSIAN, GAUSSIAN.element(3)), 2)
    ff = FiniteField(3, 2)
    x_ord = golden.z + golden.one * i
    return {
        "Base": (GAUSSIAN.element(2, -1), GAUSSIAN.element(1, 3),
                 EISENSTEIN.element(1, 1), IncompatibleRings),
        "OK": (ext.from_ints((1, 2), (0, -1)), ext.from_ints(3, (1, 1)),
               q7.ext.basis_element(1), IncompatibleRings),
        "Order": (x_ord, golden.z * golden.z + golden.one * 2, q7.z, IncompatibleAlgebras),
        "Residue": (Q.S.from_ok(ext.from_ints((1, 1), 1)), Q.S.basis(1) + Q.S.one,
                    Q3.S.basis(1), IncompatibleAlgebras),
        "Gca": (Q.reduce(x_ord), Q.z + Q.one, Q3.z, IncompatibleAlgebras),
        "Mat": (mat.element([[1, 2], [3, 4]]), mat.unit(0, 1) + mat.one,
                MatRing(mat.table, 3).one, IncompatibleAlgebras),
        "FF": (ff.element(5), ff.element(7), FiniteField(5, 1).one, IncompatibleAlgebras),
    }


@pytest.mark.parametrize("name", ["Base", "OK", "Order", "Residue", "Gca", "Mat", "FF"])
def test_ring_element_laws(golden, q7, name):
    x, y, foreign, error = law_cases(golden, q7)[name]
    assert isinstance(x, RingElement) and type(x).error is error
    assert x - y == x + (-y)
    assert x ** 3 == x * x * x
    assert x ** 0 == x.ring.one
    assert 2 * x == x * 2 == x + x
    again = (x + y) - y
    assert again is not x and again == x and hash(again) == hash(x)
    assert (x - x).is_zero and not (x - x) and x and not x.is_zero
    for op in (x.__add__, x.__sub__, x.__mul__):
        with pytest.raises(error):
            op(foreign)


# overrides of the shared methods where the semantics differ
ALLOWED_OVERRIDES = {
    ("FFElement", "__pow__"),  # negative exponents invert
    ("TwistedElement", "__rmul__"),  # coefficient-ring scalars on the left
    ("CodeElement", "__bool__"),  # the table's zero code need not be 0
}
CODE_TUPLE_METHODS = {"key", "__add__", "__neg__", "__bool__", "encode", "scale"}
SHARED = {"_check", "__eq__", "__hash__", "__sub__", "__rmul__", "__pow__",
          "__bool__", "is_zero"}


def test_element_classes_share_ring_element():
    classes = {
        cls for info in pkgutil.iter_modules(cycord.__path__)
        for _, cls in inspect.getmembers(
            importlib.import_module(f"cycord.{info.name}"), inspect.isclass)
        if cls.__name__.endswith("Element") and cls.__module__.startswith("cycord.")
    }
    assert {cls.__name__ for cls in classes} == {
        "RingElement", "BaseElement", "OKElement", "TwistedElement", "OrderElement",
        "GcaElement", "ResidueElement", "MatElement", "FFElement", "CodeElement"}
    for cls in classes - {RingElement}:
        assert issubclass(cls, RingElement), cls
        own = {(cls.__name__, name) for name in SHARED & set(vars(cls))}
        assert own <= ALLOWED_OVERRIDES, own
    # the code-tuple classes share one copy of the code-tuple methods
    for cls in (ResidueElement, MatElement):
        assert cls.__bases__ == (CodeElement,), cls
        assert not CODE_TUPLE_METHODS & set(vars(cls)), cls
