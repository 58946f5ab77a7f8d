"""Tests for cyclic ring extensions O_K over a base ring."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cycord.base_rings import EISENSTEIN, GAUSSIAN, RATIONAL
from cycord.errors import IncompatibleRings, UnsupportedSize
from cycord.extension import ExtensionSpec, IdealSpec, extension_from_dict
from cycord.order import SHIPPED_ALGEBRAS, AlgebraSpec, load_algebra
from cycord.residue import ResidueRing

EMBED_TOL = 1e-9

coords = st.integers(min_value=-9, max_value=9)


def ok_elements(ext):
    b = st.just(0) if ext.base == RATIONAL else coords
    pair = st.tuples(coords, b)
    return st.tuples(*[pair] * ext.n).map(lambda rows: ext.from_ints(*rows))


@pytest.mark.parametrize("name", SHIPPED_ALGEBRAS)
def test_shipped_specs_validate(name):
    ext = load_algebra(name).ext
    ext.validate()  # raises on any structural defect
    assert ext.n >= 2
    assert len(ext.embeddings) == ext.n


def test_element_coordinate_checks(golden):
    ext = golden.ext
    with pytest.raises(ValueError):
        ext.element([ext.base.one])
    with pytest.raises(IncompatibleRings):
        ext.element([1, 2])


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_ring_laws(golden, data):
    ext = golden.ext
    x = data.draw(ok_elements(ext))
    y = data.draw(ok_elements(ext))
    w = data.draw(ok_elements(ext))
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + w == x + (y + w)
    assert (x * y) * w == x * (y * w)
    assert x * (y + w) == x * y + x * w
    assert x * ext.one == x
    assert x + ext.zero == x
    assert x - x == ext.zero


@pytest.mark.parametrize("name", SHIPPED_ALGEBRAS)
def test_sigma_is_ring_automorphism_of_order_n(name):
    ext = load_algebra(name).ext
    xs = [ext.basis_element(i) + ext.one for i in range(ext.n)]
    for x in xs:
        for y in xs:
            assert (x * y).sigma() == x.sigma() * y.sigma()
            assert (x + y).sigma() == x.sigma() + y.sigma()
    # order exactly n: fixes the base, moves the generator
    theta = ext.basis_element(1)
    assert theta.sigma(ext.n) == theta
    assert theta.sigma() != theta
    c = ext.from_base(ext.base.element(3))
    assert c.sigma() == c


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_embeddings_multiplicative(golden, data):
    ext = golden.ext
    x = data.draw(ok_elements(ext))
    y = data.draw(ok_elements(ext))
    for e in range(ext.n):
        lhs = (x * y).embed(e)
        rhs = x.embed(e) * y.embed(e)
        assert abs(lhs - rhs) <= EMBED_TOL * max(1.0, abs(rhs))


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_embeddings_follow_sigma_orbit(golden, data):
    ext = golden.ext
    x = data.draw(ok_elements(ext))
    for e in range(ext.n):
        assert abs(x.embed(e) - x.sigma(e).embed(0)) <= EMBED_TOL


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_field_norm_lands_in_base_and_is_multiplicative(golden, data):
    ext = golden.ext
    x = data.draw(ok_elements(ext))
    y = data.draw(ok_elements(ext))
    nx = ext.field_norm(x)
    assert nx.scalar_part() is not None
    assert ext.field_norm(x * y) == nx * ext.field_norm(y)
    assert ext.field_norm(x.sigma()) == nx


def test_field_norm_pinned_values(golden):
    ext = golden.ext
    # N(theta) = theta * sigma(theta) = theta * (1 - theta) = -(theta^2 - theta) = -1
    theta = ext.basis_element(1)
    assert ext.field_norm(theta).scalar_part() == ext.base.element(-1)
    two = ext.from_base(ext.base.element(2))
    assert ext.field_norm(two).scalar_part() == ext.base.element(4)


def test_min_poly_satisfied(golden):
    ext = golden.ext
    theta = ext.basis_element(1)
    # theta^2 = theta + 1 for the golden ratio
    assert theta * theta == theta + ext.one


def test_scalar_part(golden):
    ext = golden.ext
    assert ext.one.scalar_part() == ext.base.one
    assert ext.basis_element(1).scalar_part() is None


def test_ideal_spec_validation():
    with pytest.raises(ValueError):
        IdealSpec(GAUSSIAN.element(1, 1), 0)
    with pytest.raises(ValueError):
        IdealSpec(GAUSSIAN.element(2))  # 2 = -i (1+i)^2 is not prime
    q = IdealSpec(GAUSSIAN.element(1, 1), 2)
    assert q.modulus == GAUSSIAN.element(0, 2)
    assert str(q) == "(1+i)^2"
    assert str(IdealSpec(GAUSSIAN.element(1, 1))) == "(1+i)"


def _golden_dict():
    import importlib.resources as resources

    text = resources.files("cycord.data").joinpath("golden_u_i.json").read_text()
    return json.loads(text)


def test_extension_from_dict_round_trip(golden):
    ext = extension_from_dict(_golden_dict())
    assert ext == golden.ext
    assert ext.name == "golden_u_i"


def test_extension_from_dict_rejects_broken_sigma():
    data = _golden_dict()
    data["sigma_matrix"] = [["1", "0"], ["0", "1"]]  # identity has order 1
    with pytest.raises(ValueError):
        extension_from_dict(data)


def test_extension_from_dict_rejects_broken_table():
    data = _golden_dict()
    data["mult_table"][1][1] = ["1", "0"]  # theta^2 = 1 breaks min_poly
    with pytest.raises(ValueError):
        extension_from_dict(data)


@pytest.mark.parametrize("corrupt", [
    ("mult_table", (1, 1), ["1", "2"]),  # theta^2 = 1 + 2 theta
    ("sigma_matrix", (0, 1), "2"),  # sigma(theta) = 2 - theta
])
def test_validate_rejects_corrupted_cell(corrupt):
    # one changed cell must reach the kernels: they read the spec's own tables
    table, (i, j), value = corrupt
    data = _golden_dict()
    data[table][i][j] = value
    with pytest.raises(ValueError, match="sigma is not multiplicative"):
        extension_from_dict(data)


def test_validate_rejects_sigma_whose_nth_power_is_not_identity():
    # Z^5 with b0 = 1, b_i = e_i (i >= 1) and e0 = 1 - e1 - ... - e4; sigma
    # permutes the idempotents as (e0 e1)(e2 e3 e4), of order 6: no power
    # below 5 is the identity, and neither is sigma^5
    n = 5

    def cell(i, j):
        r = max(i, j) if i == j or 0 in (i, j) else None
        return [RATIONAL.element(int(k == r)) for k in range(n)]

    columns = [[1, 0, 0, 0, 0], [1, -1, -1, -1, -1], [0, 0, 0, 1, 0],
               [0, 0, 0, 0, 1], [0, 0, 1, 0, 0]]
    sigma = [[RATIONAL.element(columns[j][r]) for j in range(n)] for r in range(n)]
    # embedding j is the e0 projection after sigma^j
    embeddings = [[1, 0, 0, 0, 0], [1, 1, 0, 0, 0]] * 2 + [[1, 0, 0, 0, 0]]
    ext = ExtensionSpec(RATIONAL, n, [[cell(i, j) for j in range(n)] for i in range(n)],
                        sigma, embeddings)
    with pytest.raises(ValueError, match=r"sigma\^n is not the identity"):
        ext.validate()


def test_spec_rejects_misshapen_tables(golden):
    ext = golden.ext
    with pytest.raises(ValueError, match="2 x 2"):
        ExtensionSpec(ext.base, 2, ext.mult_table, ext.sigma_matrix[:1], ext.embeddings)
    short = [[cell[:1] for cell in row] for row in ext.mult_table]
    with pytest.raises(ValueError, match="2 x 2"):
        ExtensionSpec(ext.base, 2, short, ext.sigma_matrix, ext.embeddings)


def test_spec_hash_agrees_with_eq():
    # the name is not part of equality, so it must not be part of the hash
    data = _golden_dict()
    a = extension_from_dict(data)
    b = extension_from_dict(dict(data, name="renamed"))
    assert a == b and a.name != b.name
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    u = GAUSSIAN.element(0, 1)
    assert len({AlgebraSpec(a, u), AlgebraSpec(b, u)}) == 1
    assert len({a, load_algebra("q7_cubic").ext}) == 2


# delta, delta^2 and -delta^2 in spec syntax, and delta as a complex number
_DELTAS = {"gaussian": ("i", "-1", "1", 1j),
           "eisenstein": ("w", "-1-w", "1+w", complex(-0.5, 0.75 ** 0.5))}


def _golden_on_delta_theta(base_ring):
    """The golden field over Z[i] or Z[w] on the basis (1, delta*theta).

    (delta theta)^2 = delta^2 + delta (delta theta) and sigma(delta theta) =
    delta - delta theta, so the table and sigma entries leave Z, which no
    shipped spec does.
    """
    d, dsq, neg_dsq, dc = _DELTAS[base_ring]
    phi = (1 + 5 ** 0.5) / 2
    data = _golden_dict()
    data.update(
        name=f"golden_{d}_theta", base_ring=base_ring, basis=["1", f"{d}*theta"],
        min_poly=[neg_dsq, f"-{d}", "1"],
        mult_table=[[["1", "0"], ["0", "1"]], [["0", "1"], [dsq, d]]],
        sigma_matrix=[["1", d], ["0", "-1"]],
        embeddings=[[[1.0, 0.0], [(dc * v).real, (dc * v).imag]] for v in (phi, 1 - phi)])
    return extension_from_dict(data)


@pytest.mark.parametrize("name", SHIPPED_ALGEBRAS + ("gaussian", "eisenstein"))
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_kernels_match_object_loop(shipped, objloop, name, data):
    ext = shipped[name].ext if name in shipped else _golden_on_delta_theta(name)
    x, y, w = (data.draw(ok_elements(ext)) for _ in range(3))
    assert (x * y).coords == objloop.mul(ext, x.coords, y.coords)
    assert ext.dot([(x, y), (w, x)]).coords == objloop.add(
        objloop.mul(ext, x.coords, y.coords), objloop.mul(ext, w.coords, x.coords))
    assert ext.dot([]) == ext.zero
    # many pairs; a pair next to its negation cancels in every (i, j) cell
    pairs = data.draw(st.lists(st.tuples(ok_elements(ext), ok_elements(ext)), max_size=4))
    if pairs and data.draw(st.booleans()):
        a, b = pairs[0]
        pairs.insert(data.draw(st.integers(0, len(pairs))), (-a, b))
    expected = (ext.base.zero,) * ext.n
    for a, b in pairs:
        expected = objloop.add(expected, objloop.mul(ext, a.coords, b.coords))
    assert ext.dot(pairs).coords == expected
    for power in range(-1, ext.n + 1):
        assert x.sigma(power).coords == objloop.sigma(ext, x.coords, power % ext.n)


@st.composite
def random_specs(draw):
    """An unvalidated spec of degree 1-8 over Z, Z[i] or Z[w] whose table and
    sigma entries are drawn, delta parts included: neither need be
    commutative, associative or an automorphism, only a kernel's input."""
    base = draw(st.sampled_from([RATIONAL, GAUSSIAN, EISENSTEIN]))
    n = draw(st.integers(1, 8))
    part = st.sampled_from([0, 0, 0, 1, -1, 2, -3])
    entry = st.builds(base.element, part, st.just(0) if base == RATIONAL else part)

    def rows():
        return [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]

    table = [rows() for _ in range(n)]
    return ExtensionSpec(base, n, table, rows(), [[0] * n] * n)


def _drawn_elements(ext, data, count):
    b = st.just(0) if ext.base == RATIONAL else coords
    return [ext.from_ints(*data.draw(st.lists(st.tuples(coords, b),
                                              min_size=ext.n, max_size=ext.n)))
            for _ in range(count)]


@given(ext=random_specs(), data=st.data())
@settings(max_examples=80, deadline=None)
def test_kernels_of_drawn_tables_match_object_loop(objloop, ext, data):
    count = data.draw(st.integers(0, 5))
    xs = _drawn_elements(ext, data, 2 * count + 1)
    pairs = list(zip(xs[:count], xs[count:2 * count]))
    expected = (ext.base.zero,) * ext.n
    for a, b in pairs:
        expected = objloop.add(expected, objloop.mul(ext, a.coords, b.coords))
    assert ext.dot(iter(pairs)).coords == expected
    x = xs[-1]
    orbit = ext.sigma_orbit(x, ext.n + 1)
    assert [y.coords for y in orbit] == [
        objloop.sigma(ext, x.coords, k) for k in range(ext.n + 1)]
    assert all(y.ring is ext for y in orbit)


def test_spec_text_never_reaches_the_kernels(golden):
    # name, notes and basis names with quotes, backslashes and newlines
    hostile = ['"""\\n', "x'); raise SystemExit('", "\\\\\n\"\"\"\n#"]
    data = dict(_golden_dict(), name=hostile[0], notes="".join(hostile), basis=hostile[1:])
    ext = extension_from_dict(data)
    theta = ext.basis_element(1)
    assert theta * theta == theta + ext.one
    assert theta.sigma() == ext.one - theta
    assert ext.name == hostile[0] and ext.basis_names == tuple(hostile[1:])
    # the kernels are cached on the tables: the golden spec's are reused
    assert (ext._dot, ext._sigma_step) == (golden.ext._dot, golden.ext._sigma_step)
    # and so are the code kernels of its residue rings, built apart from the ring cache
    three = ext.base.element(3)
    S, G = ResidueRing(ext, three), ResidueRing(golden.ext, three)
    t = S.basis(1)
    assert t * t == t + S.one and t.sigma() == S.one - t
    assert S.dot([(t, t), (-t, S.one)]) == S.one
    assert (S._dot, S._sigma_step) == (G._dot, G._sigma_step) != (ext._dot, ext._sigma_step)


@pytest.mark.parametrize("name", SHIPPED_ALGEBRAS)
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_base_scalar_matches_ok_product(shipped, objloop, name, data):
    ext = shipped[name].ext
    x, = _drawn_elements(ext, data, 1)
    c = data.draw(ok_elements(ext)).coords[0]
    assert (x * c).coords == objloop.mul(ext, x.coords, ext.from_base(c).coords)
    assert c * x == x * c
    foreign = EISENSTEIN if ext.base != EISENSTEIN else GAUSSIAN
    with pytest.raises(IncompatibleRings):
        x * foreign.element(1, 1)


@pytest.mark.parametrize("name", SHIPPED_ALGEBRAS)
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_ok_elements_store_flat_ints(shipped, name, data):
    algebra = shipped[name]
    ext = algebra.ext
    x = data.draw(ok_elements(ext))
    y = data.draw(st.one_of(st.just(ext.element(x.coords)), ok_elements(ext)))
    c = data.draw(ok_elements(ext)).coords[0]
    rational = ext.base == RATIONAL
    # every result keeps the layout: 2m plain ints, (a, b) per basis element
    flat = data.draw(st.lists(coords, min_size=2 * algebra.n * ext.n,
                              max_size=2 * algebra.n * ext.n))
    if rational:
        flat[1::2] = [0] * (len(flat) // 2)
    drawn = algebra.from_flat_ints(np.array(flat, dtype=np.int64))
    for z in (x, x + y, -x, x * y, x * 3, x * c, x.sigma(), ext.dot([]), ext.one,
              ext.from_base(c), ext.basis_element(ext.n - 1), *drawn.zcoords):
        assert type(z.ints) is tuple and len(z.ints) == 2 * ext.n
        assert all(type(v) is int for v in z.ints)
        assert z.ints == tuple(v for k in z.coords for v in (k.a, k.b))
        assert not (rational and any(z.ints[1::2]))
        assert ext.element(z.coords) == z
    # equality and hashing agree with the BaseElement tuples they replace
    assert (x == y) == (x.coords == y.coords)
    assert len({x, y}) == len({x.coords, y.coords})
    assert x.is_zero == all(k.is_zero for k in x.coords)


def test_embed_beyond_float_range_reports_unsupported_size(golden, gauss):
    # an a part and a delta part past the float range; Z has no delta part
    for x in (golden.ext.from_ints(1, (0, 10 ** 400)), gauss.ext.from_ints(10 ** 400, 0)):
        with pytest.raises(UnsupportedSize, match="beyond the float range"):
            x.ext.embed(x)
        with pytest.raises(UnsupportedSize):
            x.embed(1)


def test_product_across_extensions_raises(golden, q7):
    x = golden.ext.basis_element(1)
    y = q7.ext.basis_element(1)
    with pytest.raises(IncompatibleRings):
        x * y
    with pytest.raises(IncompatibleRings):
        y * x


def test_equal_but_distinct_specs_multiply(golden):
    ext = load_algebra("golden_u_i").ext
    assert ext is not golden.ext and ext == golden.ext
    theta, other = ext.basis_element(1), golden.ext.basis_element(1)
    assert theta * other == other * theta == theta + ext.one
