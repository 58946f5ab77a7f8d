import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycord import base_rings
from cycord.base_rings import (
    EISENSTEIN,
    GAUSSIAN,
    RATIONAL,
    ResidueTable,
    euclidean_divmod,
    divides,
    format_element,
    is_prime_element,
    parse_element,
    radix_decode,
    radix_encode,
    residue_table,
    ring_by_name,
    xgcd,
)
from cycord.errors import DivisionByZero, IncompatibleRings, UnsupportedSize

RINGS = [RATIONAL, GAUSSIAN, EISENSTEIN]

coords = st.integers(min_value=-30, max_value=30)


def elements(ring):
    if ring is RATIONAL:
        return st.builds(lambda a: ring.element(a), coords)
    return st.builds(lambda a, b: ring.element(a, b), coords, coords)


# the per-kind formulas that the delta rule replaced: (conjugate, norm) of a + b*delta
PER_KIND = {
    RATIONAL: (lambda a, b: (a, b), lambda a, b: a * a),
    GAUSSIAN: (lambda a, b: (a, -b), lambda a, b: a * a + b * b),
    EISENSTEIN: (lambda a, b: (a - b, -b), lambda a, b: a * a - a * b + b * b),
}


@pytest.mark.parametrize("ring", RINGS)
def test_conjugate_and_norm_follow_the_delta_rule(ring):
    for a in range(-4, 5):
        for b in range(-4, 5) if ring is not RATIONAL else (0,):
            x = ring.element(a, b)
            conjugate, norm = PER_KIND[ring]
            assert x.conjugate().key == conjugate(a, b)
            assert x.norm() == norm(a, b)
            assert x.conjugate().complex() == pytest.approx(x.complex().conjugate())
            assert x.norm() == pytest.approx(abs(x.complex()) ** 2)
            assert x * x.conjugate() == ring.element(x.norm())


@pytest.mark.parametrize("ring", RINGS)
def test_ring_constants(ring):
    assert ring.zero + ring.one == ring.one
    assert ring.one * ring.one == ring.one
    assert all(u * u.conjugate() == ring.one or u.norm() == 1 for u in ring.units())


def test_unit_counts():
    assert len(RATIONAL.units()) == 2
    assert len(GAUSSIAN.units()) == 4
    assert len(EISENSTEIN.units()) == 6


def test_ring_by_name():
    assert ring_by_name("Z") is RATIONAL
    assert ring_by_name("Z[i]") is GAUSSIAN
    assert ring_by_name("Z[w]") is EISENSTEIN
    with pytest.raises(ValueError):
        ring_by_name("Z[sqrt2]")


@given(elements(GAUSSIAN), elements(GAUSSIAN), elements(GAUSSIAN))
def test_gaussian_ring_laws(x, y, z):
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@pytest.mark.parametrize("ring", RINGS)
@given(data=st.data())
def test_product_matches_complex_embedding(ring, data):
    # pins delta^2 = t0 + t1*delta for each ring
    x, y = data.draw(elements(ring)), data.draw(elements(ring))
    assert abs((x * y).complex() - x.complex() * y.complex()) <= 1e-9


@given(elements(EISENSTEIN), elements(EISENSTEIN))
def test_eisenstein_norm_multiplicative(x, y):
    assert (x * y).norm() == x.norm() * y.norm()


@pytest.mark.parametrize("ring", RINGS)
@given(data=st.data())
def test_divmod_is_euclidean(ring, data):
    x = data.draw(elements(ring))
    m = data.draw(elements(ring).filter(lambda e: not e.is_zero))
    q, r = euclidean_divmod(x, m)
    assert q * m + r == x
    assert r.norm() < m.norm()


@pytest.mark.parametrize("ring", RINGS)
@given(data=st.data())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_divmod_matches_object_reference(objloop, ring, data):
    m = data.draw(elements(ring).filter(lambda e: not e.is_zero))
    x = data.draw(elements(ring))
    if data.draw(st.booleans()):
        # m' = 2m and x' = x m' + m h, so x'/m' = x + h/2: a tie in each coordinate of h
        h = data.draw(st.sampled_from([(1, 0)] if ring is RATIONAL else [(1, 0), (0, 1), (1, 1)]))
        m, x = m * 2, x * m * 2 + m * ring.element(*h)
    assert euclidean_divmod(x, m) == objloop.divmod(x, m)


def test_divmod_zero_modulus():
    with pytest.raises(DivisionByZero):
        euclidean_divmod(GAUSSIAN.one, GAUSSIAN.zero)


def test_divmod_tie_break_is_canonical():
    # several remainders of 1 mod (1+i) share norm 1; the tie break keeps
    # the lexicographically least (a, b) remainder, which is -1
    m = GAUSSIAN.element(1, 1)
    q1, r1 = euclidean_divmod(GAUSSIAN.one, m)
    q2, r2 = euclidean_divmod(GAUSSIAN.one, m)
    assert (q1, r1) == (q2, r2)
    assert r1 == GAUSSIAN.element(-1)
    assert residue_table(GAUSSIAN, m).reduce(GAUSSIAN.one) == GAUSSIAN.element(-1)


@pytest.mark.parametrize("ring", RINGS)
@given(data=st.data())
def test_xgcd_bezout(ring, data):
    x = data.draw(elements(ring))
    y = data.draw(elements(ring))
    if x.is_zero and y.is_zero:
        return
    g, a, b = xgcd(x, y)
    assert a * x + b * y == g
    assert not g.is_zero
    assert divides(g, x) and divides(g, y)


@pytest.mark.parametrize("ring,prime,composite", [
    (RATIONAL, "2", "4"),
    (RATIONAL, "3", "6"),
    (RATIONAL, "5", "1"),
    (GAUSSIAN, "1+i", "2"),
    (GAUSSIAN, "2+i", "5"),
    (GAUSSIAN, "3", "3+i"),
    (EISENSTEIN, "2", "4"),
    (EISENSTEIN, "1-w", "3"),
])
def test_is_prime_element(ring, prime, composite):
    assert is_prime_element(ring.parse(prime))
    assert not is_prime_element(ring.parse(composite))


@pytest.mark.parametrize("ring", RINGS)
@given(data=st.data())
def test_parse_format_round_trip(ring, data):
    x = data.draw(elements(ring))
    assert parse_element(ring, format_element(x)) == x


def test_parse_examples():
    assert GAUSSIAN.parse("1+i") == GAUSSIAN.element(1, 1)
    assert GAUSSIAN.parse("-2i") == GAUSSIAN.element(0, -2)
    assert EISENSTEIN.parse("1-w") == EISENSTEIN.element(1, -1)
    assert RATIONAL.parse("-7") == RATIONAL.element(-7)


@pytest.mark.parametrize("modulus,size", [
    ("1+i", 2), ("2", 4), ("2+i", 5), ("3", 9),
])
def test_quotient_sizes(modulus, size):
    t = residue_table(GAUSSIAN, GAUSSIAN.parse(modulus))
    assert len(t.reps) == size


def test_residue_table_matches_reduce():
    m = GAUSSIAN.element(1, 1)
    t = residue_table(GAUSSIAN, m)
    for x in t.reps:
        for y in t.reps:
            a, b = t.encode(x), t.encode(y)
            assert t.combine((a,), [(t.one, (b,))]) == (t.encode(t.reduce(x + y)),)
            assert t.combine((t.zero,), [(a, (b,))]) == (t.encode(t.reduce(x * y)),)
    # zero and one are the canonical representatives, not the raw inputs
    assert t.decode(t.zero) == t.reduce(GAUSSIAN.zero)
    assert t.decode(t.one) == t.reduce(GAUSSIAN.one)


# the residue tables of golden_u_i mod (1+i), (1+i)^2 and of q7_cubic mod 2
CERTIFIED_TABLES = [(GAUSSIAN, "1+i"), (GAUSSIAN, "2i"), (EISENSTEIN, "2")]


@pytest.mark.parametrize("ring,modulus", CERTIFIED_TABLES)
def test_residue_table_encodes_canonical_residues_by_lookup(monkeypatch, ring, modulus):
    m = ring.parse(modulus)
    t = residue_table(ring, m)
    # once the table is built, no residue needs a division at all
    monkeypatch.setattr(base_rings, "euclidean_divmod", None)
    shifted = [t.encode(rep + m * ring.element(2, -1)) for rep in t.reps]
    assert shifted == list(range(t.size))
    assert [t.encode(rep) for rep in t.reps] == list(range(t.size))
    assert [t.reduce(rep) for rep in t.reps] == list(t.reps)


@pytest.mark.parametrize("ring,modulus", CERTIFIED_TABLES)
def test_residue_table_encode_rejects_foreign_ring(ring, modulus):
    t = residue_table(ring, ring.parse(modulus))
    foreign = EISENSTEIN if ring is GAUSSIAN else GAUSSIAN
    for rep in t.reps:  # same (a, b) as a table key, but another ring
        with pytest.raises(IncompatibleRings):
            t.encode(foreign.element(rep.a, rep.b))


def test_residue_table_refuses_bad_moduli_at_construction():
    with pytest.raises(DivisionByZero):
        ResidueTable(GAUSSIAN, GAUSSIAN.zero)
    with pytest.raises(IncompatibleRings):
        ResidueTable(GAUSSIAN, EISENSTEIN.element(2))
    with pytest.raises(UnsupportedSize, match="4225 exceeds the table limit 4096"):
        ResidueTable(GAUSSIAN, GAUSSIAN.element(65))  # 65^2 residues


def test_residue_table_is_shared_per_modulus():
    t = residue_table(GAUSSIAN, GAUSSIAN.element(3))
    assert residue_table(GAUSSIAN, GAUSSIAN.parse("3")) is t
    # a table built apart compares equal by (base, modulus)
    fresh = ResidueTable(GAUSSIAN, GAUSSIAN.element(3))
    assert fresh == t and hash(fresh) == hash(t)
    assert residue_table(EISENSTEIN, EISENSTEIN.element(3)) != t
    assert residue_table(GAUSSIAN, GAUSSIAN.element(2, 1)) != t


@given(st.lists(st.integers(min_value=0, max_value=6), max_size=8),
       st.integers(min_value=7, max_value=9))
def test_radix_round_trip(digits, base):
    code = radix_encode(digits, base)
    assert radix_decode(code, base, len(digits)) == digits
    assert code == sum(d * base ** i for i, d in enumerate(digits))

