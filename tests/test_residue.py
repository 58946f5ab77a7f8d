"""Tests for residue rings, order quotients, CRT, splitting, finite fields."""

import gc
import itertools
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cycord import residue
from cycord.base_rings import RATIONAL, ResidueTable, is_prime_element
from cycord.errors import (
    DivisionByZero,
    RamifiedPrime,
    RepeatedPrime,
    TooLargeToEnumerate,
    UnsupportedCase,
)
from cycord.extension import IdealSpec
from cycord.order import SHIPPED_ALGEBRAS, load_algebra
from cycord.residue import (
    CompositeIdeal,
    FiniteField,
    FpView,
    brute_force_ideals,
    crt_decompose,
    crt_recombine,
    exact_float,
    factor_prime,
    fp_table_digits,
    ideal_elements,
    inverse_mod_p,
    invert_unipotent,
    kernel_vector_mod_p,
    matmul_mod_p,
    quotient_ideal,
    quotient_of,
    rank_mod_p,
    residue_ring,
    rref_mod_p,
    skew_poly_ideal_chain,
    trace_form_discriminant,
)
from cycord.structure import identify_quotient

coords = st.integers(min_value=-6, max_value=6)


def order_elements(algebra):
    pair = st.tuples(coords, coords)
    ext = algebra.ext

    def build(rows):
        return algebra.element(ext.from_ints(*row) for row in rows)

    row = st.tuples(*[pair] * ext.n)
    return st.tuples(*[row] * algebra.n).map(build)


@pytest.fixture(scope="module")
def q_gold(golden):
    return quotient_of(golden, IdealSpec(golden.ext.base.element(1, 1)))


@pytest.fixture(scope="module")
def q_nilp(golden_1pi):
    return quotient_of(golden_1pi, IdealSpec(golden_1pi.ext.base.element(1, 1)))


# -- residue ring S = O_K/mO_K ------------------------------------------------


def test_residue_ring_size(golden):
    base = golden.ext.base
    assert residue_ring(golden.ext, base.element(1, 1)).size == 4
    assert residue_ring(golden.ext, base.element(3)).size == 81
    assert residue_ring(golden.ext, base.element(0, 2)).size == 16


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_residue_reduction_is_ring_hom(golden, data):
    ext = golden.ext
    S = residue_ring(ext, ext.base.element(1, 1))
    pair = st.tuples(coords, coords)
    elems = st.tuples(*[pair] * ext.n).map(lambda rows: ext.from_ints(*rows))
    x = data.draw(elems)
    y = data.draw(elems)
    assert S.from_ok(x + y) == S.from_ok(x) + S.from_ok(y)
    assert S.from_ok(x * y) == S.from_ok(x) * S.from_ok(y)
    assert S.from_ok(x.sigma()) == S.from_ok(x).sigma()
    assert S.from_ok(ext.one) == S.one


def test_residue_lift_is_section(golden):
    S = residue_ring(golden.ext, golden.ext.base.element(1, 1))
    for s in S.elements():
        assert S.from_ok(s.lift()) == s


def test_residue_encode_decode(golden):
    S = residue_ring(golden.ext, golden.ext.base.element(3))
    assert sorted(e.encode() for e in S.elements()) == list(range(S.size))


# -- quotient ring Lambda/I ----------------------------------------------------


def test_quotient_cardinality(q_gold, golden, golden_1pi):
    assert q_gold.cardinality == 16
    assert q_gold.char == 2
    base = golden.ext.base
    Q2 = quotient_of(golden, IdealSpec(base.element(1, 1), 2))
    assert Q2.cardinality == 256
    Q3 = quotient_of(golden, IdealSpec(base.element(3)))
    assert Q3.cardinality == 81 ** 2
    assert Q3.char == 3


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_quotient_reduction_is_ring_hom(golden, q_gold, data):
    x = data.draw(order_elements(golden))
    y = data.draw(order_elements(golden))
    r = q_gold.reduce
    assert r(x + y) == r(x) + r(y)
    assert r(x * y) == r(x) * r(y)
    assert r(golden.one) == q_gold.one
    assert r(golden.z) == q_gold.z


@pytest.fixture(scope="module")
def product_quotients(golden, gauss, q7):
    return {name: quotient_of(algebra, IdealSpec(algebra.ext.base.element(*alpha)))
            for name, algebra, alpha in (("golden_1pi", golden, (1, 1)),
                                         ("gauss_5", gauss, (5, 0)),
                                         ("q7_2", q7, (2, 0)))}


def residue_elements(S):
    """Elements of S, the zero element (whose codes need not be 0) among them."""
    codes = st.lists(st.integers(0, S.table.size - 1), min_size=S.n, max_size=S.n)
    return st.one_of(st.just(S.zero), codes.map(S.element))


@pytest.mark.parametrize("name", ["golden_1pi", "gauss_5", "q7_2"])
@given(data=st.data())
@settings(max_examples=30, deadline=None, derandomize=True)
def test_quotient_product_matches_term_by_term(product_quotients, objloop, name, data):
    Q = product_quotients[name]
    coords = st.lists(residue_elements(Q.S), min_size=Q.n, max_size=Q.n)
    x, y = data.draw(coords.map(Q.element)), data.draw(coords.map(Q.element))
    assert x * y == objloop.twisted_mul(Q, x, y)


@pytest.mark.parametrize("name", ["golden_1pi", "gauss_5", "q7_2"])
@given(data=st.data())
@settings(max_examples=30, deadline=None, derandomize=True)
def test_residue_dot_is_sum_of_products(product_quotients, name, data):
    S = product_quotients[name].S
    pairs = data.draw(st.lists(st.tuples(residue_elements(S), residue_elements(S)),
                               max_size=4))
    expect = S.zero
    for x, y in pairs:
        expect = expect + S.mul(x, y)
    assert S.dot(pairs) == expect


def _prime_powers(base, bound=25):
    """q^s for one prime q per associate class, each power of norm at most bound."""
    r = range(-bound, bound + 1)
    keys = {min((u * x).key for u in base.units())
            for x in (base.element(a, b) for a in r for b in ((0,) if base == RATIONAL else r))
            if not x.is_zero and x.ideal_norm() <= bound and is_prime_element(x)}
    primes = [base.element(a, b) for a, b in sorted(keys)]
    return [q ** s for q in primes for s in range(1, bound)
            if q.ideal_norm() ** s <= bound]


@pytest.mark.parametrize("name", SHIPPED_ALGEBRAS)
def test_residue_kernels_match_code_loop(shipped, objloop, name):
    """The compiled code kernels against the code loops they replaced, mod
    every prime and prime power of norm at most 25: dot over 0-5 drawn pairs,
    with a zero factor and a pair cancelling its negation among them, and
    sigma at every power 0..n."""
    ext = shipped[name].ext
    for m in _prime_powers(ext.base):
        S = residue_ring(ext, m)
        rng = random.Random(f"{name} {m}")

        def draw():
            return S.element([rng.randrange(S.table.size) for _ in range(S.n)])

        for count in range(6):
            for _ in range(3):
                pairs = [(draw(), draw()) for _ in range(count)]
                if count > 1:
                    a, b = pairs[0]
                    pairs[rng.randrange(1, count)] = rng.choice([(-a, b), (a, -b)])
                if count:
                    a, b = pairs[-1]
                    pairs[-1] = rng.choice([(S.zero, b), (a, S.zero)])
                rng.shuffle(pairs)
                assert S.dot(iter(pairs)).codes == objloop.residue_dot(S, pairs), (m, pairs)
        for _ in range(4):
            x = draw()
            for power in range(S.n + 1):
                assert S.sigma(x, power).codes == objloop.residue_sigma(S, x.codes, power), m


@pytest.mark.parametrize("name", SHIPPED_ALGEBRAS)
def test_from_base_is_the_scaled_one(shipped, name):
    algebra = shipped[name]
    base = algebra.ext.base
    rng = random.Random(name)
    scalars = [algebra.u, base.zero, base.one] + [
        base.element(rng.randint(-40, 40), 0 if base == RATIONAL else rng.randint(-40, 40))
        for _ in range(6)]
    for m in _prime_powers(base):
        S = residue_ring(algebra.ext, m)
        for c in scalars:
            assert S.from_base(c) == S.one * c, (m, c)


def test_quotient_canonical_section(q_gold):
    for q in q_gold.elements():
        lifted = q_gold.lift(q)
        assert q_gold.reduce(lifted) == q
        # canonical coordinates round-trip through the residue table
        for c, s in zip(lifted.zcoords, q.zcoords):
            assert s.lift() == c


def test_quotient_z_relations(q_gold, q_nilp):
    for Q in (q_gold, q_nilp):
        # z^n equals the image of u
        assert Q.z ** Q.n == Q.from_residue(Q.ubar)
        # z s = sigma(s) z for every residue symbol
        for s in Q.S.elements():
            left = Q.z * Q.from_residue(s)
            right = Q.from_residue(Q.S.sigma(s)) * Q.z
            assert left == right
    assert q_nilp.z ** q_nilp.n == q_nilp.zero  # u = 1+i reduces to 0


def test_quotient_encode_decode(q_gold):
    assert sorted(e.encode() for e in q_gold.elements()) == list(range(q_gold.cardinality))


def test_quotient_enumeration_limit(golden):
    Q3 = quotient_of(golden, IdealSpec(golden.ext.base.element(3)))
    with pytest.raises(TooLargeToEnumerate):
        list(Q3.elements(limit=100))


def test_random_element_reproducible(q_gold):
    r1, r2 = random.Random(5), random.Random(5)
    a = [q_gold.random_element(r1).encode() for _ in range(10)]
    b = [q_gold.random_element(r2).encode() for _ in range(10)]
    assert a == b
    assert len(set(a)) > 1


# -- unipotent inversion -------------------------------------------------------


def test_invert_unipotent(q_nilp):
    for s in q_nilp.S.elements():
        x = q_nilp.one + q_nilp.from_residue(s) * q_nilp.z
        inv = invert_unipotent(q_nilp, x)
        assert x * inv == q_nilp.one
        assert inv * x == q_nilp.one


def test_invert_unipotent_rejects_non_units(q_nilp):
    with pytest.raises(DivisionByZero):
        invert_unipotent(q_nilp, q_nilp.z)
    with pytest.raises(DivisionByZero):
        invert_unipotent(q_nilp, q_nilp.zero)


# -- CRT -----------------------------------------------------------------------


def composite_quotient(algebra):
    base = algebra.ext.base
    ideal = CompositeIdeal((IdealSpec(base.element(1, 1)), IdealSpec(base.element(3))))
    return quotient_of(algebra, ideal)


def test_crt_round_trip(golden):
    Q = composite_quotient(golden)
    rng = random.Random(11)
    for _ in range(200):
        x = Q.random_element(rng)
        parts = crt_decompose(x)
        assert len(parts) == 2
        assert crt_recombine(parts, Q) == x


def test_crt_components_are_homs(golden):
    Q = composite_quotient(golden)
    rng = random.Random(12)
    for _ in range(50):
        x = Q.random_element(rng)
        y = Q.random_element(rng)
        for px, py, pxy in zip(crt_decompose(x), crt_decompose(y), crt_decompose(x * y)):
            assert px * py == pxy


def test_composite_ideal_modulus(golden):
    base = golden.ext.base
    ideal = CompositeIdeal((IdealSpec(base.element(1, 1), 2), IdealSpec(base.element(3))))
    assert ideal.modulus == base.element(0, 2) * base.element(3)
    assert str(ideal) == "(1+i)^2 * (3)"


def test_composite_ideal_rejects_repeats(golden):
    base = golden.ext.base
    with pytest.raises(RepeatedPrime):
        CompositeIdeal((IdealSpec(base.element(1, 1)), IdealSpec(base.element(1, 1), 2)))
    # associates count as the same prime
    with pytest.raises(RepeatedPrime):
        CompositeIdeal((IdealSpec(base.element(1, 1)), IdealSpec(base.element(1, -1))))
    with pytest.raises(ValueError):
        CompositeIdeal(())


# -- prime splitting -----------------------------------------------------------


def test_trace_form_discriminant(golden, gauss):
    assert trace_form_discriminant(golden.ext) == golden.ext.base.element(5)
    assert trace_form_discriminant(gauss.ext) == gauss.ext.base.element(-4)


@pytest.mark.parametrize(
    "algebra_name,alpha,g,f",
    [
        ("golden_u_i", (1, 1), 1, 2),
        ("golden_u_i", (3, 0), 2, 1),
        ("gauss_over_Q", (5, 0), 2, 1),
        ("gauss_over_Q", (3, 0), 1, 2),
    ],
)
def test_factor_prime(algebra_name, alpha, g, f):
    from cycord.order import SHIPPED_ALGEBRAS, load_algebra

    ext = load_algebra(algebra_name).ext
    sp = factor_prime(ext, ext.base.element(*alpha))
    assert (sp.g, sp.f) == (g, f)
    assert sp.g * sp.f == ext.n
    S = residue_ring(ext, ext.base.element(*alpha))
    total = S.zero
    for v in sp.idempotents:
        assert S.mul(v, v) == v
        total = total + v
    assert total == S.one
    # sigma cycles the primitive idempotents
    assert sp.idempotents[0].sigma((1 if g == 1 else 1)) == sp.idempotents[1 % g]


def test_factor_prime_ramified(golden, gauss):
    with pytest.raises(RamifiedPrime):
        factor_prime(golden.ext, golden.ext.base.element(2, 1))
    with pytest.raises(RamifiedPrime):
        factor_prime(gauss.ext, gauss.ext.base.element(2))


# -- ideals of small quotients ---------------------------------------------------


def test_skew_poly_ideal_chain(q_nilp):
    chain = skew_poly_ideal_chain(q_nilp)
    assert [I.label for I in chain] == ["<z>", "<z^2>"]
    assert len(chain[0].elements) == 4
    assert len(chain[1].elements) == 1  # z^2 = u = 0 here
    # chain is decreasing
    assert chain[1].elements <= chain[0].elements


def _z_power_ideals_by_scan(Q):
    """Reference for the <z^i> sets, i = 1..n: one scan of Q, <z^i> holding
    the elements whose first i z-coordinates vanish."""
    elems = [(g.encode(), g.zcoords) for g in Q.elements()]
    return [frozenset(code for code, zc in elems if all(c.is_zero for c in zc[:i]))
            for i in range(1, Q.n + 1)]


@pytest.mark.parametrize("name, u", [
    ("golden_u_1pi", None), ("gauss_over_Q", "3"), ("gauss_over_Q", "7"),
    ("q15_quartic", "1+i"),
])
def test_skew_poly_ideal_chain_matches_element_scan(name, u):
    algebra = load_algebra(name, u=u)
    Q = quotient_of(algebra, IdealSpec(algebra.u))
    chain = skew_poly_ideal_chain(Q)
    assert [I.elements for I in chain] == _z_power_ideals_by_scan(Q)


def test_ideal_elements_matches_chain(q_nilp):
    chain = skew_poly_ideal_chain(q_nilp)
    direct = ideal_elements(q_nilp, [q_nilp.z])
    assert direct == chain[0].elements


def test_brute_force_ideals(q_nilp):
    found = brute_force_ideals(q_nilp)
    sizes = sorted(len(s) for s in found)
    assert sizes == [1, 4, 16]
    chain = skew_poly_ideal_chain(q_nilp)
    assert chain[0].elements in found


def test_brute_force_ideals_simple_case(q_gold):
    # u = i stays a unit mod (1+i)... it does not: i is a unit, so the
    # quotient is simple and the only ideals are 0 and the whole ring
    found = brute_force_ideals(q_gold)
    assert sorted(len(s) for s in found) == [1, 16]


def test_ideal_elements_honours_limit(q_nilp):
    assert len(ideal_elements(q_nilp, [q_nilp.z], limit=4)) == 4
    with pytest.raises(TooLargeToEnumerate):
        ideal_elements(q_nilp, [q_nilp.z], limit=3)
    with pytest.raises(TooLargeToEnumerate):
        ideal_elements(q_nilp, [q_nilp.one], limit=15)


@pytest.fixture(scope="module")
def q_big():
    # gauss_over_Q with u = 17, mod 17: 17^4 elements, above ENUM_LIMIT
    gauss = load_algebra("gauss_over_Q", u="17")
    Q = quotient_of(gauss, IdealSpec(gauss.u))
    assert Q.cardinality > residue.ENUM_LIMIT
    return Q


def test_quotient_ideal_without_generators_is_zero(q_nilp, q_big):
    for Q in (q_nilp, q_big):
        entry = quotient_ideal(Q, "0", [])
        assert (entry.label, entry.generators) == ("0", ())
        assert entry.elements == {Q.zero.encode()}


def test_quotient_ideal_elements(q_nilp, q_big):
    assert quotient_ideal(q_big, "ring", [q_big.one]).elements is None
    assert quotient_ideal(q_big, "0", [q_big.zero]).elements is None
    for gens in ([q_nilp.one], [q_nilp.z], [q_nilp.z ** 2], [q_nilp.z, q_nilp.one]):
        entry = quotient_ideal(q_nilp, "I", gens)
        assert entry.generators == tuple(gens)
        assert entry.elements == ideal_elements(q_nilp, gens)
    # characteristic 9 has no F_p structure, so the set cannot be enumerated
    gauss = load_algebra("gauss_over_Q")
    Q9 = quotient_of(gauss, IdealSpec(gauss.ext.base.element(3), 2))
    assert Q9.cardinality <= residue.ENUM_LIMIT
    assert quotient_ideal(Q9, "ring", [Q9.one]).elements is None


def test_quotient_ideal_sizes(q_nilp, q_big):
    for gens in ([], [q_nilp.one], [q_nilp.z], [q_nilp.z ** 2], [q_nilp.zero]):
        entry = quotient_ideal(q_nilp, "I", gens)
        assert entry.size == len(entry.elements)
    # above ENUM_LIMIT the size comes from the rank alone
    assert quotient_ideal(q_big, "ring", [q_big.one]).size == q_big.cardinality == 17 ** 4
    assert quotient_ideal(q_big, "0", [q_big.zero]).size == 1
    assert quotient_ideal(q_big, "0", []).size == 1
    gauss = load_algebra("gauss_over_Q")
    Q9 = quotient_of(gauss, IdealSpec(gauss.ext.base.element(3), 2))
    ring = quotient_ideal(Q9, "ring", [Q9.one])
    assert ring.size is None and ring.elements is None
    zero = quotient_ideal(Q9, "0", [])
    assert zero.size == len(zero.elements) == 1


# -- the incremental reduction and closure: reference for rref_mod_p -----------
# One vector at a time, as the ideal oracles worked before the stacked kernel.


def reference_rref_insert(basis, vec, p):
    """Reduce vec against the (pivot column, row) basis; insert if independent."""
    v = vec % p
    for pivot_col, row in basis:
        c = v[pivot_col]
        if c:
            v = (v - c * row) % p
    nz = np.nonzero(v)[0]
    if len(nz) == 0:
        return False
    pivot = int(nz[0])
    v = (v * pow(int(v[pivot]), p - 2, p)) % p
    for i, (pc, row) in enumerate(basis):
        c = row[pivot]
        if c:
            basis[i] = (pc, (row - c * v) % p)
    basis.append((pivot, v))
    basis.sort(key=lambda item: item[0])
    return True


def reference_row_basis(rows, p):
    basis = []
    for row in rows:
        reference_rref_insert(basis, row, p)
    return basis


def reference_side_maps(view):
    """Left- and right-multiplication matrices by ring generators of a quotient."""
    Q, T = view.ring, view.tensor()
    gens = [Q.from_residue(Q.S.basis(i)) for i in range(Q.S.n)]
    if Q.n > 1:
        gens.append(Q.z)
    base = Q.algebra.ext.base
    if base.kind.name != "RATIONAL":
        gens.append(Q.one * base.element(0, 1))
    maps = []
    for g in gens:
        gd = np.array(view.digits(g), dtype=np.int64)
        maps.append(np.einsum("a,abd->db", gd, T) % view.p)
        maps.append(np.einsum("b,abd->da", gd, T) % view.p)
    return maps


def reference_closure(view, generators, maps):
    """rref basis of the smallest subspace holding the generators and stable under maps."""
    basis = []
    queue = [np.array(view.digits(g), dtype=np.int64) % view.p for g in generators]
    while queue:
        v = queue.pop()
        if reference_rref_insert(basis, v, view.p):
            queue.extend((m @ v) % view.p for m in maps)
    return basis


def reference_rows(basis, dim):
    return np.array([row for _, row in basis], dtype=np.int64).reshape(len(basis), dim)


def reference_brute_force_ideals(Q):
    """Per-element closures and pairwise joins, in the order of the original oracle."""
    view = FpView(Q)
    maps = reference_side_maps(view)
    p = view.p

    def signature(basis):
        return tuple(sorted(tuple(int(x) for x in row) for _, row in basis))

    seen = {}
    for g in Q.elements():
        basis = reference_closure(view, [g], maps)
        seen.setdefault(signature(basis), basis)
    changed = True
    while changed:
        changed = False
        items = list(seen.values())
        for i in range(len(items)):
            for j in range(i + 1, len(items)):
                joined = reference_row_basis([row for _, row in items[i] + items[j]], p)
                if signature(joined) not in seen:
                    seen[signature(joined)] = joined
                    changed = True
    out = [view.span_encodings(reference_rows(b, view.dim)) for b in seen.values()]
    out.sort(key=lambda s: (len(s), sorted(s)))
    return out


@st.composite
def matrix_stacks(draw):
    """(p, stack): matrices of one shape, each a product of random factors
    through an inner dimension up to min(rows, cols), so ranks mix."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    batch = draw(st.integers(1, 5))
    rows, cols = draw(st.integers(0, 8)), draw(st.integers(1, 8))

    def entries(r, c):
        flat = draw(st.lists(st.integers(0, p - 1), min_size=r * c, max_size=r * c))
        return np.array(flat, dtype=np.int64).reshape(r, c)

    mats = []
    for _ in range(batch):
        inner = draw(st.integers(0, min(rows, cols)))
        mats.append(entries(rows, inner) @ entries(inner, cols) % p)
    return p, np.stack(mats)


MIXED_TALL = np.array([np.zeros((6, 3)),  # all zero
                       [[1, 1, 0]] * 3 + [[0, 0, 0]] * 3,  # rank 1
                       [[0, 1, 1], [1, 2, 0], [1, 0, 2], [2, 2, 2], [0, 0, 0], [1, 1, 1]],
                       [[1, 0, 0], [0, 1, 0], [0, 0, 1]] * 2], dtype=np.int64)


@settings(max_examples=300, deadline=None)
@example((3, MIXED_TALL))
@example((5, np.array([[[0, 2, 4, 1, 3], [0, 4, 3, 2, 1]], [[1, 2, 3, 4, 0], [0, 0, 0, 0, 4]]])))
@example((7, np.zeros((2, 0, 4), dtype=np.int64)))
@given(matrix_stacks())
def test_rref_mod_p_matches_incremental_reference(case):
    p, stack = case
    R, rank = rref_mod_p(stack, p)
    assert R.shape == stack.shape and rank.shape == (len(stack),)
    for A, Ri, r in zip(stack, R, rank):
        basis = reference_row_basis(A, p)
        assert r == len(basis)
        assert np.array_equal(Ri[:r], reference_rows(basis, A.shape[1]))
        assert not Ri[r:].any()


def test_rref_mod_p_at_a_large_prime():
    # p**2 > 2**31, so the stack is reduced in int64; all-(p - 1) rows make
    # the clearing steps reach -(p - 1)**2 before their remainder
    p = (1 << 20) + 7
    stack = np.random.default_rng(p).integers(0, p, size=(3, 5, 6), dtype=np.int64)
    stack[0, -1] = (2 * stack[0, 0] + 3 * stack[0, 1]) % p
    stack[1] = p - 1
    stack[2, :, 0] = p - 1
    R, rank = rref_mod_p(stack, p)
    assert R.dtype == np.int64 and rank.tolist() == [4, 1, 5]
    for A, Ri, r in zip(stack, R, rank):
        assert np.array_equal(Ri[:r], reference_rows(reference_row_basis(A, p), A.shape[1]))
        assert not Ri[r:].any()
    assert rref_mod_p(stack % 2, 2)[0].dtype == np.int8


def test_large_prime_solvers_invert_only_the_pivots(monkeypatch):
    # one pow per distinct pivot value of a column, never a p-entry table
    p = (1 << 20) + 7
    calls = []
    monkeypatch.setattr(residue, "pow", lambda *a: calls.append(a) or pow(*a), raising=False)
    rng = np.random.default_rng(p)
    A = rng.integers(0, p, size=(4, 4), dtype=np.int64)
    inv = inverse_mod_p(A, p)
    assert len(calls) <= 4
    product = [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*inv.tolist())]
               for row in A.tolist()]
    assert product == np.eye(4, dtype=int).tolist()
    B = rng.integers(0, p, size=(3, 5), dtype=np.int64)
    B[2] = (B[0] + 5 * B[1]) % p
    assert rank_mod_p(B, p) == 2
    v = kernel_vector_mod_p(B, p)
    assert v.any() and not any(sum(a * b for a, b in zip(row, v.tolist())) % p
                               for row in B.tolist())


FIVE_QUOTIENTS = {  # name -> (algebra fixture, ideal generator, power)
    "golden_1pi": ("golden", (1, 1), 1),
    "golden_u_1pi_1pi": ("golden_1pi", (1, 1), 1),
    "golden_1pi_sq": ("golden", (1, 1), 2),
    "gauss_5": ("gauss", (5, 0), 1),
    "gauss_u5_5": ("gauss_u5", (5, 0), 1),
}


def five_quotient(request, name):
    fixture, (a, b), s = FIVE_QUOTIENTS[name]
    algebra = request.getfixturevalue(fixture)
    return quotient_of(algebra, IdealSpec(algebra.ext.base.element(a, b), s))


@pytest.mark.parametrize("name", sorted(FIVE_QUOTIENTS))
def test_ideal_oracles_match_reference_closure(request, name):
    Q = five_quotient(request, name)
    view = FpView(Q)
    maps = reference_side_maps(view)
    assert brute_force_ideals(Q) == reference_brute_force_ideals(Q)
    elements = list(Q.elements())
    for g in elements:
        expected = view.span_encodings(reference_rows(reference_closure(view, [g], maps), view.dim))
        assert ideal_elements(Q, [g]) == expected
    rng = random.Random(name)
    for _ in range(20):
        gens = rng.sample(elements, rng.randint(2, 3))
        basis = reference_closure(view, gens, maps)
        assert ideal_elements(Q, gens) == view.span_encodings(reference_rows(basis, view.dim))


@pytest.mark.parametrize("name", ["golden_1pi_sq", "gauss_u5_5"])
def test_brute_force_ideals_over_many_blocks(request, monkeypatch, name):
    # blocks of 3 elements and 2 join pairs: partial last blocks on both passes
    Q = five_quotient(request, name)
    expected = brute_force_ideals(Q)
    d = FpView(Q).dim
    monkeypatch.setattr(residue, "FP_BLOCK_ENTRIES", 3 * d ** 3)
    assert brute_force_ideals(Q) == expected


def principal_ideal_bases(Q):
    """Distinct rref bases of the principal two-sided ideals of a small quotient."""
    view = FpView(Q)
    maps = reference_side_maps(view)
    bases = {}
    for g in Q.elements():
        basis = reference_closure(view, [g], maps)
        key = tuple(tuple(int(v) for v in row) for _, row in basis)
        bases.setdefault(key, (g, reference_rows(basis, view.dim)))
    return view, list(bases.values())


@pytest.mark.parametrize("which", ["q_nilp", "q_gold", "gauss_5"])
def test_span_encodings_match_object_level(request, gauss, which):
    if which == "gauss_5":
        Q = quotient_of(gauss, IdealSpec(gauss.ext.base.element(5)))
    else:
        Q = request.getfixturevalue(which)
    view, ideals = principal_ideal_bases(Q)
    # every ideal of these rings is principal: 0 < <z> < ring, or 0 < ring
    assert sorted(len(b) for _, b in ideals) == ([0, 2, 4] if which == "q_nilp" else [0, 4])
    for g, rows in ideals:
        expected = set()
        for coeffs in itertools.product(range(view.p), repeat=len(rows)):
            digs = sum((c * row for c, row in zip(coeffs, rows)),
                       np.zeros(view.dim, dtype=np.int64)) % view.p
            expected.add(view.element(digs).encode())
        assert view.span_encodings(rows) == expected
        assert ideal_elements(Q, [g]) == expected
    assert Q.zero.encode() in view.span_encodings(np.zeros((0, view.dim), dtype=np.int64))


def test_span_encodings_over_several_blocks(golden):
    # 9**4 = 6561 members: a full block of ROW_BLOCK rows and a partial one;
    # encodings number the whole ring 0 .. |Q| - 1
    Q = quotient_of(golden, IdealSpec(golden.ext.base.element(3)))
    assert ideal_elements(Q, [Q.one]) == frozenset(range(Q.cardinality))


def test_span_encodings_beyond_int64(q15):
    # q15 mod 7 has 49**16 > 2**63 elements: encodings stay exact Python ints
    Q = quotient_of(q15, IdealSpec(q15.ext.base.element(7)))
    view = FpView(Q)
    R, rank = rref_mod_p(np.array([[view.digits(Q.z)]], dtype=np.int64), view.p)
    assert rank[0] == 1
    scalar = q15.ext.base.element
    assert view.span_encodings(R[0, :1]) == {(Q.z * scalar(c)).encode() for c in range(7)}
    assert ideal_elements(Q, [Q.zero]) == {Q.zero.encode()}


# -- FpView --------------------------------------------------------------------


def random_from_codes(ring, rng):
    count = len(ring.flat_codes(ring.zero))
    return ring.from_flat_codes([rng.randrange(ring.table.size) for _ in range(count)])


@pytest.mark.parametrize("which", ["quotient", "matrix"])
def test_fp_view_round_trip_and_products(golden, q_gold, which):
    if which == "quotient":
        ring = q_gold
    else:  # M_2(Z[i]/(2)): table digits have k = 2 over F_2
        ideal = IdealSpec(golden.ext.base.element(1, 1), 2)
        ring = identify_quotient(golden, ideal).certificate.target
    view = FpView(ring)
    assert view.dim == len(ring.flat_codes(ring.zero)) * view.k
    rng = random.Random(3)
    for _ in range(50):
        x = random_from_codes(ring, rng)
        y = random_from_codes(ring, rng)
        assert view.element(view.digits(x)) == x
        X = np.array([view.digits(x)], dtype=np.int64)
        Y = np.array([view.digits(y)], dtype=np.int64)
        assert tuple(view.mul_digits(X, Y)[0]) == view.digits(x * y)


@pytest.fixture(scope="module")
def fp_views(golden, gauss, q7, q_gold):
    """name -> FpView: dims 4 (p = 2 and p = 5, quotient and matrix ring),
    8 with k = 2, and 18."""
    square = IdealSpec(golden.ext.base.element(1, 1), 2)
    five = IdealSpec(gauss.ext.base.element(5))
    return {
        "q_gold": FpView(q_gold),
        "matrix_k2": FpView(identify_quotient(golden, square).certificate.target),
        "gauss_5": FpView(quotient_of(gauss, five)),
        "matrix_5": FpView(identify_quotient(gauss, five).certificate.target),
        "q7": FpView(quotient_of(q7, IdealSpec(q7.ext.base.element(2)))),
    }


@pytest.mark.parametrize("blocks, extra", [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1)],
                         ids=["0", "1", "B-1", "B", "B+1"])
@pytest.mark.parametrize("which", ["q_gold", "matrix_k2", "gauss_5", "matrix_5", "q7"])
def test_mul_digits_matches_three_operand_contraction(fp_views, which, blocks, extra):
    view = fp_views[which]
    rows = blocks * view.block_rows + extra
    rng = np.random.default_rng(rows)
    X = rng.integers(0, view.p, size=(rows, view.dim), dtype=np.int64)
    Y = rng.integers(0, view.p, size=(rows, view.dim), dtype=np.int64)
    X[:1], Y[:1] = view.p - 1, view.p - 1  # the largest float64 sums
    got = view.mul_digits(X, Y)
    assert got.shape == (rows, view.dim) and got.dtype == np.min_scalar_type(view.p - 1)
    assert np.array_equal(got, np.einsum("na,nb,abd->nd", X, Y, view.tensor()) % view.p)


def test_mul_digits_refuses_sums_beyond_exact_float64(q_gold):
    view = FpView(q_gold)  # a fresh view: the check runs once, on first use
    X = np.zeros((1, view.dim), dtype=np.int64)
    # dim**2 * (p - 1)**3 = 16 * 2**51 = 2**55 > 2**53
    view.p = (1 << 17) + 1
    with pytest.raises(UnsupportedCase):
        view.mul_digits(X, X)
    assert np.array_equal(FpView(q_gold).mul_digits(X, X), X)


def test_mul_digits_blocks_stay_within_one_megabyte(fp_views):
    for view in fp_views.values():
        assert view.block_rows * view.dim ** 2 * 8 <= 1 << 20
        assert (view.block_rows + 1) * view.dim ** 2 * 8 > 1 << 20


def test_exact_float_boundaries():
    assert exact_float(1) is np.float32
    assert exact_float((1 << 24) - 1) is np.float32
    assert exact_float(1 << 24) is np.float64
    assert exact_float((1 << 53) - 1) is np.float64
    with pytest.raises(UnsupportedCase):
        exact_float(1 << 53)


# p, inner dimension, dtype: 16 * 1020**2 = 16,646,400 sits just below 2**24
@pytest.mark.parametrize("p, inner, dtype", [(1021, 16, np.float32),
                                             ((1 << 20) + 7, 16, np.float64)])
def test_matmul_mod_p_matches_int64_reference(p, inner, dtype):
    assert exact_float(inner * (p - 1) ** 2 + 1) is dtype
    rng = np.random.default_rng(p)
    A = rng.integers(0, p, size=(9, inner), dtype=np.int64)
    B = rng.integers(0, p, size=(inner, 7), dtype=np.int64)
    A[0], B[:, 0] = p - 1, p - 1  # the largest sums
    got = matmul_mod_p(A, B, p)
    assert got.dtype == np.min_scalar_type(p - 1)
    assert np.array_equal(got, A @ B % p)
    assert got[0, 0] == inner * (p - 1) ** 2 % p
    assert np.array_equal(matmul_mod_p(A, B[:, 0], p), got[:, 0])  # matrix times vector
    assert np.array_equal(matmul_mod_p(A.astype(np.uint16 if p < 1 << 16 else np.uint32), B, p), got)


def test_mul_digits_takes_float64_beyond_float32(gauss):
    # Q(i) mod 103 over F_103: dim 4, sums up to 16 * 102**3 = 16,979,328 > 2**24
    view = FpView(quotient_of(gauss, IdealSpec(gauss.ext.base.element(103))))
    rng = np.random.default_rng(103)
    X = rng.integers(0, view.p, size=(40, view.dim), dtype=np.int64)
    Y = rng.integers(0, view.p, size=(40, view.dim), dtype=np.int64)
    X[:1], Y[:1] = view.p - 1, view.p - 1
    assert np.array_equal(view.mul_digits(X, Y),
                          np.einsum("na,nb,abd->nd", X, Y, view.tensor()) % view.p)
    assert view._float_tensor.dtype == np.float64


@pytest.mark.parametrize("name, modulus, dim", [("q15", (1, 1), 16), ("q7", (2, 0), 18)])
def test_certify_views_take_float32_tensors(request, fp_views, name, modulus, dim):
    algebra = request.getfixturevalue(name)
    views = [FpView(quotient_of(algebra, IdealSpec(algebra.ext.base.element(*modulus)))),
             *fp_views.values()]
    assert (views[0].dim, views[0].p) == (dim, 2)
    for view in views:
        X = np.full((3, view.dim), view.p - 1, dtype=np.int64)
        assert np.array_equal(view.mul_digits(X, X),
                              np.einsum("na,nb,abd->nd", X, X, view.tensor()) % view.p)
        assert view._float_tensor.dtype == np.float32


@pytest.mark.parametrize("name", ["golden_1pi_sq", "gauss_5", "q7_2"])
def test_sandwiches_match_int64_contractions(request, q7, name):
    if name == "q7_2":
        Q = quotient_of(q7, IdealSpec(q7.ext.base.element(2)))
    else:
        Q = five_quotient(request, name)
    view = FpView(Q)
    T, d, p = view.tensor(), view.dim, view.p
    X = np.random.default_rng(d).integers(0, p, size=(5, d), dtype=np.int64)
    X[0] = p - 1
    left = np.einsum("nc,acf->naf", X, T) % p
    expected = np.einsum("naf,fbg->nabg", left, T).reshape(len(X), d * d, d) % p
    assert np.array_equal(residue._sandwiches(view, X), expected)


def matrices_mod_p():
    """Every 2x2 and 3x3 matrix over F_2, then seeded random ones over F_5."""
    for n in (2, 3):
        for entries in itertools.product(range(2), repeat=n * n):
            yield 2, np.array(entries, dtype=np.int64).reshape(n, n)
    rng = np.random.default_rng(5)
    for shape in [(2, 2), (3, 3), (4, 4), (3, 4), (4, 3)] * 4:
        A = rng.integers(0, 5, size=shape, dtype=np.int64)
        yield 5, A
        B = A.copy()  # force a dependent last row
        B[-1] = (2 * B[0] + 3 * B[1]) % 5
        yield 5, B


def test_rank_kernel_inverse_mod_p_against_brute_force():
    for p, A in matrices_mod_p():
        rows, cols = A.shape
        vectors = np.array(list(itertools.product(range(p), repeat=cols)))
        images = {tuple(v) for v in (vectors @ A.T) % p}
        rank = rank_mod_p(A, p)
        assert len(images) == p ** rank
        kv = kernel_vector_mod_p(A, p)
        if rank == cols:
            assert kv is None
        else:
            assert kv.any() and not ((A @ kv) % p).any()
        if rows != cols:
            continue
        if rank == rows:
            inv = inverse_mod_p(A, p)
            eye = np.eye(rows, dtype=np.int64)
            assert ((A @ inv) % p == eye).all() and ((inv @ A) % p == eye).all()
        else:
            with pytest.raises(ValueError):
                inverse_mod_p(A, p)


# -- abstract finite fields -------------------------------------------------------


@pytest.mark.parametrize("p,m", [(2, 1), (2, 3), (3, 2), (5, 1)])
def test_finite_field_laws(p, m):
    ff = FiniteField(p, m)
    assert ff.size == p ** m
    elems = list(ff.elements())
    assert len(elems) == ff.size
    rng = random.Random(p * 10 + m)
    picks = [elems[rng.randrange(ff.size)] for _ in range(12)]
    for x in picks:
        for y in picks:
            assert x + y == y + x
            assert x * y == y * x
            assert (x + y) ** p == x ** p + y ** p  # the Frobenius map is additive
            for w in picks[:4]:
                assert (x * y) * w == x * (y * w)
                assert x * (y + w) == x * y + x * w
        if not x.is_zero:
            assert x * x ** -1 == ff.one


def test_finite_field_generator_order():
    ff = FiniteField(3, 2)
    gen = ff.generator()
    seen = set()
    acc = ff.one
    for _ in range(ff.size - 1):
        acc = acc * gen
        seen.add(acc.val)
    assert len(seen) == ff.size - 1
    assert acc == ff.one


def test_trivial_field_generator_is_one():
    # the unit group of F_2 has order 1: the search takes its first element
    ff = FiniteField(2, 1)
    assert ff.generator() == ff.one
    # in F_43, 2 has order 14: it passes the q = 2 test and fails only q = 3
    assert [FiniteField(p, m).generator().val
            for p, m in [(2, 2), (2, 3), (3, 2), (5, 1), (7, 1), (43, 1)]] == [2, 2, 4, 2, 3, 3]


def test_finite_field_modulus_is_reproducible():
    assert FiniteField(2, 3).modulus == FiniteField(2, 3).modulus
    with pytest.raises(ValueError):
        FiniteField(2, 0)
    with pytest.raises(ValueError):
        FiniteField(2, 2, modulus=(1, 1))  # not degree m monic
    with pytest.raises(ZeroDivisionError):
        FiniteField(2, 1).zero ** -1


def test_fp_table_digits_survives_freed_tables():
    # a cache keyed by id(table) hands a freed table's digits to a new table
    # that reuses its address; the digits must follow the table itself
    for modulus in (2, 3) * 10:
        table = ResidueTable(RATIONAL, RATIONAL.element(modulus))
        p, k, digits, _ = fp_table_digits(table)
        assert (p, k, len(digits)) == (modulus, 1, modulus)
        del table, digits
        gc.collect()
