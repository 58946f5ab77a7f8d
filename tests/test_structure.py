"""Tests for quotient classification, certificates, and ideal lattices."""

import functools
import itertools
import random
import tracemalloc

import numpy as np
import pytest

from cycord import residue, structure
from cycord.base_rings import GAUSSIAN, residue_table
from cycord.errors import (
    UnsupportedCase,
    VerificationFailed,
    WrongCase,
    ZeroTarget,
)
from cycord.extension import IdealSpec
from cycord.order import digit_rows, load_algebra
from cycord.residue import (
    ENUM_LIMIT,
    FiniteField,
    FpView,
    brute_force_ideals,
    factor_prime,
    ideal_elements,
    quotient_of,
    residue_ring,
)
from cycord.structure import (
    ComponentField,
    IsoCertificate,
    MatElement,
    MatRing,
    QuotientCase,
    VerifyMode,
    enumerate_monomial_ideals,
    identify_quotient,
    monomial_generator_elements,
    solve_norm_equation,
    stairwell_contains,
    verify_isomorphism,
)


def ideal_of(algebra, a, b=0, s=1):
    return IdealSpec(algebra.ext.base.element(a, b), s)


# -- the six classified shapes ---------------------------------------------------


def test_inert_unit_case(golden):
    rep = identify_quotient(golden, ideal_of(golden, 1, 1))
    assert rep.case is QuotientCase.INERT_UNIT
    assert rep.target == "M_2(F_2)"
    assert (rep.splitting.g, rep.splitting.f) == (1, 2)
    assert rep.cardinality == 16
    assert [I.label for I in rep.ideal_lattice] == ["ring", "0"]
    report = verify_isomorphism(rep.certificate, VerifyMode.EXHAUSTIVE)
    assert report.passed
    assert report.pairs_exhaustive and report.pairs_checked == 256
    assert report.elements_enumerated == 16
    assert rep.certificate.verified


def test_split_unit_case(gauss):
    rep = identify_quotient(gauss, ideal_of(gauss, 5))
    assert rep.case is QuotientCase.SPLIT_UNIT
    assert rep.target == "M_2(F_5)"
    assert rep.splitting.g == 2
    assert rep.cardinality == 625
    report = verify_isomorphism(rep.certificate, VerifyMode.EXHAUSTIVE)
    assert report.passed
    assert report.rank == report.dim
    # only the trivial two-sided ideals, confirmed by brute force
    Q = rep.quotient
    assert sorted(len(s) for s in brute_force_ideals(Q)) == [1, 625]


def test_inert_unit_power_case(golden):
    rep = identify_quotient(golden, ideal_of(golden, 1, 1, s=2))
    assert rep.case is QuotientCase.INERT_UNIT_POWER
    assert rep.target == "M_2(Z[i] mod (1+i)^2)"
    assert rep.cardinality == 256
    assert [I.label for I in rep.ideal_lattice] == ["ring", "q^1", "0"]
    report = verify_isomorphism(rep.certificate, VerifyMode.EXHAUSTIVE)
    assert report.passed and report.pairs_exhaustive
    # the power chain is exactly the brute-force ideal lattice
    found = brute_force_ideals(rep.quotient)
    chain_sets = [I.elements for I in rep.ideal_lattice]
    assert all(s is not None for s in chain_sets)
    assert sorted(map(len, found)) == sorted(map(len, chain_sets))
    assert {frozenset(s) for s in found} == {frozenset(s) for s in chain_sets}


def test_split_unit_power_case(gauss):
    rep = identify_quotient(gauss, ideal_of(gauss, 5, s=2))
    assert rep.case is QuotientCase.SPLIT_UNIT_POWER
    assert rep.target == "M_2(Z mod (5)^2)"
    assert rep.cardinality == 5 ** 8
    # characteristic 25 admits no F_p linearization, so verification
    # reports the limitation instead of pretending to check
    with pytest.raises(UnsupportedCase):
        verify_isomorphism(rep.certificate, VerifyMode.SAMPLED)


def test_inert_nilpotent_case(golden_1pi):
    rep = identify_quotient(golden_1pi, ideal_of(golden_1pi, 1, 1))
    assert rep.case is QuotientCase.INERT_NILPOTENT
    assert rep.target == "F_4[z; sigma] / (z^2)"
    assert rep.certificate is None
    labels = [I.label for I in rep.ideal_lattice]
    assert labels == ["ring", "<z>", "<z^2>"]
    sizes = [len(I.elements) for I in rep.ideal_lattice]
    assert sizes == [16, 4, 1]
    found = brute_force_ideals(rep.quotient)
    assert {frozenset(s) for s in found} == {frozenset(I.elements) for I in rep.ideal_lattice}


def test_split_nilpotent_case(gauss_u5):
    rep = identify_quotient(gauss_u5, ideal_of(gauss_u5, 5))
    assert rep.case is QuotientCase.SPLIT_NILPOTENT
    assert rep.certificate is None
    assert len(rep.ideal_lattice) == 7
    found = brute_force_ideals(rep.quotient)
    assert len(found) == 7
    assert {frozenset(s) for s in found} == {frozenset(I.elements) for I in rep.ideal_lattice}


def test_structure_report_to_dict(golden):
    rep = identify_quotient(golden, ideal_of(golden, 1, 1))
    verify_isomorphism(rep.certificate)
    d = rep.to_dict()
    assert d["case"] == "InertUnit"
    assert d["ideal"] == "(1+i)"
    assert d["target"] == "M_2(F_2)"
    assert d["certificate"]["verified"] is True
    assert d["cardinality"] == 16
    assert [e["label"] for e in d["ideal_lattice"]] == ["ring", "0"]


# the quotients of the certify jobs up to ENUM_LIMIT: algebra fixture, ideal
SMALL_QUOTIENTS = {
    "golden_(1+i)": ("golden", (1, 1)),
    "golden_(1+i)^2": ("golden", (1, 1, 2)),
    "golden_1pi_(1+i)": ("golden_1pi", (1, 1)),
    "q15_(1+i)": ("q15", (1, 1)),
    "gauss_(5)": ("gauss", (5,)),
    "gauss_u5_(5)": ("gauss_u5", (5,)),
}


def small_report(request, name):
    algebra = request.getfixturevalue(SMALL_QUOTIENTS[name][0])
    return identify_quotient(algebra, ideal_of(algebra, *SMALL_QUOTIENTS[name][1]))


@pytest.mark.parametrize("name", sorted(SMALL_QUOTIENTS))
def test_lattice_sizes_match_element_sets(request, name):
    rep = small_report(request, name)
    assert rep.cardinality <= ENUM_LIMIT
    for ideal in rep.ideal_lattice:
        assert ideal.size == len(ideal.elements)
    assert max(ideal.size for ideal in rep.ideal_lattice) == rep.cardinality


@pytest.mark.parametrize("name, u, modulus", [("q7_cubic", None, 2), ("gauss_over_Q", "17", 17)])
def test_trivial_lattice_sizes_above_enum_limit(name, u, modulus):
    algebra = load_algebra(name, u=u)
    rep = identify_quotient(algebra, ideal_of(algebra, modulus))
    assert rep.cardinality > ENUM_LIMIT
    entries = {I.label: I for I in rep.ideal_lattice}
    assert (entries["ring"].size, entries["0"].size) == (rep.cardinality, 1)
    assert entries["ring"].elements is None
    # the JSON keeps its null sizes: only an entry without generators prints one
    assert [e["size"] for e in rep.to_dict()["ideal_lattice"]] == [
        1 if not I.generators else None for I in rep.ideal_lattice]


@pytest.mark.parametrize("name", ["golden_(1+i)^2", "golden_1pi_(1+i)", "gauss_u5_(5)"])
def test_printing_a_lattice_enumerates_nothing(request, monkeypatch, name):
    expected = small_report(request, name).to_dict()

    def enumerate_span(self, rows):
        raise AssertionError("a lattice element set was enumerated")

    monkeypatch.setattr(FpView, "span_encodings", enumerate_span)
    rep = small_report(request, name)
    assert rep.to_dict() == expected
    with pytest.raises(AssertionError):
        rep.ideal_lattice[0].elements


def test_identify_quotient_holds_no_element_set(q15):
    identify_quotient(q15, ideal_of(q15, 1, 1))  # fills the shared caches
    # the "ring" set of q15 (1+i), 65,536 ints, put the peak near 9 MiB
    tracemalloc.start()
    try:
        rep = identify_quotient(q15, ideal_of(q15, 1, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.cardinality == 2 ** 16
    assert peak < 1 << 20


# -- certificate internals ---------------------------------------------------------


def test_certificate_relations(golden):
    rep = identify_quotient(golden, ideal_of(golden, 1, 1))
    cert = rep.certificate
    Q = rep.quotient
    # every power routine on the shared square-and-multiply refuses e < 0
    comp = ComponentField(Q.S, Q.S.one, f=2, step=1)
    ff = FiniteField(2, 2)
    negative_powers = [
        lambda: golden.u ** -1,  # BaseElement
        lambda: golden.ext.one ** -1,  # OKElement
        lambda: golden.z ** -1,  # OrderElement
        lambda: Q.S.one ** -1,  # ResidueElement
        lambda: Q.z ** -1,  # GcaElement
        lambda: cert.z_image ** -1,  # MatElement
        lambda: comp.pow(comp.v, -1),
    ]
    for attempt in negative_powers:
        with pytest.raises(ValueError):
            attempt()
    # FFElement alone inverts for negative exponents
    gen = ff.generator()
    assert gen ** -1 * gen == ff.one
    # image of 1 is the identity matrix
    assert cert.forward(Q.one) == cert.target.one
    # z maps compatibly with z^n = u (here u = i reduces to 1)
    assert cert.z_image ** 2 == cert.forward(Q.from_residue(Q.ubar))
    assert cert.forward(Q.z) == cert.z_image
    # twisted commutation passes through the map
    for s in Q.S.elements():
        lhs = cert.forward(Q.z * Q.from_residue(s))
        rhs = cert.forward(Q.from_residue(Q.S.sigma(s))) * cert.z_image
        assert lhs == rhs


SHIPPED_CERTIFICATES = {  # name -> (algebra fixture, ideal generator, power)
    "golden_1pi": ("golden", (1, 1), 1),
    "golden_1pi_sq": ("golden", (1, 1), 2),
    "q7_2": ("q7", (2, 0), 1),
    "q15_1pi": ("q15", (1, 1), 1),
    "gauss_5": ("gauss", (5, 0), 1),
}


def shipped_certificate(request, name):
    fixture, (a, b), s = SHIPPED_CERTIFICATES[name]
    algebra = request.getfixturevalue(fixture)
    return identify_quotient(algebra, ideal_of(algebra, a, b, s=s)).certificate


def forward_one_product_per_z_power(cert, x):
    """The certificate map as first written: sum_j lambda(s_j) * z_image^j."""
    zero = cert.source.S.table.zero
    acc, zj = cert.target.zero, cert.target.one
    for s in x.zcoords:
        lam = cert.target.zero
        for image, code in zip(cert.basis_images, s.codes):
            if code != zero:
                lam = lam + image.scale(code)
        acc = acc + lam * zj
        zj = zj * cert.z_image
    return acc


@pytest.mark.parametrize("name", sorted(SHIPPED_CERTIFICATES))
def test_forward_is_the_fp_linear_certificate_map(request, name):
    cert = shipped_certificate(request, name)
    Q = cert.source
    p = FpView(Q).p
    rng = random.Random(name)
    for _ in range(100):
        x, y = Q.random_element(rng), Q.random_element(rng)
        fx = cert.forward(x)
        assert fx == forward_one_product_per_z_power(cert, x)
        assert cert.forward(x + y) == fx + cert.forward(y)
        c = rng.randrange(p)
        assert cert.forward(x * c) == fx * c


def forward_by_object_sums(cert, x):
    """Sum of term.scale(code) over the nonzero codes of x, each term
    basis_images[i] * z_image^j, accumulated with `MatElement.__add__`."""
    zero = cert.source.S.table.zero
    acc, zj = cert.target.zero, cert.target.one
    for s in x.zcoords:
        for image, code in zip(cert.basis_images, s.codes):
            if code != zero:
                acc = acc + (image * zj).scale(code)
        zj = zj * cert.z_image
    return acc


@pytest.mark.parametrize("name", sorted(SHIPPED_CERTIFICATES))
def test_flat_code_forward_matches_object_sums(request, name):
    cert = shipped_certificate(request, name)
    rng = random.Random(f"{name} object sums")
    for x in [cert.source.zero] + [cert.source.random_element(rng) for _ in range(50)]:
        fx = cert.forward(x)
        assert type(fx) is MatElement and fx.ring is cert.target
        assert type(fx.codes) is tuple
        assert fx == forward_by_object_sums(cert, x)


@pytest.mark.parametrize("name", sorted(SHIPPED_CERTIFICATES))
def test_forward_matches_the_term_loop(request, objloop, name):
    # the certificates of the certify jobs, on the F_p basis of the source
    # and on 50 seeded elements
    cert = shipped_certificate(request, name)
    rng = random.Random(f"{name} term loop")
    basis = list(FpView.of(cert.source).basis_elements())
    for x in basis + [cert.source.random_element(rng) for _ in range(50)]:
        assert cert.forward(x).codes == objloop.forward(cert, x)


def count_tensor_builds(monkeypatch):
    """Rings whose `FpView` builds its structure tensor, one entry per build."""
    built = []
    tensor = FpView.tensor

    def counting(self):
        if self._tensor is None:
            built.append(self.ring)
        return tensor(self)

    monkeypatch.setattr(FpView, "tensor", counting)
    return built


def test_each_ring_builds_its_structure_tensor_once(golden, gauss_u5, monkeypatch):
    # fresh rings, so that no tensor is cached from an earlier test
    fresh = functools.cache(residue.QuotientRing)
    monkeypatch.setattr(structure, "quotient_of", fresh)
    built = count_tensor_builds(monkeypatch)
    rep = identify_quotient(gauss_u5, ideal_of(gauss_u5, 5))
    sizes = [e["size"] for e in rep.to_dict()["ideal_lattice"]]
    assert len(sizes) == 7 and sizes == [len(I.elements) for I in rep.ideal_lattice]
    assert len(brute_force_ideals(rep.quotient)) >= 7
    last = rep.ideal_lattice[-1]
    assert ideal_elements(rep.quotient, last.generators) == last.elements
    assert [id(ring) for ring in built] == [id(rep.quotient)]

    built.clear()
    rep = identify_quotient(golden, ideal_of(golden, 1, 1, s=2))
    rep.to_dict()
    verify_isomorphism(rep.certificate)
    assert len(brute_force_ideals(rep.quotient)) == 3
    assert sorted(map(id, built)) == sorted([id(rep.quotient), id(rep.certificate.target)])


def test_basis_product_check_catches_swapped_basis_images(q7, monkeypatch):
    # no spot checks and no sampled pairs: only the basis-pair proof is left
    monkeypatch.setattr(structure, "SPOT_CHECKS", 0)
    monkeypatch.setattr(structure, "PAIR_SAMPLE", 0)
    good = identify_quotient(q7, ideal_of(q7, 2)).certificate
    images = good.basis_images
    bad = IsoCertificate(source=good.source, target=good.target,
                         basis_images=(images[0], images[2], images[1]),
                         z_image=good.z_image)
    basis = FpView(good.source).basis_elements()
    lowest = next((x, y) for x, y in itertools.product(basis, repeat=2)
                  if bad.forward(x * y) != bad.forward(x) * bad.forward(y))
    with pytest.raises(VerificationFailed, match="basis product check fails") as exc:
        verify_isomorphism(bad, VerifyMode.SAMPLED, seed=0)
    assert exc.value.pair == lowest
    report = verify_isomorphism(good, VerifyMode.SAMPLED, seed=0)
    assert report.passed and report.pairs_checked == 0


def test_corrupted_certificate_fails_with_counterexample(golden):
    rep = identify_quotient(golden, ideal_of(golden, 1, 1))
    good = rep.certificate
    bad = IsoCertificate(
        source=good.source,
        target=good.target,
        basis_images=good.basis_images,
        z_image=good.target.zero,
    )
    with pytest.raises(VerificationFailed) as exc:
        verify_isomorphism(bad)
    assert exc.value.pair is not None
    assert not bad.verified


# encodings of the pair the unblocked product check reported for a
# certificate whose z image is shifted by the identity; the spot checks are
# skipped so that the bulk product check is the one that fails
SHIFTED_Z_PAIRS = {
    (1, VerifyMode.SAMPLED): (8, 12),
    (2, VerifyMode.EXHAUSTIVE): (223, 247),  # all pairs; index 4100, second block
    (2, VerifyMode.SAMPLED): (2, 145),
}


def shifted_z_pair(golden, monkeypatch, s, mode):
    monkeypatch.setattr(structure, "SPOT_CHECKS", 0)
    good = identify_quotient(golden, ideal_of(golden, 1, 1, s=s)).certificate
    bad = IsoCertificate(source=good.source, target=good.target,
                         basis_images=good.basis_images,
                         z_image=good.z_image + good.target.one)
    with pytest.raises(VerificationFailed, match="product check fails") as exc:
        verify_isomorphism(bad, mode, seed=0)
    return tuple(x.encode() for x in exc.value.pair)


@pytest.mark.parametrize("s, mode", sorted(SHIFTED_Z_PAIRS, key=str))
def test_product_check_reports_lowest_failing_pair(golden, monkeypatch, s, mode):
    assert shifted_z_pair(golden, monkeypatch, s, mode) == SHIFTED_Z_PAIRS[(s, mode)]


def shared_image_pair(golden, monkeypatch):
    # with the rank check forced to pass, a zero z image reaches the
    # exhaustive image check; it reports the first two elements with the
    # smallest shared image, which for a linear map is always 0
    monkeypatch.setattr(structure, "SPOT_CHECKS", 0)
    monkeypatch.setattr(structure, "rank_mod_p", lambda A, p: A.shape[1])
    good = identify_quotient(golden, ideal_of(golden, 1, 1, s=2)).certificate
    bad = IsoCertificate(source=good.source, target=good.target,
                         basis_images=good.basis_images, z_image=good.target.zero)
    with pytest.raises(VerificationFailed, match="share an image") as exc:
        verify_isomorphism(bad, VerifyMode.EXHAUSTIVE)
    return tuple(x.encode() for x in exc.value.pair)


def test_image_check_reports_first_shared_image(golden, monkeypatch):
    assert shared_image_pair(golden, monkeypatch) == (255, 223)


@pytest.fixture(scope="module")
def q15_certificate(q15):
    return identify_quotient(q15, ideal_of(q15, 1, 1)).certificate


def test_checks_do_not_depend_on_the_row_block(golden, q15_certificate, monkeypatch):
    # a small odd block: the key build, both draws and the product check
    # span many blocks, the last one ragged; the drawn pairs and the
    # reported lowest pairs must not move
    monkeypatch.setattr(structure, "ROW_BLOCK", 37)
    report = verify_isomorphism(q15_certificate, VerifyMode.EXHAUSTIVE)
    assert (report.pairs_checked, report.elements_enumerated) == (100_000, 65_536)
    for (s, mode), pair in SHIFTED_Z_PAIRS.items():
        assert shifted_z_pair(golden, monkeypatch, s, mode) == pair
    assert shared_image_pair(golden, monkeypatch) == (255, 223)


def test_exhaustive_verify_holds_no_full_size_image_rows(q15_certificate):
    # numpy reports its buffers to tracemalloc; N x dim int64 image rows
    # and int64 pair arrays put the peak near 40 MB, full-size narrow pairs,
    # int64 block products and a full-size argsort near 7 MB, and pairs
    # drawn per block with narrow products near 1.6 MB
    tracemalloc.start()
    try:
        verify_isomorphism(q15_certificate, VerifyMode.EXHAUSTIVE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 << 20


def traced_peak(run):
    """Peak bytes that tracemalloc sees while `run()` runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sampled_verify_draws_pairs_per_block(q7):
    # 2 x 10,000 x 18 drawn digits and int64 block products put the warm
    # peak near 4.2 MiB; pairs drawn per block near 1.6 MiB
    cert = identify_quotient(q7, ideal_of(q7, 2)).certificate
    verify_isomorphism(cert, VerifyMode.SAMPLED)
    assert traced_peak(lambda: verify_isomorphism(cert, VerifyMode.SAMPLED)) < 3 << 20


def test_brute_force_ideals_reduces_narrow_stacks(golden):
    # int64 sandwich stacks and row reduction put the warm peak near
    # 4.3 MiB; int8 reduction of narrow stacks near 0.7 MiB
    Q = quotient_of(golden, ideal_of(golden, 1, 1, s=2))
    brute_force_ideals(Q)  # fills the view's tensor
    assert traced_peak(lambda: brute_force_ideals(Q)) < 3 << 19


@pytest.mark.parametrize("block", [structure.ROW_BLOCK, 37])
@pytest.mark.parametrize("p, dim, count", [(2, 16, 100_000), (5, 4, 10_000)])
def test_pair_blocks_are_the_whole_draws(monkeypatch, p, dim, count, block):
    # the pinned stream: X drawn whole, then Y whole, from one generator
    monkeypatch.setattr(structure, "ROW_BLOCK", block)
    rng = np.random.default_rng(7)
    X = rng.integers(0, p, size=(count, dim), dtype=np.int64)
    Y = rng.integers(0, p, size=(count, dim), dtype=np.int64)
    lo = 0
    for Xb, Yb in structure.sampled_pair_blocks(p, dim, count, seed=7):
        assert len(Xb) == len(Yb) == min(block, count - lo)
        assert Xb.dtype == Yb.dtype == np.min_scalar_type(p - 1)
        assert np.array_equal(Xb, X[lo:lo + block]) and np.array_equal(Yb, Y[lo:lo + block])
        lo += len(Xb)
    assert lo == count


@pytest.mark.parametrize("block", [structure.ROW_BLOCK, 37])
@pytest.mark.parametrize("p, dim", [(2, 4), (3, 3), (2, 7)])
def test_exhaustive_pair_blocks_are_repeat_and_tile(monkeypatch, p, dim, block):
    monkeypatch.setattr(structure, "ROW_BLOCK", block)
    E = digit_rows(p, dim)
    blocks = list(structure.exhaustive_pair_blocks(E))
    assert all(len(Xb) <= block for Xb, _ in blocks)
    idx = np.arange(len(E))
    assert np.array_equal(np.concatenate([Xb for Xb, _ in blocks]), E[np.repeat(idx, len(E))])
    assert np.array_equal(np.concatenate([Yb for _, Yb in blocks]), E[np.tile(idx, len(E))])


def test_unsupported_nilpotent_power(golden_1pi):
    with pytest.raises(UnsupportedCase):
        identify_quotient(golden_1pi, ideal_of(golden_1pi, 1, 1, s=2))


def test_verify_rejects_oversized_exhaustive(q7):
    rep = identify_quotient(q7, ideal_of(q7, 2))
    from cycord.errors import TooLargeToEnumerate

    with pytest.raises(TooLargeToEnumerate):
        verify_isomorphism(rep.certificate, VerifyMode.EXHAUSTIVE)
    report = verify_isomorphism(rep.certificate, VerifyMode.SAMPLED)
    assert report.passed and report.pairs_checked == 10_000


# -- monomial ideals and stairwells ------------------------------------------------


def test_stairwell_contains_shape():
    # anchor (1, 0) over g = 2, n = 2: moving left by z adds one step both ways
    assert stairwell_contains((1, 0), (1, 0), 2, 2)
    assert stairwell_contains((1, 0), (2, 1), 2, 2)
    assert not stairwell_contains((1, 0), (2, 0), 2, 2)
    assert stairwell_contains((1, 0), (1, 1), 2, 2)
    assert not stairwell_contains((1, 1), (1, 0), 2, 2)
    # powers outside 0..n-1 are never contained
    assert not stairwell_contains((1, 0), (1, 2), 2, 2)


def test_monomial_ideals_require_nilpotent_split(gauss, gauss_u5):
    with pytest.raises(WrongCase):
        enumerate_monomial_ideals(gauss, ideal_of(gauss, 5))  # u = -1 is a unit
    with pytest.raises(WrongCase):
        enumerate_monomial_ideals(gauss_u5, ideal_of(gauss_u5, 5, s=2))


def test_monomial_ideal_generators_minimal(gauss_u5):
    ideal = ideal_of(gauss_u5, 5)
    for mi in enumerate_monomial_ideals(gauss_u5, ideal):
        for a in mi.generators:
            others = [b for b in mi.generators if b != a]
            assert not any(stairwell_contains(b, a, mi.g, mi.n) for b in others)


def test_stairwell_matches_ideal_containment(gauss_u5):
    ideal = ideal_of(gauss_u5, 5)
    Q = quotient_of(gauss_u5, ideal)
    split = factor_prime(gauss_u5.ext, ideal.alpha)
    g, n = split.g, Q.n
    monomials = [(i, j) for i in range(1, g + 1) for j in range(n)]

    def elem(m):
        i, j = m
        return Q.from_residue(split.idempotents[i - 1]) * Q.z ** j

    sets = {m: ideal_elements(Q, [elem(m)]) for m in monomials}
    for a in monomials:
        for b in monomials:
            claimed = stairwell_contains(a, b, g, n)
            actual = elem(b).encode() in sets[a]
            assert claimed == actual, (a, b)


def test_monomial_ideal_symbol_counts(gauss_u5):
    ideal = ideal_of(gauss_u5, 5)
    Q = quotient_of(gauss_u5, ideal)
    split = factor_prime(gauss_u5.ext, ideal.alpha)
    p_size = Q.S.table.size
    for mi in enumerate_monomial_ideals(gauss_u5, ideal):
        gens = monomial_generator_elements(Q, split, mi)
        elems = ideal_elements(Q, gens) if gens else frozenset({Q.zero.encode()})
        assert len(elems) == p_size ** mi.symbol_count


# -- norm equations ----------------------------------------------------------------


def test_norm_equation_inert(gauss):
    # S = O_K/(3) is F_9; the norm maps onto the units of F_3
    S = residue_ring(gauss.ext, gauss.ext.base.element(3))
    comp = ComponentField(S, S.one, f=2, step=1)
    for c in (1, 2):
        target = S.from_base(gauss.ext.base.element(c))
        k = solve_norm_equation(comp, target)
        assert comp.norm(k) == target


def test_norm_equation_split_component(gauss):
    S = residue_ring(gauss.ext, gauss.ext.base.element(5))
    split = factor_prime(gauss.ext, gauss.ext.base.element(5))
    v = split.idempotents[0]
    comp = ComponentField(S, v, f=1, step=split.g)
    for c in (1, 2, 3, 4):
        target = S.mul(v, S.from_base(gauss.ext.base.element(c)))
        k = solve_norm_equation(comp, target)
        assert comp.norm(k) == target


def test_norm_equation_rejects_zero(gauss):
    S = residue_ring(gauss.ext, gauss.ext.base.element(3))
    comp = ComponentField(S, S.one, f=2, step=1)
    with pytest.raises(ZeroTarget):
        solve_norm_equation(comp, S.zero)


@pytest.mark.parametrize("name,alpha,codes", [
    ("golden_u_i", "1+i", (0, 0)),
    ("q7_cubic", "2", (1, 0, 0)),
])
def test_certificate_component_generator_pinned(shipped, name, alpha, codes):
    # the first component field of build_matrix_iso_s1; table code 0 is not zero
    ext = shipped[name].ext
    S = residue_ring(ext, ext.base.parse(alpha))
    split = factor_prime(ext, ext.base.parse(alpha))
    comp = ComponentField(S, split.idempotents[0], split.f, split.g)
    assert comp.generator().codes == codes
    assert comp.pow(comp.generator(), comp.size - 1) == comp.v


def test_component_field_generator(gauss):
    S = residue_ring(gauss.ext, gauss.ext.base.element(3))
    comp = ComponentField(S, S.one, f=2, step=1)
    gen = comp.generator()
    seen = set()
    acc = comp.v
    for _ in range(comp.size - 1):
        acc = comp.S.mul(acc, gen)
        seen.add(acc.encode())
    assert len(seen) == comp.size - 1


def test_matrix_ring_zero_test(golden):
    # the table's zero code is not 0, so entries must be compared with it
    table = residue_ring(golden.ext, golden.ext.base.parse("1+i")).table
    assert table.zero != 0
    mat = MatRing(table, 2)
    assert not mat.zero and mat.zero.is_zero
    assert mat.one and not mat.one.is_zero
    assert (mat.one - mat.one).is_zero
    assert mat.unit(1, 0) and not mat.unit(1, 0).is_zero


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_matrix_ring_constructors_match_nested_entries(n):
    # Z[i]/(3): zero and one have codes 4 and 7, so no code is its own index
    table = residue_table(GAUSSIAN, GAUSSIAN.element(3))
    mat, z, c = MatRing(table, n), table.zero, 2

    def nested(at):
        return mat.element([[at(r, col) for col in range(n)] for r in range(n)])

    assert mat.zero == nested(lambda r, col: z)
    assert mat.one == nested(lambda r, col: table.one if r == col else z)
    assert mat.scalar(c) == nested(lambda r, col: c if r == col else z)
    for i, j in itertools.product(range(n), repeat=2):
        unit = nested(lambda r, col: table.one if (r, col) == (i, j) else z)
        assert mat.unit(i, j) == unit
        assert mat.flat_codes(unit) == unit.codes
        assert mat.from_flat_codes(list(unit.codes)) == unit
    assert str(mat.one) == "[" + ", ".join(
        "[" + ", ".join("1" if r == col else "0" for col in range(n)) + "]"
        for r in range(n)) + "]"
    with pytest.raises(ValueError):
        mat.element([[z] * n] * (n + 1))
