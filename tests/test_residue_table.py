"""The residue tables of O_F/(m) against the tables built entry by entry.

`ResidueTable` divides once per residue and reduces everything else in its
Hermite box; the reference here builds each table with one
`euclidean_divmod` per entry.
"""

import itertools
import random
from math import isqrt

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
    radix_encode,
    residue_table,
)
from cycord.errors import UnsupportedCase, VerificationFailed
from cycord.extension import IdealSpec
from cycord.residue import FpView, fp_table_digits
from cycord.structure import MatRing, identify_quotient

RINGS = [RATIONAL, GAUSSIAN, EISENSTEIN]


def _moduli(ring, bound):
    """One modulus per associate class with norm at most `bound`: the
    associate with the least (a, b)."""
    if ring is RATIONAL:
        return [ring.element(n) for n in range(1, bound + 1)]
    r = range(-bound, bound + 1)
    found = {min((u * ring.element(a, b)).key for u in ring.units())
             for a in r for b in r if 0 < ring.element(a, b).norm() <= bound}
    return [ring.element(a, b) for a, b in sorted(found)]


MODULI = [(ring, m) for ring in RINGS for m in _moduli(ring, 50)]


def _reference_table(ring, m):
    """The table as built by one `euclidean_divmod` per entry.  The canonical
    residues are the remainders that divide to themselves; each has norm
    below that of m."""
    def red(x):
        return euclidean_divmod(x, m)[1]

    n, size = m.norm(), m.ideal_norm()
    # norm(a + b*delta) >= 3/4 max(|a|, |b|)^2 in Z[i] and Z[w]
    r = range(-size, size + 1) if ring is RATIONAL else range(-isqrt(2 * n), isqrt(2 * n) + 1)
    small = [ring.element(a, b) for a in r for b in (r if ring is not RATIONAL else (0,))
             if ring.element(a, b).norm() < n]
    reps = sorted((x for x in small if red(x) == x), key=lambda e: (e.a, e.b))
    idx = {(e.a, e.b): i for i, e in enumerate(reps)}

    def code(e):
        return idx[red(e).key]

    mul = [[code(x * y) for y in reps] for x in reps]
    zero, one = code(ring.zero), code(ring.one)
    return {
        "reps": tuple(reps),
        "add": [[code(x + y) for y in reps] for x in reps],
        "mul": mul,
        "neg": [code(-x) for x in reps],
        "inv": [row.index(one) if one in row else None for row in mul],
        "zero": zero,
        "one": one,
        "char": next(k for k in range(1, size + 1) if code(ring.element(k)) == zero),
    }


def test_residue_tables_match_the_per_entry_reference():
    assert len(MODULI) == 50 + 40 + 31  # residue counts 1..50 in Z, Z[i], Z[w]
    for ring, m in MODULI:
        t = ResidueTable(ring, m)
        ref = _reference_table(ring, m)
        assert len(ref["reps"]) == t.size == m.ideal_norm()
        # the sum and product lists are built on first read; negation is the
        # product row of -1, and inverses come from `inverse`
        assert {"reps": t.reps, "add": t._sums, "mul": t._products,
                "neg": t._products[t.minus_one],
                "inv": [t.inverse(x) for x in range(t.size)],
                "zero": t.zero, "one": t.one, "char": t.char} == ref, (ring, m)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_matrix_products_match_the_triple_loop(objloop, n):
    # on every table of MODULI, with zero entries and rows and negated
    # entries among the drawn matrices, and each B negated as well
    rng = random.Random(f"matrix products {n}")
    for ring, m in MODULI:
        t = residue_table(ring, m)
        mat, neg = MatRing(t, n), objloop.neg(t)
        for k in range(4):
            a, b = ([rng.randrange(t.size) for _ in range(n * n)] for _ in range(2))
            if k & 1:  # a zero entry of A, a zero row of B
                a[rng.randrange(n * n)] = t.zero
                r = rng.randrange(n)
                b[r * n:(r + 1) * n] = [t.zero] * n
            if k & 2:  # the last entry of A negates its first
                a[-1] = neg[a[0]]
            A, B = mat.from_flat_codes(a), mat.from_flat_codes(b)
            assert (A * B).codes == objloop.code_matmul(t, n, a, b), (ring, m)
            assert (-B).codes == tuple(neg[c] for c in b), (ring, m)
            assert (A * -B).codes == objloop.code_matmul(t, n, a, [neg[c] for c in b])


def test_inverse_matches_the_product_rows(objloop):
    found = set()
    for ring, m in MODULI:
        t = residue_table(ring, m)
        inverses = [t.inverse(x) for x in range(t.size)]
        assert inverses == objloop.inv(t), (ring, m)
        found.update(x is None for x in inverses)
    assert found == {True, False}  # units and non-units both met


@pytest.mark.parametrize("ring", RINGS)
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_encode_is_the_code_of_the_euclidean_remainder(ring, data):
    # every associate of the modulus, so each sign of the Hermite vector occurs
    m = data.draw(st.sampled_from([m for r, m in MODULI if r is ring]))
    m = m * data.draw(st.sampled_from(ring.units()))
    big = st.integers(min_value=-10**6, max_value=10**6)
    x = ring.element(data.draw(big), data.draw(big) if ring is not RATIONAL else 0)
    t = residue_table(ring, m)
    r = euclidean_divmod(x, m)[1]
    assert t.encode(x) == t.reps.index(r)
    assert t.reduce(x) == r


@pytest.mark.parametrize("ring,modulus", [
    (RATIONAL, "12"), (GAUSSIAN, "1+i"), (GAUSSIAN, "2i"), (GAUSSIAN, "-3+5i"),
    (GAUSSIAN, "16"), (EISENSTEIN, "2"), (EISENSTEIN, "4+3w")])
def test_residue_table_divides_once_per_residue(monkeypatch, ring, modulus):
    calls = []

    def counted(x, m):
        calls.append(x)
        return euclidean_divmod(x, m)

    monkeypatch.setattr(base_rings, "euclidean_divmod", counted)
    t = ResidueTable(ring, ring.parse(modulus))
    assert len(calls) == t.size


def test_a_wrong_code_map_still_builds_a_table(monkeypatch):
    # codes of x + 1: in Z/6 the sums of ones run 2, 5, 2, ... and never meet
    # the shifted zero, so a walk over the add table for the order of 1 would
    # not end; the characteristic is read off the Hermite box instead
    code = ResidueTable._code
    monkeypatch.setattr(ResidueTable, "_code", lambda self, a, b: code(self, a + 1, b))
    m = RATIONAL.element(6)
    t, ref = ResidueTable(RATIONAL, m), _reference_table(RATIONAL, m)
    assert (t.zero, t.one) != (ref["zero"], ref["one"])
    assert t._sums != ref["add"]  # the first read builds the list, through the shifted codes
    assert t.char == ref["char"] == 6


def test_box_digits_are_f_p_coordinates():
    # in prime characteristic p the box coordinates of a code are its F_p
    # digits: a bijection onto F_p^k that adds like the table
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    checked = {1: 0, 2: 0}
    for ring, m in MODULI:
        t = residue_table(ring, m)
        if t.char not in primes:
            with pytest.raises(UnsupportedCase):
                fp_table_digits(t)
            continue
        p, k, digits, codes = fp_table_digits(t)
        assert p == t.char and t.size == p ** k, (ring, m)
        assert sorted(digits) == list(itertools.product(range(p), repeat=k))
        assert digits[t.zero] == (0,) * k
        assert [codes[radix_encode(digits[x], p)] for x in range(t.size)] == list(range(t.size))
        for a, row in enumerate(t._sums):
            for b, total in enumerate(row):
                assert digits[total] == tuple((u + v) % p for u, v in zip(digits[a], digits[b]))
        checked[k] += 1
    # k = 1: the moduli of prime norm; k = 2: (p) for p = 2, 3, 5, 7 in Z[i] and Z[w]
    assert checked == {1: 15 + 13 + 13, 2: 4 + 4}


def test_a_box_that_is_no_f_p_basis_is_refused(monkeypatch):
    # Z[i]/(2) has the box (2, 0, 2); with c odd the box coordinates would
    # not add mod 2, so the table's digits are refused
    hermite = base_rings._hermite_basis

    def odd_c(m):
        d0, c, d1 = hermite(m)
        return d0, c + 1, d1

    monkeypatch.setattr(base_rings, "_hermite_basis", odd_c)
    with pytest.raises(VerificationFailed, match=r"4 elements is not F_2\^2"):
        fp_table_digits(ResidueTable(GAUSSIAN, GAUSSIAN.element(2)))


def test_fp_view_round_trip_on_every_element(golden):
    # golden mod (1+i)^2 and its matrix target M_2(Z[i]/(2)), where k = 2
    cert = identify_quotient(golden, IdealSpec(GAUSSIAN.parse("1+i"), 2)).certificate
    for ring in (cert.source, cert.target):
        view, count = FpView(ring), len(ring.flat_codes(ring.zero))
        assert view.k == 2
        flats = list(itertools.product(range(ring.table.size), repeat=count))
        assert len(flats) == 256
        for flat in flats:
            x = ring.from_flat_codes(flat)
            assert view.element(view.digits(x)) == x
