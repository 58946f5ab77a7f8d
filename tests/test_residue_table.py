"""The residue tables of O_F/(m) against the tables built entry by entry.

`ResidueTable` divides once per residue and reduces everything else in its
Hermite box; the reference here builds each table with one
`euclidean_divmod` per entry.
"""

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
    residue_table,
)

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
        assert {name: getattr(t, name) for name in ref} == ref, (ring, m)


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
    assert t.add != ref["add"]
    assert t.char == ref["char"] == 6
