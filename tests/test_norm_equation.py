"""The norm equation of `structure.solve_norm_equation` against the congruence.

The solver walks the powers of its component's generator and returns the
first one whose norm is the target.  The reference here is the congruence
it replaced: the discrete log t of the target, by baby-step giant-step over
a dict of the generator's powers, then M e = t (mod Q-1) with
M = (Q-1)/(P-1), solved through a gcd and a modular inverse.
"""

import functools
import math

import pytest

from cycord.base_rings import divides, is_prime_element
from cycord.errors import RamifiedPrime, WrongCase
from cycord.order import SHIPPED_ALGEBRAS
from cycord.residue import factor_prime, residue_ring
from cycord.structure import ComponentField, solve_norm_equation

NORM_BOUND = 13
# the prime of each certify job, and the unit targets walked per algebra
CERTIFY_PRIMES = {"golden_u_i": "1+i", "q7_cubic": "2", "q15_quartic": "1+i", "gauss_over_Q": "5"}
SOLVED = {"golden_u_i": 41, "golden_u_1pi": 41, "q7_cubic": 77, "q15_quartic": 25,
          "gauss_over_Q": 50}


def _primes(base):
    """One prime per associate class with norm at most NORM_BOUND."""
    r = range(-NORM_BOUND, NORM_BOUND + 1)
    rb = (0,) if base.kind.name == "RATIONAL" else r
    keys = {min((u * x).key for u in base.units())
            for x in (base.element(a, b) for a in r for b in rb)
            if not x.is_zero and x.ideal_norm() <= NORM_BOUND and is_prime_element(x)}
    return [base.element(a, b) for a, b in sorted(keys)]


def _dlog(comp, x):
    """Discrete log of the unit x base the generator, by baby-step giant-step:
    a dict over the first m powers, then steps of g^-m; None if absent."""
    g, order = comp.generator(), comp.size - 1
    m = math.isqrt(order) + 1
    baby, k = {}, comp.v
    for j in range(m):
        baby.setdefault(k.encode(), j)
        k = comp.S.mul(k, g)
    giant, k = comp.inv(comp.pow(g, m)), x
    for i in range(m + 1):
        j = baby.get(k.encode())
        if j is not None:
            return (i * m + j) % order
        k = comp.S.mul(k, giant)
    return None


def _reference_solve(comp, target):
    """k = g^e with M e = t (mod Q-1), or None where no such e has norm target."""
    Q, P = comp.size, comp.S.table.size
    M = (Q - 1) // (P - 1)
    t = _dlog(comp, target)
    d = math.gcd(M, Q - 1)
    if t is None or t % d:
        return None
    mod = (Q - 1) // d
    e = (t // d) * pow(M // d, -1, mod) % mod
    k = comp.pow(comp.generator(), e)
    return k if comp.norm(k) == target else None


@pytest.fixture
def norm_calls(monkeypatch):
    """The arguments of every `ComponentField.norm` call, and one generator
    search per component, as in a certificate build."""
    calls, norm = [], ComponentField.norm
    monkeypatch.setattr(ComponentField, "norm", lambda self, x: calls.append(x) or norm(self, x))
    monkeypatch.setattr(ComponentField, "generator", functools.cache(ComponentField.generator))
    return calls


@pytest.mark.parametrize("name", SHIPPED_ALGEBRAS)
def test_norm_walk_matches_the_congruence(shipped, norm_calls, name):
    ext = shipped[name].ext
    walked, solved = set(), 0
    for alpha in _primes(ext.base):
        try:
            split = factor_prime(ext, alpha)
        except RamifiedPrime:
            continue
        walked.add(alpha)
        S = residue_ring(ext, alpha)
        P = S.table.size
        for v in split.idempotents:
            comp = ComponentField(S, v, split.f, split.g)
            for code in range(P):
                if code == S.table.zero:
                    continue
                target = v * S.table.decode(code)
                norm_calls.clear()
                k = solve_norm_equation(comp, target)
                assert len(norm_calls) <= P - 1, (alpha, code)
                assert comp.norm(k) == target
                assert k == _reference_solve(comp, target), (alpha, code)
                solved += 1
    if name in CERTIFY_PRIMES:
        alpha = ext.base.parse(CERTIFY_PRIMES[name])
        assert any(divides(alpha, q) and divides(q, alpha) for q in walked)
    assert solved == SOLVED[name]


def test_a_target_outside_f_p_walks_every_unit(gauss, norm_calls):
    # F_9 over F_3: the generator has order 8, so it is no unit of F_3
    S = residue_ring(gauss.ext, gauss.ext.base.element(3))
    comp = ComponentField(S, S.one, f=2, step=1)
    g = comp.generator()
    with pytest.raises(WrongCase):
        solve_norm_equation(comp, g)
    assert len(norm_calls) == comp.size - 1
    assert _reference_solve(comp, g) is None
