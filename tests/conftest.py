import functools
import types

import pytest

from cycord.base_rings import RingKind, cofactor_det
from cycord.order import SHIPPED_ALGEBRAS, load_algebra


@pytest.fixture(scope="session")
def golden():
    return load_algebra("golden_u_i")


@pytest.fixture(scope="session")
def golden_1pi():
    return load_algebra("golden_u_1pi")


@pytest.fixture(scope="session")
def q7():
    return load_algebra("q7_cubic")


@pytest.fixture(scope="session")
def q15():
    return load_algebra("q15_quartic")


@pytest.fixture(scope="session")
def gauss():
    return load_algebra("gauss_over_Q")


@pytest.fixture(scope="session")
def gauss_u5():
    return load_algebra("gauss_over_Q", u="5")


@pytest.fixture(scope="session")
def shipped():
    """Every shipped algebra by name, loaded once."""
    return {name: load_algebra(name) for name in SHIPPED_ALGEBRAS}


# -- the BaseElement object loop: reference for the int O_K kernels -----------
# Elements are coordinate tuples of BaseElements; every product goes through
# BaseElement objects, as O_K arithmetic did before the int kernels.


def _ref_add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def _ref_mul(ext, x, y):
    out = [ext.base.zero] * ext.n
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            for r, t in enumerate(ext.mult_table[i][j]):
                out[r] = out[r] + xi * yj * t
    return tuple(out)


def _ref_sigma(ext, x, power=1):
    for _ in range(power):
        x = tuple(sum((s * c for s, c in zip(row, x)), ext.base.zero)
                  for row in ext.sigma_matrix)
    return x


def _ref_matmul(ext, A, B):
    """Product of two matrices of coordinate tuples."""
    n = len(A)
    zero = (ext.base.zero,) * ext.n
    return tuple(
        tuple(functools.reduce(_ref_add, (_ref_mul(ext, A[r][k], B[k][c])
                                          for k in range(n)), zero)
              for c in range(n))
        for r in range(n))


def _ref_matrix(algebra, x):
    """M(x) over coordinate tuples, entry by entry: sigma^c of the coordinate
    raised from sigma^0, and the wrapped entries times ubar as O_K products."""
    ext, n = algebra.ext, algebra.n
    ubar = algebra.ubar.coords
    M = []
    for r in range(n):
        row = []
        for c in range(n):
            entry = _ref_sigma(ext, x.zcoords[(r - c) % n].coords, c)
            row.append(_ref_mul(ext, entry, ubar) if r < c else entry)
        M.append(tuple(row))
    return tuple(M)


def _ref_reduced_det(algebra, x):
    """det M(x) by cofactor expansion over coordinate tuples; coordinates of O_K."""
    ext = algebra.ext
    zero = (ext.base.zero,) * ext.n

    def dot(pairs):
        return functools.reduce(_ref_add, (_ref_mul(ext, a, b) for a, b in pairs), zero)

    return cofactor_det(_ref_matrix(algebra, x), dot, neg=lambda x: tuple(-a for a in x))


def _ref_divmod(x, m):
    """euclidean_divmod with every candidate remainder x - q*m taken on objects."""
    ring = x.ring
    num = x * m.conjugate()
    den = m.norm()

    def roundings(p):
        q0, rem = divmod(p, den)
        if 2 * rem < den:
            return (q0,)
        if 2 * rem > den:
            return (q0 + 1,)
        return (q0, q0 + 1)

    best = None
    for qa in roundings(num.a):
        for qb in roundings(num.b) if ring.kind is not RingKind.RATIONAL else (0,):
            q = ring.element(qa, qb)
            r = x - q * m
            key = (r.a, r.b)
            if best is None or key < best[0]:
                best = (key, q, r)
    return best[1], best[2]


def _ref_twisted_mul(ring, x, y):
    """A `TwistedRing` product term by term, summed with the coefficients' `+`."""
    n, C = ring.n, ring.coeffs
    out = [C.zero] * n
    for i in range(n):
        xi = x.zcoords[i]
        if xi.is_zero:
            continue
        for j in range(n):
            yj = y.zcoords[j]
            if yj.is_zero:
                continue
            term = C.mul(xi, C.sigma(yj, i))
            k = i + j
            if k >= n:
                k -= n
                term = C.mul(term, ring.ubar)
            out[k] = out[k] + term
    return type(x)(ring, tuple(out))


def _ref_wrapped_mul(ring, x, y):
    """`TwistedRing.mul` with each wrapped pair's second factor multiplied by
    ubar, one `coeffs.mul` per wrapped pair, as it was before the product
    scaled x_i once per row."""
    n, C = ring.n, ring.coeffs
    pairs = [[] for _ in range(n)]
    ys, at = [(j, yj) for j, yj in enumerate(y.zcoords) if yj], 0
    for i, xi in enumerate(x.zcoords):
        if not xi:
            continue
        ys, at = [(j, C.sigma(yj, i - at)) for j, yj in ys], i
        for j, term in ys:
            k = i + j
            if k >= n:
                k -= n
                term = C.mul(term, ring.ubar)
            pairs[k].append((xi, term))
    return type(x)(ring, tuple(C.dot(p) for p in pairs))


def _ref_scaled_matrix(algebra, x):
    """The entries of M(x) with each wrapped entry scaled by u on its own, one
    scaling per entry above the diagonal, as `AlgebraSpec.matrix` did before
    it scaled each z-coordinate once."""
    n, u = algebra.n, algebra.u
    rows = [[None] * n for _ in range(n)]
    for k, xk in enumerate(x.zcoords):
        for c, entry in enumerate(algebra.ext.sigma_orbit(xk)):
            r = (k + c) % n
            rows[r][c] = entry * u if r < c else entry
    return tuple(tuple(row) for row in rows)


@functools.cache
def _ref_lists(t):
    """The full sum and product lists of table t, every entry the code of a
    sum or product of two representatives by `encode`: the references' own
    lists, independent of the rows the table builds on first read."""
    return ([[t.encode(x + y) for y in t.reps] for x in t.reps],
            [[t.encode(x * y) for y in t.reps] for x in t.reps])


def _ref_residue_dot(S, pairs):
    """`ResidueRing.dot` as a loop over table codes: the multiplication table
    encoded mod m, every product and sum a lookup in the reference lists."""
    t = S.table
    sums, products = _ref_lists(t)
    mult = [[[t.encode(c) for c in cell] for cell in row] for row in S.ext.mult_table]
    out = [t.zero] * S.n
    for x, y in pairs:
        ys = [(j, yj) for j, yj in enumerate(y.codes) if yj != t.zero]
        for row, xi in zip(mult, x.codes):
            if xi == t.zero:
                continue
            for j, yj in ys:
                scale = products[xi][yj]
                if scale == t.zero:
                    continue
                for r, c in enumerate(row[j]):
                    if c != t.zero:
                        out[r] = sums[out[r]][products[scale][c]]
    return tuple(out)


def _ref_residue_sigma(S, codes, power):
    """sigma^power on table codes, column j of the sigma matrix encoded mod m
    as the codes of sigma(b_j)."""
    t, n = S.table, S.n
    sums, products = _ref_lists(t)
    sig = [[t.encode(S.ext.sigma_matrix[r][j]) for r in range(n)] for j in range(n)]
    for _ in range(power):
        out = [t.zero] * n
        for xj, col in zip(codes, sig):
            if xj == t.zero:
                continue
            for r in range(n):
                if col[r] != t.zero:
                    out[r] = sums[out[r]][products[xj][col[r]]]
        codes = tuple(out)
    return codes


def _ref_code_matmul(t, n, a, b):
    """The product of two n x n matrices of table codes, row-major, as the
    triple loop of sum and product lookups that `MatElement` ran."""
    sums, products = _ref_lists(t)
    out = []
    for r in range(0, n * n, n):
        for c in range(n):
            acc = t.zero
            for k in range(n):
                acc = sums[acc][products[a[r + k]][b[k * n + c]]]
            out.append(acc)
    return tuple(out)


def _ref_forward(cert, x):
    """`IsoCertificate.forward` as the loop over every (coefficient, term)
    pair, the terms b_i z^j multiplied by the triple loop."""
    zero, t, n = cert.source.S.table.zero, cert.target.table, cert.target.n
    sums, products = _ref_lists(t)
    acc, zj = list(cert.target.zero.codes), cert.target.one.codes
    for s in x.zcoords:
        for b, code in zip(cert.basis_images, s.codes):
            if code != zero:
                mul = products[code]
                term = _ref_code_matmul(t, n, b.codes, zj)
                acc = [sums[a][mul[c]] for a, c in zip(acc, term)]
        zj = _ref_code_matmul(t, n, zj, cert.z_image.codes)
    return tuple(acc)


def _ref_neg(t):
    """The negation list a table stored: the code of -x per representative x."""
    return [t.encode(-x) for x in t.reps]


def _ref_inv(t):
    """The inverse list a table stored: per code, the column of 1 in its
    product row of the reference lists, None for a non-unit."""
    return [row.index(t.one) if t.one in row else None for row in _ref_lists(t)[1]]


@pytest.fixture(scope="session")
def objloop():
    """O_K arithmetic by BaseElement object loops, on coordinate tuples, the
    residue-ring products and sigma by code loops over the residue tables'
    sum and product lists built entry by entry with `encode`, the matrix
    products, certificate map, negations and inverses of the
    tables by their former loops and lists, object-level references for
    the base-ring divmod and twisted products, and the twisted product and
    matrix embedding that scaled by u per wrapped pair and per entry."""
    return types.SimpleNamespace(mul=_ref_mul, sigma=_ref_sigma, add=_ref_add,
                                 matmul=_ref_matmul, matrix=_ref_matrix,
                                 reduced_det=_ref_reduced_det,
                                 residue_dot=_ref_residue_dot, residue_sigma=_ref_residue_sigma,
                                 code_matmul=_ref_code_matmul, forward=_ref_forward,
                                 neg=_ref_neg, inv=_ref_inv,
                                 divmod=_ref_divmod, twisted_mul=_ref_twisted_mul,
                                 wrapped_mul=_ref_wrapped_mul, scaled_matrix=_ref_scaled_matrix)
