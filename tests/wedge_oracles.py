"""Raw-coordinate reference for the exact wedge test that the tests compare
arithreg.relations against.

The oracle never adds vectors in Smith coordinates: it sums the wedges
n_i * (coords(lambda_i) ^ coords(1 - lambda_i)) in raw coordinates, over the
pairs (i, j), i < j, of generator indices, and takes the total to Smith
coordinates with one call of ExteriorSquare.reduce. The relators of the
exterior square are built here index by index, with the sign rule
e_i ^ e_j = -(e_j ^ e_i), not by the raw-wedge formula that relations uses.
"""

from itertools import product

from arithreg.intmat import identity, snf
from arithreg.relations import ExteriorSquare, coordinates_of, exterior_square


def wedge_relators(k, relation_rows):
    """The nonzero relators r ^ e_j, for each relation r and then each j < k,
    as raw-coordinate rows: r ^ e_j = sum_i r_i e_i ^ e_j, entered at the
    pair (i, j) when i < j and with its sign flipped at (j, i) when i > j."""
    pairs = tuple((i, j) for i in range(k) for j in range(i + 1, k))
    index = {p: c for c, p in enumerate(pairs)}
    dim = len(pairs)
    relators = []
    for r in relation_rows:
        for j in range(k):
            row = [0] * dim
            nonzero = False
            for i in range(k):
                if i == j or r[i] == 0:
                    continue
                if i < j:
                    row[index[(i, j)]] += r[i]
                else:
                    row[index[(j, i)]] -= r[i]
                nonzero = True
            if nonzero:
                relators.append(row)
    return relators


def exterior_square_by_relators(k, relation_rows):
    """The ExteriorSquare of Z^k modulo relation_rows from snf of
    wedge_relators, the identity transform when there is no relator."""
    relators = wedge_relators(k, relation_rows)
    if not relators:
        dim = k * (k - 1) // 2
        return ExteriorSquare(k, (0,) * dim, tuple(tuple(row) for row in identity(dim)))
    invariants, v = snf(relators)
    return ExteriorSquare(k, tuple(invariants), tuple(tuple(row) for row in v))


def raw_wedge(u, v):
    """Raw coordinates of u ^ v over the pairs (i, j), i < j, in row order."""
    k = len(u)
    return [u[i] * v[j] - u[j] * v[i] for i in range(k) for j in range(i + 1, k)]


def bloch_sum_vanishes(support, multiplicities, p) -> bool:
    """Whether sum n_i (lambda_i ^ (1 - lambda_i)) is 0 in the exterior square
    of the presentation p, torsion included."""
    sq = exterior_square(p)
    total = [0] * sq.dim
    for lam, n in zip(support, multiplicities):
        w = raw_wedge(coordinates_of(lam, p), coordinates_of(lam.field.one() - lam, p))
        total = [t + n * c for t, c in zip(total, w)]
    return not any(sq.reduce(total))


def exceptional_units(field, nonzero: int = 2):
    """The lambda with lambda and 1 - lambda both units whose power-basis
    coefficients lie in {-1, 0, 1}, at most `nonzero` of them nonzero."""
    out = []
    for coeffs in product((-1, 0, 1), repeat=field.degree):
        if 0 < sum(1 for c in coeffs if c) <= nonzero:
            lam = field.element(list(coeffs))
            if lam.is_unit() and (field.one() - lam).is_unit():
                out.append(lam)
    return out
