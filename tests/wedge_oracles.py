"""Raw-coordinate reference for the exact wedge test that the tests compare
arithreg.relations against.

The oracle presents the exterior square of Z^k modulo a relation lattice as
raw coordinates over the pairs (i, j), i < j, of generator indices, modulo
the relators r ^ e_j, which it builds index by index with the sign rule
e_i ^ e_j = -(e_j ^ e_i). A raw vector is reduced through the Smith form of
those relators (relator_smith_form), from intmat.snf directly, never through
relations.ExteriorSquare, which a presentation takes over its unit basis.
bloch_sum_vanishes never adds vectors in reduced coordinates: it sums
the wedges n_i * (coords(lambda_i) ^ coords(1 - lambda_i)) in raw
coordinates and reduces the total once.
"""

from functools import lru_cache
from itertools import product

from arithreg.intmat import identity, snf
from arithreg.relations import coordinates_of


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


@lru_cache(maxsize=None)
def relator_smith_form(k, relation_rows):
    """(invariants, V) of snf of wedge_relators: the exterior square of Z^k
    modulo the tuple of relation_rows, 0 marking a free coordinate; all
    invariants 0 and the identity transform when there is no relator."""
    relators = wedge_relators(k, relation_rows)
    dim = k * (k - 1) // 2
    return snf(relators) if relators else ([0] * dim, identity(dim))


def reduce_raw(k, relation_rows, raw):
    """The canonical form of a raw vector in the exterior square of Z^k
    modulo relation_rows: raw * V, each coordinate modulo its invariant."""
    invariants, v = relator_smith_form(k, relation_rows)
    y = [sum(c * row[j] for c, row in zip(raw, v)) for j in range(len(raw))]
    return tuple(c % d if d else c for c, d in zip(y, invariants))


def raw_wedge(u, v):
    """Raw coordinates of u ^ v over the pairs (i, j), i < j, in row order."""
    k = len(u)
    return [u[i] * v[j] - u[j] * v[i] for i in range(k) for j in range(i + 1, k)]


def bloch_sum_vanishes(support, multiplicities, p) -> bool:
    """Whether sum n_i (lambda_i ^ (1 - lambda_i)) is 0 in the exterior square
    of the presentation p, torsion included."""
    total = [0] * (p.rank * (p.rank - 1) // 2)
    for lam, n in zip(support, multiplicities):
        w = raw_wedge(coordinates_of(lam, p), coordinates_of(lam.field.one() - lam, p))
        total = [t + n * c for t, c in zip(total, w)]
    return not any(reduce_raw(p.rank, p.relation_basis, total))


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
