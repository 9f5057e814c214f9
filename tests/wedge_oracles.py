"""Raw-coordinate reference for the exact wedge test that the tests compare
arithreg.relations against.

The oracle never adds vectors in Smith coordinates: it sums the wedges
n_i * (coords(lambda_i) ^ coords(1 - lambda_i)) in raw coordinates, over the
pairs (i, j), i < j, of generator indices, and takes the total to Smith
coordinates with one call of ExteriorSquare.reduce.
"""

from itertools import product

from arithreg.relations import coordinates_of, exterior_square


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
