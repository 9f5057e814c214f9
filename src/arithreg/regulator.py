"""Per-embedding regulator vectors, each a tuple of one mpf per embedding in
the order of the EmbeddingSet.

Two kinds of vectors are produced: log-modulus vectors of units, which are
conjugation-invariant and sum to zero by the product formula, and value
vectors of formal sums under the single-valued dilogarithm, which flip sign
under conjugation (the stored real number is the coefficient of i) and
vanish identically at real embeddings. Conjugation equivariance is exact by
construction: each value is computed once per conjugacy class and mirrored
onto the partner embedding, by EmbeddingSet.invariant_vector for the
log-modulus vectors and with a sign flip in k3_regulator.

k3_regulator takes every formal sum over one support in one call, each an
integer row of multiplicities, as bloch-check's kernel basis comes: each
support element is evaluated once (nf.evaluate gives all its conjugates)
and checked for degeneracy. D is computed once per anharmonic orbit, then
shared by every sum that uses it:
D(z) = D(1-1/z) = D(1/(1-z)) = -D(1/z) = -D(1-z) = -D(z/(z-1)), and every
embedding is a field map, so a support element mu in the orbit of an
earlier lambda takes D(sigma(mu)) = +-D(sigma(lambda)). Whether mu is in
that orbit is decided exactly, by multiplying field elements, never by
comparing floats. Nothing is kept between calls.
"""

from __future__ import annotations

from mpmath import mp, mpf
from mpmath.libmp import fone, mpf_add, mpf_lt, mpf_mul, mpf_sub, round_nearest

from .dilog import bloch_wigner
from .errors import DomainError, PrecisionError
from .nf import EmbeddingSet, FieldElement, evaluate


def unit_regulator(lam: FieldElement, e: EmbeddingSet) -> tuple:
    """Vector of log|sigma(lam)| over all embeddings of a unit."""
    if not lam.is_unit():
        raise DomainError("unit regulator requires a unit")
    conjugates = evaluate(lam, e)
    return e.invariant_vector(lambda idx: mp.log(abs(conjugates[idx])))


def k3_regulator(support, rows, e: EmbeddingSet) -> list[tuple]:
    """For each row n of multiplicities over the support lambda, the vector
    sigma -> -sum_i n_i D(sigma(lambda_i)) of the formal sum
    sum_i n_i [lambda_i], coefficient of i; DomainError for a row whose
    length is not the support's.

    With no rows nothing is evaluated. Otherwise each support element is
    evaluated and checked for degeneracy once per pair representative, used
    or not; the check runs on the raw parts of the value
    (_near_zero_or_one). A support element that some n_i != 0 needs takes
    its D values from the first earlier one in its anharmonic orbit
    (_orbit_sign), negated for an odd orbit map, and computes them at each
    pair representative otherwise; every sum runs in support order over the
    nonzero n_i.
    Exactly zero at real embeddings; values at conjugate embeddings are exact
    negatives. The kernel condition on each row is the caller's
    responsibility (use relations.verify_bloch_element when a presentation
    is available).
    """
    if any(len(row) != len(support) for row in rows):
        raise DomainError("support and multiplicities differ in length")
    reps = e.pair_representatives
    vectors = [[mpf(0)] * e.degree for _ in rows]
    if rows and reps:
        with mp.workdps(e.working_dps):
            tol2 = (mpf(10) ** (-2 * (e.precision // 2)))._mpf_  # squared: no square roots
            dvalues = []  # per support element: D at each pair representative, or None
            bases = []  # (lambda, 1 - lambda, D values) of each orbit met so far
            for k, lam in enumerate(support):
                conjugates = evaluate(lam, e)
                zs = [conjugates[idx] for idx in reps]
                if any(_near_zero_or_one(z._mpc_, tol2) for z in zs):
                    raise PrecisionError(
                        "support element embeds onto 0 or 1; this signals a "
                        "precision failure for a valid support")
                d = None
                if any(row[k] for row in rows):
                    for base, one_minus, base_d in bases:
                        sign = _orbit_sign(lam, base, one_minus)
                        if sign:
                            d = base_d if sign > 0 else [-v for v in base_d]
                            break
                    else:
                        d = [bloch_wigner(z, e.precision) for z in zs]
                        bases.append((lam, 1 - lam, d))
                dvalues.append(d)
            for row, values in zip(rows, vectors):
                for r, idx in enumerate(reps):
                    acc = mpf(0)
                    for d, mult in zip(dvalues, row):
                        if mult:
                            acc += mult * d[r]
                    values[idx] = -acc
                    values[e.conjugate_index(idx)] = acc
    return [tuple(values) for values in vectors]


def _near_zero_or_one(z, tol2) -> bool:
    """min(x^2, (x-1)^2) + y^2 < tol2 for the raw mpc z = (x, y) and the raw
    mpf tol2, by the libmp calls of the mpf operators at mp.prec, rounding
    to nearest: the boolean of the operator form, bit for bit. x ** 2 rounds
    the same exact square as x * x."""
    prec = mp.prec
    x, y = z
    x1 = mpf_sub(x, fone, prec, round_nearest)
    square, square1 = mpf_mul(x, x, prec, round_nearest), mpf_mul(x1, x1, prec, round_nearest)
    nearest = square1 if mpf_lt(square1, square) else square
    return mpf_lt(mpf_add(nearest, mpf_mul(y, y, prec, round_nearest), prec, round_nearest),
                  tol2)


def _orbit_sign(mu: FieldElement, lam: FieldElement, one_minus: FieldElement) -> int:
    """s with D(mu) = s * D(lam) when mu is in the anharmonic orbit of lam,
    0 otherwise; one_minus is 1 - lam. Exact and without inverting:
    mu = lam (+1) or 1-lam (-1), else mu*lam = 1 for 1/lam (-1) or lam-1
    for (lam-1)/lam (+1), else mu*(1-lam) = 1 for 1/(1-lam) (+1) or -lam
    for lam/(lam-1) (-1)."""
    if mu == lam:
        return 1
    if mu == one_minus:
        return -1
    for factor, target, sign in ((lam, -one_minus, 1), (one_minus, -lam, -1)):
        prod = mu * factor
        if prod.is_one():
            return -sign
        if prod == target:
            return sign
    return 0

