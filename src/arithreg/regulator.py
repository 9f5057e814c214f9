"""Per-embedding regulator vectors.

Two kinds of vectors are produced: log-modulus vectors of units, which are
conjugation-invariant and sum to zero by the product formula, and value
vectors of formal sums under the single-valued dilogarithm, which flip sign
under conjugation (the stored real number is the coefficient of i) and
vanish identically at real embeddings. Conjugation equivariance is exact by
construction: each value is computed once per conjugacy class and mirrored
onto the partner embedding, by EmbeddingSet.invariant_vector for the
log-modulus vectors and with a sign flip in k3_regulator.

k3_regulator takes every formal sum over one support in one call, as
bloch-check's kernel basis comes: each support element is evaluated once
(nf.evaluate gives all its conjugates) and each D(sigma(lambda)) is
computed once, then shared by every sum that uses it. Nothing is kept
between calls.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp, mpf

from .dilog import bloch_wigner
from .errors import DomainError, PrecisionError
from .nf import EmbeddingSet, FieldElement, evaluate
from .relations import BlochElement

WEIGHT_UNIT = "unit"
WEIGHT_K3 = "k3"


@dataclass(frozen=True)
class RegulatorVector:
    embedding_set: EmbeddingSet
    values: tuple
    weight: str

    def __post_init__(self):
        if self.weight not in (WEIGHT_UNIT, WEIGHT_K3):
            raise DomainError(f"unknown weight {self.weight!r}")
        if len(self.values) != self.embedding_set.degree:
            raise DomainError("value vector length does not match embedding count")

    def to_record(self) -> dict:
        digits = self.embedding_set.precision
        return {
            "weight": self.weight,
            "values": [mp.nstr(v, digits) for v in self.values],
            "value_basis": "1",
            "embedding_order": "real embeddings ascending, then complex by (re, im)",
        }


def unit_regulator(lam: FieldElement, e: EmbeddingSet) -> RegulatorVector:
    """Vector of log|sigma(lam)| over all embeddings of a unit."""
    if not lam.is_unit():
        raise DomainError("unit regulator requires a unit")
    conjugates = evaluate(lam, e)
    values = e.invariant_vector(lambda idx: mp.log(abs(conjugates[idx])))
    return RegulatorVector(e, values, WEIGHT_UNIT)


def k3_regulator(elements, e: EmbeddingSet) -> list[RegulatorVector]:
    """For each formal sum x = sum_i n_i [lambda_i] of elements, the vector
    sigma -> -sum_i n_i D(sigma(lambda_i)), coefficient of i.

    The elements share one support (DomainError otherwise), so each support
    element is evaluated and checked for degeneracy once per pair
    representative, and each D(sigma(lambda_i)) that some n_i != 0 needs is
    computed once; every sum runs in support order over the nonzero n_i.
    Exactly zero at real embeddings; values at conjugate embeddings are exact
    negatives. The kernel condition on each x is the caller's responsibility
    (use relations.verify_bloch_element when a presentation is available).
    """
    elements = list(elements)
    support = elements[0].support if elements else ()
    if any(x.support != support for x in elements):
        raise DomainError("k3_regulator needs elements over one support")
    reps = e.pair_representatives
    rows = [[mpf(0)] * e.degree for _ in elements]
    if reps:
        with mp.workdps(e.working_dps):
            degenerate_tol = mpf(10) ** (-(e.precision // 2))
            dvalues = []  # per support element: D at each pair representative, or None
            for k, lam in enumerate(support):
                conjugates = evaluate(lam, e)
                zs = [conjugates[idx] for idx in reps]
                if any(abs(z) < degenerate_tol or abs(z - 1) < degenerate_tol for z in zs):
                    raise PrecisionError(
                        "support element embeds onto 0 or 1; this signals a "
                        "precision failure for a valid support")
                needed = any(x.multiplicities[k] for x in elements)
                dvalues.append([bloch_wigner(z, e.precision) for z in zs] if needed else None)
            for x, values in zip(elements, rows):
                for r, idx in enumerate(reps):
                    acc = mpf(0)
                    for d, mult in zip(dvalues, x.multiplicities):
                        if mult:
                            acc += mult * d[r]
                    values[idx] = -acc
                    values[e.conjugate_index(idx)] = acc
    return [RegulatorVector(e, tuple(values), WEIGHT_K3) for values in rows]


def s_map(v: RegulatorVector) -> mpf:
    """Average of a unit-weight vector over all embeddings."""
    if v.weight != WEIGHT_UNIT:
        raise DomainError("the averaging map is defined on unit-weight vectors")
    with mp.workdps(v.embedding_set.working_dps):
        return mp.fsum(v.values) / v.embedding_set.degree
