"""The height on the unit-like part of the differential K-theory of a ring
of integers, and its agreement with the arithmetic degree.

A class here is finite data: a conjugation-invariant real tuple over the
embeddings (an H^(-1)-type class; with a zero-dimensional complex point set
all differential-form data collapses to per-embedding numbers) together with
a positive integer N recording that the N-th power of the underlying class
is 1 + (that tuple). The height is the embedding average divided by N.
Invariance of a supplied tuple is checked by EmbeddingSet.check_invariant;
the tuples computed here come from EmbeddingSet.invariant_vector.

c_hat_height computes the height of the class attached to a metrized line
bundle through a caller-supplied trivialization of ideal^N and must equal
arithmetic_degree; the equality is the tested content, never assumed.
"""

from __future__ import annotations

from fractions import Fraction

from mpmath import mp, mpf

from .arakelov import MetrizedLineBundle
from .errors import DomainError, PrincipalityError
from .nf import EmbeddingSet, FieldElement, evaluate


def height(order: int, scaling_vector, e: EmbeddingSet) -> mpf:
    """Height of the class whose order-th power is 1 + a(scaling_vector):
    the mean of the conjugation-invariant vector over the embeddings of e,
    divided by the order."""
    if order < 1:
        raise DomainError("order hint must be a positive integer")
    e.check_invariant(scaling_vector, "scaling vector")
    with mp.workdps(e.working_dps):
        return mp.fsum(scaling_vector) / len(scaling_vector) / order


def height_scaled_trivial(f_values, e: EmbeddingSet) -> mpf:
    """Height of the trivial bundle rescaled by a positive invariant
    function f: equals -(1/(2n)) sum_sigma log f(sigma)."""
    f = _check_positive_invariant(f_values, e)
    with mp.workdps(e.working_dps):
        return -mp.fsum(mp.log(v) for v in f) / (2 * e.degree)


def scaling_alpha(rank: int, f_values, e: EmbeddingSet) -> tuple:
    """Per-embedding class of the cycle difference under metric rescaling by
    f on a rank-`rank` bundle: sigma -> -(rank/2) log f(sigma)."""
    if rank < 1:
        raise DomainError("rank must be a positive integer")
    f = _check_positive_invariant(f_values, e)
    with mp.workdps(e.working_dps):
        return tuple(-mpf(rank) / 2 * mp.log(v) for v in f)


def _check_positive_invariant(f_values, e: EmbeddingSet):
    f = list(f_values)
    e.check_invariant(f, "value vector")
    if any(not (v > 0) for v in f):
        raise DomainError("values must be positive")
    return f


def c_hat_height(bundle: MetrizedLineBundle, n_power: int,
                 generator: FieldElement, e: EmbeddingSet) -> mpf:
    """Height of the class of a metrized bundle, computed through the N-th
    power trivialized by `generator`.

    The claim that generator generates J = ideal^N is verified exactly, never
    trusted: |N(generator)| against N(ideal)^N first, which rejects most wrong
    generators without forming J, then generator in J and N(J) = |N(generator)|,
    so (generator) = J. The result must agree with arithmetic_degree(bundle, e).
    """
    if n_power < 1:
        raise DomainError("the power must be a positive integer")
    if generator.is_zero():
        raise DomainError("generator must be nonzero")
    norm = abs(generator.norm())
    if not (_is_power(bundle.ideal.norm, n_power, norm)
            and (power := bundle.ideal.power(n_power)).contains(generator)
            and power.norm == norm):
        raise PrincipalityError(
            "generator does not generate the stated power of the ideal")

    ratio = evaluate(generator / bundle.ideal.reference_section() ** n_power, e)
    f = e.invariant_vector(lambda i: -mp.log(bundle.metric.values[i] ** n_power
                                             * abs(ratio[i]) ** 2) / 2)
    return height(n_power, f, e)


def _is_power(base: Fraction, n: int, target: Fraction) -> bool:
    """Whether base^n == target for positive fractions, which are in lowest
    terms: numerator against numerator, denominator against denominator. An
    integer a > 1 of b bits has a^n of n (b - 1) + 1 to n b bits, so a^n is
    formed only when it has under twice the bits of its counterpart."""
    return all(a == t == 1 or (a > 1 and n * (a.bit_length() - 1) < t.bit_length()
                               <= n * a.bit_length() and a ** n == t)
               for a, t in ((base.numerator, target.numerator),
                            (base.denominator, target.denominator)))
