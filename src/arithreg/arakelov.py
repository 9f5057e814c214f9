"""Metrized line bundles on a ring of integers and their arithmetic degree.

A fractional ideal L is stored as integer rows over one denominator (Cohen,
A Course in Computational Algebraic Number Theory, section 4.7): rows is the
row HNF of den * L in integral-basis coordinates, for the least den > 0, so
equal ideals have equal (rows, den). Products never form field elements.
The field's multiplication table T (omega_i * omega_j = sum_k T[i][j][k] *
omega_k, integer entries) makes a*b a bilinear map on coordinates, so
generating an ideal, multiplying two and scaling one are integer bilinear
algebra followed by one canonicalization, intmat.hnf_rational; the product
of two ideals lies over the product of their denominators. The first such
operation builds T, and with it rejects a basis that is not an order.
As an O-module, den * M is generated by d = [O : den M] and a few of its
HNF rows, often one and at most n in any order (the two-element
representation of Cohen, section 4.7), so L * M is spanned by the products
of L's basis with those generators, often 2n rows.

Membership is one exact test: a lies in L when den * a has integral
coordinates and those lie in the row lattice (intmat.in_lattice). The rows
are triangular, so the norm of L is the product of the pivots over den^n.

Closure is tested once, by the same generators. Their span d*O + sum_g g*O
is an O-module that holds every HNF row (each is a generator or already
spanned), so it contains den * L; d and the g lie in den * L, so the span
equals den * L, and rebuilds its HNF, exactly when L is an O-module.
from_rows raises DomainError otherwise.

A metric is one positive number per embedding, conjugation invariant, read
as the squared norm of the first HNF basis vector of the ideal (the
reference section s0); the squared norm of any other section s is
metric[sigma] * |sigma(s/s0)|^2. With this convention the degree of the
trivial bundle with metric exp(-2*t_sigma) at each embedding is the mean of
the t_sigma, which pins the normalization of the half in the degree formula.
Metrics built here come from EmbeddingSet.invariant_vector and are invariant
by construction; a metric from outside is checked with
EmbeddingSet.check_invariant.

The degree itself is
    (log #(L / R s) - (1/2) sum_sigma log h_sigma(s)) / degree(K)
for any nonzero section s, and is independent of that choice. The default
section is s0 itself, which lies in L and has h_sigma(s0) = metric[sigma],
so it takes no membership test and no quotient s/s0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm, prod

from mpmath import mp, mpf

from .errors import DomainError, MembershipError
from .intmat import _scaled_rows, hnf, hnf_rational, identity, in_lattice
from .nf import EmbeddingSet, FieldElement, NumberField, _power, _vec_mat, evaluate


@dataclass(frozen=True)
class FractionalIdeal:
    """Nonzero fractional ideal rows / den: rows is the integer row HNF of
    den times the ideal in integral-basis coordinates, den > 0 the least."""

    field: NumberField
    rows: tuple[tuple[int, ...], ...]
    den: int

    def __post_init__(self):
        n, rows = self.field.degree, self.rows
        if len(rows) != n or any(len(r) != n for r in rows):
            raise DomainError("ideal basis must be square of size the field degree")
        if not all(r[i] > 0 and not any(r[:i]) and all(0 <= h[i] < r[i] for h in rows[:i])
                   for i, r in enumerate(rows)):
            raise DomainError("ideal basis is not in Hermite normal form")
        if self.den <= 0 or gcd(self.den, *(x for r in rows for x in r)) != 1:
            raise DomainError("ideal denominator is not the least positive one")

    @classmethod
    def _canonical(cls, field: NumberField, rows, den: int) -> "FractionalIdeal":
        """The ideal spanned by integer rows over the denominator den."""
        h, den = hnf_rational(rows, den)
        if len(h) != field.degree:
            raise DomainError("rows do not span a full-rank lattice")
        return cls(field, tuple(map(tuple, h)), den)

    @classmethod
    def from_rows(cls, field: NumberField, rows) -> "FractionalIdeal":
        """Canonicalize arbitrary generating rows (rational integral-basis
        coordinates), which must span a module over the ring: building the
        O-module generators is the closure test, and multiply reuses them."""
        ideal = cls._canonical(field, *_scaled_rows(rows))
        ideal._generators  # DomainError unless den * L is an O-module
        return ideal

    @classmethod
    def from_elements(cls, field: NumberField, elems) -> "FractionalIdeal":
        """Ideal generated by field elements as a module over the ring."""
        elems = list(elems)
        if any(el.field != field for el in elems):
            raise DomainError("element and ideal belong to different fields")
        nums = [el._integral_numerators() for el in elems if not el.is_zero()]
        if not nums:
            raise DomainError("the zero ideal is not supported")
        den = lcm(*(d for _, d in nums))
        left = [[c * (den // d) for c in coords] for coords, d in nums]
        return cls._canonical(field, [row for a in left for row in _times(field, a)], den)

    @classmethod
    def principal(cls, elem: FieldElement) -> "FractionalIdeal":
        return cls.from_elements(elem.field, [elem])

    @classmethod
    def unit_ideal(cls, field: NumberField) -> "FractionalIdeal":
        return cls.principal(field.one())

    def reference_section(self) -> FieldElement:
        """First HNF basis vector; anchors metrics and default sections."""
        basis, d = self.field._scaled_basis
        return self.field._reduce(_vec_mat(self.rows[0], basis), self.den * d)

    def contains(self, elem: FieldElement) -> bool:
        if elem.field != self.field:
            raise DomainError("element and ideal belong to different fields")
        coords, d = elem._integral_numerators()
        scaled = [self.den * c for c in coords]
        return (not any(c % d for c in scaled)
                and in_lattice([c // d for c in scaled], self.rows))

    @cached_property
    def _generators(self) -> tuple[int, tuple[list[list[int]], ...]]:
        """(d, mats): den * L = d*O + sum_g g*O with d = [O : den L] and one
        matrix per further generator g, whose row j is g * omega_j. Every
        lattice of index d contains d*Z^n, so d lies in den * L in any order.
        HNF rows are added in order, skipping those already spanned, until
        the HNF of their O-multiples is rows: a sublattice with the same HNF
        is the whole lattice. At most n further generators, usually one.
        When L is no O-module the span outgrows rows: DomainError."""
        n = self.field.degree
        d = prod(r[i] for i, r in enumerate(self.rows))
        span = [[d * x for x in row] for row in identity(n)]
        target = [list(r) for r in self.rows]
        mats = []
        for row in self.rows:
            if span == target:
                break
            if not in_lattice(row, span):
                mats.append(_times(self.field, row))
                span = hnf(span + mats[-1])
        if span != target:
            raise DomainError("lattice is not closed under ring multiplication")
        return d, tuple(mats)

    def multiply(self, other: "FractionalIdeal") -> "FractionalIdeal":
        """The product through the generators of other, so a power reuses
        its base's: (d O + sum_g g O) * M = d M + sum_g g M for the module
        M = den * self, n rows per generator."""
        if self.field != other.field:
            raise DomainError("ideals over different fields")
        d, mats = other._generators
        rows = [[d * x for x in r] for r in self.rows]
        for mat in mats:
            rows.extend(_vec_mat(r, mat) for r in self.rows)
        return FractionalIdeal._canonical(self.field, rows, self.den * other.den)

    def power(self, n: int) -> "FractionalIdeal":
        """The n-th power by nf._power: n.bit_length() - 2 + popcount(n)
        products for n >= 1, none by the unit ideal; the unit ideal for 0."""
        if n < 0:
            raise DomainError("negative ideal powers are not supported")
        if n == 0:
            return FractionalIdeal.unit_ideal(self.field)
        return _power(self, n, FractionalIdeal.multiply)

    def scale(self, a: FieldElement) -> "FractionalIdeal":
        """a * L as (a) * L, through the cached generators of L."""
        if a.is_zero():
            raise DomainError("cannot scale an ideal by zero")
        return FractionalIdeal.principal(a).multiply(self)

    @property
    def norm(self) -> Fraction:
        """The absolute norm [O : den L] / den^n, the index being the product
        of the pivots."""
        return Fraction(prod(r[i] for i, r in enumerate(self.rows)), self.den ** len(self.rows))


def _times(field: NumberField, a) -> list[list[int]]:
    """The matrix of multiplication by a (integral-basis coordinates): row
    j holds the coordinates of a * omega_j; T[j][i] = T[i][j]."""
    return [_vec_mat(a, table_j) for table_j in field.multiplication_table]


def index_quotient(ideal: FractionalIdeal, s: FieldElement) -> Fraction:
    """#(L / R s) for a nonzero section s of L; always a positive integer."""
    if s.is_zero():
        raise DomainError("the zero section spans nothing")
    if not ideal.contains(s):
        raise MembershipError("section does not lie in the ideal")
    return _index(ideal, s)


def _index(ideal: FractionalIdeal, s: FieldElement) -> Fraction:
    """|N(s)| / N(L) for a nonzero s known to lie in L, checked integral."""
    value = abs(s.norm()) / ideal.norm
    if value.denominator != 1:
        raise DomainError("index is not integral; the ideal basis is inconsistent")
    return value


@dataclass(frozen=True)
class Metric:
    """Positive squared-norm values per embedding, conjugation invariant;
    anchored to the reference section of the accompanying ideal."""

    values: tuple

    def __post_init__(self):
        if any(not (v > 0) for v in self.values):
            raise DomainError("metric values must be positive")


@dataclass(frozen=True)
class MetrizedLineBundle:
    ideal: FractionalIdeal
    metric: Metric

    def __post_init__(self):
        if len(self.metric.values) != self.ideal.field.degree:
            raise DomainError("metric must supply one value per embedding")

    @property
    def field(self) -> NumberField:
        return self.ideal.field


def standard_metric(ideal: FractionalIdeal, e: EmbeddingSet) -> Metric:
    """|sigma(s0)|^2 at each embedding: the metric pulled back from K."""
    s0 = evaluate(ideal.reference_section(), e)
    return Metric(e.invariant_vector(lambda idx: abs(s0[idx]) ** 2))


def arithmetic_degree(bundle: MetrizedLineBundle, e: EmbeddingSet,
                      s: FieldElement | None = None) -> mpf:
    """Degree of a metrized bundle, via any nonzero section (default: the
    reference section). Independent of the choice of section."""
    return _degree_and_index(bundle, e, s)[0]


def _degree_and_index(bundle: MetrizedLineBundle, e: EmbeddingSet,
                      s: FieldElement | None) -> tuple[mpf, Fraction]:
    """arithmetic_degree together with the index_quotient of the section it
    used, so a caller reporting both tests the membership once. The default
    section s0 is the first HNF row, so it needs no membership test, and
    s/s0 = 1 leaves the metric as it is."""
    e.check_invariant(bundle.metric.values, "metric")
    s0 = bundle.ideal.reference_section()
    if s is None:
        idx_count = _index(bundle.ideal, s0)
    else:
        idx_count = index_quotient(bundle.ideal, s)
        ratio = evaluate(s / s0, e)
    with mp.workdps(e.working_dps):
        log_index = mp.log(mpf(idx_count.numerator))  # _index proves it an integer
        metric_part = mpf(0)
        for i in e.class_representatives:
            weight = 1 if e.is_real(i) else 2
            norm_sq = bundle.metric.values[i]
            if s is not None:
                norm_sq *= abs(ratio[i]) ** 2
            metric_part += weight * mp.log(norm_sq)
        return (log_index - metric_part / 2) / e.degree, idx_count


def tensor(a: MetrizedLineBundle, b: MetrizedLineBundle,
           e: EmbeddingSet) -> MetrizedLineBundle:
    """Tensor product: ideals multiply, metrics multiply per embedding (with
    the reference sections re-anchored to the product ideal's HNF basis)."""
    if a.field != b.field:
        raise DomainError("bundles over different fields")
    ideal = a.ideal.multiply(b.ideal)
    s0a = a.ideal.reference_section()
    s0b = b.ideal.reference_section()
    s0 = ideal.reference_section()
    ratio = evaluate(s0 / (s0a * s0b), e)
    vals = e.invariant_vector(lambda i: a.metric.values[i] * b.metric.values[i]
                              * abs(ratio[i]) ** 2)
    return MetrizedLineBundle(ideal, Metric(vals))


def twist_metric(bundle: MetrizedLineBundle, tuple_values,
                 e: EmbeddingSet) -> MetrizedLineBundle:
    """Rescale the metric by exp(-2 * t_sigma); t must be conjugation
    invariant. Twisting by t then -t restores the original bundle."""
    t = list(tuple_values)
    e.check_invariant(t, "twist vector")
    vals = e.invariant_vector(lambda i: bundle.metric.values[i] * mp.exp(-2 * t[i]))
    return MetrizedLineBundle(bundle.ideal, Metric(vals))


def transport(bundle: MetrizedLineBundle, a: FieldElement,
              e: EmbeddingSet) -> MetrizedLineBundle:
    """Isomorphic bundle (a L, transported metric); degree-preserving."""
    if a.is_zero():
        raise DomainError("cannot transport along zero")
    ideal = bundle.ideal.scale(a)
    s0_old = bundle.ideal.reference_section()
    s0_new = ideal.reference_section()
    ratio = evaluate(s0_new / (a * s0_old), e)
    vals = e.invariant_vector(lambda i: bundle.metric.values[i] * abs(ratio[i]) ** 2)
    return MetrizedLineBundle(ideal, Metric(vals))
