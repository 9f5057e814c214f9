"""Metrized line bundles on a ring of integers and their arithmetic degree.

A fractional ideal is stored as a canonical (HNF) Z-basis in integral-basis
coordinates: rational rows, whose lcm of denominators scales them to an
integer HNF. Products never form field elements. The field's multiplication
table T (omega_i * omega_j = sum_k T[i][j][k] * omega_k, integer entries)
makes a*b a bilinear map on coordinates, so generating an ideal, multiplying
two, scaling one and testing closure under the ring are integer bilinear
algebra followed by an integer HNF or an exact lattice-membership test. The
first such operation builds T, and with it rejects a basis that is not an
order.

Closure is tested on ring generators only (NumberField.ring_generators): x
when it lies in the order, with every basis element outside Z[x], or the
whole basis when x lies outside the order. Every omega_k then lies in Z[x]
or among the generators, and the generators lie in the order, so L*g in L
for each generator g gives L*O in L; on a power basis that is n membership
tests instead of n^2.

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
for any nonzero section s, and is independent of that choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from mpmath import mp, mpf

from .errors import DomainError, MembershipError
from .intmat import (_integer_inverse, _scaled_rows, det_fraction, hnf, hnf_rational, identity,
                     in_lattice)
from .nf import EmbeddingSet, FieldElement, NumberField, _vec_mat, evaluate
from .precision import DEFAULT_DIGITS


@dataclass(frozen=True)
class FractionalIdeal:
    """Nonzero fractional ideal as a canonical HNF Z-basis over the integral
    basis of the ring of integers."""

    field: NumberField
    basis_matrix: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        n = self.field.degree
        if len(self.basis_matrix) != n or any(len(r) != n for r in self.basis_matrix):
            raise DomainError("ideal basis must be square of size the field degree")
        if self.norm == 0:
            raise DomainError("ideal basis is singular")

    @classmethod
    def from_rows(cls, field: NumberField, rows, check: bool = True) -> "FractionalIdeal":
        """Canonicalize arbitrary generating rows (integral-basis coords)."""
        h = hnf_rational([[Fraction(x) for x in row] for row in rows])
        if len(h) != field.degree:
            raise DomainError("rows do not span a full-rank lattice")
        ideal = cls(field, tuple(tuple(r) for r in h))
        if check and not ideal._is_module_closed():
            raise DomainError("lattice is not closed under ring multiplication")
        return ideal

    @classmethod
    def from_elements(cls, field: NumberField, elems) -> "FractionalIdeal":
        """Ideal generated by field elements as a module over the ring."""
        elems = [el for el in elems if not el.is_zero()]
        if not elems:
            raise DomainError("the zero ideal is not supported")
        return cls._spanned_by_products(field, [el.integral_coords() for el in elems],
                                        identity(field.degree))

    @classmethod
    def _spanned_by_products(cls, field: NumberField, left, right) -> "FractionalIdeal":
        """Canonical ideal spanned by every product a*b, a in left, b in right."""
        rows, denom = _products(field, left, right)
        h = hnf(rows)
        if len(h) != field.degree:
            raise DomainError("rows do not span a full-rank lattice")
        return cls(field, tuple(tuple(Fraction(x, denom) for x in row) for row in h))

    @classmethod
    def principal(cls, elem: FieldElement) -> "FractionalIdeal":
        return cls.from_elements(elem.field, [elem])

    @classmethod
    def unit_ideal(cls, field: NumberField) -> "FractionalIdeal":
        return cls.principal(field.one())

    def _is_module_closed(self) -> bool:
        rows, denom = _products(self.field, self.field.ring_generators, self.basis_matrix)
        lattice = [[int(x * denom) for x in row] for row in self.basis_matrix]
        return all(in_lattice(row, lattice) for row in rows)

    def element_from_coords(self, coords) -> FieldElement:
        return self.field.element(self.field.integral_coords_to_power(coords))

    def reference_section(self) -> FieldElement:
        """First HNF basis vector; anchors metrics and default sections."""
        return self.element_from_coords(self.basis_matrix[0])

    @cached_property
    def _basis_inverse(self) -> tuple[list[list[int]], int]:
        """(M, e): the inverse of the basis matrix is M / e, M integer."""
        return _integer_inverse(self.basis_matrix)

    def _coord_numerators(self, elem: FieldElement) -> tuple[list[int], int]:
        """Ideal-basis coordinates of elem: integer numerators, denominator."""
        coords, d = elem._integral_numerators()
        inverse, e = self._basis_inverse
        return _vec_mat(coords, inverse), d * e

    def contains(self, elem: FieldElement) -> bool:
        coords, d = self._coord_numerators(elem)
        return all(c % d == 0 for c in coords)

    def multiply(self, other: "FractionalIdeal") -> "FractionalIdeal":
        if self.field != other.field:
            raise DomainError("ideals over different fields")
        return FractionalIdeal._spanned_by_products(self.field, self.basis_matrix,
                                                    other.basis_matrix)

    def power(self, n: int) -> "FractionalIdeal":
        if n < 0:
            raise DomainError("negative ideal powers are not supported")
        if n == 0:
            return FractionalIdeal.unit_ideal(self.field)
        out = self
        for _ in range(n - 1):
            out = out.multiply(self)
        return out

    def scale(self, a: FieldElement) -> "FractionalIdeal":
        if a.is_zero():
            raise DomainError("cannot scale an ideal by zero")
        return FractionalIdeal._spanned_by_products(self.field, [a.integral_coords()],
                                                    self.basis_matrix)

    @cached_property
    def norm(self) -> Fraction:
        return abs(det_fraction([list(r) for r in self.basis_matrix]))

    def to_record(self) -> dict:
        return {"ideal_basis": [[str(x) for x in row] for row in self.basis_matrix]}


def _products(field: NumberField, left, right) -> tuple[list[list[int]], int]:
    """Integral-basis coordinates of every product a*b, a in left and b in
    right (rows of rational integral-basis coordinates), as integer rows over
    one common denominator: (rows, denominator). Bilinear in the rows through
    the field's multiplication table; no field element is formed."""
    table = field.multiplication_table
    lhs, d_left = _scaled_rows(left)
    rhs, d_right = _scaled_rows(right)
    out = []
    for a in lhs:
        # row j: coordinates of a * omega_j; T[j][i] = T[i][j]
        times_a = [_vec_mat(a, table_j) for table_j in table]
        out.extend(_vec_mat(b, times_a) for b in rhs)
    return out, d_left * d_right


def index_quotient(ideal: FractionalIdeal, s: FieldElement) -> Fraction:
    """#(L / R s) for a nonzero section s of L; always a positive integer."""
    if s.is_zero():
        raise DomainError("the zero section spans nothing")
    if not ideal.contains(s):
        raise MembershipError("section does not lie in the ideal")
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

    def to_record(self, digits: int = DEFAULT_DIGITS) -> dict:
        rec = self.ideal.to_record()
        rec["metric"] = [mp.nstr(v, digits) for v in self.metric.values]
        return rec


def standard_metric(ideal: FractionalIdeal, e: EmbeddingSet) -> Metric:
    """|sigma(s0)|^2 at each embedding: the metric pulled back from K."""
    s0 = ideal.reference_section()
    return Metric(e.invariant_vector(lambda idx: abs(evaluate(s0, e, idx)) ** 2))


def arithmetic_degree(bundle: MetrizedLineBundle, e: EmbeddingSet,
                      s: FieldElement | None = None) -> mpf:
    """Degree of a metrized bundle, via any nonzero section (default: the
    reference section). Independent of the choice of section."""
    return _degree_and_index(bundle, e, s)[0]


def _degree_and_index(bundle: MetrizedLineBundle, e: EmbeddingSet,
                      s: FieldElement | None) -> tuple[mpf, Fraction]:
    """arithmetic_degree together with the index_quotient of the section it
    used, so a caller reporting both solves the membership once."""
    e.check_invariant(bundle.metric.values, "metric")
    if s is None:
        s = bundle.ideal.reference_section()
    idx_count = index_quotient(bundle.ideal, s)
    ratio = s / bundle.ideal.reference_section()
    with mp.workdps(e.working_dps):
        log_index = mp.log(mpf(idx_count.numerator)) - mp.log(mpf(idx_count.denominator))
        metric_part = mpf(0)
        for i in e.class_representatives:
            weight = 1 if e.is_real(i) else 2
            norm_sq = bundle.metric.values[i] * abs(evaluate(ratio, e, i)) ** 2
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
    ratio = s0 / (s0a * s0b)
    vals = e.invariant_vector(lambda i: a.metric.values[i] * b.metric.values[i]
                              * abs(evaluate(ratio, e, i)) ** 2)
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
    ratio = s0_new / (a * s0_old)
    vals = e.invariant_vector(lambda i: bundle.metric.values[i] * abs(evaluate(ratio, e, i)) ** 2)
    return MetrizedLineBundle(ideal, Metric(vals))
