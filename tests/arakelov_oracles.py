"""Reference ideal arithmetic that the tests compare arithreg.arakelov against.

These are the element-by-element versions of FractionalIdeal.multiply,
from_elements, scale and the module-closure test: every product is a
FieldElement product, reduced mod the defining polynomial and converted to
integral-basis coordinates one at a time. They never read the field's
multiplication table, so they check it independently.
"""

from fractions import Fraction

from arithreg.arakelov import FractionalIdeal
from arithreg.errors import DomainError
from arithreg.intmat import _scaled_rows, hnf_rational


def integral_basis_elements(field):
    return [field.element(row) for row in field.integral_basis]


def basis_matrix(ideal):
    """The ideal's HNF basis as rational rows of integral-basis coordinates."""
    return [[Fraction(x, ideal.den) for x in row] for row in ideal.rows]


def element(field, coords):
    """The element with these integral-basis coordinates."""
    return field.element([sum(c * omega[k] for c, omega in zip(coords, field.integral_basis))
                          for k in range(field.degree)])


def basis_elements(ideal):
    return [element(ideal.field, row) for row in basis_matrix(ideal)]


def ideal_from_rows(field, rows):
    """The lattice spanned by rational rows of integral-basis coordinates,
    canonicalized by hnf_rational without a closure test."""
    h, den = hnf_rational(*_scaled_rows(rows))
    return FractionalIdeal(field, tuple(map(tuple, h)), den)


def from_elements(field, elems):
    """Ideal generated by field elements as a module over the ring."""
    elems = [el for el in elems if not el.is_zero()]
    if not elems:
        raise DomainError("the zero ideal is not supported")
    rows = []
    for el in elems:
        for omega in integral_basis_elements(field):
            rows.append((el * omega).integral_coords())
    return ideal_from_rows(field, rows)


def is_module_closed(ideal) -> bool:
    for el in basis_elements(ideal):
        for omega in integral_basis_elements(ideal.field):
            if not ideal.contains(el * omega):
                return False
    return True


def multiply(ideal, other):
    if ideal.field != other.field:
        raise DomainError("ideals over different fields")
    rows = []
    for a in basis_elements(ideal):
        for b in basis_elements(other):
            rows.append((a * b).integral_coords())
    return ideal_from_rows(ideal.field, rows)


def scale(ideal, a):
    if a.is_zero():
        raise DomainError("cannot scale an ideal by zero")
    rows = [(a * el).integral_coords() for el in basis_elements(ideal)]
    return ideal_from_rows(ideal.field, rows)
