"""Reference ideal arithmetic that the tests compare arithreg.arakelov against.

These are the element-by-element versions of FractionalIdeal.multiply,
from_elements, scale and the module-closure test: every product is a
FieldElement product, reduced mod the defining polynomial and converted to
integral-basis coordinates one at a time. They never read the field's
multiplication table, so they check it independently.
"""

from arithreg.arakelov import FractionalIdeal
from arithreg.errors import DomainError


def integral_basis_elements(field):
    return [field.element(row) for row in field.integral_basis]


def from_elements(field, elems):
    """Ideal generated by field elements as a module over the ring."""
    elems = [el for el in elems if not el.is_zero()]
    if not elems:
        raise DomainError("the zero ideal is not supported")
    rows = []
    for el in elems:
        for omega in integral_basis_elements(field):
            rows.append((el * omega).integral_coords())
    return FractionalIdeal.from_rows(field, rows, check=False)


def is_module_closed(ideal) -> bool:
    for row in ideal.basis_matrix:
        el = ideal.element_from_coords(row)
        for omega in integral_basis_elements(ideal.field):
            if not ideal.contains(el * omega):
                return False
    return True


def multiply(ideal, other):
    if ideal.field != other.field:
        raise DomainError("ideals over different fields")
    rows = []
    for a in ideal.basis_elements():
        for b in other.basis_elements():
            rows.append((a * b).integral_coords())
    return FractionalIdeal.from_rows(ideal.field, rows, check=False)


def scale(ideal, a):
    if a.is_zero():
        raise DomainError("cannot scale an ideal by zero")
    rows = [(a * el).integral_coords() for el in ideal.basis_elements()]
    return FractionalIdeal.from_rows(ideal.field, rows, check=False)
