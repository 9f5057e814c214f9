"""Exception hierarchy shared by all arithreg modules.

Error classes map onto CLI exit codes: FormatError/SchemaError -> 1,
DomainError and subclasses -> 2, PrecisionError -> 3.
"""

import re
import sys


class ArithregError(Exception):
    """Base class for all library errors."""


class FormatError(ArithregError):
    """Malformed input record (polynomial, element, bundle, job)."""


class SchemaError(FormatError):
    """A job payload does not validate against its command schema."""


class DomainError(ArithregError):
    """Mathematically invalid request (division by zero, non-unit input,
    weight mismatch, field mismatch, unsupported degree, ...)."""


class MembershipError(DomainError):
    """A section does not lie in the stated module/lattice."""


class PrincipalityError(DomainError):
    """The supplied generator does not generate the stated ideal power."""


class PresentationIncompleteError(DomainError):
    """An element has no exponent expression over the supplied generators
    within the search bound; the caller must extend the generating set."""


class SquarefreeError(DomainError):
    """The defining polynomial has a repeated root."""


class PrecisionError(ArithregError):
    """Numerical data was insufficient at the requested precision; callers
    may retry with a larger digit count."""


def quoted(value) -> str:
    """repr(value) for a message that echoes caller input, cut to 80 characters
    and "..." as oversized_number cuts; by type where repr refuses a long int."""
    try:
        text = repr(value)
    except ValueError:
        return f"<{type(value).__name__} past the int-string limit>"
    return text if len(text) <= 80 else f"{text[:80]}..."


def oversized_number(key: str, value) -> SchemaError | None:
    """The error for the value of key, text or a JSON value, when it holds a
    number longer than Python converts between int and str, the limit of
    sys.get_int_max_str_digits() digits (CVE-2020-10735), else None. It names
    the key and the limit and quotes 80 characters of a number in text."""
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0, no limit, before 3.10.7
    try:
        text = value if isinstance(value, str) else repr(value)
    except ValueError:  # repr refuses an int over the limit
        return SchemaError(f"key '{key}' holds an int over the limit of {limit} digits")
    number = limit and re.search(r"[\d.]{%d,}" % (limit + 1), text)
    return SchemaError(f"key '{key}' holds a number of {len(number[0])} characters, over the "
                       f"limit of {limit} digits: {number[0][:80]}...") if number else None
