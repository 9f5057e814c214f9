"""Working precision: every numerical routine computes with
working_dps(digits) = digits + GUARD_DIGITS decimal digits and reports at
digits. working_dps is the one place that adds the guard and enforces
MIN_DIGITS; the guard never shows in output formatting. working_prec(digits)
is the same working precision in bits.
"""

from __future__ import annotations

from mpmath.libmp import dps_to_prec

from .errors import DomainError

DEFAULT_DIGITS = 50
MIN_DIGITS = 16
GUARD_DIGITS = 10


def working_dps(digits: int) -> int:
    """Decimal digits to compute with when reporting `digits` digits."""
    if digits < MIN_DIGITS:
        raise DomainError(f"precision must be at least {MIN_DIGITS} digits, got {digits}")
    return digits + GUARD_DIGITS


def working_prec(digits: int) -> int:
    """Bits to compute with when reporting `digits` digits: mp.prec inside
    mp.workdps(working_dps(digits))."""
    return dps_to_prec(working_dps(digits))
