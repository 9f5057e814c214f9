"""Working-precision bookkeeping.

Every numerical routine in the package computes with ``digits +
GUARD_DIGITS`` decimal digits internally and reports results at ``digits``.
The guard is fixed at 10 digits and is never user-visible in output
formatting.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp

from .errors import DomainError

DEFAULT_DIGITS = 50
MIN_DIGITS = 16
GUARD_DIGITS = 10


@dataclass(frozen=True)
class PrecisionContext:
    digits: int = DEFAULT_DIGITS

    def __post_init__(self):
        if self.digits < MIN_DIGITS:
            raise DomainError(f"precision must be at least {MIN_DIGITS} digits, got {self.digits}")

    @property
    def working_dps(self) -> int:
        return self.digits + GUARD_DIGITS

    def workdps(self):
        """Context manager switching mpmath to the internal precision."""
        return mp.workdps(self.working_dps)

    def outdps(self):
        """Context manager switching mpmath to the reporting precision."""
        return mp.workdps(self.digits)
