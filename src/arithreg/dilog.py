"""Arbitrary-precision dilogarithm and the single-valued real function
D(z) = log|z| arg(1-z) + Im Li2(z).

Li2 uses the principal branch everywhere, with the cut along (1, oo)
following the principal logarithm; exactly-real arguments on the cut get the
limit from below. Evaluation reduces the argument with the inversion
(z -> 1/z) and reflection (z -> 1-z) identities to the orbit element w of
smallest modulus, then sums one series for every w, the Bernoulli series
Li2(w) = sum_n B_n u^(n+1) / (n+1)! in u = -log(1-w), which converges for
|u| < 2 pi (Zagier, "The dilogarithm function", section 1).

Reduction bound: 1/w, 1-w and w/(w-1) are in the orbit too, so |w| <= 1,
Re w <= 1/2 and |1-w| <= 1. Hence 1/2 <= |1-w| <= 1 and |arg(1-w)| <= pi/3,
so |u| <= sqrt(log(2)^2 + pi^2/9) < 1.26 and q = |u|/(2 pi) < 0.2 on every
reduced argument (q = 1/6 at the fixed points e^(+-i pi/3)). The series
length follows from q a priori and is never adapted at runtime. Only B_0, B_1
and the even B_n are nonzero, so the sum runs by Horner's rule in u^2 over
the coefficients B_2k / (2k+1)!, which are rounded once per working binary
precision (mp.prec) and cached.
"""

from __future__ import annotations

from fractions import Fraction
import math

import mpmath
from mpmath import mp, mpc, mpf

from .precision import PrecisionContext

__all__ = ["PrecisionContext", "li2", "bloch_wigner", "li2_and_bloch_wigner"]

# orbit of z under inversion and reflection; chains apply left to right
_CHAINS = (
    (),
    ("inv",),
    ("ref",),
    ("ref", "inv"),
    ("inv", "ref"),
    ("ref", "inv", "ref"),
)

_COEFFICIENTS: dict[int, list] = {}  # mp.prec -> [B_2/3!, B_4/5!, ...]


def _orbit_value(z, chain):
    w = z
    for move in chain:
        w = 1 / w if move == "inv" else 1 - w
    return w


def _reduction_chain(z) -> tuple:
    """Chain to the orbit element of smallest modulus (earliest on ties)."""
    return min(_CHAINS, key=lambda chain: abs(_orbit_value(z, chain)))


def _coefficients(count: int) -> list:
    """B_2k / (2k+1)! for k = 1 .. count (or more) at the current mp.prec."""
    cached = _COEFFICIENTS.setdefault(mp.prec, [])
    for k in range(len(cached) + 1, count + 1):
        cached.append(mpmath.bernoulli(2 * k) / mpmath.factorial(2 * k + 1))
    return cached


def _bernoulli_series(w) -> mpc:
    """Li2(w) = u - v/4 + u * sum_{k>=1} B_2k v^k / (2k+1)! with
    u = -log(1-w), v = u^2, for a reduced w (q < 0.2, module docstring)."""
    u = -mp.log(1 - w)
    v = u * u
    abs_u = float(abs(u))
    q = abs_u / (2 * math.pi)
    need = mp.dps * math.log(10) + math.log(8 * (abs_u + 1) / (1 - q * q))
    n_terms = max(4, int(need / math.log(1 / q)) + 4) if q > 0 else 4
    count = n_terms // 2  # only B_0, B_1 and the even B_n are nonzero
    coeffs = _coefficients(count)
    acc = mpc(0)
    for k in range(count - 1, -1, -1):
        acc = acc * v + coeffs[k]
    return u - v / 4 + u * v * acc


def _li2_principal(z) -> mpc:
    """Li2 at the current mp working precision, principal branch.

    Caller guarantees z != 0, 1 and, for exactly real z, z <= 1 (the cut is
    handled one level up by conjugation).
    """
    sign = 1
    const = mpc(0)
    w = z
    pi2_6 = mp.pi ** 2 / 6
    for move in _reduction_chain(z):
        if move == "inv":
            const += -sign * (pi2_6 + mp.log(-w) ** 2 / 2)
            sign = -sign
            w = 1 / w
        else:
            const += sign * (pi2_6 - mp.log(w) * mp.log(1 - w))
            sign = -sign
            w = 1 - w
    return sign * _bernoulli_series(w) + const


def _as_mpc(z) -> mpc:
    if isinstance(z, Fraction):
        return mpc(mpf(z.numerator) / mpf(z.denominator), 0)
    return mpc(z)


def _is_exact_real(z) -> bool:
    if isinstance(z, (int, float, Fraction)):
        return True
    if isinstance(z, mpf):
        return True
    if isinstance(z, complex):
        return z.imag == 0
    if isinstance(z, mpc):
        return z.imag == 0
    return False


def li2(z, ctx: PrecisionContext = PrecisionContext()) -> mpc:
    """Principal-branch dilogarithm of a complex argument.

    Real arguments above 1 sit on the cut and evaluate as the limit from
    below, i.e. with imaginary part -pi*log(z).
    """
    return li2_and_bloch_wigner(z, ctx)[0]


def bloch_wigner(z, ctx: PrecisionContext = PrecisionContext()) -> mpf:
    """The single-valued function log|z| arg(1-z) + Im Li2(z).

    Exactly-real input returns exact 0 without any floating evaluation, so
    per-embedding value vectors stay rigorously conjugation-equivariant at
    real embeddings.
    """
    if _is_exact_real(z):
        return mpf(0)
    return li2_and_bloch_wigner(z, ctx)[1]


def li2_and_bloch_wigner(z, ctx: PrecisionContext = PrecisionContext()) -> tuple[mpc, mpf]:
    """(li2(z, ctx), bloch_wigner(z, ctx)) from one evaluation of Li2: D is
    formed from the working-precision value of Li2 before either is rounded."""
    real_input = _is_exact_real(z)
    with ctx.workdps():
        w = _as_mpc(z)
        d = mpf(0)
        if w == 0:
            out = mpc(0)
        elif w == 1:
            out = mpc(mp.pi ** 2 / 6, 0)
        elif real_input and w.real > 1:
            # mpmath has no signed zero, so arg(-x) = +pi for x > 0; pushing
            # an exactly-real cut argument through the reduction identities
            # then yields the limit from below, which is the documented
            # convention. No extra handling needed.
            out = _li2_principal(mpc(w.real, 0))
        elif real_input:
            # value is real; discard the guard-level imaginary dust the
            # composite identities can leave behind
            out = mpc(_li2_principal(mpc(w.real, 0)).real, 0)
        else:
            out = _li2_principal(w)
            if w.imag != 0:
                d = mp.log(abs(w)) * mp.arg(1 - w) + out.imag
    with ctx.outdps():
        return +out, +d
