"""Arbitrary-precision dilogarithm and the single-valued real function
D(z) = log|z| arg(1-z) + Im Li2(z).

Precision. li2, bloch_wigner and li2_and_bloch_wigner take digits, an int,
compute at precision.working_dps(digits) and round to digits; the helpers
below run at the current mp precision.

Arithmetic. Between the logs and the fixed-point sum (the route constant,
the series tail and D), the evaluation works on mpmath's raw tuples, the
_mpc_ and _mpf_ inside its objects, and calls the libmp functions that the
mpc and mpf operators call, at mp.prec with round_nearest: the same bits
without the object layer's conversions. A product by +-1, +-1/2 or 1/4 is
a negation or a shift instead. Its operand is already rounded to mp.prec,
and mpmath has no exponent range, so scaling by a power of two and negation
commute with rounding to nearest and the exact result is the rounded one.
The operator form is kept in the tests as the bit-for-bit reference.

Li2 uses the principal branch everywhere, with the cut along (1, oo)
following the principal logarithm; exactly-real arguments on the cut get the
limit from below. Evaluation reduces the argument with the inversion
(z -> 1/z) and reflection (z -> 1-z) identities to a reduced argument w,
then sums one series for every w, the Bernoulli series
Li2(w) = sum_n B_n u^(n+1) / (n+1)! in u = -log(1-w), which converges for
|u| < 2 pi (Zagier, "The dilogarithm function", section 1).

Route rule. When |z| <= 1/2, w = z itself. Otherwise w is the orbit element
of smallest modulus, the earliest of _CHAINS on ties. With a = |z| and
b = |1-z| the six orbit moduli are a, 1/a, b, 1/b, b/a and a/b, so the route
is chosen from log a and log b as two Python floats. When two moduli (or a
and the threshold 1/2) agree to the relative tie margin 1e-9, when a float
is not finite, or when the conversion fails, the same rule is decided on the
mpc moduli instead. Off those cases the float choice equals the mpc choice:
the logs are good to about 1e-13, except log b when z is so close to 1 that
1 - Re z cancels; then a is about 1, the two smallest candidates are log b
and log b - log a, which differ by the accurate log a alone, and the other
four are far away.

Reduction bound. If |z| <= 1/2 then 1/2 <= |1-w| <= 3/2 and
|arg(1-w)| <= pi/6, so |u| <= sqrt(log(2)^2 + pi^2/36) < 0.88 and
q = |u|/(2 pi) < 0.14. Otherwise 1/w, 1-w and w/(w-1) are in the orbit too,
so |w| <= 1, Re w <= 1/2 and |1-w| <= 1. Hence 1/2 <= |1-w| <= 1 and
|arg(1-w)| <= pi/3, so |u| <= sqrt(log(2)^2 + pi^2/9) < 1.26 and q < 0.2
(q = 1/6 at the fixed points e^(+-i pi/3)). The series length follows from q
a priori and is never adapted at runtime.

Route table. The identities Li2(w) = -Li2(1/w) - pi^2/6 - log(-w)^2/2 and
Li2(w) = -Li2(1-w) + pi^2/6 - log w log(1-w) (Zagier, section 1), walked
along m moves, give Li2(z) = (-1)^m Li2(w) + C. Every log they take is an
integer combination of log z, B = log(1-z) and i pi s, s = sign(Im z), since
log(1/w) = -log w, log(-w) = log w - i pi sign(Im w), and Im(1/w), Im(1-w)
have the sign of -Im w. So, with A = log z or log(-z) = log z - i pi s, C is
a quadratic form in A and B, and u = -log(1-w) and log|w| are linear forms,
one row of _ROUTES per chain:

    route            A        u              log|w|       C
    ()               -        -log1p(-z)     log|z|       0
    (inv)            log(-z)  -log1p(-w)     -Re A        -pi^2/6 - A^2/2
    (ref)            log z    -A             Re B         pi^2/6 - A B
    (ref, inv)       log(-z)  -log1p(-w)     -Re B        -pi^2/6 + B^2/2 - A B
    (inv, ref)       log z    A              Re B - Re A  pi^2/6 + A^2/2 - A B
    (ref, inv, ref)  log z    B              Re A - Re B  -B^2/2

With A = log(-z) on the routes that end in an inversion no row keeps an i pi
term, so no terms of size pi log|z| cancel, and C takes at most two mpc
products. An exactly-real z is taken as z - i0, the side of the cut on which
mpmath puts a negative real, so log(-z) and log(1-z) need no correction.

Forms of the logs. u and C read A and B in full, log|w| reads only their
real parts, and D reads u, log|w| and the series, never C. So a route
takes A or B as a complex log only when u reads it, or when Li2 is wanted
and C reads it. A log that log|w| alone reads is taken as its real part,
log|z| = Re A or log|1-z| = Re B, by mpf_log_hypot: mpmath's complex log
forms its real part by that same call, so the bits are equal, without the
atan2 of its imaginary part. No real part is taken when z is real: D = 0.
Li2 with D (li2_and_bloch_wigner) and D alone (bloch_wigner, no C) take:

    route            Li2 and D        D alone
    ()               log1p, log|z|    log1p, log|z|
    (inv)            A, log1p         Re A, log1p
    (ref)            A, B             A, Re B
    (ref, inv)       A, B, log1p      Re B, log1p
    (inv, ref)       A, B             A, Re B
    (ref, inv, ref)  Re A, B          Re A, B

Real input is real by construction. The rule takes a real z <= 1 by (),
(ref), (ref, inv) or (ref, inv, ref), so w is real in [-1/2, 1/2], and u
and C read logs of positive reals only: log z of a z < 0 is read by log|w|
alone. mpmath's log of a positive real has imaginary part exactly 0, and
sums and products of reals stay real, so Im u, Im S and Im C are 0.

u keeps full relative precision at bounded cost: after a final reflection u
is -A, A or B, logs of z itself; on the other routes u = -log1p(-w), which
mpmath forms as 1 - w at twice the working precision, or as w + w^2/2 when
|w| < 2^-prec, so a tiny |w| costs no more bits.

D at the reduced argument. D is odd under z -> 1/z and under z -> 1-z, so
D(z) = (-1)^m D(w), with D(w) = log|w| (-Im u) + Im Li2(w) from the row's
log|w|, arg(1-w) = -Im u and the series' own Im Li2(w); C does not enter D.
Formed at z itself, log|z| arg(1-z) + Im Li2(z) is a difference of two terms
that carry the O(log^2 |z|) constant: at z = -1e30 + 1e-5 i both terms are
near 7e-34 and D is near 7e-64.

Fixed-point sum. Only B_0, B_1 and the even B_n are nonzero, so
Li2(w) = u - v/4 + u v S(t) with v = u^2, t = v / (4 pi^2) and
S(t) = sum_k c'_k t^k, c'_k = B_(2k+2) (4 pi^2)^k / (2k+3)!. u, v and
u - v/4 + u v S stay in mpc, which keeps relative precision for tiny u. S is
summed on Python integers, over coefficients rounded once per bits and
cached. The coefficients are real, so S takes the second-order recurrence
for a real polynomial at a complex point (Goertzel; Knuth, TAOCP vol. 2,
4.6.4): t and conj(t) are the roots of x^2 - r x + s with r = 2 Re t and
s = |t|^2, and b_k = c'_k + r b_(k+1) - s b_(k+2), from b_n = b_(n+1) = 0,
gives S(t) = b_0 - conj(t) b_1. A term costs two products of integers and
one shift, where Horner's rule in the complex t costs four products. b_1 is
real, so Im S = Im t b_1 is one mpf product of Im v and b_1 / (4 pi^2).

Falling precision. |t| = q^2 < 0.04 < 2^-4.6, so term k of S is below
2^-4.6k and needs only bits - 4k bits, bits = mp.prec + _GUARD_BITS (Brent
and Zimmermann, Modern Computer Arithmetic, 4.4). The recurrence runs in
blocks of _BLOCK = 16 terms: block j (terms 16j to 16j + 15) works at the
scale 2^(bits - 64j), with its coefficients rounded and r and s floored to
that scale, and a left shift, which is exact, carries b_k from one block's
scale to the next. _bernoulli_series asks for count < 0.22 prec + 3 terms,
so every scale keeps more than 0.13 prec + 9 bits, at least 11 when
prec >= 10.

Error, in units of 2^-bits. Let t be the fixed-point value of v / (4 pi^2)
that the loop uses, within 1.83 units of the exact one in each part (the
floor of v, the rounded 1 / (4 pi^2) times |v| < 1.6, the floor of the
product), so r = 2 Re t is exact at the scale of block 0 and s is |t|^2
floored once. The computed b_k are then exactly the recurrence with r and
s = |t|^2 over the real coefficients c'_k + d_k, where d_k adds, in units of
its block's scale, the floor (under 1), the rounded c'_k (1/2) and the
floored r and s times b_(k+1) and b_(k+2) (under 0.031 each; r is exact in
block 0, so there |d_k| < 1.54). Since |c'_k| = 2 zeta(2k+2) / (4 pi^2
(2k+3)) <= 1/36 and |t| = q^2 < 0.04, and
b_k = sum_m (c'_(k+m) + d_(k+m)) U_m with
|U_m| = |t^(m+1) - conj(t)^(m+1)| / |t - conj(t)| <= (m+1) |t|^m,
|b_k| <= (1/36 + 1.57 * 2^-11) / (1 - |t|)^2 < 0.031, so |d_k| < 1.57 units
of its scale. In units of 2^-bits that is under 1.54 in block 0 and under
1.57 * 2^(64j) <= 1.57 * 16^k in block j, for k >= 16j. The identity above
then gives b_0 - conj(t) b_1 = sum_m (c'_m + d_m) t^m exactly: d_0 is real,
and the other d_m add under 1.54 |t| / (1 - |t|) < 0.065 to either part,
plus under 1.57 (16 |t|)^16 / (1 - 16 |t|) < 0.0035 from the blocks that
drop bits, all that the falling precision adds. The last step floors
Re t b_1, under 1 unit, so Re S is off by under 2.61. Moving t by under 2.6
units in modulus moves S by under 0.08, since
|S'| <= (1/36) / (1 - |t|)^2 < 0.031. So Re S is off by less than 3 units
whatever the number of terms. A Horner loop in v itself would multiply the
error of step k by |v|^k, about 1.1^k near e^(+-i pi/3).

Im S, relative. b_1 = sum_m (c'_(m+1) + d_(m+1)) U_m, so the d_k move it by
under 1.54 / (1 - |t|)^2 < 1.68 units from block 0 and under
1.57 * 16 sum_(m >= 15) (m+1) (16 |t|)^m < 1.54 from the later blocks, and
the error in t by under 0.05, as |c'_k| <= c'_2 < 0.0074 for k >= 2. And
|b_1| >= |c'_1| - c'_2 sum_(m >= 1) (m+1) |t|^m > 0.0103, |c'_1| = pi^2/900.
So b_1 is off by under 3.3 units, 330 relative, and the rounded
2^bits / (4 pi^2) adds under 20: Im S = Im v b_1 / (4 pi^2) is good to
350 * 2^-bits < 2^-(prec + 7) relative before its one rounding, however
small Im v is.
"""

from __future__ import annotations

from fractions import Fraction
import math

import mpmath
from mpmath import mp, mpc, mpf
from mpmath.libmp import (from_man_exp, fzero, mpc_add, mpc_mul, mpc_neg, mpc_shift, mpc_sub,
                          mpf_add, mpf_log_hypot, mpf_mul, mpf_mul_int, mpf_neg, round_nearest,
                          to_fixed, to_float)

from .precision import DEFAULT_DIGITS, working_dps

__all__ = ["li2", "bloch_wigner", "li2_and_bloch_wigner"]

# chain (moves left to right) -> (a, u, log|w|, (p, q, r, t)) for A = log(a z),
# B = log(1-z): u (None: -log1p(-w)) and log|w| as coefficients of (A, B),
# the constant p pi^2/6 + q A^2 + r B^2 + t A B (module docstring)
_ROUTES = {
    (): (0, None, (1, 0), (0, 0, 0, 0)),
    ("inv",): (-1, None, (-1, 0), (-1, -0.5, 0, 0)),
    ("ref",): (1, (-1, 0), (0, 1), (1, 0, 0, -1)),
    ("ref", "inv"): (-1, None, (0, -1), (-1, 0, 0.5, -1)),
    ("inv", "ref"): (1, (1, 0), (-1, 1), (1, 0.5, 0, -1)),
    ("ref", "inv", "ref"): (1, (0, 1), (1, -1), (0, 0, -0.5, 0)),
}
_CHAINS = tuple(_ROUTES)  # in the order that breaks ties

_TIE_MARGIN = 1e-9  # relative; closer moduli are compared in mpc
_LOG_HALF = math.log(0.5)
_GUARD_BITS = 16
_BLOCK = 16  # series terms per fixed-point scale; the scale drops 4 bits a term

# bits -> (2^bits / (4 pi^2), [c'_0, c'_1, ...]), rounded to integers, c'_k
# at the scale 2^(bits - 4 _BLOCK floor(k / _BLOCK)) of its block
_FIXED: dict[int, tuple[int, list]] = {}
_PI2_6: dict[int, tuple] = {}  # mp.prec -> pi^2 / 6 as a raw mpf


def _orbit_value(z, chain):
    w = z
    for move in chain:
        w = 1 / w if move == "inv" else 1 - w
    return w


def _mpc_chain(z) -> tuple:
    """The route rule decided on mpc moduli (module docstring)."""
    if abs(z) <= 0.5:
        return ()
    return min(_CHAINS, key=lambda chain: abs(_orbit_value(z, chain)))


def _reduction_chain(z) -> tuple:
    """The route rule decided on log|z| and log|1-z| as floats, or on mpc
    moduli near a tie or outside the float range."""
    try:
        x, y = float(z.real), float(z.imag)
        la, lb = math.log(math.hypot(x, y)), math.log(math.hypot(1 - x, y))
    except ValueError:  # log(0): |z| or |1-z| underflows
        return _mpc_chain(z)
    if not (math.isfinite(la) and math.isfinite(lb)) or abs(la - _LOG_HALF) <= _TIE_MARGIN:
        return _mpc_chain(z)
    if la < _LOG_HALF:
        return ()
    logs = (la, -la, lb, -lb, lb - la, la - lb)  # log of each _CHAINS modulus
    first, second = sorted(logs)[:2]
    if second - first <= _TIE_MARGIN:
        return _mpc_chain(z)
    return _CHAINS[logs.index(first)]


def _fixed_table(bits: int, count: int) -> tuple[int, list]:
    """(2^bits / (4 pi^2), c'_k for k < count or more, each at its block's
    scale), rounded to integers; computed once per bits and extended on
    demand."""
    entry = _FIXED.get(bits)
    if entry is not None and len(entry[1]) >= count:
        return entry
    with mp.workprec(bits + 20):
        four_pi2 = 4 * mp.pi ** 2
        if entry is None:
            entry = _FIXED[bits] = (int(mpmath.nint(mpmath.ldexp(1 / four_pi2, bits))), [])
        coeffs = entry[1]
        for k in range(len(coeffs), count):
            c = mpmath.bernoulli(2 * k + 2) * four_pi2 ** k / mpmath.factorial(2 * k + 3)
            coeffs.append(int(mpmath.nint(mpmath.ldexp(c, bits - 4 * (k - k % _BLOCK)))))
    return entry


def _fixed_sum(v, bits: int, count: int) -> tuple[int, int]:
    """(Re S, b_1) * 2^bits as integers, S(v / (4 pi^2)) summed over its
    first count >= 2 terms by the real-coefficient recurrence at falling
    precision, Im S = Im t b_1; Re S is off by less than 3 * 2^-bits and b_1
    by less than 330 * 2^-bits relative (module docstring)."""
    scale, coeffs = _fixed_table(bits, count)
    v_re, v_im = v._mpc_
    t_re = (to_fixed(v_re, bits) * scale) >> bits
    t_im = (to_fixed(v_im, bits) * scale) >> bits
    r, s = 2 * t_re, (t_re * t_re + t_im * t_im) >> bits
    b0 = b1 = 0
    for start in range((count - 1) // _BLOCK * _BLOCK, -1, -_BLOCK):
        drop = 4 * start  # this block works at the scale 2^(bits - drop)
        width, r_block, s_block = bits - drop, r >> drop, s >> drop
        b0, b1 = b0 << 4 * _BLOCK, b1 << 4 * _BLOCK  # from the previous block's scale
        for c in reversed(coeffs[start:min(start + _BLOCK, count)]):
            b0, b1 = c + ((r_block * b0 - s_block * b1) >> width), b0
    return b0 - ((t_re * b1) >> bits), b1


def _bernoulli_series(u) -> tuple:
    """Li2(w) = u - v/4 + u v S(v / (4 pi^2)) as a raw mpc, for the raw mpc
    u = -log(1-w) of a reduced w (q < 0.2) and v = u^2, with S summed in
    fixed point and Im S taken as Im v b_1 / (4 pi^2) (module docstring)."""
    prec = mp.prec
    v = mpc_mul(u, u, prec, round_nearest)
    abs_u = math.hypot(to_float(u[0], rnd=round_nearest), to_float(u[1], rnd=round_nearest))
    q = abs_u / (2 * math.pi)
    need = mp.dps * math.log(10) + math.log(8 * (abs_u + 1) / (1 - q * q))
    n_terms = max(4, int(need / math.log(1 / q)) + 4) if q > 0 else 4
    count = n_terms // 2  # only B_0, B_1 and the even B_n are nonzero
    bits = prec + _GUARD_BITS
    s_re, b1 = _fixed_sum(mp.make_mpc(v), bits, count)
    b1_over_4pi2 = from_man_exp(b1 * _fixed_table(bits, count)[0], -2 * bits)
    s = (from_man_exp(s_re, -bits, prec, round_nearest),
         mpf_mul(v[1], b1_over_4pi2, prec, round_nearest))
    return mpc_add(mpc_sub(u, mpc_shift(v, -2), prec, round_nearest),
                   mpc_mul(mpc_mul(u, v, prec, round_nearest), s, prec, round_nearest),
                   prec, round_nearest)


def _linear(form, logs, neg=mpc_neg, add=mpc_add):
    """x A + y B for form (x, y) in {-1, 0, 1}^2, not (0, 0), and raw logs
    (A, B): mpc, or mpf with neg=mpf_neg and add=mpf_add."""
    terms = [log if c > 0 else neg(log) for c, log in zip(form, logs) if c]
    return add(terms[0], terms[1], mp.prec, round_nearest) if len(terms) > 1 else terms[0]


def _li2_principal(z, li2: bool = True) -> tuple:
    """(Li2(z), D(z)) at the current mp working precision, principal branch,
    from the route's row of _ROUTES, which also decides the form of each of
    the logs A and B = log(1-z) (module docstring); D is 0 for exactly-real
    z. With li2=False, (None, D(z)): no route constant, and a log that only
    log|w| reads is taken as its real part alone.

    Caller guarantees z != 0, 1. An exactly-real z is taken as z - i0, so
    on the cut Li2 is the limit from below.
    """
    prec = mp.prec
    chain = _reduction_chain(z)
    a, u_form, log_abs_form, (p, q, r, t) = _ROUTES[chain]
    u_a, u_b = u_form or (0, 0)
    A = mp.log(-z if a < 0 else z)._mpc_ if u_a or li2 and (q or t) else None
    B = mp.log(1 - z)._mpc_ if u_b or li2 and (r or t) else None
    u = _linear(u_form, (A, B)) if u_form else mpc_neg(mp.log1p(-_orbit_value(z, chain))._mpc_)
    series = _bernoulli_series(u)
    odd = len(chain) % 2
    value = None
    if li2:
        value = series
        if chain:
            pi2_6 = _PI2_6.get(prec) or _PI2_6.setdefault(prec, (mp.pi ** 2 / 6)._mpf_)
            const = (mpf_mul_int(pi2_6, p, prec, round_nearest), fzero)
            for c, x, y in ((q, A, A), (r, B, B), (t, A, B)):
                if c:  # c x y for c in {+-1, +-1/2}: a negation and a shift, both exact
                    term = mpc_mul(x, y, prec, round_nearest)
                    term = mpc_shift(term, -1) if abs(c) == 0.5 else term
                    const = mpc_add(const, mpc_neg(term) if c < 0 else term, prec, round_nearest)
            value = mpc_add(mpc_neg(series) if odd else series, const, prec, round_nearest)
        value = mp.make_mpc(value)
    z_re, z_im = z._mpc_
    if z_im == fzero:
        return value, mpf(0)
    if chain:
        x, y = log_abs_form  # a log not taken in full is read as its real part alone
        re_a = x and (A[0] if A else mpf_log_hypot(z_re, z_im, prec, round_nearest))
        re_b = y and (B[0] if B else mpf_log_hypot(*(1 - z)._mpc_, prec, round_nearest))
        log_abs_w = _linear(log_abs_form, (re_a, re_b), mpf_neg, mpf_add)
    else:
        log_abs_w = mp.log(abs(z))._mpf_
    d = mpf_add(mpf_mul(log_abs_w, mpf_neg(u[1]), prec, round_nearest), series[1],
                prec, round_nearest)
    return value, mp.make_mpf(mpf_neg(d) if odd else d)


def _as_mpc(z) -> mpc:
    if isinstance(z, Fraction):
        return mpc(mpf(z.numerator) / mpf(z.denominator), 0)
    return mpc(z)


def li2(z, digits: int = DEFAULT_DIGITS) -> mpc:
    """Principal-branch dilogarithm of a complex argument.

    Real arguments above 1 sit on the cut and evaluate as the limit from
    below, i.e. with imaginary part -pi*log(z).
    """
    return li2_and_bloch_wigner(z, digits)[0]


def bloch_wigner(z, digits: int = DEFAULT_DIGITS) -> mpf:
    """The single-valued function log|z| arg(1-z) + Im Li2(z), formed alone:
    the same bits as li2_and_bloch_wigner(z, digits)[1], without the route
    constant or a log that D reads only as log|w| (module docstring).

    Exactly-real input returns exact 0 without any floating evaluation, so
    per-embedding value vectors stay rigorously conjugation-equivariant at
    real embeddings.
    """
    with mp.workdps(working_dps(digits)):
        w = _as_mpc(z)
        if not w.imag:
            return mpf(0)
        d = _li2_principal(w, li2=False)[1]
    with mp.workdps(digits):
        return +d


def li2_and_bloch_wigner(z, digits: int = DEFAULT_DIGITS) -> tuple[mpc, mpf]:
    """(li2(z, digits), bloch_wigner(z, digits)) from one evaluation of Li2:
    D is formed at the reduced argument from the same series value, at the
    working precision, before either is rounded to digits."""
    with mp.workdps(working_dps(digits)):
        w = _as_mpc(z)
        if w in (0, 1):
            out, d = mpc(mp.pi ** 2 / 6 if w else 0), mpf(0)
        else:
            out, d = _li2_principal(w)
    with mp.workdps(digits):
        return +out, +d
