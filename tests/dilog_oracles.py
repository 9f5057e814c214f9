"""Reference computations that the tests compare arithreg.dilog against.

The power series sum_n w^n / n^2 is the defining series of Li2, summed with
an a-priori remainder bound. It is independent of the Bernoulli series the
library sums, converges only for |w| < 1 and slows down as |w| -> 1.

The mpc Bernoulli series is the library's own series summed the plain way,
in floating point on mpc values: the reference for its fixed-point kernel.

stepwise_li2 is the library's reduction route as it ran before it read the
logs of the orbit elements from log z and log(1-z): one fresh mp.log at
every intermediate orbit element, on the same route and the same series.
symbolic_route walks the same identities on exact polynomials in A, B and
P = i pi sign(Im z), the oracle for the library's table of routes.

The fixed-point sums take the arguments of arithreg.dilog._fixed_sum and
return S(v / (4 pi^2)) * 2^bits over the first count terms:
complex_horner_sum is the complex Horner loop the library ran before its
real-coefficient recurrence, at full precision for every term, and
exact_series_sum is the same truncated sum in mpc at 64 more bits than the
kernel keeps.

object_li2_and_bloch_wigner is the library's evaluation as it ran before its
glue arithmetic moved to raw mpmath tuples: the same route, table row, logs
and fixed-point sum, with every product, sum, negation and rounding done by
mpc and mpf operators. The library must match it bit for bit.
"""

import math
from fractions import Fraction
from functools import lru_cache

from mpmath import bernoulli, factorial, ldexp, mp, mpc, mpf, nint
from mpmath.libmp import from_man_exp, mpf_mul, round_nearest, to_fixed

from arithreg.dilog import (_GUARD_BITS, _ROUTES, _as_mpc, _fixed_sum, _fixed_table, _orbit_value,
                            _reduction_chain)
from arithreg.precision import working_dps


def series_terms(absw: float, wp: int) -> int:
    """Smallest N with |w|^(N+1) / ((N+1)^2 (1-|w|)) < 10^-wp (a priori)."""
    if absw == 0:
        return 1
    need = wp * math.log(10) + math.log(1 / (1 - absw))
    n = max(1, int(need / math.log(1 / absw)) + 2)
    return n


def power_series(w) -> mpc:
    wp = mp.dps
    n_terms = series_terms(float(abs(w)), wp)
    acc = mpc(0)
    power = mpc(1)
    for n in range(1, n_terms + 1):
        power *= w
        acc += power / (n * n)
    return acc


def mpc_bernoulli_series(w) -> mpc:
    """Li2(w) = u - v/4 + u * sum_{k>=1} B_2k v^k / (2k+1)! with
    u = -log(1-w), v = u^2, summed by Horner's rule in v on mpc values, the
    way arithreg.dilog summed it before its fixed-point kernel; same a-priori
    term count, for a reduced w (q < 0.2)."""
    u = -mp.log(1 - w)
    v = u * u
    abs_u = float(abs(u))
    q = abs_u / (2 * math.pi)
    need = mp.dps * math.log(10) + math.log(8 * (abs_u + 1) / (1 - q * q))
    n_terms = max(4, int(need / math.log(1 / q)) + 4) if q > 0 else 4
    acc = mpc(0)
    for k in range(n_terms // 2, 0, -1):
        acc = acc * v + bernoulli(2 * k) / factorial(2 * k + 1)
    return u - v / 4 + u * v * acc


def stepwise_li2(z) -> mpc:
    """Li2(z) for z != 0, 1 at the current precision: each inversion takes
    log(-w) and each reflection log w and log(1-w) at the current orbit
    element w. mpmath's log puts a negative real on the upper side of its
    cut, which gives the limit from below for an exactly-real z on the cut."""
    sign, const, u, w = 1, mpc(0), None, z
    pi2_6 = mp.pi ** 2 / 6
    for move in _reduction_chain(z):
        if move == "inv":
            const += -sign * (pi2_6 + mp.log(-w) ** 2 / 2)
            w, u = 1 / w, None
        else:
            log_w = mp.log(w)
            const += sign * (pi2_6 - log_w * mp.log(1 - w))
            w, u = 1 - w, -log_w
        sign = -sign
    if u is None:
        u = -mp.log1p(-w)
    return sign * object_bernoulli_series(u) + const


def _plus(*forms) -> dict:
    out = {}
    for form in forms:
        for key, c in form.items():
            out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


def _times(c, form) -> dict:
    return {key: c * x for key, x in form.items()}


def _product(f, g) -> dict:
    """f g for linear forms f, g in A, B and P, with P^2 = -pi^2."""
    out = {}
    for x, a in f.items():
        for y, b in g.items():
            key, c = (("pi2",), -a * b) if x == y == "P" else (tuple(sorted((x, y))), a * b)
            out = _plus(out, {key: c})
    return out


def symbolic_route(chain, a) -> tuple:
    """(C, u, log w) of the route chain as exact Fraction polynomials: C, the
    constant in Li2(z) = (-1)^m Li2(w) + C, is quadratic in A, B, P and pi^2,
    and u = -log(1-w) (None for -log1p(-w)) and log w are linear in A, B, P.
    A = log(a z), B = log(1-z), P = i pi s with s = sign(Im z), so
    log z = A + P when a = -1 (log(-z) = log z - i pi s), and A when a = 1
    or 0. Each move rewrites log w, log(1-w) and side = sign(Im w) / s the
    way the identities need them: log(1/w) = -log w,
    log(1 - 1/w) = log(1-w) - log w + i pi sign(Im w) and
    log(-w) = log w - i pi sign(Im w)."""
    one = Fraction(1)
    log_w = {"A": one, "P": one} if a < 0 else {"A": one}
    log_one_minus_w, side, sign, const, u = {"B": one}, 1, 1, {}, None
    for move in chain:
        if move == "inv":
            log_minus_w = _plus(log_w, {"P": -side})
            square = _product(log_minus_w, log_minus_w)
            const = _plus(const, _times(-sign, _plus({("pi2",): one / 6}, _times(one / 2, square))))
            log_w, log_one_minus_w = (_times(-1, log_w),
                                      _plus(log_one_minus_w, _times(-1, log_w), {"P": side}))
            u = None
        else:
            product = _product(log_w, log_one_minus_w)
            const = _plus(const, _times(sign, _plus({("pi2",): one / 6}, _times(-1, product))))
            u = _times(-1, log_w)
            log_w, log_one_minus_w = log_one_minus_w, log_w
        side, sign = -side, -sign
    return const, u, log_w


@lru_cache(maxsize=None)
def full_scale_coefficient(bits: int, k: int) -> int:
    """c'_k 2^bits rounded to an integer: every coefficient at the full
    scale, as the library rounded them before its series ran at falling
    precision."""
    with mp.workprec(bits + 20):
        four_pi2 = 4 * mp.pi ** 2
        return int(nint(ldexp(bernoulli(2 * k + 2) * four_pi2 ** k / factorial(2 * k + 3), bits)))


def complex_horner_sum(v, bits: int, count: int) -> tuple[int, int]:
    """Horner's rule in the complex t on integers scaled by 2^bits: four
    products and two shifts per term."""
    with mp.workprec(bits + 20):
        scale = int(nint(ldexp(1 / (4 * mp.pi ** 2), bits)))
    coeffs = [full_scale_coefficient(bits, k) for k in range(count)]
    v_re, v_im = v._mpc_
    t_re = (to_fixed(v_re, bits) * scale) >> bits
    t_im = (to_fixed(v_im, bits) * scale) >> bits
    s_re, s_im = coeffs[count - 1], 0
    for k in range(count - 2, -1, -1):
        s_re, s_im = (((s_re * t_re - s_im * t_im) >> bits) + coeffs[k],
                      (s_re * t_im + s_im * t_re) >> bits)
    return s_re, s_im


def exact_series_sum(v, bits: int, count: int) -> mpc:
    """The truncated sum at the exact t = v / (4 pi^2), as an mpc at
    bits + 64 bits of precision, still scaled by 2^bits."""
    with mp.workprec(bits + 64):
        four_pi2 = 4 * mp.pi ** 2
        t = v / four_pi2
        acc = mpc(0)
        for k in range(count - 1, -1, -1):
            acc = acc * t + bernoulli(2 * k + 2) * four_pi2 ** k / factorial(2 * k + 3)
        return mpc(mp.ldexp(acc.real, bits), mp.ldexp(acc.imag, bits))


def object_bernoulli_series(u) -> mpc:
    """Li2(w) = u - v/4 + u v S(v / (4 pi^2)) on mpc values, with the
    library's fixed-point S."""
    v = u * u
    abs_u = math.hypot(float(u.real), float(u.imag))
    q = abs_u / (2 * math.pi)
    need = mp.dps * math.log(10) + math.log(8 * (abs_u + 1) / (1 - q * q))
    n_terms = max(4, int(need / math.log(1 / q)) + 4) if q > 0 else 4
    count = n_terms // 2
    bits, prec = mp.prec + _GUARD_BITS, mp.prec
    s_re, b1 = _fixed_sum(v, bits, count)
    b1_over_4pi2 = from_man_exp(b1 * _fixed_table(bits, count)[0], -2 * bits)
    s = mp.make_mpc((from_man_exp(s_re, -bits, prec, round_nearest),
                     mpf_mul(v._mpc_[1], b1_over_4pi2, prec, round_nearest)))
    return u - v / 4 + u * v * s


def _object_linear(form, logs):
    terms = [log if c > 0 else -log for c, log in zip(form, logs) if c]
    return terms[0] + terms[1] if len(terms) > 1 else terms[0]


def _object_li2_principal(z) -> tuple:
    chain = _reduction_chain(z)
    a, u_form, log_abs_form, (p, q, r, t) = _ROUTES[chain]
    if chain:
        A, B = mp.log(-z if a < 0 else z), mp.log(1 - z) if chain != ("inv",) else None
        pi2_6 = mp.pi ** 2 / 6
        const = sum((c * x * y for c, x, y in ((q, A, A), (r, B, B), (t, A, B)) if c), p * pi2_6)
    u = _object_linear(u_form, (A, B)) if u_form else -mp.log1p(-_orbit_value(z, chain))
    series = object_bernoulli_series(u)
    sign = -1 if len(chain) % 2 else 1
    value = sign * series + const if chain else series
    if not z.imag:
        return value, mpf(0)
    log_abs_w = _object_linear(log_abs_form, (A, B)).real if chain else mp.log(abs(z))
    return value, sign * (log_abs_w * -u.imag + series.imag)


def object_li2_and_bloch_wigner(z, digits: int) -> tuple:
    """(Li2(z), D(z)) rounded to digits, every step on mpc and mpf values."""
    with mp.workdps(working_dps(digits)):
        w = _as_mpc(z)
        if w in (0, 1):
            out, d = mpc(mp.pi ** 2 / 6 if w else 0), mpf(0)
        else:
            out, d = _object_li2_principal(w)
    with mp.workdps(digits):
        return +out, +d
