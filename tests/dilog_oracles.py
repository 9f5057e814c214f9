"""Reference computations that the tests compare arithreg.dilog against.

The power series sum_n w^n / n^2 is the defining series of Li2, summed with
an a-priori remainder bound. It is independent of the Bernoulli series the
library sums, converges only for |w| < 1 and slows down as |w| -> 1.

The mpc Bernoulli series is the library's own series summed the plain way,
in floating point on mpc values: the reference for its fixed-point kernel.
"""

import math

from mpmath import bernoulli, factorial, mp, mpc


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
