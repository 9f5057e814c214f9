"""Reference computations that the tests compare arithreg.dilog against.

The power series sum_n w^n / n^2 is the defining series of Li2, summed with
an a-priori remainder bound. It is independent of the Bernoulli series the
library sums, converges only for |w| < 1 and slows down as |w| -> 1.
"""

import math

from mpmath import mp, mpc


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
