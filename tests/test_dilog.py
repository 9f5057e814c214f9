import random
from fractions import Fraction

import mpmath
import pytest
from mpmath import mp, mpc, mpf

import arithreg.dilog
from arithreg.dilog import (_CHAINS, _ROUTES, _as_mpc, _bernoulli_series, _li2_principal,
                            _mpc_chain, _orbit_value, _reduction_chain, bloch_wigner, li2,
                            li2_and_bloch_wigner)
from arithreg.precision import working_dps
from dilog_oracles import (complex_horner_sum, exact_series_sum, mpc_bernoulli_series,
                           object_li2_and_bloch_wigner, power_series, stepwise_li2,
                           symbolic_route)
from time_limits import time_limit

DIGITS = 50
TOL = mpf(10) ** -45


def rand_points(seed, count, rmin=0.1, rmax=3.0):
    """Seeded complex sample avoiding 1e-3 neighborhoods of 0, 1, the cut."""
    rng = random.Random(seed)
    pts = []
    while len(pts) < count:
        r = rng.uniform(rmin, rmax)
        th = rng.uniform(-3.14159, 3.14159)
        z = mpc(r * mpmath.cos(th), r * mpmath.sin(th))
        if abs(z) < 1e-3 or abs(z - 1) < 1e-3:
            continue
        if z.real >= 1 - 1e-3 and abs(z.imag) < 1e-3:
            continue
        pts.append(z)
    return pts


def _real_points(rng, count):
    """count seeded rationals <= 1: 0, 1 and integers, points near -1, -1/2,
    1/2 and 1, and points spread over the intervals that the route rule
    splits the real line into below 1."""
    out = [Fraction(0), Fraction(1), Fraction(-1)]
    while len(out) < count:
        kind = rng.randrange(4)
        if kind == 0:
            out.append(Fraction(rng.randint(-10 ** 6, 1)))
        elif kind == 1:
            near = rng.choice((Fraction(-1), Fraction(-1, 2), Fraction(1, 2), Fraction(1)))
            out.append(near - Fraction(rng.choice((-1, 1)), 2 ** rng.randint(3, 300)))
        else:
            lo, hi = rng.choice(((-10 ** 6, -1), (-1, -0.5), (-0.5, 0.5), (0.5, 1)))
            out.append(Fraction(rng.uniform(lo, hi)) + Fraction(rng.randrange(2 ** 40), 2 ** 700))
    return [x for x in out if x <= 1]


class TestLi2:
    def test_zero(self):
        assert li2(0, DIGITS) == 0

    def test_one_is_zeta2(self):
        with mp.workdps(60):
            assert abs(li2(1, DIGITS) - mp.pi ** 2 / 6) < TOL

    def test_minus_one(self):
        with mp.workdps(60):
            assert abs(li2(-1, DIGITS) + mp.pi ** 2 / 12) < TOL

    def test_half_reflection_oracle(self):
        # independent value from the reflection identity at the fixed point:
        # Li2(1/2) + Li2(1/2) = pi^2/6 - log(1/2) log(1/2)
        with mp.workdps(60):
            oracle = (mp.pi ** 2 / 6 - mp.log(mpf(1) / 2) ** 2) / 2
            assert abs(li2(mpf(1) / 2, DIGITS) - oracle) < TOL

    def test_against_series_oracle_inside_disc(self):
        rng = random.Random(21)
        with mp.workdps(70):
            for _ in range(25):
                z = mpc(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
                if abs(z) < 1e-3:
                    continue
                direct = mp.nsum(lambda n: z ** n / n ** 2, [1, mp.inf])
                assert abs(li2(z, DIGITS) - direct) < TOL

    def test_against_mpmath_polylog(self):
        with mp.workdps(70):
            for z in rand_points(22, 40):
                assert abs(li2(z, DIGITS) - mpmath.polylog(2, z)) < TOL

    def test_real_input_returns_real(self):
        # a real z <= 1 comes out exactly real on every route the rule picks
        # for it, whatever type holds it, with no patch after the series
        # (module docstring); on the cut z > 1, Im Li2(z) = -pi log z
        rng = random.Random(3101)
        routes = set()
        for digits in (16, 30, 50, 100, 200):
            for x in _real_points(rng, 100):
                with mp.workdps(working_dps(digits)):
                    exact = mpf(x.numerator) / x.denominator
                    routes.add(_reduction_chain(mpc(exact)) if exact not in (0, 1) else None)
                    holders = [x, float(x), mpf(x.numerator) / x.denominator,
                               complex(float(x), 0), mpc(exact)]
                if x.denominator == 1:
                    holders.append(int(x))
                for z in holders:
                    value, d = li2_and_bloch_wigner(z, digits)
                    assert value.imag == 0 and d == 0, (z, digits)
                    assert li2(z, digits).imag == 0 and bloch_wigner(z, digits) == 0, (z, digits)
            for x in (Fraction(3, 2), Fraction(7, 4), Fraction(5), Fraction(10 ** 6 + 1, 8)):
                for z in (x, float(x), mpf(x.numerator) / x.denominator):
                    with mp.workdps(working_dps(digits)):
                        expected = -mp.pi * mp.log(mpf(x.numerator) / x.denominator)
                    tol = abs(expected) * mpf(10) ** (1 - digits)
                    assert abs(li2(z, digits).imag - expected) <= tol, (z, digits)
                    assert bloch_wigner(z, digits) == 0
        assert routes == {None, (), ("ref",), ("ref", "inv"), ("ref", "inv", "ref")}

    def test_cut_limit_from_below(self):
        with mp.workdps(70):
            for x in ("1.5", "3", "12"):
                below = mpmath.polylog(2, mpc(mpf(x), mpf("-1e-55")))
                assert abs(li2(mpf(x), DIGITS) - below) < TOL

    def test_reduction_path_independence_at_boundary(self):
        # same value through two different identity chains near |z| = 1/2:
        # evaluate at z directly and reconstruct from the reflection identity
        with mp.workdps(60):
            for z in (mpc("0.49", "0.1"), mpc("-0.3", "0.41"), mpc("0.51", "-0.05")):
                direct = li2(z, DIGITS)
                via_reflection = (mp.pi ** 2 / 6 - mp.log(z) * mp.log(1 - z)
                                  - li2(1 - z, DIGITS))
                assert abs(direct - via_reflection) < mpf(10) ** -50
                via_inversion = -li2(1 / z, DIGITS) - mp.pi ** 2 / 6 - mp.log(-z) ** 2 / 2
                assert abs(direct - via_inversion) < mpf(10) ** -50

    def test_hexagonal_region_log_series(self):
        # no orbit element drops below modulus ~1 here
        with mp.workdps(70):
            for z in (mpc("0.5", "0.8660254037844386"),
                      mpc("0.5000001", "0.8660253"),
                      mpc("0.4999998", "-0.8660255")):
                assert abs(li2(z, DIGITS) - mpmath.polylog(2, z)) < TOL


def reduced_q(z):
    """q = |u| / 2pi for u = -log(1-w), w the reduced argument li2 sums at."""
    w = _orbit_value(z, _reduction_chain(z))
    return abs(mp.log(1 - w)) / (2 * mp.pi)


def reduced_point(r):
    """A point of modulus r < 1 that is its own reduced argument: Re <= 1/2
    and |1-z| <= 1 hold for arguments between acos(1/2r) and acos(r/2)."""
    theta = (mp.acos(1 / (2 * r)) + mp.acos(r / 2)) / 2
    return r * mp.expj(theta)


class TestBernoulliSeries:
    """li2 sums one Bernoulli series on every reduced argument; the module
    docstring proves q < 0.2 there, so no argument is out of range."""

    def test_q_bound_over_the_plane(self):
        with mp.workdps(60):
            for z in rand_points(27, 400, rmin=0.01, rmax=100):
                assert reduced_q(z) < 0.2

    def test_fixed_points_and_their_orbit(self):
        # the worst case: every orbit element of e^(+-i pi/3) has modulus 1,
        # where the power series does not converge geometrically, so the
        # second oracle here is the closed form pi^2/36 + i Cl2(pi/3)
        with mp.workdps(220):
            for s in (1, -1):
                fixed = mp.expjpi(mpf(s) / 3)
                closed = mpc(mp.pi ** 2 / 36, s * mpmath.clsin(2, mp.pi / 3))
                for chain in _CHAINS:
                    z = _orbit_value(fixed, chain)
                    assert abs(reduced_q(z) - mpf(1) / 6) < mpf(10) ** -200
                    value = li2(z, 200)  # raises no PrecisionError
                    oracle = closed if abs(z - fixed) < 1e-100 else mp.conj(closed)
                    assert abs(value - oracle) < mpf(10) ** -60
                    assert abs(value - mpmath.polylog(2, z)) < mpf(10) ** -60
                    assert abs(bloch_wigner(z, 200) - oracle.imag) < mpf(10) ** -60

    def test_old_switch_band_against_both_oracles(self):
        # reduced |w| in 0.9-0.99, the band where li2 used to switch series
        for digits in (30, 50, 100, 200):
            with mp.workdps(digits + 10):
                for r in ("0.9", "0.94", "0.97", "0.99"):
                    z = reduced_point(mpf(r))
                    assert _reduction_chain(z) == ()
                    value = li2(z, digits)
                    tol = mpf(10) ** (3 - digits)
                    assert abs(value - power_series(z)) < tol
                    assert abs(value - mpmath.polylog(2, z)) < tol


class TestBlochWigner:
    def test_real_argument_exact_zero(self):
        assert bloch_wigner(0.37, DIGITS) == 0
        assert bloch_wigner(mpf("2.5"), DIGITS) == 0
        assert bloch_wigner(-3, DIGITS) == 0

    def test_zero_one_exact_zero(self):
        assert bloch_wigner(mpc(0, 0), DIGITS) == 0
        assert bloch_wigner(mpc(1, 0), DIGITS) == 0

    def test_catalan_at_i(self):
        # log|i| = 0, so D(i) = Im Li2(i) = sum (-1)^k/(2k+1)^2 (series oracle)
        with mp.workdps(60):
            oracle = mp.nsum(lambda k: (-1) ** k / (2 * k + 1) ** 2, [0, mp.inf])
            assert abs(bloch_wigner(mpc(0, 1), DIGITS) - oracle) < TOL

    def test_inverse_complement_symmetry(self):
        with mp.workdps(60):
            z = mpc("0.3", "0.4")
            assert abs(bloch_wigner(1 / (1 - z), DIGITS) - bloch_wigner(z, DIGITS)) < TOL

    def test_conjugation_antisymmetry(self):
        with mp.workdps(60):
            for z in rand_points(23, 200):
                assert abs(bloch_wigner(mp.conj(z), DIGITS) + bloch_wigner(z, DIGITS)) < mpf(10) ** -50

    def test_six_fold_symmetry(self):
        with mp.workdps(60):
            for z in rand_points(24, 60):
                d = bloch_wigner(z, DIGITS)
                assert abs(bloch_wigner(1 - 1 / z, DIGITS) - d) < TOL
                assert abs(bloch_wigner(1 / (1 - z), DIGITS) - d) < TOL
                assert abs(bloch_wigner(1 / z, DIGITS) + d) < TOL

    def test_five_term_relation(self):
        rng = random.Random(25)
        with mp.workdps(60):
            done = 0
            while done < 60:
                x = mpc(rng.uniform(-0.95, 0.95), rng.uniform(-0.95, 0.95))
                y = mpc(rng.uniform(-0.95, 0.95), rng.uniform(-0.95, 0.95))
                if abs(x) > 0.97 or abs(y) > 0.97:
                    continue
                pts = (x, y, (1 - x) / (1 - x * y), 1 - x * y, (1 - y) / (1 - x * y))
                if any(abs(w) < 1e-3 or abs(w - 1) < 1e-3 for w in pts):
                    continue
                done += 1
                total = mp.fsum(bloch_wigner(w, DIGITS) for w in pts)
                assert abs(total) < mpf(10) ** -45

    def test_differential_identity(self):
        # central finite differences of D against the closed-form 1-form
        # log|z| d(arg(1-z)) - log|1-z| d(arg z)
        rng = random.Random(26)
        h = mpf(10) ** -8
        with mp.workdps(60):
            checked = 0
            while checked < 20:
                z = mpc(rng.uniform(-2, 2), rng.uniform(-2, 2))
                if abs(z) < 0.1 or abs(z - 1) < 0.1 or abs(z.imag) < 0.05:
                    continue
                x, y = z.real, z.imag
                az2 = x * x + y * y
                a1z2 = (1 - x) ** 2 + y ** 2
                lz = mp.log(abs(z))
                l1z = mp.log(abs(1 - z))
                ddx = lz * (-y / a1z2) - l1z * (-y / az2)
                ddy = lz * (-(1 - x) / a1z2) - l1z * (x / az2)
                grad_norm = mp.sqrt(ddx ** 2 + ddy ** 2)
                if grad_norm < mpf(10) ** -3:
                    continue
                checked += 1
                fdx = (bloch_wigner(z + h, 40) - bloch_wigner(z - h, 40)) / (2 * h)
                fdy = (bloch_wigner(z + h * mpc(0, 1), 40)
                       - bloch_wigner(z - h * mpc(0, 1), 40)) / (2 * h)
                err = mp.sqrt((fdx - ddx) ** 2 + (fdy - ddy) ** 2)
                assert err / grad_norm < mpf(10) ** -6


def route_points() -> list:
    """One point per route of _CHAINS, then a point on either side of each
    tie the route rule resolves: |z| = 1/2 against the smallest other
    modulus, 1/|1-z| against |z|/|1-z| at |z| = 1, |z| against |z|/|1-z| at
    |1-z| = 1, and |z| against |1-z| (and their inverses) at Re z = 1/2."""
    with mp.workdps(250):
        points = [mpc(-0.375, 0.125), mpc(0.5, 1.5), mpc(0.625, 0.125), mpc(-3, 0.125),
                  mpc(0.75, 0.75), mpc(-0.875, 0.125)]
        ties = [lambda s: mp.expj(2) * (1 + s) / 2, lambda s: mp.expj(1.3) * (1 + s),
                lambda s: 1 - mp.expj(0.7) * (1 + s), lambda s: mpc(0.5 + s, 0.6),
                lambda s: mpc(0.5 + s, 3)]
        for tie in ties:
            points += [tie(mpf(sign) * mpf("3e-10")) for sign in (-1, 1)]
    return points


class TestBlochWignerReusesLogs:
    """D taken at the reduced argument from the logs the route already has
    prints as the formula log|z| arg(1-z) + Im Li2(z), with both logs taken
    afresh, at every route and on both sides of each tie."""

    def test_points_cover_every_route_and_both_sides_of_each_tie(self):
        with mp.workdps(working_dps(DIGITS)):
            chains = [_reduction_chain(mpc(z)) for z in route_points()]
        assert chains[:len(_CHAINS)] == list(_CHAINS)
        sides = list(zip(chains[len(_CHAINS)::2], chains[len(_CHAINS) + 1::2]))
        assert all(below != above for below, above in sides)

    @pytest.mark.parametrize("digits", [30, 50, 100, 200])
    def test_prints_as_the_old_formula(self, digits):
        for z in route_points():
            _, d = li2_and_bloch_wigner(z, digits)
            with mp.workdps(working_dps(digits)):
                w = mpc(z)
                old = mp.log(abs(w)) * mp.arg(1 - w) + _li2_principal(w)[0].imag
            with mp.workdps(digits):
                assert mp.nstr(d, digits) == mp.nstr(+old, digits), (z, digits)


def exact_reals() -> list:
    """Exactly-real points on either side of 0, 1/2, 1 and 2, on the cut,
    and on the negative axis, where log z is taken below its cut."""
    with mp.workdps(60):
        points = [mpf(c) + sign * mpf("3e-10") for c in (0, 0.5, 1, 2) for sign in (-1, 1)]
    return points + [mpf(3), mpf(10), mpf(10) ** 6, mpf(-0.875), mpf(-3)]


def log_counts(monkeypatch) -> dict:
    """Counts of the mp.log, mp.log1p and mp.arg calls made from now on, and
    of the real logs log|z| that arithreg.dilog takes by mpf_log_hypot; a
    log1p counts once, not also as the log it calls itself."""
    counts = {"log": 0, "log1p": 0, "arg": 0, "log_hypot": 0}
    inside_log1p = []
    log, log1p, arg = mp.log, mp.log1p, mp.arg
    log_hypot = arithreg.dilog.mpf_log_hypot

    def counted_log(*args, **kwargs):
        counts["log"] += not inside_log1p
        return log(*args, **kwargs)

    def counted_log1p(*args, **kwargs):
        counts["log1p"] += 1
        inside_log1p.append(True)
        try:
            return log1p(*args, **kwargs)
        finally:
            inside_log1p.pop()

    def counted_arg(*args, **kwargs):
        counts["arg"] += 1
        return arg(*args, **kwargs)

    def counted_log_hypot(*args, **kwargs):
        counts["log_hypot"] += 1
        return log_hypot(*args, **kwargs)

    monkeypatch.setattr(mp, "log", counted_log)
    monkeypatch.setattr(arithreg.dilog, "mpf_log_hypot", counted_log_hypot)
    monkeypatch.setattr(mp, "log1p", counted_log1p)
    monkeypatch.setattr(mp, "arg", counted_arg)
    return counts


class TestTwoLogs:
    """The route reads the log of every orbit element from log z and
    log(1-z): it prints as the stepwise route with a fresh log at every
    orbit element, and takes at most those two logs of z."""

    @pytest.mark.parametrize("digits", [30, 50, 100, 200])
    def test_prints_as_the_stepwise_route(self, digits):
        with mp.workdps(60):
            points = route_points() + exact_reals()
            points += [z for region in ("disk", "wide", "ring", "fixed", "real")
                       for z in region_points(region, 8, digits)]
        for z in points:
            value, d = li2_and_bloch_wigner(z, digits)
            with mp.workdps(working_dps(digits)):
                w = mpc(z)
                old = stepwise_li2(w)
                if not w.imag:
                    old, old_d = mpc(old.real, 0 if w.real <= 1 else old.imag), mpf(0)
                else:
                    old_d = mp.log(abs(w)) * mp.arg(1 - w) + old.imag
            with mp.workdps(digits):
                assert ([mp.nstr(x, digits) for x in (value.real, value.imag, d)]
                        == [mp.nstr(+x, digits) for x in (old.real, old.imag, old_d)]), (z, digits)

    def test_log_calls_per_route(self, monkeypatch):
        # log1p only where u is not -log of an orbit element the route has
        # already taken: on the identity route and after a final inversion;
        # (ref, inv, ref) reads A = log z as Re A alone, so it takes one
        # complex log, B, and for D the real log|z| by mpf_log_hypot
        logs_of_z = {(): 1, ("inv",): 1, ("ref",): 2, ("ref", "inv"): 2, ("inv", "ref"): 2,
                     ("ref", "inv", "ref"): 1}
        with mp.workdps(working_dps(DIGITS)):
            points = [mpc(z) for z in route_points() + exact_reals()]
            chains = [_reduction_chain(z) for z in points]
        assert set(chains) == set(_CHAINS)
        counts = log_counts(monkeypatch)
        for z, chain in zip(points, chains):
            for key in counts:
                counts[key] = 0
            li2_and_bloch_wigner(z, DIGITS)
            takes_log1p = not chain or chain[-1] == "inv"
            if z.imag:
                assert counts == {"log": logs_of_z[chain], "log1p": takes_log1p, "arg": 0,
                                  "log_hypot": chain == ("ref", "inv", "ref")}, z
            else:  # D = 0 takes no log|z|: no log on the identity route, no log_hypot
                assert counts == {"log": logs_of_z[chain] - (not chain), "log1p": takes_log1p,
                                  "arg": 0, "log_hypot": 0}, z


def raw_arithmetic_points(digits) -> list:
    """Seeded inputs of every kind li2_and_bloch_wigner takes: the route and
    tie points, exact reals on and off the cut as mpf, Fraction, int and
    float, 0 and 1, points of the benchmark regions, tiny and huge |z|,
    complex and str input, and mpc values carrying 40 digits more than the
    working precision, which mpc(z) rounds first."""
    rng = random.Random(f"raw-{digits}")
    with mp.workdps(working_dps(digits) + 40):
        points = route_points() + exact_reals() + _real_points(rng, 40) + [0, 1, 2, -1, 0.5]
        points += [z for region in ("disk", "wide", "ring", "fixed", "real")
                   for z in region_points(region, 12, digits)]
        for _ in range(60):  # fine points carry the extra 40 digits into li2
            r, theta = mpf(10) ** rng.uniform(-6, 6), rng.uniform(-3.2, 3.2)
            points.append(r * mp.expj(theta))
        for exponent in (-400, -300, -60, -20, 20, 60, 300, 400):
            theta = rng.uniform(-3.2, 3.2)
            points += [mpf(10) ** exponent * mp.expj(theta), mpc(mpf(10) ** exponent, 0),
                       mpc(-mpf(10) ** exponent, 0), 1 + mpf(10) ** exponent * mp.expj(theta)]
    points += [complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(10)]
    points += [rng.uniform(-3, 3) for _ in range(10)]
    points += ["0.375", "-3.75", "2"]
    return points


class TestRawArithmeticBits:
    """The route constant, series tail and D are formed on raw mpmath
    tuples; li2_and_bloch_wigner returns the same bits as the mpc and mpf operators of the object
    layer (dilog_oracles.object_li2_and_bloch_wigner), at every route, on
    both sides of each tie, on and off the cut, and from tiny to huge |z|."""

    @pytest.mark.parametrize("digits", [16, 17, 30, 50, 100, 200])
    def test_same_tuples_as_the_object_layer(self, digits):
        points = raw_arithmetic_points(digits)
        with mp.workdps(working_dps(digits)):  # 1 + 1e-20 i rounds to 1 at 16 digits
            chains = {_reduction_chain(w) for w in map(_as_mpc, points) if w not in (0, 1)}
        assert chains == set(_CHAINS)
        for z in points:
            value, d = li2_and_bloch_wigner(z, digits)
            old_value, old_d = object_li2_and_bloch_wigner(z, digits)
            assert (value._mpc_, d._mpf_) == (old_value._mpc_, old_d._mpf_), (z, digits)


class TestBlochWignerAlone:
    """bloch_wigner forms D without Li2: no route constant, and every log
    that only log|w| reads taken as its real part by mpf_log_hypot, the
    real part of mpmath's complex log. Its bits are the D of
    li2_and_bloch_wigner at every route and on both sides of each tie."""

    @pytest.mark.parametrize("digits", [30, 50, 100, 200])
    def test_same_bits_as_li2_and_bloch_wigner(self, digits):
        points = raw_arithmetic_points(digits)
        with mp.workdps(working_dps(digits)):
            chains = {_reduction_chain(w) for w in map(_as_mpc, points) if w.imag}
        assert chains == set(_CHAINS)
        for z in points:
            assert bloch_wigner(z, digits)._mpf_ == li2_and_bloch_wigner(z, digits)[1]._mpf_, \
                (z, digits)

    def test_log_calls_per_route(self, monkeypatch):
        # a log is taken in full only where u reads it; log1p where u is
        # -log1p(-w), on the identity route and after a final inversion
        calls = {(): (1, 1, 0), ("inv",): (0, 1, 1), ("ref",): (1, 0, 1),
                 ("ref", "inv"): (0, 1, 1), ("inv", "ref"): (1, 0, 1),
                 ("ref", "inv", "ref"): (1, 0, 1)}
        with mp.workdps(working_dps(DIGITS)):
            points = [mpc(z) for z in route_points()]
            chains = [_reduction_chain(z) for z in points]
        assert all(z.imag for z in points) and set(chains) == set(_CHAINS)
        counts = log_counts(monkeypatch)
        for z, chain in zip(points, chains):
            for key in counts:
                counts[key] = 0
            bloch_wigner(z, DIGITS)
            log, log1p, log_hypot = calls[chain]
            assert counts == {"log": log, "log1p": log1p, "arg": 0, "log_hypot": log_hypot}, z


class TestBlochWignerFarFromTheUnitCircle:
    """D taken at the reduced argument keeps its digits where the route
    constants are of size log^2 |z| and D is tiny, against
    log|z| arg(1-z) + Im Li2(z) from mpmath.polylog at 400 digits."""

    @pytest.mark.parametrize("digits", [30, 50])
    def test_against_polylog(self, digits):
        for text in ("-1e30+1e-5j", "1e30+1j", "1e20-3j", "1e15+1e15j", "-1e12-1e-3j"):
            with mp.workdps(400):
                z = mp.mpmathify(text)
                oracle = mp.log(abs(z)) * mp.arg(1 - z) + mpmath.polylog(2, z).imag
                assert relative_error(bloch_wigner(z, digits), oracle) < mpf(10) ** (1 - digits), text


class TestRouteTable:
    """Each row of _ROUTES is the inversion and reflection identities walked
    along its chain, as stepwise_li2 walks them, on exact polynomials in A,
    B and P = i pi sign(Im z) (dilog_oracles.symbolic_route): its constant
    is the quadratic form p pi^2/6 + q A^2 + r B^2 + t A B with no P term
    left, and u and log|w| are the row's linear forms in A and B."""

    @pytest.mark.parametrize("chain", _CHAINS, ids=lambda chain: "-".join(chain) or "identity")
    def test_row_is_the_identities_walked(self, chain):
        a, u_form, log_abs_form, (p, q, r, t) = _ROUTES[chain]
        const, u, log_w = symbolic_route(chain, a)
        assert not any("P" in key for key in const)
        terms = {("pi2",): Fraction(p, 6), ("A", "A"): q, ("B", "B"): r, ("A", "B"): t}
        assert const == {key: c for key, c in terms.items() if c}
        if u_form is None:
            assert u is None and (not chain or chain[-1] == "inv")
        else:
            assert u == {key: c for key, c in zip("AB", u_form) if c}
        # Re P = 0, so log|w| is log w without its P term
        assert {key: c for key, c in log_w.items() if key != "P"} == {
            key: c for key, c in zip("AB", log_abs_form) if c}
        if q or t:  # with the other choice of A a P term is left
            assert any("P" in key for key in symbolic_route(chain, -a)[0])


class TestImaginaryPartNearTheRealAxis:
    """Im Li2 and D keep their relative precision where Im z is tiny: no
    route constant leaves terms of size pi log|z| to cancel, and Im S of the
    series is one mpf product. Against mpmath.polylog at 400 digits, at the
    binary z the library sees."""

    @pytest.mark.parametrize("digits", [30, 50])
    def test_against_polylog(self, digits):
        for text in ("-1e30+1e-5j", "-5+1e-20j", "-0.9+1e-30j", "2+1e-25j"):
            with mp.workdps(working_dps(digits)):
                z = mp.mpmathify(text)
            value, d = li2_and_bloch_wigner(z, digits)
            with mp.workdps(400):
                oracle = mpmath.polylog(2, z)
                d_oracle = mp.log(abs(z)) * mp.arg(1 - z) + oracle.imag
                assert relative_error(value.imag, oracle.imag) < mpf(10) ** -digits, text
                assert relative_error(d, d_oracle) < mpf(10) ** -digits, text


def region_points(region, count, seed):
    """Seeded points of one benchmark region: disk |z| < 1/2, wide
    0.1 < |z| < 10, ring 0.9 < |z| < 1.1, fixed within 0.06 of e^(+-i pi/3),
    real in (-10, 10) off 0 and 1."""
    rng = random.Random(f"{region}-{seed}")
    pts = []
    while len(pts) < count:
        theta = rng.uniform(-3.14159, 3.14159)
        if region == "disk":
            z = mpc(0.5 * rng.random() ** 0.5 * mpmath.expj(theta))
        elif region == "wide":
            z = mpc(mpmath.exp(rng.uniform(-2.3, 2.3)) * mpmath.expj(theta))
        elif region == "ring":
            z = mpc(rng.uniform(0.9, 1.1) * mpmath.expj(theta))
        elif region == "fixed":
            centre = mp.expjpi(mpf(rng.choice((1, -1))) / 3)
            z = centre + rng.uniform(0, 0.06) * mpmath.expj(theta)
        else:
            z = mpc(rng.uniform(-10, 10), 0)
        if abs(z) > 1e-3 and abs(z - 1) > 1e-3:
            pts.append(z)
    return pts


def relative_error(value, oracle):
    return abs(value - oracle) / abs(oracle)


class TestFixedPointKernel:
    """The integer recurrence against the mpc series, against the complex
    Horner loop it replaced and against the exact truncated sum, and against
    mpmath where a Horner loop in v itself would lose digits."""

    @pytest.mark.parametrize("digits", [30, 50, 100, 200])
    def test_against_mpc_series_over_bench_regions(self, digits):
        with mp.workdps(digits + 10):
            for region in ("disk", "wide", "ring", "fixed", "real"):
                for z in region_points(region, 8, digits):
                    w = _orbit_value(z, _reduction_chain(z))
                    value = mp.make_mpc(_bernoulli_series((-mp.log(1 - w))._mpc_))
                    assert relative_error(value, mpc_bernoulli_series(w)) < mpf(10) ** -digits

    @pytest.mark.parametrize("digits", [30, 50, 100, 200, 500])
    def test_recurrence_against_complex_horner(self, digits, monkeypatch):
        # every sum li2 makes over the bench regions and at e^(+-i pi/3),
        # where q = 1/6 and the loop runs longest: Re S lies within the
        # module docstring's 3 units of 2^-bits of the exact truncated sum,
        # so within 6 of the complex Horner loop it replaced, and
        # Im S = Im v b_1 / (4 pi^2) within 330 units relative; at 500 digits
        # the falling precision drops the most bits
        calls = []
        kernel = arithreg.dilog._fixed_sum

        def spy(v, bits, count):
            calls.append((v, bits, count, kernel(v, bits, count)))
            return calls[-1][3]

        monkeypatch.setattr(arithreg.dilog, "_fixed_sum", spy)
        with mp.workdps(digits + 10):
            points = [z for region in ("disk", "wide", "ring", "fixed", "real")
                      for z in region_points(region, 8, digits)]
            points += [mp.expjpi(mpf(s) / 3) for s in (1, -1)]
        for z in points:
            li2(z, digits)
        assert len(calls) == len(points)
        for v, bits, count, (s_re, b1) in calls:
            old_re, _ = complex_horner_sum(v, bits, count)
            assert abs(s_re - old_re) < 6
            exact = exact_series_sum(v, bits, count)
            with mp.workprec(bits + 64):
                assert abs(s_re - exact.real) < 3
                s_im = v.imag * b1 / (4 * mp.pi ** 2)
                assert mp.ldexp(abs(s_im - exact.imag), bits) < 330 * abs(exact.imag) or (
                    s_im == exact.imag == 0)

    @pytest.mark.parametrize("digits", [500, 1000])
    def test_near_fixed_points_at_high_precision(self, digits):
        # |v| is about 1.1 here: an unscaled fixed-point Horner loop in v
        # misses this bound at 1000 digits
        with mp.workdps(digits + 40):
            for s in (1, -1):
                z = mp.expjpi(mpf(s) / 3) + mpc("3e-4", "-7e-4") * s
                assert relative_error(li2(z, digits), mpmath.polylog(2, z)) < mpf(10) ** -digits


class TestSmallArguments:
    """Near 0 Li2(z) ~ z: the identity route and u = -log1p(-w) keep the
    relative error at the working precision, for either sign of Re z, at a
    cost that does not grow as |z| shrinks."""

    @pytest.mark.parametrize("exponent", [12, 40, 70, 400])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_relative_error(self, exponent, sign):
        with mp.workdps(90):
            r = mpf(10) ** -exponent
            z = mpc(sign * r, r / 10)
            li2_oracle = mpmath.polylog(2, z)
            d_oracle = mp.log(abs(z)) * mp.arg(1 - z) + li2_oracle.imag
            assert _reduction_chain(z) == ()
            assert relative_error(li2(z, DIGITS), li2_oracle) < mpf(10) ** -50
            assert relative_error(bloch_wigner(z, DIGITS), d_oracle) < mpf(10) ** -50

    @pytest.mark.parametrize("sign", [1, -1])
    def test_tiny_argument_costs_no_extra_bits(self, sign):
        # at |z| = 1e-100000000 an exact 1 - z would need about 3.3e8 bits
        with mp.workdps(90):
            r = mpf("1e-100000000")
            z = mpc(sign * r, r / 10)
        with time_limit(5):
            value, d = li2(z, DIGITS), bloch_wigner(z, DIGITS)
        with mp.workdps(90):
            li2_oracle = z + z * z / 4  # the next term is below 1e-200000000 |z|
            d_oracle = mp.log(abs(z)) * mp.arg(1 - z) + li2_oracle.imag
            assert relative_error(value, li2_oracle) < mpf(10) ** -50
            assert relative_error(d, d_oracle) < mpf(10) ** -50


class TestRoute:
    """The route chosen from two float logs is the route the rule picks on
    mpc moduli: identity for |z| <= 1/2, else the smallest orbit modulus,
    earliest on ties."""

    def test_float_choice_off_ties(self, monkeypatch):
        with mp.workdps(60):
            points = rand_points(28, 300, rmin=0.01, rmax=100)
            expected = [_mpc_chain(z) for z in points]

            def no_fallback(z):
                raise AssertionError(f"mpc fallback at {z}")

            monkeypatch.setattr(arithreg.dilog, "_mpc_chain", no_fallback)
            assert [_reduction_chain(z) for z in points] == expected

    @pytest.mark.parametrize("z, chain", [
        (mpc(0.5), ()),
        (mpc(-1), ("ref", "inv")),
        (mpc(2), ("inv",)),  # on the cut
        (mpc(0.5, 0.5), ()),  # |z| = |1-z|
        (mpc(0.5, -0.5), ()),
    ])
    def test_exact_ties(self, z, chain):
        with mp.workdps(60):
            assert _reduction_chain(z) == _mpc_chain(z) == chain

    def test_outside_the_float_range(self):
        # |z| or |1-z| overflows or underflows a float: the mpc rule decides
        with mp.workdps(90):
            tiny = mpf(10) ** -400
            points = [mpf(10) ** 400 * mp.expj(2), tiny * mp.expj(2), tiny * mp.expj(-1),
                      1 + tiny * mp.expj(2)]
            for z in points:
                with mp.workdps(working_dps(DIGITS)):
                    assert _reduction_chain(mpc(z)) == _mpc_chain(mpc(z))
                    assert reduced_q(mpc(z)) < 0.2
                assert relative_error(li2(z, DIGITS), mpmath.polylog(2, z)) < mpf(10) ** -50
        big = Fraction(10 ** 400 + 1, 3)  # 400-digit numerator
        with mp.workdps(working_dps(DIGITS)):
            assert _reduction_chain(_as_mpc(big)) == _mpc_chain(_as_mpc(big)) == ("inv",)
