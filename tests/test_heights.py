import random

import pytest
from mpmath import mp, mpf

from arithreg.arakelov import (FractionalIdeal, Metric, MetrizedLineBundle,
                               arithmetic_degree, standard_metric, twist_metric)
from arithreg.errors import DomainError, PrincipalityError
from arithreg.heights import c_hat_height, height, height_scaled_trivial, scaling_alpha
from arithreg.regulator import unit_regulator

TOL = mpf(10) ** -40


class TestHeight:
    def test_zero_vector(self, embset):
        e = embset["Qi"]
        assert height(1, (mpf(0), mpf(0)), e) == 0

    def test_constant_vector_n1(self, embset):
        e = embset["Qi"]
        c = mpf("0.75")
        assert height(1, (c, c), e) == c

    def test_order_two_halves(self, embset):
        e = embset["Qsqrt2"]
        v = mpf("0.6")
        with mp.workdps(60):
            assert abs(height(2, (v, v), e) - v / 2) < TOL

    def test_additive_in_scaling_vectors(self, embset):
        rng = random.Random(61)
        e = embset["cubic"]
        with mp.workdps(60):
            for _ in range(20):
                a = mpf(rng.randint(-9, 9)) / 4
                b = mpf(rng.randint(-9, 9)) / 4
                pair_a = (a, a + 1, a + 1)
                pair_b = (b, b - 2, b - 2)
                total = tuple(x + y for x, y in zip(pair_a, pair_b))
                ha = height(1, pair_a, e)
                hb = height(1, pair_b, e)
                ht = height(1, total, e)
                assert abs(ha + hb - ht) < TOL

    def test_vanishes_on_unit_log_vectors(self, fields, embset):
        for name, u in (("Qsqrt2", fields["Qsqrt2"].one() + fields["Qsqrt2"].gen()),
                        ("cubic", fields["cubic"].gen())):
            e = embset[name]
            vec = unit_regulator(u, e)
            with mp.workdps(60):
                assert abs(height(1, vec.values, e)) < TOL

    def test_invariance_validated(self, embset):
        e = embset["Qi"]
        with pytest.raises(DomainError, match="scaling vector is not conjugation invariant"):
            height(1, (mpf(1), mpf(2)), e)
        with pytest.raises(DomainError, match="scaling vector must supply one value per embedding"):
            height(1, (mpf(1),), e)

    def test_order_validated(self, embset):
        e = embset["Qi"]
        for order in (0, -2):
            with pytest.raises(DomainError, match="order hint must be a positive integer"):
                height(order, (mpf(1), mpf(1)), e)


class TestHeightScaledTrivial:
    def test_identity_function(self, embset):
        e = embset["Qi"]
        assert height_scaled_trivial((mpf(1), mpf(1)), e) == 0

    def test_four_over_q(self, embset):
        e = embset["Q"]
        with mp.workdps(60):
            assert abs(height_scaled_trivial((mpf(4),), e) + mp.log(2)) < TOL

    def test_exp_matches_mean(self, embset):
        # f = exp(-2 t) gives back mean(t)
        e = embset["cubic"]
        t = (mpf("0.2"), mpf("-0.1"), mpf("-0.1"))
        with mp.workdps(60):
            f = tuple(mp.exp(-2 * v) for v in t)
            got = height_scaled_trivial(f, e)
            assert abs(got - mp.fsum(t) / 3) < TOL

    def test_positivity_enforced(self, embset):
        with pytest.raises(DomainError):
            height_scaled_trivial((mpf(-1),), embset["Q"])


class TestScalingAlpha:
    def test_f_one(self, embset):
        vals = scaling_alpha(3, (mpf(1), mpf(1)), embset["Qi"])
        assert all(v == 0 for v in vals)

    def test_rank_one_e_squared(self, embset):
        e = embset["Qi"]
        with mp.workdps(60):
            f = (mp.exp(2), mp.exp(2))
            vals = scaling_alpha(1, f, e)
            for v in vals:
                assert abs(v + 1) < TOL

    def test_rank_two_f_four(self, embset):
        e = embset["Q"]
        with mp.workdps(60):
            vals = scaling_alpha(2, (mpf(4),), e)
            assert abs(vals[0] + mp.log(4)) < TOL

    def test_reproduces_twist_degree_difference(self, fields, embset):
        K, e = fields["Qi"], embset["Qi"]
        L = FractionalIdeal.principal(K.element([2, 1]))
        b = MetrizedLineBundle(L, standard_metric(L, e))
        t = (mpf("0.4"), mpf("0.4"))
        tb = twist_metric(b, t, e)
        with mp.workdps(60):
            diff = arithmetic_degree(tb, e) - arithmetic_degree(b, e)
            # the twisted metric is f * h with f = exp(-2 t); the rank-1
            # rescaling class averages to the degree difference
            f = tuple(u / v for u, v in zip(tb.metric.values, b.metric.values))
            alpha = scaling_alpha(1, f, e)
            assert abs(mp.fsum(alpha) / e.degree - diff) < TOL


class TestCHatHeight:
    def test_trivial(self, fields, embset):
        K, e = fields["Q"], embset["Q"]
        R = FractionalIdeal.unit_ideal(K)
        b = MetrizedLineBundle(R, Metric((mpf(1),)))
        assert c_hat_height(b, 1, K.one(), e) == 0

    def test_exp_metric(self, fields, embset):
        K, e = fields["Qi"], embset["Qi"]
        R = FractionalIdeal.unit_ideal(K)
        with mp.workdps(60):
            b = twist_metric(MetrizedLineBundle(R, Metric((mpf(1), mpf(1)))),
                             (mpf("0.3"), mpf("0.3")), e)
            got = c_hat_height(b, 1, K.one(), e)
            assert abs(got - mpf("0.3")) < TOL
            assert abs(got - arithmetic_degree(b, e)) < TOL

    def test_two_z(self, fields, embset):
        K, e = fields["Q"], embset["Q"]
        two = FractionalIdeal.principal(K.element([2]))
        b = MetrizedLineBundle(two, standard_metric(two, e))
        with mp.workdps(60):
            got = c_hat_height(b, 1, K.element([2]), e)
            assert abs(got + mp.log(2)) < TOL
            assert abs(got - arithmetic_degree(b, e)) < TOL

    def test_degree_equality_principal_fixtures(self, fields, embset):
        cases = []
        for name, gen_coeffs in (("Q", [3]), ("Qi", [1, 1]), ("Qsqrt2", [3, 1])):
            K, e = fields[name], embset[name]
            L = FractionalIdeal.principal(K.element(gen_coeffs))
            cases.append((MetrizedLineBundle(L, standard_metric(L, e)),
                          K.element(gen_coeffs), e))
        with mp.workdps(60):
            for bundle, gen, e in cases:
                got = c_hat_height(bundle, 1, gen, e)
                want = arithmetic_degree(bundle, e)
                assert abs(got - want) < TOL

    def test_non_principal_sqrtm5(self, fields, embset):
        # (2, 1 + sqrt(-5)) is not principal; its square is (2)
        K, e = fields["Qsqrtm5"], embset["Qsqrtm5"]
        P = FractionalIdeal.from_elements(K, [K.element([2]), K.one() + K.gen()])
        b = MetrizedLineBundle(P, standard_metric(P, e))
        with mp.workdps(60):
            got = c_hat_height(b, 2, K.element([2]), e)
            want = arithmetic_degree(b, e)
            assert abs(got - want) < TOL

    def test_wrong_generator_rejected(self, fields, embset):
        K, e = fields["Q"], embset["Q"]
        two = FractionalIdeal.principal(K.element([2]))
        b = MetrizedLineBundle(two, standard_metric(two, e))
        with pytest.raises(PrincipalityError):
            c_hat_height(b, 1, K.element([3]), e)

    def test_generator_of_the_same_norm_rejected(self, monkeypatch, fields, embset):
        """On x^2 + 1, (2 + i) and (2 - i) both have norm 5, but 2 - i does
        not lie in (2 + i), nor (2 - i)^2 in its square: membership rejects
        both while 2 + i passes, and no check forms the principal ideal of
        the generator."""
        K, e = fields["Qi"], embset["Qi"]
        assert K.defining_poly == (1, 0, 1)
        P = FractionalIdeal.principal(K.element([2, 1]))
        b = MetrizedLineBundle(P, standard_metric(P, e))
        wrong = K.element([2, -1])
        assert abs(wrong.norm()) == P.norm and not P.contains(wrong)

        def refuse(cls, elem):
            raise AssertionError("principal ideal formed")

        monkeypatch.setattr(FractionalIdeal, "principal", classmethod(refuse))
        with pytest.raises(PrincipalityError):
            c_hat_height(b, 1, wrong, e)
        with pytest.raises(PrincipalityError):
            c_hat_height(b, 2, K.element([3, -4]), e)  # (2 - i)^2
        with mp.workdps(60):
            assert abs(c_hat_height(b, 1, K.element([2, 1]), e) - arithmetic_degree(b, e)) < TOL

    def test_unit_multiple_of_the_generator_accepted(self, fields, embset):
        # i (2 + i) generates (2 + i) and i (2 + i)^2 its square: accepted,
        # with the height of the plain generator
        K, e = fields["Qi"], embset["Qi"]
        g, i = K.element([2, 1]), K.gen()
        P = FractionalIdeal.principal(g)
        b = MetrizedLineBundle(P, standard_metric(P, e))
        with mp.workdps(60):
            for n, plain in ((1, g), (2, g * g)):
                assert c_hat_height(b, n, i * plain, e) == c_hat_height(b, n, plain, e)

    def test_wrong_power_rejected(self, fields, embset):
        K, e = fields["Qsqrtm5"], embset["Qsqrtm5"]
        P = FractionalIdeal.from_elements(K, [K.element([2]), K.one() + K.gen()])
        b = MetrizedLineBundle(P, standard_metric(P, e))
        with pytest.raises(PrincipalityError):
            c_hat_height(b, 1, K.element([2]), e)
