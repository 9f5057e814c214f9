import random
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from arithreg.dilog import bloch_wigner
from arithreg.errors import DomainError
from arithreg.kmodel import (build_model, dimension_table, embed_k3, embed_unit,
                             mpf_to_fraction, multiply, p_map, project_M,
                             rank_in_degree)
from arithreg.nf import evaluate
from arithreg.relations import BlochElement


def basis_element(m, degree: int, position: int):
    """The generator at position of degree as an element of the model."""
    count = len(m.generators(degree))
    return m.element(degree, [int(c == position) for c in range(count)])


@pytest.fixture(scope="module")
def models(fields, embset):
    return {name: build_model(embset[name], 6) for name in fields}


def rand_deg1(model, rng):
    count = model.dim_m_prime(-1)
    return model.element(-1, [Fraction(rng.randint(-20, 20), rng.randint(1, 7))
                              for _ in range(count)])


class TestMpfToFraction:
    def test_exact_dyadic(self):
        with mp.workdps(60):
            x = mpf(1) / mpf(8) + mpf(3)
        assert mpf_to_fraction(x) == Fraction(25, 8)

    def test_high_precision_value_preserved(self):
        with mp.workdps(60):
            x = mp.log(2)
            back = mpf(mpf_to_fraction(x).numerator) / mpf(mpf_to_fraction(x).denominator)
            assert back == x


class TestBuildModel:
    def test_dims_q(self, models):
        m = models["Q"]
        assert [m.dim_m_prime(1 - 2 * p) for p in (1, 2, 3)] == [1, 0, 1]

    def test_dims_qi(self, models):
        m = models["Qi"]
        assert [m.dim_m_prime(1 - 2 * p) for p in (1, 2, 3)] == [1, 1, 1]

    def test_dims_qsqrt2(self, models):
        m = models["Qsqrt2"]
        assert [m.dim_m_prime(1 - 2 * p) for p in (1, 2, 3)] == [2, 0, 2]

    def test_dim_formula_all_fields(self, models):
        for m in models.values():
            r1, r2 = m.signature
            for p in range(1, 7):
                want = r1 * (p % 2) + r2
                assert m.dim_m_prime(1 - 2 * p) == want

    def test_lazy_degrees_beyond_max_p(self, models):
        m = models["cubic"]
        assert m.dim_m_prime(1 - 2 * 9) == 2  # p = 9 odd: r1 + r2


class TestPMapAndSplitting:
    def test_zero(self, models):
        m = models["Qsqrt2"]
        assert p_map(m.zero(-1), m) == 0

    def test_single_generator(self, models):
        m = models["Qsqrt2"]
        assert p_map(basis_element(m, -1, 0), m) == 1

    def test_difference_of_generators(self, models):
        m = models["Qsqrt2"]
        b = basis_element(m, -1, 0) - basis_element(m, -1, 1)
        assert p_map(b, m) == 0

    def test_projection_formula_sqrt2(self, models):
        m = models["Qsqrt2"]
        b = project_M(basis_element(m, -1, 0), m)
        assert b.coords == (Fraction(1, 2), Fraction(-1, 2))

    def test_projection_fixes_kernel(self, models):
        m = models["Qsqrt2"]
        b = basis_element(m, -1, 0) - basis_element(m, -1, 1)
        assert project_M(b, m) == b

    def test_idempotent_exact_random(self, models):
        rng = random.Random(71)
        for m in models.values():
            if m.dim_m_prime(-1) == 0:
                continue
            for _ in range(20):
                b = rand_deg1(m, rng)
                pb = project_M(b, m)
                assert p_map(pb, m) == 0
                assert project_M(pb, m) == pb

    def test_wrong_degree(self, models):
        m = models["cubic"]
        with pytest.raises(DomainError):
            p_map(m.zero(-3), m)


class TestRanks:
    def test_q(self, models):
        m = models["Q"]
        assert rank_in_degree(m, -1) == 0
        assert rank_in_degree(m, -3) == 0
        assert rank_in_degree(m, -5) == 1

    def test_qi(self, models):
        m = models["Qi"]
        assert rank_in_degree(m, -1) == 0
        assert rank_in_degree(m, -3) == 1

    def test_qsqrt2(self, models):
        assert rank_in_degree(models["Qsqrt2"], -1) == 1

    def test_degree_zero(self, models):
        assert rank_in_degree(models["Q"], 0) == 1

    def test_closed_form_table(self, models):
        for m in models.values():
            r1, r2 = m.signature
            for p in range(1, 7):
                d = 1 - 2 * p
                want = r1 + r2 - 1 if p == 1 else (r2 if p % 2 == 0 else r1 + r2)
                assert rank_in_degree(m, d) == want

    def test_unsupported_degree(self, models):
        with pytest.raises(DomainError):
            rank_in_degree(models["Q"], -2)


class TestMultiply:
    def test_unital(self, models):
        rng = random.Random(72)
        m = models["cubic"]
        one = m.scalar(1)
        b = rand_deg1(m, rng)
        assert multiply(one, b, m) == b
        assert multiply(b, one, m) == b

    def test_scalar_action(self, models):
        m = models["cubic"]
        b = basis_element(m, -1, 0)
        assert multiply(m.scalar(3), b, m).coords[0] == 3

    def test_negative_degrees_annihilate(self, models):
        m = models["Qsqrt2"]
        x = basis_element(m, -1, 0)
        y = basis_element(m, -1, 1)
        prod = multiply(x, y, m)
        assert prod.degree == -2 and prod.is_zero()
        five = multiply(basis_element(m, -5, 0), x, m)
        assert five.degree == -6 and five.is_zero()

    def test_graded_commutative_exact(self, models):
        rng = random.Random(73)
        m = models["cubic"]
        for _ in range(20):
            a = rand_deg1(m, rng)
            b = rand_deg1(m, rng)
            assert multiply(a, b, m) == multiply(b, a, m)  # both sides zero

    def test_associative_exact(self, models):
        m = models["cubic"]
        s, t = m.scalar(2), m.scalar(-5)
        b = basis_element(m, -1, 1)
        assert multiply(s, multiply(t, b, m), m) == multiply(multiply(s, t, m), b, m)


class TestEmbeddings:
    def test_root_of_unity_maps_to_zero(self, models, fields):
        m = models["Qi"]
        z = embed_unit(fields["Qi"].gen(), m)
        assert z.is_zero()

    def test_fundamental_unit_sqrt2(self, models, fields):
        m = models["Qsqrt2"]
        u = fields["Qsqrt2"].one() + fields["Qsqrt2"].gen()
        b = embed_unit(u, m)
        assert abs(float(p_map(b, m))) < 1e-40
        # log values at the two real embeddings are independent roundings,
        # so proportionality to (1, -1) holds at working accuracy
        assert abs(float(b.coords[0] + b.coords[1])) < 1e-40

    def test_unit_lands_in_kernel_mixed_signature(self, models, fields):
        m = models["cubic"]
        b = embed_unit(fields["cubic"].gen(), m)
        assert abs(float(p_map(b, m))) < 1e-40

    def test_k3_shifted_root_family(self, models, fields):
        m = models["cubic"]
        K = fields["cubic"]
        lam = K.gen()
        x = BlochElement((lam, (K.one() - lam).inverse()), (2, 1))
        b = embed_k3(x, m)
        assert len(b.coords) == 1  # r2 = 1 pair generators in degree -3
        e = m.embedding_set
        rep = e.pair_representatives[0]
        with mp.workdps(60):
            target = -3 * bloch_wigner(evaluate(lam, e)[rep], 50)
            assert abs(b.values()[0] - target) < mpf(10) ** -40


class TestDimensionTable:
    def test_shape(self, models):
        table = dimension_table(models["cubic"])
        assert table["signature"] == [1, 1]
        assert table["rows"][0]["degree"] == -1
        assert table["rows"][1]["rank"] == 1
        assert all(len(r["generators"]) == r["dim_ambient"] for r in table["rows"])
