import pytest

from arithreg.errors import DomainError
from arithreg.kmodel import build_model, dimension_table, rank_in_degree


@pytest.fixture(scope="module")
def models(fields, embset):
    return {name: build_model(embset[name], 6) for name in fields}


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


class TestDimensionTable:
    def test_shape(self, models):
        table = dimension_table(models["cubic"])
        assert table["signature"] == [1, 1]
        assert table["rows"][0]["degree"] == -1
        assert table["rows"][1]["rank"] == 1
        assert all(len(r["generators"]) == r["dim_ambient"] for r in table["rows"])
