import pytest

from arithreg.errors import DomainError
from arithreg.kmodel import build_model, generator_labels, rank_in_degree
from arithreg.nf import embeddings, parse_field


def _field(poly):
    return embeddings(parse_field({"poly": poly}), 50)


@pytest.fixture(scope="module")
def every_field(embset):
    """The conftest fields, x^4 + 1 (totally complex, r2 = 2) and
    x^4 - 4x^3 + 9x^2 - 10x + 5 (two conjugate pairs with real part 1)."""
    return {**embset, "x4+1": _field([1, 0, 0, 0, 1]),
            "shared_re": _field([5, -10, 9, -4, 1])}


def _dims(e, ps=(1, 2, 3)):
    """The dim_ambient column of the table up to max(ps), at ps, checked
    against the generator labels of each degree."""
    rows = build_model(e, max(ps))["rows"]
    dims = [rows[p - 1]["dim_ambient"] for p in ps]
    assert dims == [len(generator_labels(e, 1 - 2 * p)) for p in ps]
    return dims


def _closed_form(e, p):
    r1, r2 = e.signature
    return r1 + r2 - 1 if p == 1 else (r2 if p % 2 == 0 else r1 + r2)


class TestBuildModel:
    def test_dims_q(self, embset):
        assert _dims(embset["Q"]) == [1, 0, 1]

    def test_dims_qi(self, embset):
        assert _dims(embset["Qi"]) == [1, 1, 1]

    def test_dims_qsqrt2(self, embset):
        assert _dims(embset["Qsqrt2"]) == [2, 0, 2]

    def test_dim_formula_all_fields(self, every_field):
        for e in every_field.values():
            r1, r2 = e.signature
            assert _dims(e, range(1, 7)) == [r1 * (p % 2) + r2 for p in range(1, 7)]

    def test_lazy_degrees_beyond_max_p(self, every_field):
        """The functions answer any degree, whatever max_p a table used."""
        assert len(generator_labels(every_field["cubic"], 1 - 2 * 9)) == 2  # p = 9 odd: r1 + r2
        for e in every_field.values():
            assert build_model(e, 6)["rows"][-1]["degree"] == -11
            assert [len(generator_labels(e, 1 - 2 * p)) for p in (9, 10)] == \
                [sum(e.signature), e.signature[1]]

    def test_no_generators_outside_degrees_1_minus_2p(self, embset):
        for d in (2, 1, 0, -2, -4):
            assert generator_labels(embset["cubic"], d) == []

    def test_pair_labels_from_the_conjugation_pairing(self, every_field):
        """On x^4 - 4x^3 + 9x^2 - 10x + 5 both pairs have real part 1, so the
        roots sort by imaginary part and conjugates are not neighbours: the
        pairing is (3, 2, 1, 0), and each label names a pair representative
        with its exact conjugate."""
        e = every_field["shared_re"]
        assert e.conjugation_pairing == (3, 2, 1, 0)
        assert generator_labels(e, -3) == ["x(s2s1)_-3", "x(s3s0)_-3"]
        assert generator_labels(every_field["x4+1"], -1) == ["x(s1s0)_-1", "x(s3s2)_-1"]

    def test_max_p_below_one(self, embset):
        for max_p in (0, -1):
            with pytest.raises(DomainError, match="max_p must be at least 1"):
                build_model(embset["Q"], max_p)


class TestRanks:
    def test_q(self, embset):
        e = embset["Q"]
        assert [rank_in_degree(e, d) for d in (-1, -3, -5)] == [0, 0, 1]

    def test_qi(self, embset):
        e = embset["Qi"]
        assert rank_in_degree(e, -1) == 0
        assert rank_in_degree(e, -3) == 1

    def test_qsqrt2(self, embset):
        assert rank_in_degree(embset["Qsqrt2"], -1) == 1

    def test_degree_zero(self, every_field):
        for e in every_field.values():
            assert rank_in_degree(e, 0) == 1

    def test_closed_form_table(self, every_field):
        for e in every_field.values():
            for p in range(1, 11):
                assert rank_in_degree(e, 1 - 2 * p) == _closed_form(e, p)

    def test_unsupported_degree(self, embset):
        for d in (-2, 1, 2):
            with pytest.raises(DomainError):
                rank_in_degree(embset["Q"], d)


class TestDimensionTable:
    def test_shape(self, embset):
        table = build_model(embset["cubic"], 6)
        assert list(table) == ["signature", "degree_zero_rank", "rows"]
        assert table["signature"] == [1, 1]
        assert table["degree_zero_rank"] == 1
        assert table["rows"][0]["degree"] == -1
        assert table["rows"][1]["rank"] == 1
        assert all(list(r) == ["degree", "dim_ambient", "rank", "generators"]
                   for r in table["rows"])
        assert all(len(r["generators"]) == r["dim_ambient"] for r in table["rows"])

    def test_rows_are_the_functions(self, every_field):
        for e in every_field.values():
            for max_p in (1, 6):
                table = build_model(e, max_p)
                assert table["signature"] == list(e.signature)
                assert [r["degree"] for r in table["rows"]] == [1 - 2 * p for p in range(1, max_p + 1)]
                for r, p in zip(table["rows"], range(1, max_p + 1)):
                    assert r["generators"] == generator_labels(e, r["degree"])
                    assert r["rank"] == rank_in_degree(e, r["degree"]) == _closed_form(e, p)
