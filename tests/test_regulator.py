import io
import random

import pytest
from mpmath import mp, mpc, mpf

from arithreg.cli import run_job
from arithreg.dilog import bloch_wigner
from arithreg.errors import DomainError, PrecisionError
from arithreg.heights import height
from arithreg.nf import embeddings, evaluate, parse_field
from arithreg.precision import working_dps
from arithreg.regulator import _near_zero_or_one, k3_regulator, unit_regulator
from arithreg.relations import relation_lattice, verify_bloch_element

TOL = mpf(10) ** -40

# the six maps of the anharmonic group, and the sign s with D(f(z)) = s D(z)
ORBIT_MAPS = {
    "lam": (lambda lam: lam, 1),
    "1-lam": (lambda lam: 1 - lam, -1),
    "1/lam": (lambda lam: lam.inverse(), -1),
    "(lam-1)/lam": (lambda lam: (lam - 1) * lam.inverse(), 1),
    "1/(1-lam)": (lambda lam: (1 - lam).inverse(), 1),
    "lam/(lam-1)": (lambda lam: lam * (lam - 1).inverse(), -1),
}
SHIFTED_ROOTS = {"x^3-x+1": [1, -1, 0, 1], "x^5-x+1": [1, -1, 0, 0, 0, 1]}


def counted_calls(monkeypatch):
    """Count the regulator's evaluate and bloch_wigner calls into the
    returned dict."""
    import arithreg.regulator

    calls = {"evaluate": 0, "bloch_wigner": 0}
    for name in calls:
        def counted(*args, name=name, real=getattr(arithreg.regulator, name)):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(arithreg.regulator, name, counted)
    return calls


def counted_bloch_wigner(monkeypatch):
    """Count the regulator's bloch_wigner calls into the returned list."""
    import arithreg.regulator

    calls = []
    real = arithreg.regulator.bloch_wigner
    monkeypatch.setattr(arithreg.regulator, "bloch_wigner",
                        lambda z, digits: calls.append(z) or real(z, digits))
    return calls


class TestUnitRegulator:
    def test_minus_one_gives_zero_vector(self, fields, embset):
        units = [(name, fields[name].element([-1])) for name in ("Qi", "Qsqrt2", "cubic")]
        units.append(("Qi", fields["Qi"].gen()))  # i, a root of unity of order 4
        for name, u in units:
            v = unit_regulator(u, embset[name])
            assert all(x == 0 for x in v)

    def test_fundamental_unit_sqrt2(self, fields, embset):
        K, e = fields["Qsqrt2"], embset["Qsqrt2"]
        v = unit_regulator(K.one() + K.gen(), e)
        with mp.workdps(60):
            # (log(sqrt2 - 1), log(1 + sqrt2)) in embedding order, sum 0
            assert abs(v[0] - mp.log(mp.sqrt(2) - 1)) < TOL
            assert abs(v[1] - mp.log(1 + mp.sqrt(2))) < TOL
            assert abs(mp.fsum(v)) < TOL

    def test_cubic_product_formula(self, fields, embset):
        v = unit_regulator(fields["cubic"].gen(), embset["cubic"])
        with mp.workdps(60):
            assert abs(mp.fsum(v)) < TOL

    def test_pair_values_equal_exactly(self, fields, embset):
        e = embset["cubic"]
        v = unit_regulator(fields["cubic"].gen(), e)
        for i, j in enumerate(e.conjugation_pairing):
            assert v[i] == v[j]

    def test_homomorphism(self, fields, embset):
        K, e = fields["Qphi"], embset["Qphi"]
        phi = K.gen()
        rng = random.Random(41)
        units = [phi, -phi ** 2, phi ** -3, K.element([-1]) * phi]
        with mp.workdps(60):
            for _ in range(20):
                a, b = rng.choice(units), rng.choice(units)
                va, vb, vab = (unit_regulator(x, e) for x in (a, b, a * b))
                for p, q, r in zip(va, vb, vab):
                    assert abs(p + q - r) < TOL

    def test_non_unit_rejected(self, fields, embset):
        with pytest.raises(DomainError):
            unit_regulator(fields["Q"].element([2]), embset["Q"])


class TestK3Regulator:
    def test_zero_element(self, fields, embset):
        v = k3_regulator((), [()], embset["cubic"])[0]
        assert all(val == 0 for val in v)

    def test_shifted_root_family_value(self, fields, embset):
        # x = n[lam] + [1/(1-lam)] evaluates to (n+1) * (-D(sigma lam))
        K, e = fields["cubic"], embset["cubic"]
        lam = K.gen()
        v = k3_regulator((lam, (K.one() - lam).inverse()), [(2, 1)], e)[0]
        with mp.workdps(60):
            for idx in e.pair_representatives:
                target = 3 * (-bloch_wigner(evaluate(lam, e)[idx], 50))
                assert abs(v[idx] - target) < TOL

    def test_real_embeddings_exactly_zero(self, fields, embset):
        K, e = fields["cubic"], embset["cubic"]
        lam = K.gen()
        v = k3_regulator((lam, (K.one() - lam).inverse()), [(2, 1)], e)[0]
        for idx in e.real_indices:
            assert v[idx] == 0

    def test_conjugation_antisymmetry_exact(self, fields, embset):
        K, e = fields["cubic"], embset["cubic"]
        lam = K.gen()
        v = k3_regulator((lam, (K.one() - lam).inverse()), [(2, 1)], e)[0]
        with mp.workdps(e.working_dps):
            for i, j in enumerate(e.conjugation_pairing):
                assert v[i] == -v[j]

    def test_additive_in_formal_sums(self, fields, embset):
        K, e = fields["cubic"], embset["cubic"]
        lam = K.gen()
        mu = (K.one() - lam).inverse()
        va, vb, vs = k3_regulator((lam, mu), [(2, 1), (4, 2), (6, 3)], e)
        with mp.workdps(60):
            for p, q, r in zip(va, vb, vs):
                assert abs(p + q - r) < TOL

    def test_totally_real_field_vanishes(self, fields, embset):
        # phi lies in R-circ of a totally real field: D = 0 at every embedding
        K, e = fields["Qphi"], embset["Qphi"]
        v = k3_regulator((K.gen(),), [(1,)], e)[0]
        assert all(val == 0 for val in v)

    def test_several_elements_match_one_at_a_time(self, fields, embset):
        # one call over a shared support gives, bit for bit, the vectors of
        # one call per row
        K, e = fields["cubic"], embset["cubic"]
        lam = K.gen()
        support = (lam, (K.one() - lam).inverse(), K.one() - lam)
        rows = [(2, 1, 0), (0, 0, 3), (-1, 4, 1)]
        assert k3_regulator(support, rows, e) == [k3_regulator(support, [row], e)[0]
                                                   for row in rows]

    def test_each_value_computed_once(self, fields, embset, monkeypatch):
        # three support elements, the last unused by every row: three
        # evaluations, and D once per (anharmonic orbit with a used element,
        # pair representative); lam and 1/(1-lam) share one orbit
        K, e = fields["cubic"], embset["cubic"]
        lam = K.gen()
        support = (lam, (K.one() - lam).inverse(), K.one() - lam)
        calls = counted_calls(monkeypatch)
        k3_regulator(support, [(2, 1, 0), (4, 2, 0)], e)
        assert calls == {"evaluate": 3, "bloch_wigner": len(e.pair_representatives)}

    def test_unused_support_element_still_checked(self, fields, embset, monkeypatch):
        # a support element that no row uses gets no D, but one that embeds
        # onto 1 still signals a precision failure
        import arithreg.regulator

        K, e = fields["cubic"], embset["cubic"]
        lam, unused = K.gen(), K.one() - K.gen()
        real = arithreg.regulator.evaluate
        monkeypatch.setattr(arithreg.regulator, "evaluate", lambda a, e: (
            (mpc(1),) * e.degree if a == unused else real(a, e)))
        with pytest.raises(PrecisionError, match="embeds onto 0 or 1"):
            k3_regulator((lam, unused), [(2, 0)], e)

    @pytest.mark.parametrize("centre", [0, 1])
    @pytest.mark.parametrize("direction", [mpc(-1), mpc(0.6, 0.8)], ids=["real", "complex"])
    @pytest.mark.parametrize("factor, degenerate", [(0.9, True), (1.1, False)])
    def test_degeneracy_threshold(self, fields, embset, monkeypatch, centre, direction, factor,
                                  degenerate):
        # an element within 0.9 tol of 0 or 1 at a pair representative
        # signals a precision failure and one 1.1 tol away does not, for
        # tol = 10^-(precision // 2)
        import arithreg.regulator

        K, e = fields["cubic"], embset["cubic"]
        lam, unused = K.gen(), K.one() - K.gen()
        with mp.workdps(e.working_dps):
            z = centre + factor * mpf(10) ** -(e.precision // 2) * direction
        real = arithreg.regulator.evaluate
        monkeypatch.setattr(arithreg.regulator, "evaluate", lambda a, e: (
            (z,) * e.degree if a == unused else real(a, e)))
        if degenerate:
            with pytest.raises(PrecisionError, match="embeds onto 0 or 1"):
                k3_regulator((lam, unused), [(2, 0)], e)
        else:
            assert len(k3_regulator((lam, unused), [(2, 0)], e)) == 1

    @pytest.mark.parametrize("digits", [16, 30, 60, 200])
    def test_degeneracy_test_matches_the_operator_form(self, digits):
        # the test on raw parts gives the boolean of
        # min(re^2, (re-1)^2) + im^2 < tol^2 in mpf operators, on seeded
        # points whose distance to 0 or 1 straddles tol by a few ulps
        rng = random.Random(f"degeneracy-{digits}")
        with mp.workdps(working_dps(digits)):
            tol2 = mpf(10) ** (-2 * (digits // 2))
            tol = mp.sqrt(tol2)
            outcomes = set()
            for _ in range(400):
                near = rng.choice((0, 1, 0.5, 3))
                scale = tol * (1 + rng.choice((-1, 1)) * mpf(2) ** -rng.randint(1, mp.prec + 4))
                z = near + scale * mp.expj(rng.uniform(-3.2, 3.2))
                z = mpc(z.real, 0) if rng.random() < 0.2 else z
                expected = min(z.real ** 2, (z.real - 1) ** 2) + z.imag ** 2 < tol2
                assert _near_zero_or_one(z._mpc_, tol2._mpf_) == expected, z
                outcomes.add(expected)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("poly", list(SHIFTED_ROOTS.values()), ids=list(SHIFTED_ROOTS))
    @pytest.mark.parametrize("name", list(ORBIT_MAPS))
    def test_orbit_member_matches_direct_values(self, poly, name, monkeypatch):
        # 2[lam] + 3[mu] for mu = f(lam): one D per pair representative, and
        # the values of direct bloch_wigner calls on both, bit for bit
        K = parse_field({"poly": poly})
        e = embeddings(K, 50)
        lam = K.gen()
        mu = ORBIT_MAPS[name][0](lam)
        calls = counted_bloch_wigner(monkeypatch)
        (v,) = k3_regulator((lam, mu), [(2, 3)], e)
        assert len(calls) == len(e.pair_representatives) > 0
        zl, zm = evaluate(lam, e), evaluate(mu, e)
        with mp.workdps(e.working_dps):
            for idx in e.pair_representatives:
                dl, dm = bloch_wigner(zl[idx], e.precision), bloch_wigner(zm[idx], e.precision)
                assert dm == ORBIT_MAPS[name][1] * dl != 0
                assert v[idx] == -(2 * dl + 3 * dm)
                assert v[e.conjugate_index(idx)] == 2 * dl + 3 * dm

    @pytest.mark.parametrize("support, orbits", [
        # x and 1-x share an orbit, x^2 and 1-x^2 another: on x^5 - x + 1,
        # x^2 is in no orbit of x
        (lambda x: (x, 1 - x, x ** 2, 1 - x ** 2), 2),
        (lambda x: (x, x), 1),
        (lambda x: (x, x ** 2), 2),
    ], ids=["two-orbits", "duplicate", "non-orbit-pair"])
    def test_support_costs_one_value_per_orbit(self, monkeypatch, support, orbits):
        # every element used: D once per (orbit, pair representative), and
        # the values of direct bloch_wigner calls on each element, bit for bit
        K = parse_field({"poly": SHIFTED_ROOTS["x^5-x+1"]})
        e = embeddings(K, 50)
        support = support(K.gen())
        mults = tuple(range(1, len(support) + 1))
        calls = counted_bloch_wigner(monkeypatch)
        (v,) = k3_regulator(support, [mults], e)
        assert len(calls) == orbits * len(e.pair_representatives)
        with mp.workdps(e.working_dps):
            for idx in e.pair_representatives:
                acc = mpf(0)
                for n, a in zip(mults, support):
                    acc += n * bloch_wigner(evaluate(a, e)[idx], e.precision)
                assert v[idx] == -acc

    @pytest.mark.parametrize("multiplicity", [0, 1])
    @pytest.mark.parametrize("name", [n for n in ORBIT_MAPS if n != "lam"])
    def test_orbit_member_onto_one_still_checked(self, fields, embset, monkeypatch,
                                                 name, multiplicity):
        # an orbit member of lam takes no D of its own, used or not, but one
        # that embeds onto 1 still signals a precision failure
        import arithreg.regulator

        K, e = fields["cubic"], embset["cubic"]
        lam = K.gen()
        mu = ORBIT_MAPS[name][0](lam)
        real = arithreg.regulator.evaluate
        monkeypatch.setattr(arithreg.regulator, "evaluate", lambda a, e: (
            (mpc(1),) * e.degree if a == mu else real(a, e)))
        with pytest.raises(PrecisionError, match="embeds onto 0 or 1"):
            k3_regulator((lam, mu), [(2, multiplicity)], e)

    def test_no_elements_no_work(self, fields, embset, monkeypatch):
        # no rows: nothing is evaluated, over an empty support or not
        K, e = fields["cubic"], embset["cubic"]
        calls = counted_calls(monkeypatch)
        assert k3_regulator((), [], e) == []
        assert k3_regulator((K.gen(), K.one() - K.gen()), [], e) == []
        assert calls == {"evaluate": 0, "bloch_wigner": 0}

    def test_row_length_must_match_support(self, fields, embset):
        K, e = fields["cubic"], embset["cubic"]
        lam = K.gen()
        support = (lam, (K.one() - lam).inverse())
        p = relation_lattice([K.element([-1]), lam, K.one() - lam])
        for row in ((2,), (2, 1, 0)):
            with pytest.raises(DomainError, match="differ in length"):
                k3_regulator(support, [(2, 1), row], e)
            with pytest.raises(DomainError, match="differ in length"):
                verify_bloch_element(support, row, p)


def averaging_oracle(v, e):
    """The mean of a unit-weight vector over the embeddings: fsum, then one
    division by the degree, at the working precision."""
    with mp.workdps(e.working_dps):
        return mp.fsum(v) / e.degree


# x^3 - x + 1, x^4 - x - 1, x^5 - x + 1, x^2 - x - 1, x^6 - x + 1: x and 1 - x
# are units of each, as f(0) and f(1) are +-1
MEAN_FIELDS = {"x^3-x+1": [1, -1, 0, 1], "x^4-x-1": [-1, -1, 0, 0, 1],
               "x^5-x+1": [1, -1, 0, 0, 0, 1], "x^2-x-1": [-1, -1, 1],
               "x^6-x+1": [1, -1, 0, 0, 0, 0, 1]}


class TestSMap:
    """The averaging map on unit-weight vectors: the height with N = 1."""

    def test_constant_vector(self, embset):
        assert height(1, (mpf(2), mpf(2), mpf(2)), embset["cubic"]) == 2

    def test_mean(self, embset):
        v = (mpf(2), mpf(0), mpf(0))
        with mp.workdps(60):
            assert abs(height(1, v, embset["cubic"]) - mpf(2) / 3) < TOL

    def test_kills_unit_regulators(self, fields, embset):
        # the composite of averaging with the unit log-vector map is zero
        cases = [("Qsqrt2", fields["Qsqrt2"].one() + fields["Qsqrt2"].gen()),
                 ("Qphi", fields["Qphi"].gen()),
                 ("cubic", fields["cubic"].gen())]
        with mp.workdps(60):
            for name, u in cases:
                e = embset[name]
                assert abs(height(1, unit_regulator(u, e), e)) < TOL

    @pytest.mark.parametrize("digits", [16, 30, 50, 200])
    @pytest.mark.parametrize("name", list(MEAN_FIELDS))
    def test_mean_has_the_bits_of_the_averaging_oracle(self, name, digits):
        # seeded units (-1)^a x^b (1 - x)^c: the height with N = 1 and the
        # oracle give the same mpf, bit for bit
        K = parse_field({"poly": MEAN_FIELDS[name]})
        e = embeddings(K, digits)
        rng = random.Random(f"mean-{name}-{digits}")
        x = K.gen()
        for _ in range(10):
            u = (-1) ** rng.randint(0, 1) * x ** rng.randint(-6, 6) * (1 - x) ** rng.randint(-6, 6)
            v = unit_regulator(u, e)
            assert height(1, v, e)._mpf_ == averaging_oracle(v, e)._mpf_, u

    def test_record(self):
        # unit-reg prints the vector record, its keys in order, then the mean
        out = io.StringIO()
        job = {"command": "unit-reg", "field": {"poly": [-2, 0, 1]}, "payload": {"element": "1+x"}}
        assert run_job(job, out) == 0
        lines = out.getvalue().splitlines()
        assert [line.split(":")[0] for line in lines] == [
            "weight", "values", "value_basis", "embedding_order", "mean"]
        assert lines[0] == "weight: unit"
