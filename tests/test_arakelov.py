import random
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from arithreg.arakelov import (FractionalIdeal, Metric, MetrizedLineBundle,
                               arithmetic_degree, index_quotient,
                               standard_metric, tensor, transport, twist_metric)
from arithreg.errors import DomainError, MembershipError
from arithreg.intmat import _scaled_rows, hnf
from arithreg.nf import FieldElement, embeddings, parse_field

import arakelov_oracles as oracle
from intmat_oracles import solve_by_gauss_jordan

TOL = mpf(10) ** -40


@pytest.fixture(scope="module")
def bundles_q(fields, embset):
    K, e = fields["Q"], embset["Q"]
    R = FractionalIdeal.unit_ideal(K)
    two = FractionalIdeal.principal(K.element([2]))
    return K, e, R, two


class TestFractionalIdeal:
    def test_unit_ideal_norm(self, bundles_q):
        _, _, R, _ = bundles_q
        assert R.norm == 1

    def test_two_z(self, bundles_q):
        _, _, _, two = bundles_q
        assert two.norm == 2

    def test_one_plus_i(self, fields):
        K = fields["Qi"]
        L = FractionalIdeal.principal(K.one() + K.gen())
        # oracle: |det| of the 2x2 basis matrix for (1+i) is 2
        assert L.norm == 2

    def test_canonical_hnf(self, fields):
        K = fields["Qsqrtm5"]
        r5 = K.gen()
        # (2, 1 + sqrt(-5)) from two different generating sets
        a = FractionalIdeal.from_elements(K, [K.element([2]), K.one() + r5])
        b = FractionalIdeal.from_elements(K, [K.one() + r5, K.element([2]), (K.one() + r5) * r5])
        assert a == b
        assert a.rows == ((1, 1), (0, 2)) and a.den == 1
        assert a.norm == 2

    def test_module_closure_rejects_bad_lattice(self, fields):
        K = fields["Qi"]
        # span{1, 2i} is not an ideal of Z[i]
        with pytest.raises(DomainError):
            FractionalIdeal.from_rows(K, [[1, 0], [0, 2]])

    def test_fractional(self, fields):
        K = fields["Q"]
        half = FractionalIdeal.principal(K.element([Fraction(1, 2)]))
        assert half.norm == Fraction(1, 2)
        assert half.contains(K.element([3]))
        assert not half.contains(K.element([Fraction(1, 3)]))

    def test_elements_of_another_field_are_rejected(self, fields):
        """Membership, the index and generation compare the element's field
        with the ideal's, as products of elements do: an element of a field
        of another degree must not index past the ideal's rows, and one of
        the same degree must not be read in the ideal's basis."""
        K2, Ki, K3 = fields["Qsqrt2"], fields["Qi"], fields["cubic"]
        two = FractionalIdeal.principal(K2.element([2]))
        cases = [lambda: two.contains(K3.element([2])),
                 lambda: two.contains(Ki.element([2])),
                 lambda: index_quotient(two, Ki.element([2])),
                 lambda: FractionalIdeal.from_elements(K2, [Ki.gen()]),
                 lambda: FractionalIdeal.from_elements(K2, [K2.one(), K3.gen()])]
        for case in cases:
            with pytest.raises(DomainError, match="^element and ideal belong to different fields$"):
                case()

    def test_singular_basis_rejected(self, fields):
        with pytest.raises(DomainError, match="^ideal basis is not in Hermite normal form$"):
            FractionalIdeal(fields["Qi"], ((1, 2), (0, 0)), 1)

    @pytest.mark.parametrize("rows, den, message", [
        (((1, 0),), 1, "square"),
        (((1, 0), (0, 1), (0, 1)), 1, "square"),
        (((-1, 0), (0, 1)), 1, "Hermite"),  # negative pivot
        (((1, 0), (1, 1)), 1, "Hermite"),  # nonzero entry left of a pivot
        (((2, 3), (0, 3)), 1, "Hermite"),  # entry above a pivot not below it
        (((2, -1), (0, 3)), 1, "Hermite"),  # negative entry above a pivot
        (((1, 0), (0, 1)), 0, "least positive"),
        (((1, 0), (0, 1)), -1, "least positive"),
        (((2, 0), (0, 2)), 2, "least positive"),  # the ideal Z[i] over 1
        (((2, 0), (0, 4)), 6, "least positive"),
    ])
    def test_non_canonical_input_rejected(self, fields, rows, den, message):
        with pytest.raises(DomainError, match=message):
            FractionalIdeal(fields["Qi"], rows, den)

    def test_rows_over_least_denominator(self, fields):
        K = fields["Qi"]
        half = FractionalIdeal.from_rows(K, [[Fraction(1, 2), 0], [0, Fraction(1, 2)]])
        assert (half.rows, half.den) == (((1, 0), (0, 1)), 2)
        assert half == FractionalIdeal.principal(K.element([Fraction(1, 2)]))
        assert half.norm == Fraction(1, 4)
        third = FractionalIdeal.from_rows(K, [[Fraction(1, 3), Fraction(1, 3)],
                                              [Fraction(-1, 3), Fraction(1, 3)]])
        assert (third.rows, third.den) == (((1, 1), (0, 2)), 3)
        assert third == FractionalIdeal.principal(K.element([Fraction(1, 3), Fraction(1, 3)]))
        assert third.norm == Fraction(2, 9)

    def test_power_matches_repeated_products(self, monkeypatch):
        # (2, 1 + sqrt(-5)) is not principal; each power by squaring must be
        # the product of n copies, at one multiply per bit after the leading
        # one plus one per further set bit
        K = parse_field({"poly": [5, 0, 1]})
        p = FractionalIdeal.from_elements(K, [K.element([2]), K.element([1, 1])])
        q = FractionalIdeal.from_elements(K, [K.element([3]), K.element([1, 1])])
        q = q.scale(K.element([Fraction(1, 2)]))
        calls = []
        multiply = FractionalIdeal.multiply

        def counting(self, other):
            calls.append(other)
            return multiply(self, other)

        monkeypatch.setattr(FractionalIdeal, "multiply", counting)
        for ideal in (p, q):
            repeated = FractionalIdeal.unit_ideal(K)
            for n in range(1, 7):
                repeated = repeated.multiply(ideal)
                calls.clear()
                assert ideal.power(n) == repeated, n
                assert len(calls) == n.bit_length() - 2 + bin(n).count("1"), n
            assert ideal.power(0) == FractionalIdeal.unit_ideal(K)

    @pytest.mark.parametrize("poly", [[1, -1, 0, 1], [-1, -1, 0, 0, 0, 1]])
    def test_coords_match_solve_oracle(self, poly):
        # x^3 - x + 1 and x^5 - x - 1: random principal ideals and products,
        # probed with integral, fractional and member elements
        K = parse_field({"poly": poly})
        rng = random.Random(2024 + len(poly))

        def rand_el(span=4, den=1):
            return K.element([Fraction(rng.randint(-span, span), rng.randint(1, den))
                              for _ in range(K.degree)])

        gens = [el for el in (rand_el() for _ in range(4)) if not el.is_zero()]
        ideals = [FractionalIdeal.principal(g) for g in gens]
        ideals.append(ideals[0].multiply(ideals[1]))
        ideals.append(ideals[2].multiply(ideals[-1]))
        for ideal in ideals:
            probes = [rand_el(), rand_el(den=3)]
            probes += [b * rand_el() for b in oracle.basis_elements(ideal)[:2]]
            for el in probes:
                solved = solve_by_gauss_jordan(oracle.basis_matrix(ideal), el.integral_coords())
                assert ideal.contains(el) == all(c.denominator == 1 for c in solved)
            assert all(ideal.contains(el) for el in probes[2:])


ORACLE_FIELDS = {
    "x^3-x+1": {"poly": [1, -1, 0, 1]},
    "x^5-x-1": {"poly": [-1, -1, 0, 0, 0, 1]},
    "x^8-x-1": {"poly": [-1, -1, 0, 0, 0, 0, 0, 0, 1]},
    "x^2-5, (1+x)/2": {"poly": [-5, 0, 1], "integral_basis": [["1", "0"], ["1/2", "1/2"]]},
}


class TestProductsAgainstOracle:
    """Ideal products through the multiplication table against the
    element-by-element oracle in tests/arakelov_oracles.py."""

    @pytest.fixture(params=sorted(ORACLE_FIELDS))
    def field_and_rng(self, request):
        K = parse_field(ORACLE_FIELDS[request.param])
        return K, random.Random(f"ideal-oracle-{request.param}")

    @staticmethod
    def rand_el(K, rng, den=1):
        # a random nonzero element, integral over the basis when den == 1
        while True:
            coords = [Fraction(rng.randint(-5, 5), rng.randint(1, den)) for _ in range(K.degree)]
            if any(coords):
                return oracle.element(K, coords)

    def ideals(self, K, rng):
        gens = [self.rand_el(K, rng) for _ in range(3)]
        out = [FractionalIdeal.principal(K.element([Fraction(1, 2)]))]
        out += [FractionalIdeal.principal(g) for g in gens]
        out.append(FractionalIdeal.from_elements(K, [K.element([6]), gens[0]]))
        out.append(FractionalIdeal.principal(self.rand_el(K, rng, den=4)))
        return out

    def test_from_elements(self, field_and_rng):
        K, rng = field_and_rng
        for _ in range(4):
            elems = [self.rand_el(K, rng, den=3) for _ in range(rng.randint(1, 3))]
            elems.append(self.rand_el(K, rng))
            assert FractionalIdeal.from_elements(K, elems) == oracle.from_elements(K, elems)

    def test_multiply_scale_and_power(self, field_and_rng):
        K, rng = field_and_rng
        ideals = self.ideals(K, rng)
        for a in ideals:
            b = rng.choice(ideals)
            assert a.multiply(b) == oracle.multiply(a, b)
            s = self.rand_el(K, rng, den=3)
            assert a.scale(s) == oracle.scale(a, s)
        square = oracle.multiply(ideals[1], ideals[1])
        assert ideals[1].power(2) == square
        assert ideals[1].power(1) == ideals[1]
        assert ideals[1].power(0) == FractionalIdeal.unit_ideal(K)

    def test_closure_verdicts(self, field_and_rng):
        K, rng = field_and_rng
        n = K.degree
        lattices = [oracle.basis_matrix(ideal) for ideal in self.ideals(K, rng)]
        for _ in range(6):
            # random full-rank lattices, integral and fractional: almost
            # never ideals
            rows = [[Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2))) for _ in range(n)]
                    for _ in range(n + 1)]
            if len(hnf(_scaled_rows(rows)[0])) == n:
                lattices.append(rows)
        # an ideal with one basis vector doubled: a sublattice, not an ideal
        ideal = lattices[1]
        lattices.append([[2 * x for x in r] if i == n - 1 else r for i, r in enumerate(ideal)])
        verdicts = []
        for basis in lattices:
            lattice = oracle.ideal_from_rows(K, basis)
            verdicts.append(oracle.is_module_closed(lattice))
            if verdicts[-1]:
                assert FractionalIdeal.from_rows(K, basis) == lattice, basis
            else:
                with pytest.raises(DomainError, match="not closed"):
                    FractionalIdeal.from_rows(K, basis)
        assert True in verdicts and False in verdicts


@pytest.mark.parametrize("record", [*ORACLE_FIELDS.values(), {
    "poly": [7, 0, 1], "integral_basis": [["1", "0"], ["1/2", "1/2"]]}],
    ids=[*ORACLE_FIELDS, "x^2+7, (1+x)/2"])
def test_reference_section_is_first_row_over_the_basis(record):
    """reference_section, formed in integers on the scaled integral basis,
    is the first HNF row times the rational integral basis over den."""
    K = parse_field(record)
    for ideal in TestProductsAgainstOracle().ideals(K, random.Random(f"section-{record}")):
        coords = [Fraction(c, ideal.den) for c in ideal.rows[0]]
        power = [sum(c * b[k] for c, b in zip(coords, K.integral_basis)) for k in range(K.degree)]
        assert ideal.reference_section() == K.element(power)


GENERATOR_FIELDS = {
    # non-maximal orders: 1, 2i and 1, 3i in Z[i]; 1, 2x, 4x^2 in Z[2^(1/3)]
    "Z[2i]": {"poly": [1, 0, 1], "integral_basis": [["1", "0"], ["0", "2"]], "maximal": False},
    "Z[3i]": {"poly": [1, 0, 1], "integral_basis": [["1", "0"], ["0", "3"]], "maximal": False},
    "Z[2x, 4x^2], x^3 = 2": {
        "poly": [-2, 0, 0, 1], "maximal": False,
        "integral_basis": [["1", "0", "0"], ["0", "2", "0"], ["0", "0", "4"]]},
    "x^2-5, (1+x)/2": ORACLE_FIELDS["x^2-5, (1+x)/2"],
}


class TestGeneratorProducts:
    """multiply forms the products of self's basis with O-module generators
    of other, d = [O : den L] and at most n HNF rows. The identity
    (sum_g g O) M = sum_g g M holds in every order, so products and powers
    must match the element-by-element oracle in non-maximal orders too."""

    @staticmethod
    def ideals(K, rng):
        rand_el = TestProductsAgainstOracle.rand_el
        out = []
        for _ in range(6):
            elems = [rand_el(K, rng, den=rng.choice((1, 1, 2, 3)))
                     for _ in range(rng.randint(1, 3))]
            out.append(FractionalIdeal.from_elements(K, elems))
        p = FractionalIdeal.from_elements(K, [K.element([2]), rand_el(K, rng)])
        out += [p, p.multiply(FractionalIdeal.principal(rand_el(K, rng, den=3)))]
        return out

    @pytest.mark.parametrize("name", sorted(GENERATOR_FIELDS))
    def test_products_and_powers_match_oracle(self, name):
        K = parse_field(GENERATOR_FIELDS[name])
        rng = random.Random(f"ideal-generators-{name}")
        ideals = self.ideals(K, rng)
        assert any(ideal.den > 1 for ideal in ideals)
        for a in ideals:
            b = rng.choice(ideals)
            assert a.multiply(b) == oracle.multiply(a, b)
            square = oracle.multiply(a, a)
            assert a.power(2) == square
            assert a.power(3) == oracle.multiply(square, a)
            d, mats = a._generators
            assert 1 + len(mats) <= K.degree + 1
            assert d == a.norm * a.den ** K.degree

    @pytest.mark.parametrize("name", sorted(GENERATOR_FIELDS))
    def test_scale_matches_oracle(self, name):
        # scale multiplies by the principal ideal through the generators of
        # the scaled ideal, in non-maximal orders too
        K = parse_field(GENERATOR_FIELDS[name])
        rng = random.Random(f"ideal-scale-{name}")
        for ideal in self.ideals(K, rng):
            a = TestProductsAgainstOracle.rand_el(K, rng, den=rng.choice((1, 2, 3)))
            assert ideal.scale(a) == oracle.multiply(ideal, FractionalIdeal.principal(a))

    def test_conductor_of_z2i(self):
        # 2Z[i] = span{2, 2i} is an ideal of Z[2i] that is not invertible
        # there: its square is 2 times itself, not a principal ideal
        K = parse_field(GENERATOR_FIELDS["Z[2i]"])
        f = FractionalIdeal.from_rows(K, [[2, 0], [0, 1]])
        assert f.power(2) == oracle.multiply(f, f) == f.scale(K.element([2]))
        assert f.power(3) == oracle.multiply(oracle.multiply(f, f), f)

    def test_lattice_that_is_no_module_rejected(self, fields):
        # span{1, 2i} passes the HNF checks of the constructor but is not a
        # Z[i]-module; its O-multiples span more than it, so it has no
        # generator set and a product by it would be wrong
        K = fields["Qi"]
        lattice = FractionalIdeal(K, ((1, 0), (0, 2)), 1)
        with pytest.raises(DomainError, match="not closed"):
            FractionalIdeal.unit_ideal(K).multiply(lattice)

    def test_bench_square_hands_hnf_2n_rows(self, monkeypatch):
        # the degree-16 ideal (x+2) of the arakelov_degrees bench: d and one
        # HNF row generate it, so no hnf sees more than 2n rows, where the
        # products of the two bases would be n^2 = 256
        import arithreg.arakelov as arakelov
        import arithreg.intmat as intmat
        K = parse_field({"poly": [-1, -1] + [0] * 14 + [1]})
        n = K.degree
        L = FractionalIdeal.principal(K.gen() + K.element([2]))
        expected = oracle.multiply(L, L)
        sizes = []

        def counting(rows, hnf=intmat.hnf):
            sizes.append(len(rows))
            return hnf(rows)

        monkeypatch.setattr(intmat, "hnf", counting)
        monkeypatch.setattr(arakelov, "hnf", counting)
        assert L.power(2) == expected
        assert sizes and max(sizes) <= 2 * n
        assert len(L._generators[1]) == 1


CLOSURE_CASES = {
    # (1, (1+x)/2) over x^2 - 5; rows in integral-basis coordinates
    "Q(sqrt5)": ({"poly": [-5, 0, 1], "integral_basis": [["1", "0"], ["1/2", "1/2"]]}, [
        # Z[sqrt5] = span{1, x}, x = 2 omega_1 - 1: stable under x, not
        # under (1+x)/2
        ([[1, 0], [-1, 2]], False),
        ([[1, 0], [0, 1]], True),
        ([[2, 0], [0, 2]], True),
    ]),
    # (1, 2x) over x^2 + 1, a non-maximal order that does not contain x
    "Z[2i]": ({"poly": [1, 0, 1], "integral_basis": [["1", "0"], ["0", "2"]], "maximal": False}, [
        ([[1, 0], [0, 1]], True),
        # span{1, 4i}: 2i * 1 lies outside it
        ([[1, 0], [0, 2]], False),
        ([[2, 0], [0, 2]], True),
    ]),
    "Q": ({"poly": [0, 1]}, [
        ([[1]], True),
        ([[3], [6]], True),
        ([[Fraction(1, 2)]], True),
    ]),
}


@pytest.mark.parametrize("name", sorted(CLOSURE_CASES))
def test_closure_on_ring_generators_matches_oracle(name):
    # from_rows tests closure by rebuilding the HNF from O-module generators;
    # its verdict must be the one the element-by-element oracle reaches on
    # the whole basis, in orders where x lies outside the order (Z[2i]),
    # where a basis element lies outside Z[x] (Q(sqrt5)) and in degree 1
    record, cases = CLOSURE_CASES[name]
    K = parse_field(record)
    for rows, closed in cases:
        lattice = oracle.ideal_from_rows(K, rows)
        assert oracle.is_module_closed(lattice) == closed, rows
        if closed:
            assert FractionalIdeal.from_rows(K, rows) == lattice
        else:
            with pytest.raises(DomainError, match="not closed"):
                FractionalIdeal.from_rows(K, rows)


class TestIndexQuotient:
    def test_z_mod_3(self, fields):
        K = fields["Q"]
        R = FractionalIdeal.unit_ideal(K)
        assert index_quotient(R, K.element([3])) == 3

    def test_two_z_mod_two(self, bundles_q):
        K, _, _, two = bundles_q
        assert index_quotient(two, K.element([2])) == 1

    def test_two_z_mod_four(self, bundles_q):
        # oracle: coset count of 4Z inside 2Z is 2
        K, _, _, two = bundles_q
        assert index_quotient(two, K.element([4])) == 2

    def test_membership_error(self, bundles_q):
        K, _, _, two = bundles_q
        with pytest.raises(MembershipError):
            index_quotient(two, K.element([3]))

    def test_zero_section_error(self, bundles_q):
        K, _, _, two = bundles_q
        with pytest.raises(DomainError):
            index_quotient(two, K.zero())

    def test_always_positive_integer(self, fields):
        rng = random.Random(51)
        K = fields["Qi"]
        for _ in range(25):
            gen = K.element([rng.randint(-5, 5), rng.randint(-5, 5)])
            if gen.is_zero():
                continue
            L = FractionalIdeal.principal(gen)
            mult = K.element([rng.randint(1, 4), rng.randint(0, 3)])
            if mult.is_zero():
                continue
            value = index_quotient(L, gen * mult)
            assert value.denominator == 1 and value > 0


class TestArithmeticDegree:
    def test_trivial_bundle(self, bundles_q):
        _, e, R, _ = bundles_q
        b = MetrizedLineBundle(R, Metric((mpf(1),)))
        assert arithmetic_degree(b, e) == 0

    def test_exp_twist_formula(self, fields, embset):
        # metric exp(-2 t) on the trivial bundle: degree equals mean(t)
        K, e = fields["Qi"], embset["Qi"]
        R = FractionalIdeal.unit_ideal(K)
        b = MetrizedLineBundle(R, Metric((mpf(1), mpf(1))))
        with mp.workdps(60):
            t = (mpf("0.3"), mpf("0.3"))
            tb = twist_metric(b, t, e)
            assert abs(arithmetic_degree(tb, e) - mpf("0.3")) < TOL

    def test_two_sections_oracle(self, bundles_q):
        # independent evaluations at s = 2 and s = 4 must both give -log 2
        K, e, _, two = bundles_q
        b = MetrizedLineBundle(two, standard_metric(two, e))
        with mp.workdps(60):
            d2 = arithmetic_degree(b, e, K.element([2]))
            d4 = arithmetic_degree(b, e, K.element([4]))
            assert abs(d2 + mp.log(2)) < TOL
            assert abs(d4 + mp.log(2)) < TOL

    def test_section_independence_five_sections(self, fields, embset):
        K, e = fields["Qsqrt2"], embset["Qsqrt2"]
        s = K.gen()
        L = FractionalIdeal.principal(K.element([3]) + s)
        b = MetrizedLineBundle(L, standard_metric(L, e))
        base = arithmetic_degree(b, e)
        unit = K.one() + s
        sections = [b.ideal.reference_section() * K.element([k]) for k in (1, 2, 3)]
        sections.append(b.ideal.reference_section() * unit)
        sections.append(b.ideal.reference_section() * unit ** -1 * K.element([2]))
        with mp.workdps(60):
            for sec in sections:
                assert abs(arithmetic_degree(b, e, sec) - base) < TOL

    def test_invariance_violation_rejected(self, fields, embset):
        K, e = fields["Qi"], embset["Qi"]
        R = FractionalIdeal.unit_ideal(K)
        bad = MetrizedLineBundle(R, Metric((mpf(1), mpf(2))))
        with pytest.raises(DomainError):
            arithmetic_degree(bad, e)

    def test_embeddings_of_another_degree_rejected(self, bundles_q, embset):
        _, _, R, _ = bundles_q
        bundle = MetrizedLineBundle(R, Metric((mpf(1),)))
        with pytest.raises(DomainError):
            arithmetic_degree(bundle, embset["cubic"])

    def test_one_inverse_per_degree(self, monkeypatch):
        # s / s0 is formed once, not once per conjugacy class, and not at all
        # for the default section s0
        K = parse_field({"poly": [-1, -1, 0, 0, 0, 0, 0, 0, 1]})  # x^8 - x - 1
        e = embeddings(K, 50)
        L = FractionalIdeal.principal(K.gen() + K.element([2]))
        b = MetrizedLineBundle(L, standard_metric(L, e))
        calls = []
        inverse = FieldElement.inverse

        def counting(self):
            calls.append(self)
            return inverse(self)

        monkeypatch.setattr(FieldElement, "inverse", counting)
        arithmetic_degree(b, e)
        arithmetic_degree(b, e, L.reference_section() * K.element([3]))
        assert len(calls) == 1


class TestTensor:
    def test_unit_element(self, fields, embset):
        K, e = fields["Qi"], embset["Qi"]
        R = FractionalIdeal.unit_ideal(K)
        triv = MetrizedLineBundle(R, Metric((mpf(1), mpf(1))))
        L = FractionalIdeal.principal(K.element([2, 1]))
        b = MetrizedLineBundle(L, standard_metric(L, e))
        t = tensor(b, triv, e)
        assert t.ideal == b.ideal
        with mp.workdps(60):
            assert abs(arithmetic_degree(t, e) - arithmetic_degree(b, e)) < TOL

    def test_two_times_three(self, bundles_q):
        K, e, _, two = bundles_q
        three = FractionalIdeal.principal(K.element([3]))
        b2 = MetrizedLineBundle(two, standard_metric(two, e))
        b3 = MetrizedLineBundle(three, standard_metric(three, e))
        t = tensor(b2, b3, e)
        assert t.ideal.norm == 6
        with mp.workdps(60):
            assert abs(arithmetic_degree(t, e) + mp.log(6)) < TOL

    def test_degree_additivity_random(self, fields, embset):
        K, e = fields["Qi"], embset["Qi"]
        rng = random.Random(52)
        with mp.workdps(60):
            for _ in range(20):
                gens = []
                while len(gens) < 2:
                    g = K.element([rng.randint(-4, 4), rng.randint(-4, 4)])
                    if not g.is_zero():
                        gens.append(g)
                la, lb = (FractionalIdeal.principal(g) for g in gens)
                scale_a = mp.exp(mpf(rng.randint(-3, 3)) / 2)
                scale_b = mp.exp(mpf(rng.randint(-3, 3)) / 2)
                ma = Metric(tuple(scale_a * v for v in standard_metric(la, e).values))
                mb = Metric(tuple(scale_b * v for v in standard_metric(lb, e).values))
                a = MetrizedLineBundle(la, ma)
                b = MetrizedLineBundle(lb, mb)
                lhs = arithmetic_degree(tensor(a, b, e), e)
                rhs = arithmetic_degree(a, e) + arithmetic_degree(b, e)
                assert abs(lhs - rhs) < TOL


class TestTwistAndTransport:
    def test_zero_twist(self, fields, embset):
        K, e = fields["Qi"], embset["Qi"]
        R = FractionalIdeal.unit_ideal(K)
        b = MetrizedLineBundle(R, Metric((mpf(3), mpf(3))))
        t = twist_metric(b, (mpf(0), mpf(0)), e)
        assert t.metric.values == b.metric.values

    def test_twist_roundtrip(self, fields, embset):
        K, e = fields["Qi"], embset["Qi"]
        R = FractionalIdeal.unit_ideal(K)
        b = MetrizedLineBundle(R, Metric((mpf(1), mpf(1))))
        t = twist_metric(twist_metric(b, (mpf("0.5"), mpf("0.5")), e),
                         (mpf("-0.5"), mpf("-0.5")), e)
        with mp.workdps(60):
            for u, v in zip(t.metric.values, b.metric.values):
                assert abs(u - v) < TOL

    def test_twist_invariance_checked(self, fields, embset):
        K, e = fields["Qi"], embset["Qi"]
        R = FractionalIdeal.unit_ideal(K)
        b = MetrizedLineBundle(R, Metric((mpf(1), mpf(1))))
        with pytest.raises(DomainError):
            twist_metric(b, (mpf(1), mpf(2)), e)

    def test_transport_preserves_degree(self, fields, embset):
        rng = random.Random(53)
        K, e = fields["Qi"], embset["Qi"]
        L = FractionalIdeal.principal(K.element([1, 1]))
        b = MetrizedLineBundle(L, standard_metric(L, e))
        base = arithmetic_degree(b, e)
        with mp.workdps(60):
            for _ in range(10):
                num = K.element([rng.randint(-6, 6), rng.randint(-6, 6)])
                den = rng.randint(1, 5)
                if num.is_zero():
                    continue
                a = num * K.element([Fraction(1, den)])
                moved = transport(b, a, e)
                assert abs(arithmetic_degree(moved, e) - base) < TOL
