import random
from fractions import Fraction

import pytest
from mpmath import mp, mpf
from mpmath.libmp import mpf_neg

from arithreg.errors import DomainError, FormatError, PrecisionError, SquarefreeError
import arithreg.nf
from arithreg.nf import (EmbeddingSet, FieldElement, _parse_rational, embeddings, evaluate,
                         parse_field)
import nf_oracles as oracle
from test_cli import count_calls
from time_limits import time_limit


def rand_element(field, rng, span=9):
    return field.element([rng.randint(-span, span) for _ in range(field.degree)])


class TestParseField:
    def test_gaussian(self):
        K = parse_field({"poly": [1, 0, 1]})
        assert K.degree == 2

    def test_cubic(self):
        K = parse_field({"poly": [1, -1, 0, 1]})
        assert K.degree == 3

    def test_non_monic_rejected(self):
        with pytest.raises(FormatError):
            parse_field({"poly": [1, 0, 2]})

    def test_degree_zero_rejected(self):
        with pytest.raises(FormatError):
            parse_field({"poly": [1]})

    def test_non_integer_rejected(self):
        with pytest.raises(FormatError):
            parse_field({"poly": [0.5, 1]})

    def test_rational_root_rejected(self):
        with pytest.raises(FormatError):
            parse_field({"poly": [-4, 0, 1]})  # x^2 - 4 = (x-2)(x+2)

    def test_repeated_factor_rejected(self):
        from arithreg.errors import SquarefreeError
        with pytest.raises(SquarefreeError):
            parse_field({"poly": [1, 2, 1]})  # (x+1)^2

    def test_repeated_factor_without_rational_root_rejected(self):
        with pytest.raises(SquarefreeError):
            parse_field({"poly": [1, 0, 2, 0, 1]})  # (x^2+1)^2

    @pytest.mark.parametrize("poly", [[2, 0, 5, 0, 4, 0, 1], [1, -2, 1, 2, -2, 0, 1]],
                             ids=["(x^2+1)^2(x^2+2)", "(x^3-x+1)^2"])
    def test_repeated_factor_of_higher_degree_rejected(self, poly):
        # Res(f, f') = 0: the remainder sequence of f and f' ends in 0
        with pytest.raises(SquarefreeError, match="^defining polynomial has a repeated factor$"):
            parse_field({"poly": poly})

    def test_large_constant_term_screened_quickly(self):
        # x^3 + x + (10^39 + 7): no divisor scan of a 40-digit constant
        with time_limit(5):
            assert parse_field({"poly": [10 ** 39 + 7, 1, 0, 1]}).degree == 3

    def test_large_integer_root_named(self):
        r = 10 ** 15 + 37
        with time_limit(5), pytest.raises(FormatError,
                                          match=f"^defining polynomial has rational root {r}$"):
            parse_field({"poly": [-r * r, 0, 1]})

    def test_rational_root_matches_divisor_scan(self):
        rng = random.Random(3)
        checked = 0
        for _ in range(150):
            # planted integer roots times a random monic factor
            poly = [1]
            for r in [rng.randint(-40, 40) for _ in range(rng.randint(0, 2))]:
                poly = [-r * a + b for a, b in zip(poly + [0], [0] + poly)]
            extra = [rng.randint(-20, 20) for _ in range(rng.randint(1, 3))] + [1]
            poly = [sum(poly[i] * extra[k - i] for i in range(len(poly)) if 0 <= k - i < len(extra))
                    for k in range(len(poly) + len(extra) - 1)]
            if len(poly) < 3 or poly[0] == 0:
                continue
            expected = oracle.rational_root(poly)
            try:
                parse_field({"poly": poly})
                found = None
            except SquarefreeError:
                continue
            except FormatError as exc:
                found = int(str(exc).rsplit(" ", 1)[1])
            assert found == expected, poly
            checked += 1
        assert checked > 100

    def test_cached_field_is_not_screened_again(self, monkeypatch):
        import arithreg.nf
        calls = []
        screen = arithreg.nf._screen_irreducible
        monkeypatch.setattr(arithreg.nf, "_screen_irreducible",
                            lambda field: calls.append(field) or screen(field))
        record = {"poly": [-3, -1, 0, 0, 0, 0, 0, 1]}  # x^7 - x - 3, parsed nowhere else
        assert parse_field(record) is parse_field(dict(record))
        assert len(calls) == 1

    @pytest.mark.parametrize("poly", [[1, 0, 0, 0, 1], [1, 0, -10, 0, 1]])
    def test_irreducible_without_mod_p_proof_accepted(self, poly):
        # x^4 + 1 and x^4 - 10x^2 + 1 are irreducible over Q but reducible
        # modulo every prime; a screen must not reject them on mod-p evidence
        assert parse_field({"poly": poly}).degree == 4

    def test_equal_records_share_one_field(self):
        rec = {"poly": [-5, 0, 1], "integral_basis": [["1", "0"], ["1/2", "1/2"]]}
        assert parse_field(dict(rec)) is parse_field(dict(rec))
        assert parse_field({"poly": [1, -1, 0, 1]}) is parse_field({"poly": [1, -1, 0, 1]})
        assert parse_field(rec) is not parse_field(dict(rec, maximal=False))

    def test_evaluate_against_earlier_parse_touches_no_fractions(self, monkeypatch):
        # the embeddings cache keeps the field of the first parse; a later
        # parse of the same record must find it and pass the field guard
        # without comparing or hashing the basis
        record = {"poly": [-1, -1] + [0] * 14 + [1]}
        embeddings(parse_field(record), 30)
        K = parse_field(dict(record))
        a = K.gen()
        calls = []
        for name in ("__eq__", "__hash__"):
            real = getattr(Fraction, name)
            monkeypatch.setattr(Fraction, name, lambda *args, real=real, name=name:
                                calls.append(name) or real(*args))
        evaluate(a, embeddings(K, 30))
        assert calls == []

    def test_evaluate_rejects_other_field(self, fields, embset):
        with pytest.raises(DomainError, match="different fields"):
            evaluate(fields["Qi"].gen(), embset["Qsqrt2"])

    def test_integral_basis_record(self):
        K = parse_field({"poly": [5, 0, 1],
                         "integral_basis": [["1", "0"], ["0", "1"]],
                         "maximal": True})
        assert K.maximality_asserted
        assert K.integral_basis[0][0] == Fraction(1)


@pytest.mark.parametrize("text", ["12", "-12", "007", "-0", "+3", " 12", "1_000", "١٢", "²",
                                  "--3", "-", "", "3/4", "1e3"])
def test_parse_rational_agrees_with_fraction(text):
    # plain ASCII integers take a shortcut through int; every string must
    # give Fraction's value, or FormatError where Fraction raises ("²" is a
    # digit to str.isdigit, but neither int nor Fraction reads it)
    try:
        expected = Fraction(text)
    except ValueError:
        with pytest.raises(FormatError):
            _parse_rational(text, "ideal_basis")
    else:
        value = _parse_rational(text, "ideal_basis")
        assert type(value) in (int, Fraction) and value == expected


@pytest.mark.parametrize("value, expected", [
    ("12", 12), (12, 12), ("-0", 0), ("-3/4", Fraction(-3, 4)), ("+3", Fraction(3)),
    (Fraction(5, 2), Fraction(5, 2)),
])
def test_parse_rational_keeps_integers_as_ints(value, expected):
    # integer entries stay ints, so rows of them are scaled to integers
    # without building a Fraction; anything else is a Fraction
    parsed = _parse_rational(value, "ideal_basis")
    assert type(parsed) is type(expected) and parsed == expected


class TestMultiplicationTable:
    def test_half_integral_basis_of_sqrt5(self):
        # omega_1 = (1+x)/2 over x^2 - 5: omega_1^2 = (3+x)/2 = omega_0 + omega_1
        K = parse_field({"poly": [-5, 0, 1],
                         "integral_basis": [["1", "0"], ["1/2", "1/2"]]})
        assert K.multiplication_table == (((1, 0), (0, 1)), ((0, 1), (1, 1)))

    def test_power_basis_table_is_reduced_powers(self):
        # x^5 - x - 1 over its power basis: omega_i * omega_j = x^(i+j) mod f
        K = parse_field({"poly": [-1, -1, 0, 0, 0, 1]})
        table = K.multiplication_table
        for i in range(5):
            for j in range(5):
                power = K.gen() ** (i + j)
                assert table[i][j] == tuple(int(c) for c in power.coeffs), (i, j)

    def test_non_order_rejected_at_first_ideal_operation(self):
        from arithreg.arakelov import FractionalIdeal
        # {1, x/2} over x^2 + 1: (x/2)^2 = -1/4 lies outside the span
        K = parse_field({"poly": [1, 0, 1], "integral_basis": [["1", "0"], ["0", "1/2"]]})
        with pytest.raises(DomainError, match=r"^integral basis is not an order: "
                           r"omega_1 \* omega_1 has non-integral coordinates$"):
            FractionalIdeal.unit_ideal(K)

    def test_span_without_one_rejected(self):
        # {2, 2x} over x^2 + 1 is closed under products but misses 1
        K = parse_field({"poly": [1, 0, 1], "integral_basis": [["2", "0"], ["0", "2"]]})
        with pytest.raises(DomainError, match="^integral basis is not an order: "
                           "1 has non-integral coordinates$"):
            K.multiplication_table


class TestArith:
    def test_i_squared(self, fields):
        x = fields["Qi"].gen()
        assert (x * x).coeffs == (Fraction(-1), Fraction(0))

    @pytest.mark.parametrize("f0", [0, 3, -5, 10 ** 40])
    def test_gen_of_degree_one(self, f0):
        # x reduces modulo x + f_0 to the root -f_0
        K = parse_field({"poly": [f0, 1]})
        assert K.gen() == K.element([-f0])

    def test_sqrt2_conjugate_product(self, fields):
        K = fields["Qsqrt2"]
        s = K.gen()
        assert ((K.one() + s) * (s - K.one())).is_one()

    def test_cubic_reduction(self, fields):
        K = fields["cubic"]
        lam = K.gen()
        assert (lam ** 3).coeffs == (Fraction(-1), Fraction(1), Fraction(0))

    def test_division_roundtrip(self, fields):
        rng = random.Random(11)
        for name in ("Qi", "Qsqrt2", "cubic"):
            K = fields[name]
            for _ in range(20):
                a, b = rand_element(K, rng), rand_element(K, rng)
                if b.is_zero():
                    continue
                assert (a / b * b - a).is_zero()

    def test_power_counts(self, fields, monkeypatch):
        """a^n is the product of n copies, formed by squaring from a at one
        product per bit of |n| after the leading one plus one per further
        set bit (the count FractionalIdeal.power has too); a negative n adds
        exactly one inverse, and n = 0 costs nothing."""
        K = fields["cubic"]
        a = K.element([2, -1, Fraction(1, 3)])
        repeated = [K.one()]
        for _ in range(13):
            repeated.append(repeated[-1] * a)
        calls = {"__mul__": 0, "inverse": 0}
        for name in calls:
            count_calls(monkeypatch, calls, FieldElement, name)
        assert a ** 0 == K.one() and calls == {"__mul__": 0, "inverse": 0}
        for n in range(1, 14):
            for sign in (1, -1):
                calls.update(__mul__=0, inverse=0)
                value = a ** (sign * n)
                assert calls == {"__mul__": n.bit_length() - 2 + bin(n).count("1"),
                                 "inverse": int(sign < 0)}, sign * n
                assert value == (repeated[n] if sign > 0 else repeated[n].inverse()), sign * n

    def test_division_by_zero(self, fields):
        K = fields["Qi"]
        with pytest.raises(DomainError):
            K.one() / K.zero()

    def test_zero_divisor_of_accepted_reducible_field(self):
        # x^4 + 3x^2 + 2 = (x^2 + 1)(x^2 + 2) passes the screen
        K = parse_field({"poly": [2, 0, 3, 0, 1]})
        for a in (K.element([1, 0, 1]), K.element([2, 0, 1])):
            assert a.norm() == 0
            with pytest.raises(DomainError, match="^element not invertible; "
                               "defining polynomial is reducible$"):
                a.inverse()
        # x is prime to both factors: N(x) = f(0) = 2, and x^-1 = -(x^3 + 3x) / 2
        x = K.gen()
        assert x.norm() == 2
        assert x.inverse().coeffs == (0, Fraction(-3, 2), 0, Fraction(-1, 2))
        assert x * x.inverse() == K.one()


# fields for the differential tests: sparse and dense defining polynomials,
# degree 16, a basis with a denominator, and degree 1
DIFF_FIELDS = {
    "cubic": {"poly": [1, -1, 0, 1]},
    "quintic": {"poly": [-1, -1, 0, 0, 0, 1]},
    "deg16": {"poly": [-1, -1] + [0] * 14 + [1]},
    "sqrt5_half": {"poly": [-5, 0, 1], "integral_basis": [["1", "0"], ["1/2", "1/2"]]},
    "linear": {"poly": [2, 1]},
}


def wide_element(field, rng):
    """Numerators up to 10^30, denominators up to 10^6, some terms zero, and
    sometimes more coefficients than the degree, so reduction mod f runs."""
    kind = rng.randrange(4)
    coeffs = []
    for _ in range(field.degree + rng.choice((0, 0, 1, field.degree))):
        if rng.random() < 0.2:
            coeffs.append(0)
        elif kind == 0:  # integral
            coeffs.append(rng.randint(-10 ** 30, 10 ** 30))
        elif kind == 1:  # small
            coeffs.append(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
        else:
            coeffs.append(Fraction(rng.randint(-10 ** 30, 10 ** 30), rng.randint(1, 10 ** 6)))
    return coeffs


def seeded_field(n: int, rng):
    """A field of degree n whose defining polynomial has coefficients in
    [-3, 3] and constant term +-1, drawn until the screen accepts it."""
    while True:
        poly = [rng.choice((-1, 1))] + [rng.randint(-3, 3) for _ in range(n - 1)] + [1]
        try:
            return parse_field({"poly": poly})
        except (FormatError, SquarefreeError):
            pass


class TestAgainstFractionOracle:
    """The integer-numerator arithmetic against the Fraction coefficient
    arithmetic in tests/nf_oracles.py, on seeded elements."""

    @pytest.mark.parametrize("name", sorted(DIFF_FIELDS))
    def test_ring_operations(self, name):
        K = parse_field(DIFF_FIELDS[name])
        rng = random.Random(f"ring-{name}")
        for _ in range(12):
            ca, cb = wide_element(K, rng), wide_element(K, rng)
            a, b = K.element(ca), K.element(cb)
            assert a.coeffs == oracle.reduce(K, ca)
            assert a.to_record() == {"coeffs": [str(c) for c in oracle.reduce(K, ca)]}
            assert (a + b).coeffs == oracle.add(a, b)
            assert (a - b).coeffs == oracle.sub(a, b)
            assert (a * b).coeffs == oracle.mul(a, b)
            assert (-a).coeffs == oracle.sub(K.zero(), a)
            assert (a * 3 - Fraction(1, 7)).coeffs == oracle.sub(
                K.element(oracle.mul(a, K.element([3]))), K.element([Fraction(1, 7)]))

    @pytest.mark.parametrize("name", sorted(DIFF_FIELDS))
    def test_powers(self, name):
        K = parse_field(DIFF_FIELDS[name])
        rng = random.Random(f"pow-{name}")
        for _ in range(3):
            a = K.element([Fraction(rng.randint(-99, 99), rng.randint(1, 50))
                           for _ in range(K.degree)])
            if a.is_zero():
                continue
            for k in (-7, -3, -1, 0, 1, 2, 3, 5, 13):
                assert (a ** k).coeffs == oracle.power(a, k), k

    @pytest.mark.parametrize("name", sorted(DIFF_FIELDS))
    def test_inverse(self, name):
        K = parse_field(DIFF_FIELDS[name])
        rng = random.Random(f"inv-{name}")
        x = K.gen()
        samples = [x, K.one() - x, x * x + x + 3, K.element([Fraction(-3, 7)])]
        samples += [K.element([Fraction(rng.randint(-10 ** 30, 10 ** 30), rng.randint(1, 10 ** 6))
                               for _ in range(K.degree)]) for _ in range(2)]
        for a in samples:
            if a.is_zero():
                continue
            assert a.inverse().coeffs == oracle.inverse(a), a
            assert (a ** -2).coeffs == oracle.power(a, -2), a

    @pytest.mark.parametrize("name", sorted(DIFF_FIELDS))
    def test_norm_and_integral_coords(self, name):
        K = parse_field(DIFF_FIELDS[name])
        rng = random.Random(f"norm-{name}")
        for _ in range(12):
            a = K.element(wide_element(K, rng))
            assert a.norm() == oracle.norm(a)
            assert a.integral_coords() == oracle.integral_coords(a)
            assert a.is_integral() == all(c.denominator == 1 for c in oracle.integral_coords(a))

    @pytest.mark.parametrize("name", sorted(DIFF_FIELDS))
    def test_is_unit(self, name):
        K = parse_field(DIFF_FIELDS[name])
        rng = random.Random(f"unit-{name}")
        x = K.gen()
        # x and 1 - x are units over the three trinomials, the golden ratio
        # over Q(sqrt 5); products, powers and shifts of these give units
        # and non-units both
        base = [x, K.one() - x, -K.one(), K.element([2]), K.element([Fraction(1, 2)])]
        if name == "sqrt5_half":
            base.append(K.element([Fraction(1, 2), Fraction(1, 2)]))  # the golden ratio
        samples = list(base)
        for _ in range(20):
            u, v = rng.choice(base), rng.choice(base)
            samples.append(u ** rng.randint(-3, 3) * v)
            samples.append(u * v + K.element([rng.randint(-2, 2)]))
        assert any(oracle.is_unit(s) for s in samples)
        assert not all(oracle.is_unit(s) for s in samples)
        for s in samples:
            assert s.is_unit() == oracle.is_unit(s), s


    @pytest.mark.parametrize("n", range(2, 25))
    def test_norm_and_inverse_by_degree(self, n):
        """Norms and inverses against the Sylvester resultant and the
        extended gcd over Q at every degree from 2 to 24, on seeded fields:
        40-bit numerators over denominators to 2^12, one dense element and
        three with two to four terms, whose first remainder can drop more
        than one degree."""
        rng = random.Random(f"resultant-{n}")
        K = seeded_field(n, rng)

        def coefficient():
            return Fraction(rng.randint(-2 ** 40, 2 ** 40), rng.randint(1, 2 ** 12))

        samples = [K.element([0 if rng.random() < 0.2 else coefficient() for _ in range(n)])]
        for _ in range(3):
            coeffs = [0] * n
            for i in rng.sample(range(n), min(n, rng.randint(2, 4))):
                coeffs[i] = coefficient()
            samples.append(K.element(coeffs))
        for a in samples:
            if a.is_zero():
                continue
            assert a.norm() == oracle.norm(a), a
            assert a.inverse().coeffs == oracle.inverse(a), a


class TestResultant:
    """Norms, inverses and the squarefree screen by one subresultant
    remainder sequence (nf._resultant)."""

    def test_degree_drops_by_more_than_one(self):
        """Remainder sequences that are not normal: theta^3 on x^4 + 1
        (degrees 4, 3, 0), theta^3 + 1 on x^6 + 1 (6, 3, 0) and
        3 theta^8 + theta^4 on x^12 + 1 (12, 8, 4, 0)."""
        K = parse_field({"poly": [1, 0, 0, 0, 1]})
        a = K.gen() ** 3
        assert a.norm() == 1
        assert a.inverse() == -K.gen()
        L = parse_field({"poly": [1, 0, 0, 0, 0, 0, 1]})
        b = L.element([1, 0, 0, 1])
        assert b.norm() == 8
        assert b.inverse().coeffs == oracle.inverse(b)
        M = parse_field({"poly": [1] + [0] * 11 + [1]})
        c = M.element([0, 0, 0, 0, 1, 0, 0, 0, 3])
        assert c.norm() == 26 ** 4 == oracle.norm(c)
        assert c.inverse().coeffs == oracle.inverse(c)
        assert (c * c.inverse()).is_one()

    def test_no_matrix_elimination(self, monkeypatch):
        """Parsing a field of degree 24 and the norms and inverses of its
        elements run no fraction-free elimination of a matrix."""
        import arithreg.intmat

        record = {"poly": [-3, 2, 0, 0, 0, 1] + [0] * 18 + [1]}  # parsed nowhere else
        rng = random.Random(18)
        coeffs = [[rng.randint(-9, 9) for _ in range(24)] for _ in range(3)] + [[-1, 1]]
        norms = [oracle.resultant(record["poly"], c) for c in coeffs]

        def refuse(aug):
            raise AssertionError("fraction-free elimination called")

        monkeypatch.setattr(arithreg.intmat, "_fraction_free", refuse)
        K = parse_field(record)
        for c, norm in zip(coeffs, norms):
            a = K.element(c)
            assert a.norm() == norm
            assert (a * a.inverse()).is_one()


class TestCanonicalForm:
    def test_equal_values_are_equal_elements(self, fields):
        K = fields["cubic"]
        a, b = K.element([Fraction(2, 4)]), K.element([Fraction(1, 2)])
        assert a == b and hash(a) == hash(b)
        assert (a.num, a.den) == ((1, 0, 0), 2)
        assert K.element([0, 0, 0, 1]) == K.element([-1, 1])  # x^3 = x - 1

    def test_zero_is_zero_over_one(self, fields):
        K = fields["cubic"]
        for z in (K.zero(), K.element([Fraction(3, 7)]) - K.element([Fraction(6, 14)])):
            assert (z.num, z.den) == ((0, 0, 0), 1)
            assert z.is_zero() and z == K.zero()

    def test_denominator_stays_positive(self, fields):
        K = fields["cubic"]
        a = K.element([Fraction(-3, 4), Fraction(5, -6)])
        assert (a.num, a.den) == ((-9, -10, 0), 12)
        assert (-a).den == 12 and (a * a).den > 0 and a.inverse().den > 0


class TestNorm:
    def test_gaussian_unit(self, fields):
        assert fields["Qi"].gen().norm() == 1

    def test_cubic_generator(self, fields):
        # oracle: N(lam) = (-1)^n * f(0) for the root of a monic f
        K = fields["cubic"]
        assert K.gen().norm() == (-1) ** 3 * 1

    def test_cubic_one_minus_generator(self, fields):
        # oracle: prod (1 - sigma(lam)) = f(1)
        K = fields["cubic"]
        f_at_1 = sum(K.defining_poly)
        assert (K.one() - K.gen()).norm() == f_at_1

    def test_rational_scalar(self, fields):
        K = fields["cubic"]
        assert K.element([Fraction(2, 3)]).norm() == Fraction(8, 27)

    def test_multiplicative_on_random_pairs(self, fields):
        rng = random.Random(12)
        for name in ("Qi", "Qsqrt2", "Qphi", "cubic"):
            K = fields[name]
            for _ in range(100):
                a, b = rand_element(K, rng, 5), rand_element(K, rng, 5)
                assert (a * b).norm() == a.norm() * b.norm()

    def test_matches_embedding_product(self, fields, embset):
        rng = random.Random(13)
        for name in ("Qsqrt2", "cubic"):
            K, e = fields[name], embset[name]
            with mp.workdps(60):
                for _ in range(10):
                    a = rand_element(K, rng, 4)
                    prod = mpf(1)
                    for i in range(e.degree):
                        prod = prod * evaluate(a, e)[i]
                    n = a.norm()
                    target = mpf(n.numerator) / mpf(n.denominator)
                    assert abs(prod.real - target) < mpf(10) ** -40
                    assert abs(prod.imag) < mpf(10) ** -40


class TestUnits:
    def test_two_is_not_unit(self, fields):
        assert not fields["Q"].element([2]).is_unit()

    def test_cubic_generator_in_rcirc(self, fields):
        a = fields["cubic"].gen()
        assert a.is_unit() and (fields["cubic"].one() - a).is_unit()

    def test_cubic_inverse_complement_in_rcirc(self, fields):
        K = fields["cubic"]
        a = (K.one() - K.gen()).inverse()
        assert a.is_unit() and (K.one() - a).is_unit()

    def test_phi_in_rcirc(self, fields):
        # oracle: N(phi) = -1 and N(1-phi) = -1 from the constant terms
        K = fields["Qphi"]
        phi = K.gen()
        assert phi.norm() == -1
        assert (K.one() - phi).norm() == -1
        assert phi.is_unit() and (K.one() - phi).is_unit()

    def test_integrality_is_exact(self, fields):
        K = fields["Qi"]
        assert not K.element([Fraction(1, 2)]).is_unit()

    def test_unit_group_closure(self, fields):
        rng = random.Random(14)
        units = {
            "Qsqrt2": fields["Qsqrt2"].one() + fields["Qsqrt2"].gen(),
            "Qphi": fields["Qphi"].gen(),
            "cubic": fields["cubic"].gen(),
        }
        for name, u in units.items():
            K = fields[name]
            assert u.is_unit()
            assert u.inverse().is_unit()
            v = u
            for _ in range(5):
                v = v * u
                assert v.is_unit()


class TestEmbeddings:
    def test_sqrt2(self, embset):
        e = embset["Qsqrt2"]
        assert e.signature == (2, 0)
        with mp.workdps(50):
            assert abs(e.roots[0].real + mp.sqrt(2)) < mpf(10) ** -45
            assert abs(e.roots[1].real - mp.sqrt(2)) < mpf(10) ** -45

    def test_gaussian(self, embset):
        e = embset["Qi"]
        assert e.signature == (0, 1)
        assert e.conjugation_pairing == (1, 0)

    def test_cubic_signature_forced_by_discriminant(self, embset):
        # disc(x^3 - x + 1) = -23 < 0 forces one real root and one pair
        e = embset["cubic"]
        assert e.signature == (1, 1)
        assert abs(float(e.roots[0].real) + 1.3247) < 1e-3

    def test_against_independent_root_finder(self, fields):
        import mpmath
        for rec in ([1, -1, 0, 1], [1, -1, 0, 0, 1], [-2, 0, 1]):
            K = parse_field({"poly": rec})
            e = embeddings(K, 50)
            with mp.workdps(60):
                ref = mpmath.polyroots([1] + list(reversed(rec[:-1])), maxsteps=200)
                for z in e.roots:
                    assert min(abs(z - w) for w in ref) < mpf(10) ** -40

    def test_determinism(self, fields):
        e1 = embeddings(fields["cubic"], 50)
        e2 = embeddings(fields["cubic"], 50)
        assert e1.roots == e2.roots
        assert e1.conjugation_pairing == e2.conjugation_pairing

    def test_pairing_is_involution(self, embset):
        for e in embset.values():
            pairing = e.conjugation_pairing
            assert all(pairing[pairing[i]] == i for i in range(e.degree))
            r1 = sum(1 for i in range(e.degree) if pairing[i] == i)
            assert r1 + 2 * ((e.degree - r1) // 2) == e.degree

    def test_residual_certified(self, fields, embset):
        for name, e in embset.items():
            K = fields[name]
            with mp.workdps(e.working_dps):
                for z in e.roots:
                    acc = mp.mpc(0)
                    for c in reversed(K.defining_poly):
                        acc = acc * z + c
                    assert abs(acc) < mpf(10) ** -50

    def test_close_real_roots_refused_by_separation(self):
        """x^3 - 2 (10^30 x - 1)^2 has two real roots at 10^-30 (1 +- 7.1e-46),
        about 1.4e-75 apart, both certified by their residuals at 50 digits:
        the root-separation check refuses them by name, the one guard against
        two close real roots polished onto one."""
        K = parse_field({"poly": [-2, 4 * 10 ** 30, -2 * 10 ** 60, 1]})
        with pytest.raises(PrecisionError,
                           match="^root separation below tolerance at requested precision$"):
            embeddings(K, 50)

    @pytest.mark.parametrize("poly", [[10 ** 12 + 1, 0, 1], [10 ** 30 + 1, 0, 1],
                                      [-10 ** 11 - 3, 0, 0, 1]],
                             ids=["x^2+10^12+1", "x^2+10^30+1", "x^3-10^11-3"])
    @pytest.mark.parametrize("digits", [30, 50, 200])
    def test_large_coefficients_certify(self, poly, digits):
        """The rounding error of f(z) grows with sum |f_i| |z|^i, so roots
        are certified by a backward error of 10^-digits relative to it,
        which holds at every precision however large the coefficients."""
        e = embeddings(parse_field({"poly": poly}), digits)
        assert e.signature == ((0, 1) if len(poly) == 3 else (1, 1))
        with mp.workdps(2 * e.working_dps):
            for z in e.roots:
                size = sum(abs(c) * abs(z) ** i for i, c in enumerate(poly))
                assert abs(mp.polyval(poly[::-1], z)) < mpf(10) ** -digits * size

    def test_min_precision_enforced(self, fields):
        with pytest.raises(DomainError):
            embeddings(fields["Qi"], 8)


class TestDerivedPairing:
    """An EmbeddingSet is its roots: the conjugation pairing is read off
    exact conjugates, the parts (re, -im) bit for bit, and the signature
    off the pairing."""

    def test_partners_need_not_be_adjacent(self):
        """-2i, -i, i, 2i have equal real parts, so they sort by imaginary
        part and each root's partner sits at the mirror index."""
        with mp.workdps(60):
            roots = tuple(mp.mpc(0, y) for y in (-2, -1, 1, 2))
        e = EmbeddingSet(parse_field({"poly": [-1, -1, 0, 0, 1]}), 50, roots)
        assert e.conjugation_pairing == (3, 2, 1, 0)
        assert e.signature == (0, 2)
        assert e.class_representatives == (2, 3)

    def test_roots_without_exact_conjugates_are_refused(self, fields):
        with mp.workdps(60):
            roots = (mp.mpc(1, 1), mp.mpc(2, -1))
        e = EmbeddingSet(fields["Qi"], 50, roots)
        with pytest.raises(DomainError, match="not closed under complex conjugation"):
            e.conjugation_pairing

    def test_conjugate_must_be_exact(self, fields):
        """A partner one bit away from the exact conjugate is no partner."""
        with mp.workdps(60):
            z = mp.mpc(1, 1) / 3
            roots = (z, mp.mpc(z.real, -z.imag * (1 + mpf(2) ** -150)))
            assert roots[1].imag != -roots[0].imag
        with pytest.raises(DomainError):
            EmbeddingSet(fields["Qi"], 50, roots).conjugation_pairing

    def test_read_at_any_ambient_precision(self, fields):
        """The pairing compares the stored parts, so the precision it is read
        at does not matter; mp.conj would round the parts to that one."""
        with mp.workdps(60):
            z = mp.mpc(1, 1) / 3
            roots = (z, mp.conj(z))
        for dps in (15, 60, 100):
            with mp.workdps(dps):
                assert EmbeddingSet(fields["Qi"], 50, roots).conjugation_pairing == (1, 0)

    def test_degree_one(self, fields):
        e = embeddings(fields["Q"], 50)
        assert e.conjugation_pairing == (0,)
        assert e.signature == (1, 0)

    @pytest.mark.parametrize("poly", [[1, -1, 0, 1], [-1, -1, 0, 0, 1], [-1, -1, 0, 0, 0, 1],
                                      [1, 0, 0, 0, 1]])
    @pytest.mark.parametrize("digits", [16, 50, 200])
    def test_embeddings_pair_exact_conjugates(self, poly, digits):
        """The polished roots of embeddings are closed under exact
        conjugation at every precision, with the real roots first."""
        e = embeddings(parse_field({"poly": poly}), digits)
        for i, j in enumerate(e.conjugation_pairing):
            (re_i, im_i), (re_j, im_j) = e.roots[i]._mpc_, e.roots[j]._mpc_
            assert re_i == re_j and im_i == mpf_neg(im_j)
        r1, r2 = e.signature
        assert r1 + 2 * r2 == e.degree
        assert e.real_indices == tuple(range(r1))


class TestEvaluate:
    def test_constant(self, fields, embset):
        K, e = fields["cubic"], embset["cubic"]
        for i in range(3):
            assert evaluate(K.element([3]), e)[i] == 3

    def test_gaussian_generator(self, fields, embset):
        K, e = fields["Qi"], embset["Qi"]
        up = e.pair_representatives[0]
        v = evaluate(K.gen(), e)[up]
        with mp.workdps(50):
            assert abs(v - mp.mpc(0, 1)) < mpf(10) ** -45

    def test_conjugation_equivariance(self, fields, embset):
        rng = random.Random(15)
        K, e = fields["cubic"], embset["cubic"]
        with mp.workdps(e.working_dps):
            for _ in range(20):
                a = rand_element(K, rng)
                for i in range(e.degree):
                    j = e.conjugate_index(i)
                    assert evaluate(a, e)[j] == mp.conj(evaluate(a, e)[i])

    def test_real_embedding_exactly_real(self, fields, embset):
        K, e = fields["cubic"], embset["cubic"]
        for idx in e.real_indices:
            assert evaluate(K.gen(), e)[idx].imag == 0

    def test_matches_two_loop_horner(self, fields, embset):
        """Bit-for-bit the Horner loop started at zero, real and complex."""
        rng = random.Random(16)
        for name, e in embset.items():
            K = fields[name]
            for _ in range(10):
                a = K.element([Fraction(rng.randint(-99, 99), rng.randint(1, 9))
                               for _ in range(K.degree)])
                with mp.workdps(e.working_dps):
                    cs = [mpf(c.numerator) / mpf(c.denominator) for c in a.coeffs]
                    for idx in range(e.degree):
                        z = mp.re(e.roots[idx]) if e.is_real(idx) else e.roots[idx]
                        acc = mpf(0) if e.is_real(idx) else mp.mpc(0)
                        for c in reversed(cs):
                            acc = acc * z + c
                        got = evaluate(a, e)[idx]
                        assert (got.real, got.imag) == (mp.re(acc), mp.im(acc))
                        assert type(got) is type(mp.mpc(0))


class TestEvaluateVector:
    """evaluate(a, e) against the per-embedding Horner evaluation of
    nf_oracles.evaluate_at, bit for bit at every index."""

    # name -> (defining polynomial, signature)
    FIELDS = {
        "degree 1": ([-3, 1], (1, 0)),
        "totally real": ([1, -3, 0, 1], (3, 0)),  # x^3 - 3x + 1
        "totally complex": ([1, 0, 0, 0, 1], (0, 2)),  # x^4 + 1
        "mixed": ([1, -1, 0, 1], (1, 1)),
        "degree 16": ([-1, -1] + [0] * 14 + [1], (2, 7)),  # x^16 - x - 1
        "degree 24": ([-1, -1] + [0] * 22 + [1], (2, 11)),  # x^24 - x - 1
    }

    @staticmethod
    def elements(K, rng):
        n = K.degree
        yield K.gen()
        yield K.element([rng.randint(-9, 9) for _ in range(n)])
        yield K.element([Fraction(rng.randint(-99, 99), rng.randint(2, 30)) for _ in range(n)])
        big = 10 ** 40
        yield K.element([rng.randint(-big, big) for _ in range(n)])
        a = K.element([Fraction(rng.randint(-big, big), 3 * rng.randint(1, big) + 1)
                       for _ in range(n)])
        assert a.den != 1
        yield a

    @pytest.mark.parametrize("name", FIELDS)
    @pytest.mark.parametrize("digits", [30, 50])
    def test_matches_per_index_oracle(self, name, digits):
        rng = random.Random(17)
        poly, signature = self.FIELDS[name]
        e = embeddings(parse_field({"poly": poly}), digits)
        assert e.signature == signature
        for a in self.elements(e.field, rng):
            got = evaluate(a, e)
            assert len(got) == e.degree
            for i in range(e.degree):
                want = oracle.evaluate_at(a, e, i)
                assert type(got[i]) is type(want)
                assert (got[i].real, got[i].imag) == (want.real, want.imag), (name, i)
                # out[conj(i)] == conj(out[i]) exactly, compared at the
                # working precision so that the conjugate is not rounded
                with mp.workdps(e.working_dps):
                    partner = mp.conj(got[i])
                j = e.conjugate_index(i)
                assert (got[j].real, got[j].imag) == (partner.real, partner.imag)
            for i in e.real_indices:
                assert got[i].imag == 0


class TestRootBits:
    """embeddings, which runs Horner's rule on the integer kernel
    nf._horner_mp, against the root finding on mpf and mpc values of
    nf_oracles.mpc_embeddings, bit for bit."""

    # the evaluate fields, and coefficients of more bits than the working
    # precision, which are rounded first as mpf(c) rounds them
    POLYS = {**{name: poly for name, (poly, _) in TestEvaluateVector.FIELDS.items()},
             "x^2+10^100+1": [10 ** 100 + 1, 0, 1], "x^3-10^11-3": [-10 ** 11 - 3, 0, 0, 1]}

    @pytest.mark.parametrize("name", POLYS)
    @pytest.mark.parametrize("digits", [30, 50, 100])
    def test_matches_mpc_root_finding(self, name, digits):
        K = parse_field({"poly": self.POLYS[name]})
        e = embeddings(K, digits)
        roots, pairing, signature = oracle.mpc_embeddings(K, digits)
        assert [z._mpc_ for z in e.roots] == [z._mpc_ for z in roots]
        assert (e.conjugation_pairing, e.signature) == (pairing, signature)
        assert [r._mpf_ for r in e.root_radii] == [r._mpf_ for r in oracle.mpc_root_radii(e)]


def assert_matches_oracle(a, e):
    """evaluate(a, e) is nf_oracles.evaluate_at at every index, bit for bit."""
    got = evaluate(a, e)
    bad = [i for i in range(e.degree) if got[i]._mpc_ != oracle.evaluate_at(a, e, i)._mpc_]
    assert not bad, (a, bad)


class TestHornerKernel:
    """The rounding corners of evaluate's integer Horner kernel against the
    mpmath Horner loop of nf_oracles.evaluate_at, bit for bit: each test
    fails on a kernel that skips the rule it names."""

    @pytest.mark.parametrize("poly", [[1, -1, 0, 1], [-1, -1] + [0] * 22 + [1]],
                             ids=["x^3-x+1", "x^24-x-1"])
    @pytest.mark.parametrize("digits", [30, 50])
    def test_coefficients_beyond_working_precision(self, poly, digits):
        """Integer coefficients near 10^80 and Fractions over 10^90 have more
        bits than the working precision: each is rounded to it first, as
        mpf(c) and mpf(p) / mpf(q) round it."""
        rng = random.Random(25)
        e = embeddings(parse_field({"poly": poly}), digits)
        n, big = e.degree, 10 ** 80
        for _ in range(12):
            a = e.field.element([rng.randint(-big, big) for _ in range(n)])
            assert a.den == 1
            assert_matches_oracle(a, e)
            b = e.field.element([Fraction(rng.randint(-10 * big, 10 * big),
                                          rng.randint(2, 10 ** 90)) for _ in range(n)])
            assert b.den != 1
            assert_matches_oracle(b, e)

    def test_far_apart_operands(self, monkeypatch):
        """3000 (coefficients, z) cases at 60 digits with Im z between 2^-112
        and 2^-100, so that a sum of Horner's real part meets an operand more
        than prec + 4 bits smaller: the kernel must take mpf_add's shortcut
        there, whose bits can differ from the exact sum rounded once.

        Each case is an element of a degree-12 field evaluated at one of six
        such points of an EmbeddingSet built on them and their conjugates;
        evaluate reads the roots only, so they need not be roots of f."""
        fired = []  # the sums that take the shortcut
        real_add = arithreg.nf._add

        def counted(a, ka, b, kb, prec):
            if a and b:
                (hi, khi), (lo, klo) = sorted([(a, ka), (b, kb)], key=lambda t: -t[1])
                if khi - klo > 100 and (hi.bit_length() + khi) - (lo.bit_length() + klo) > prec + 4:
                    fired.append(1)
            return real_add(a, ka, b, kb, prec)

        monkeypatch.setattr(arithreg.nf, "_add", counted)
        rng = random.Random(2)
        n = 12
        K = parse_field({"poly": [-1, -1] + [0] * (n - 2) + [1]})
        cases = 0
        with mp.workdps(60):
            for _ in range(500):
                points = [mp.mpc(mpf(rng.randint(-2 ** 60, 2 ** 60)) / 2 ** rng.randint(55, 65),
                                 mpf(rng.randint(2 ** 59, 2 ** 60)) / 2 ** rng.randint(160, 171))
                          for _ in range(n // 2)]
                roots = tuple(w for z in points for w in (z, mp.conj(z)))
                e = EmbeddingSet(K, 50, roots)
                assert e.working_dps == 60
                assert e.conjugation_pairing == tuple(i ^ 1 for i in range(n))
                assert_matches_oracle(K.element([rng.randint(-10 ** 6, 10 ** 6) for _ in range(n)]), e)
                cases += len(e.pair_representatives)
        assert cases == 3000
        assert len(fired) > 1000


class TestConjugationSymmetry:
    def test_invariant_vector_one_call_per_class(self, embset):
        e = embset["cubic"]
        seen = []

        def value(idx):
            seen.append((idx, mp.dps))
            return mpf(idx)

        vec = e.invariant_vector(value)
        assert seen == [(i, e.working_dps) for i in e.class_representatives]
        assert all(vec[i] == vec[e.conjugate_index(i)] for i in range(e.degree))
        e.check_invariant(vec, "vector")

    def test_check_invariant_rejects(self, embset):
        e = embset["cubic"]
        with pytest.raises(DomainError, match="^vector must supply one value per embedding$"):
            e.check_invariant((1, 1), "vector")
        rep = e.pair_representatives[0]
        bad = [1] * e.degree
        bad[rep] = 2
        with pytest.raises(DomainError, match="^vector is not conjugation invariant$"):
            e.check_invariant(bad, "vector")
