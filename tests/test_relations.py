import hashlib
import io
import itertools
import json
import random
from fractions import Fraction

import pytest
from mpmath import mp

import arithreg.relations
from arithreg.cli import _candidate_presentation, parse_element, run_job
from arithreg.errors import DomainError, PrecisionError, PresentationIncompleteError
from arithreg.intmat import det_fraction, identity, in_lattice, lll
from arithreg.nf import FieldElement, embeddings, parse_field
from arithreg.precision import GUARD_DIGITS
from arithreg.relations import (FLOAT_DIGITS, _certainly_nonsingular,
                                _embedding_columns, _search_lattice, _verified_basis,
                                bloch_kernel, coordinates_of, exterior_square,
                                exterior_square_of_lattice, power_product, relation_lattice,
                                steinberg_image, torsion_only_kernel, verify_bloch_element)
from intmat_oracles import (det_by_elimination, group_invariants, invariant_factors_by_minors,
                            left_kernel_by_transform, lll_fraction)
from nf_oracles import mpc_horner, mpc_newton
from relation_oracles import one_search_lattice
from test_cli import _build_job, count_calls, readme_examples
from time_limits import time_limit
from wedge_oracles import (bloch_sum_vanishes, exceptional_units, raw_wedge, reduce_raw,
                           relator_smith_form, wedge_relators)

# x^m - x + 1 for m = 3, 4, 5: the candidate presentations of their
# exceptional units have Smith transforms that move wedge coordinates
SHIFTED_ROOT_FIELDS = {m: {"poly": [1, -1] + [0] * (m - 2) + [1]} for m in (3, 4, 5)}


@pytest.fixture(scope="module")
def cubic_setup(fields):
    K = fields["cubic"]
    lam = K.gen()
    gens = [K.element([-1]), lam, K.one() - lam]
    return K, lam, relation_lattice(gens, 50)


class TestRelationLattice:
    def test_minus_one(self, fields):
        p = relation_lattice([fields["Q"].element([-1])], 50)
        assert p.relation_basis == ((2,),)
        assert p.torsion_order == 2

    def test_inverse_pair_sqrt2(self, fields):
        K = fields["Qsqrt2"]
        s = K.gen()
        p = relation_lattice([K.one() + s, s - K.one()], 50)
        assert p.relation_basis == ((1, 1),)
        assert p.torsion_order == 1

    def test_phi_family(self, fields):
        # 1 - phi = -1/phi, so (1, 1, .) relations appear
        K = fields["Qphi"]
        phi = K.gen()
        p = relation_lattice([phi, K.one() - phi, K.element([-1])], 50)
        assert any(r[0] == 1 and r[1] == 1 for r in p.relation_basis)
        assert p.torsion_order == 2

    def test_rows_verify_exactly(self, cubic_setup):
        _, _, p = cubic_setup
        for row in p.relation_basis:
            assert power_product(p.generators, row).is_one()

    def test_empty(self):
        p = relation_lattice([], 50)
        assert p.relation_basis == ()
        assert p.torsion_order == 1

    def test_dependent_generator_stress(self, fields):
        # four generators spanning a rank-1-plus-torsion group: the relation
        # lattice has rank 3 and every row passes exact verification
        K = fields["Qsqrt2"]
        u = K.one() + K.gen()
        gens = [K.element([-1]), u, u ** 2, -(u ** 3)]
        p = relation_lattice(gens, 50)
        assert len(p.relation_basis) == 3
        assert p.torsion_order == 2
        for row in p.relation_basis:
            assert power_product(p.generators, row).is_one()
        # the presented group is Z/2 x Z: exterior square is Z/2
        assert group_invariants(exterior_square(p).invariants) == ([2], 0)

    def test_non_unit_rejected(self, fields):
        with pytest.raises(DomainError):
            relation_lattice([fields["Q"].element([2])], 50)


def known_relation_lattice(m, signs, powers):
    """HNF basis of the relations among g_i = (-1)^signs[i] x^powers[i] on
    x^m - x + 1, known by construction: prod g_i^e_i = (-1)^(e.signs)
    x^(e.powers). For m = 2, x is a primitive sixth root of unity with
    x^3 = -1, so e is a relation when 3 e.signs + e.powers = 0 mod 6; for
    m >= 3, x has infinite order and -1 is no power of it, so e is one when
    e.powers = 0 and e.signs is even."""
    if m == 2:
        stacked = [[3 * s + t] for s, t in zip(signs, powers)] + [[6]]
    else:
        stacked = [[t, s] for s, t in zip(signs, powers)] + [[0, 2]]
    return [row[:len(signs)] for row in left_kernel_by_transform(stacked)]


def seeded_power_products(m):
    """(signs, powers, g) for 12 seeded lists g of g_i = (-1)^signs[i]
    x^powers[i] on x^m - x + 1, 2 to 4 of them, |powers[i]| <= 64."""
    K = parse_field({"poly": [1, -1] + [0] * (m - 2) + [1]})
    x = K.gen()
    rng = random.Random(f"known-units-{m}")
    out = []
    for _ in range(12):
        k = rng.choice((2, 2, 3, 4))
        signs = [rng.randint(0, 1) for _ in range(k)]
        powers = [rng.randint(-64, 64) for _ in range(k)]
        out.append((signs, powers, [K.element([(-1) ** s]) * x ** t
                                    for s, t in zip(signs, powers)]))
    return out


class TestCompleteness:
    """A returned relation lattice is the whole relation lattice: a relation
    the search misses raises PrecisionError instead of being dropped."""

    def test_exponent_65_raises(self, fields):
        """x and x^65 on x^3 - x + 1 have the one relation (65, -1). No
        exponent bound stands in its way: x^65 is placed on the basis x by
        its exact identity, as x^64 is."""
        x = fields["cubic"].gen()
        assert relation_lattice([x, x ** 64], 50).relation_basis == ((64, -1),)
        assert relation_lattice([x, x ** 65], 50).relation_basis == ((65, -1),)

    def test_certainly_nonsingular(self):
        """The minor test of the rank proof: a matrix is accepted only when no
        matrix within eta of it, entry by entry, is singular."""
        with mp.workdps(60):
            eye = [[mp.mpf(1), mp.mpf(0)], [mp.mpf(0), mp.mpf(1)]]
            assert _certainly_nonsingular(eye, mp.mpf("1e-40"))
            # singular exactly, and its computed determinant is 0
            assert not _certainly_nonsingular([[mp.mpf(1), mp.mpf(2)],
                                               [mp.mpf(2), mp.mpf(4)]], mp.mpf("1e-40"))
            # nonsingular, but a perturbation of size eta makes it singular
            assert not _certainly_nonsingular([[mp.mpf("1e-20")]], mp.mpf("1e-19"))
            assert _certainly_nonsingular([[mp.mpf("1e-20")]], mp.mpf("1e-22"))
            # singular only with its signs: the matrix of |a_ij| has det 2
            signed = [[1, -1, 0], [0, 1, 1], [1, 0, 1]]
            assert not _certainly_nonsingular([[mp.mpf(x) for x in row] for row in signed],
                                              mp.mpf("1e-40"))
            # seeded signed dyadic matrices, exact as mpf, half of them made
            # singular by a signed combination of rows: with eta far below
            # any nonzero det, the test agrees with an exact determinant
            rng = random.Random("signed-minors")
            outcomes = []
            for _ in range(40):
                r = rng.randint(2, 5)
                rows = [[Fraction(rng.randint(-99, 99), 2 ** rng.randint(0, 8)) for _ in range(r)]
                        for _ in range(r)]
                if rng.random() < 0.5:
                    mults = [rng.choice((-2, -1, 1, 3)) for _ in range(r - 1)]
                    rows[-1] = [sum(m * row[j] for m, row in zip(mults, rows)) for j in range(r)]
                a = [[mp.mpf(x.numerator) / x.denominator for x in row] for row in rows]
                nonsingular = det_by_elimination(rows) != 0
                assert _certainly_nonsingular(a, mp.mpf("1e-40")) == nonsingular, rows
                outcomes.append(nonsingular)
        assert True in outcomes and False in outcomes

    def test_certainly_nonsingular_at_its_bound(self):
        """Boundary matrices of exact dyadic rationals, for the proof that
        admits a free unit and completes a search. With r = 2 and eta = 1/4,
        s = ceil(sqrt(2)) eta = 1/2, and diag(2, q) has
        B = s ((q + s) + (2 + s)) = (q + 3) / 2: at q = 1 its det 2 equals B
        and is refused, as the test is |det a| > B, and just above q = 1 it
        is certified. With B halved, or s = eta, the first is certified."""
        eta = 0.25
        assert not _certainly_nonsingular([[2.0, 0.0], [0.0, 1.0]], eta)
        assert _certainly_nonsingular([[2.0, 0.0], [0.0, 1.0 + 2.0 ** -20]], eta)

    def test_certainly_nonsingular_refuses_near_singular(self):
        """A matrix within eta of a singular one, entry by entry, is refused.
        For r = 1, B = eta exactly, so [[3 eta / 4]], within eta of [[0]], is
        refused, where a halved B would certify it; diag(2 eta, 2 eta) is
        within eta of the singular [[eta, eta], [eta, eta]]."""
        eta = 2.0 ** -30
        assert not _certainly_nonsingular([[0.75 * eta]], eta)
        assert _certainly_nonsingular([[1.25 * eta]], eta)
        assert not _certainly_nonsingular([[2 * eta, 0.0], [0.0, 2 * eta]], eta)

    @pytest.mark.parametrize("m", [2, 3, 4, 6, 7])
    def test_seeded_power_products_of_known_units(self, m):
        """Seeded g_i = (-1)^a_i x^b_i on the irreducible x^m - x + 1 with
        |b_i| <= 64: every list returns the HNF of the lattice known by
        construction, those whose relations need exponents beyond 64
        included."""
        for signs, powers, gens in seeded_power_products(m):
            p = relation_lattice(gens, 50)
            assert [list(r) for r in p.relation_basis] == known_relation_lattice(
                m, signs, powers), (signs, powers)


class TestUnitBasis:
    """The engine of relation_lattice: a proved basis of the group, with
    every generator placed by a float solve and one exact identity, and an
    LLL search only for a generator that enlarges the group beyond a free
    unit."""

    # sha256 of the JSON of the relation basis of the 184 units below, which
    # relation_oracles.one_search_lattice gives too (2.9 s against 0.13 s on
    # a 2-CPU host under Python 3.11)
    X6_UNITS_SHA256 = "581acf02ad863fe4f7e46fb980ca2cb619712d8d12d655af0a653401393b1a34"

    def test_units_of_x6_minus_x_plus_1(self, monkeypatch):
        """The 184 units of x^6 - x + 1 with power-basis coefficients in
        [-2, 2] generate Z/2 x Z^2 on the basis -1, -x, -x - x^3: they are
        placed with no LLL call, and only the two free units of the basis
        are tested for unit status (-1 needs no test)."""
        K = parse_field({"poly": [1, -1, 0, 0, 0, 0, 1]})
        units = [K.element(list(c)) for c in itertools.product(range(-2, 3), repeat=6)]
        units = [u for u in units if not u.is_zero() and u.is_unit()]
        assert len(units) == 184
        calls = {"lll": 0, "is_unit": 0}
        count_calls(monkeypatch, calls, arithreg.relations, "lll")
        count_calls(monkeypatch, calls, FieldElement, "is_unit")
        with time_limit(2):
            p = relation_lattice(units, 50)
        assert calls == {"lll": 0, "is_unit": 2}
        assert (len(p.relation_basis), p.torsion_order) == (182, 2)
        x = K.gen()
        assert p.units == (K.element([-1]), -x, -x - x ** 3)
        digest = hashlib.sha256(json.dumps([list(r) for r in p.relation_basis]).encode())
        assert digest.hexdigest() == self.X6_UNITS_SHA256
        for u, section in zip(p.units, p.sections):
            assert power_product(p.generators, section) == u
        for g, (a, *e) in zip(p.generators, p.coordinates):
            assert power_product(p.units, [a] + e) == g

    def test_coordinates_of_a_non_generator_searches_nothing(self, monkeypatch, fields):
        """x^-5 and -x^7 over the generators -1, x, 1 - x of x^3 - x + 1 are
        placed by their exact identities, with no LLL call."""
        K = fields["cubic"]
        x = K.gen()
        p = relation_lattice([K.element([-1]), x, K.one() - x], 50)
        calls = {"lll": 0}
        count_calls(monkeypatch, calls, arithreg.relations, "lll")
        for elem in (x ** -5, -(x ** 7)):
            assert power_product(p.generators, coordinates_of(elem, p)) == elem
        assert calls == {"lll": 0}

    def test_degenerate_solve_extends(self, monkeypatch, fields):
        """A basis whose double logs are degenerate (zero) has no solve:
        coordinates returns None rather than raising, and extend's search on
        those columns ends in PrecisionError, never in another error. In
        relation_lattice a zero double log row sends the pass on to the
        working precision, which returns the true presentation."""
        K = fields["cubic"]
        x = K.gen()
        e = embeddings(K, 50)
        logs, args = arithreg.relations._float_columns([x ** 2], e)
        basis = arithreg.relations._UnitBasis(
            [K.element([-1]), x], 2, [[0.0, 0.0]], [0.5, args[0][0] / 2], [[1, 0], [0, 1]],
            FLOAT_DIGITS, e, arithreg.relations._double_log_moduli)
        assert basis.coordinates(x ** 2, logs[0], args[0][0]) is None
        with pytest.raises(PrecisionError):
            basis.extend(x ** 2, logs[0], args[0][0], [0, 0])
        gens = [K.element([-1]), x, x ** 2]
        want = relation_lattice(gens, 50)
        real_columns = arithreg.relations._float_columns

        def zeroed(elems, e):
            logs, args = real_columns(elems, e)
            logs[1] = [0.0] * len(logs[1])
            return logs, args

        monkeypatch.setattr(arithreg.relations, "_float_columns", zeroed)
        assert relation_lattice(gens, 50) == want
        assert want.relation_basis == ((2, 0, 0), (0, 2, -1))

    def test_first_non_unit_in_generator_order(self, fields):
        """A non-unit is reported as the first in generator order, though
        the generators are placed by log length."""
        K = fields["cubic"]
        x = K.gen()
        with pytest.raises(DomainError, match=r"generator .*'3'.* is not a unit"):
            relation_lattice([x, K.element([3]), K.element([2])], 50)


class TestDoubleRankBound:
    """The rank proof of the double pass bounds every log it computes: for
    each minor entry, against a 200-digit oracle, the disc it assumes holds
    a root t of f, Horner's rule and the log step stay within their parts of
    the bound, and the computed log is within eta of log|g(t)|."""

    @staticmethod
    def recorded_entries(monkeypatch):
        """A list that fills with (g, idx, e, args of _log_modulus_error,
        (log, eta)) per entry of each double minor."""
        entries, pending = [], []
        real_moduli = arithreg.relations._double_log_moduli
        real_error = arithreg.relations._log_modulus_error

        def error(*args):
            pending.append(args)
            return real_error(*args)

        def moduli(g, reps, e):
            pending.clear()
            out = real_moduli(g, reps, e)
            entries.extend((g, idx, e, args, got) for idx, args, got in zip(reps, pending, out))
            return out

        monkeypatch.setattr(arithreg.relations, "_log_modulus_error", error)
        monkeypatch.setattr(arithreg.relations, "_double_log_moduli", moduli)
        return entries

    @staticmethod
    def check(g, idx, e, args, got):
        value, z, radius, _, n, u, _ = args
        log_value, eta = got
        assert n == e.degree
        f = e.field.defining_poly
        with mp.workdps(200):
            start = mp.re(e.roots[idx]) if e.is_real(idx) else e.roots[idx]
            t = mpc_newton([mp.mpf(c) for c in f],
                           [mp.mpf(i * c) for i, c in enumerate(f) if i], +start)
            assert abs(mp.polyval([mp.mpf(c) for c in reversed(f)], t)) < mp.mpf(10) ** -150
            coeffs = [mp.mpf(c.numerator) / c.denominator for c in g.coeffs]
            norm1 = sum(abs(c) for c in g.coeffs)
            zz = mp.mpc(z)  # the double, exactly
            assert abs(t - zz) <= radius
            assert (abs(value - mpc_horner(coeffs, zz))
                    <= 4 * n * u * float(norm1) * max(1, abs(z)) ** (n - 1))
            assert abs(log_value - mp.log(abs(mp.mpc(value)))) <= 2 * u * (1 + abs(log_value))
            assert abs(log_value - mp.log(abs(mpc_horner(coeffs, t)))) <= eta

    @pytest.mark.parametrize("m", [2, 3, 4, 6, 7])
    def test_power_products_of_known_units(self, monkeypatch, m):
        entries = self.recorded_entries(monkeypatch)
        # the seeded lists whose powers are large have double columns too
        # inaccurate to search (_float_columns), so they go to the working
        # precision; -1, x, 1 - x keeps a free unit to prove in doubles
        K = parse_field({"poly": [1, -1] + [0] * (m - 2) + [1]})
        x = K.gen()
        lists = [[K.element([-1]), x, K.one() - x]] + [
            gens for _, _, gens in seeded_power_products(m)]
        for gens in lists:
            try:
                relation_lattice(gens, 50)
            except PrecisionError:
                pass
        # on m = 2, x is a root of unity: no lattice has free rank, and the
        # rank proof evaluates nothing
        assert bool(entries) == (m > 2)
        for entry in entries:
            self.check(*entry)

    def test_readme_bloch_check(self, monkeypatch):
        entries = self.recorded_entries(monkeypatch)
        (argv,) = [a for a in readme_examples() if a[1] == "bloch-check"]
        assert run_job(_build_job(argv[1:]), out=io.StringIO()) == 0
        assert entries
        for entry in entries:
            self.check(*entry)


def full_search_lattice(logs, args, digits):
    """The relation-search lattice with every column: per element its unit
    vector, its logs and args at every class scaled by 10^digits and
    rounded, then one row of 10^digits per argument column."""
    scale = 10 ** digits
    k, ncls = len(logs), len(logs[0])
    rows = [[1 if j == i else 0 for j in range(k)]
            + [arithreg.relations._nint(scale * v) for v in logs[i] + args[i]]
            for i in range(k)]
    for j in range(ncls):
        rows.append([0] * (k + ncls + j) + [scale] + [0] * (ncls - 1 - j))
    return rows


# (poly, torsion order w, units of the field) for the search differential
SEARCH_FIELDS = [
    ([1, 0, 1], 4, ["x"]),
    ([1, 1, 1], 6, ["x"]),
    ([1, 0, 0, 0, 1], 8, ["x", "1+x-x^3"]),
    ([1, 1, 1, 1, 1], 10, ["x", "1+x"]),
    ([1, 0, -1, 0, 1], 12, ["x", "1+x"]),
    ([-2, 0, 1], 2, ["1+x"]),
    ([1, -3, 0, 1], 2, ["x", "x-1"]),
] + [([1, -1] + [0] * (m - 2) + [1], 2, ["x", "1-x"]) for m in range(3, 8)]


class TestSearchDifferential:
    """relation_lattice against the one-search engine it replaced
    (relation_oracles.one_search_lattice, here on the search lattice of
    every column with one turn row per class), on seeded generator lists
    over fields with torsion orders 2 to 12: wherever the oracle returns a
    presentation, relation_lattice returns the same one; it refuses no list,
    the oracle some, and it takes the working-precision columns no more
    often in all."""

    @staticmethod
    def outcome(run, gens, monkeypatch):
        """((basis, torsion order) or error class, _embedding_columns calls)
        of run(gens)."""
        calls = {"_embedding_columns": 0}
        with monkeypatch.context() as patch:
            count_calls(patch, calls, arithreg.relations, "_embedding_columns")
            try:
                got = run(gens)
            except (PrecisionError, DomainError) as err:
                got = type(err)
        return got, calls["_embedding_columns"]

    @staticmethod
    def engine(gens):
        p = relation_lattice(gens, 50)
        return p.relation_basis, p.torsion_order

    @staticmethod
    def oracle(gens):
        basis, torsion = one_search_lattice(gens, 50, full_search_lattice)
        return tuple(map(tuple, basis)), torsion

    def test_same_presentation_as_the_full_lattice(self, monkeypatch):
        """100 lists per field of 2 to 5 power products of -1 and the listed
        units, each exponent within a bound drawn from 1 to 12 per list, so
        some lists need the working-precision pass and the oracle refuses
        some."""
        calls = {"new": 0, "oracle": 0}
        refused, torsion = 0, {}
        for poly, w, units in SEARCH_FIELDS:
            K = parse_field({"poly": poly})
            base = [K.element([-1])] + [parse_element(u, K, "unit") for u in units]
            assert all(g.is_unit() for g in base)
            rng = random.Random(f"search-{poly}")
            for _ in range(100):
                bound = rng.randint(1, 12)
                gens = []
                for _ in range(rng.randint(2, 5)):
                    g = K.one()
                    for b in base:
                        g = g * b ** rng.randint(-bound, bound)
                    gens.append(g)
                got, new_calls = self.outcome(self.engine, gens, monkeypatch)
                want, oracle_calls = self.outcome(self.oracle, gens, monkeypatch)
                assert isinstance(got, tuple), (poly, gens)
                if isinstance(want, tuple):
                    assert got == want, (poly, gens)
                else:
                    refused += 1
                calls["new"] += new_calls
                calls["oracle"] += oracle_calls
                torsion[str(poly)] = max(torsion.get(str(poly), 1), got[1])
            assert torsion[str(poly)] == w
        assert refused and calls["new"] and calls["new"] <= calls["oracle"], (refused, calls)


class TestColumns:
    """The double and working-precision searches take their columns
    through one _columns loop, and agree on them."""

    @pytest.mark.parametrize("m", range(3, 8))
    def test_double_and_working_precision_columns_agree(self, m):
        """On the anharmonic orbit of lambda = x in x^m - x + 1, all units:
        logs agree to 1e-12, and arguments (in turns) to 1e-12 modulo 1."""
        K = parse_field({"poly": [1, -1] + [0] * (m - 2) + [1]})
        lam, one = K.gen(), K.one()
        units = [K.element([-1]), lam, one - lam, lam ** -1, (one - lam) ** -1,
                 (lam - one) / lam, lam / (lam - one)]
        e = embeddings(K, 50)
        logs, args = arithreg.relations._float_columns(units, e)
        with mp.workdps(e.working_dps):
            mp_logs, mp_args = _embedding_columns(units, e)
        r1, r2 = e.signature
        assert len(logs) == len(mp_logs) == 7
        assert all(len(row) == r1 + r2 for row in logs + args + mp_logs + mp_args)
        for row, mp_row in zip(logs, mp_logs):
            assert all(abs(x - float(y)) < 1e-12 for x, y in zip(row, mp_row))
        for row, mp_row in zip(args, mp_args):
            assert all(abs((x - float(y) + 0.5) % 1 - 0.5) < 1e-12 for x, y in zip(row, mp_row))

    def test_ill_conditioned_values_have_no_double_columns(self, fields):
        """x^-56 on x^3 - x + 1 is about 1.4e-7 at the real root, where
        Horner's rule in doubles sums coefficients of total size 5073: its
        a priori error exceeds FLOAT_ERROR, so there are no double columns,
        while those of x^-5 exist."""
        K = fields["cubic"]
        e = embeddings(K, 50)
        assert arithreg.relations._float_columns([K.gen() ** -5], e) is not None
        assert arithreg.relations._float_columns([K.gen() ** -56], e) is None

    def test_zero_has_no_columns(self, fields):
        K = fields["cubic"]
        e = embeddings(K, 50)
        assert arithreg.relations._float_columns([K.gen(), K.zero()], e) is None
        with mp.workdps(e.working_dps), pytest.raises(DomainError, match="zero element"):
            _embedding_columns([K.gen(), K.zero()], e)


class TestFallback:
    """The working-precision search runs when the double one cannot, or
    when its result fails a proof, and gives the same presentation."""

    @staticmethod
    def mpmath_only(monkeypatch, elems):
        with monkeypatch.context() as patch:
            patch.setattr(arithreg.relations, "_float_columns", lambda elems, e: None)
            return relation_lattice(elems, 50)

    def test_coefficients_beyond_doubles(self, monkeypatch, fields):
        """x^3000 on x^3 - x + 1 has power-basis coefficients near 10^366,
        which no double holds: the search runs on the working-precision
        columns and proves the presentation there."""
        K = fields["cubic"]
        gens = [K.gen() ** 3000, -(K.gen() ** 3000)]
        assert max(abs(c) for c in gens[0].num) > 10 ** 308
        assert arithreg.relations._float_columns(gens, embeddings(K, 50)) is None
        calls = {"_embedding_columns": 0}
        count_calls(monkeypatch, calls, arithreg.relations, "_embedding_columns")
        p = relation_lattice(gens, 50)
        assert calls == {"_embedding_columns": 1}
        assert (p.relation_basis, p.torsion_order) == (((2, -2),), 2)
        assert p == self.mpmath_only(monkeypatch, gens)

    @pytest.mark.parametrize("poly, power", [
        # the missed relation leaves free rank 2 over unit rank 1
        ([1, -1, 0, 1], 3),
        # unit rank 2: the minor of x, x^2 is 0, so its bound is not met
        ([-1, -1, 0, 0, 1], 2),
    ])
    def test_perturbed_double_log(self, monkeypatch, poly, power):
        """A double column source that moves one log by 10^-3 hides the
        relation between x and x^power: the float solve cannot place
        x^power, the proofs of the relation search that follows refuse the
        double result, and the working-precision pass, which places x^power
        by its exact identity, returns the presentation it gives alone."""
        K = parse_field({"poly": poly})
        gens = [K.element([-1]), K.gen(), K.gen() ** power]
        want = self.mpmath_only(monkeypatch, gens)
        real_columns = arithreg.relations._float_columns

        def perturbed(elems, e):
            logs, args = real_columns(elems, e)
            logs[2][0] += 1e-3
            return logs, args

        real_proof = arithreg.relations._complete_basis
        seen = []

        def recorded(*a):
            try:
                out = real_proof(*a)
            except PrecisionError:
                seen.append("failed")
                raise
            seen.append("proved")
            return out

        monkeypatch.setattr(arithreg.relations, "_float_columns", perturbed)
        monkeypatch.setattr(arithreg.relations, "_complete_basis", recorded)
        assert power_product(gens, [0, power, -1]).is_one()
        assert (len(want.relation_basis), want.torsion_order) == (2, 2)
        assert relation_lattice(gens, 50) == want
        assert seen == ["failed"]


class TestRankProofEvaluator:
    """Each pass hands the rank proof its own evaluator: the double pass
    proves the rank with _double_log_moduli alone, the working-precision
    pass with _mp_log_moduli alone."""

    def test_each_pass_proves_with_its_evaluator(self, monkeypatch, fields):
        K = fields["cubic"]
        gens = [K.element([-1]), K.gen(), K.gen() ** 2]
        calls = {"_double_log_moduli": 0, "_mp_log_moduli": 0}
        for name in calls:
            count_calls(monkeypatch, calls, arithreg.relations, name)
        p = relation_lattice(gens, 50)
        assert len(gens) - len(p.relation_basis) == 1
        assert calls == {"_double_log_moduli": 1, "_mp_log_moduli": 0}
        calls.update(dict.fromkeys(calls, 0))
        assert TestFallback.mpmath_only(monkeypatch, gens) == p
        assert calls == {"_double_log_moduli": 0, "_mp_log_moduli": 1}


class TestVerifiedBasis:
    """Relations are proved once, on LLL's candidate rows before their HNF
    is taken, by comparing the products over the positive and the negative
    exponents."""

    @staticmethod
    def add_false_candidate(monkeypatch):
        """Make every relation search also report e_0, i.e. elems[0] == 1;
        returns the list of the scale exponents of the searches made."""
        real = arithreg.relations._relation_candidates
        searches = []

        def with_false_row(logs, args, digits):
            searches.append(digits)
            return real(logs, args, digits) + [[1] + [0] * (len(logs) - 1)]

        monkeypatch.setattr(arithreg.relations, "_relation_candidates", with_false_row)
        return searches

    def test_false_candidate_fails_relation_lattice(self, monkeypatch, fields):
        """x^2, x^3 on x^3 - x + 1: x^2 is a free unit, and x^3 = x^2 x,
        which no integer power of x^2 gives, runs a relation search. Its
        false row fails exact proof in the double pass, then again in the
        working-precision pass, which raises."""
        x = fields["cubic"].gen()
        searches = self.add_false_candidate(monkeypatch)
        with pytest.raises(PrecisionError):
            relation_lattice([x ** 2, x ** 3], 50)
        assert searches == [FLOAT_DIGITS, 50 - GUARD_DIGITS]

    def test_false_candidate_fails_coordinates_of(self, monkeypatch, fields):
        """Over -1, x^2, the element x^4 is placed by its exact identity, with
        no search; x^3 is not in the group, which a relation search proves,
        and its false row fails in both passes."""
        K = fields["cubic"]
        x = K.gen()
        p = relation_lattice([K.element([-1]), x ** 2], 50)
        assert power_product(p.generators, coordinates_of(x ** 4, p)) == x ** 4
        with pytest.raises(PresentationIncompleteError):
            coordinates_of(x ** 3, p)
        searches = self.add_false_candidate(monkeypatch)
        assert power_product(p.generators, coordinates_of(x ** 4, p)) == x ** 4
        assert searches == []
        with pytest.raises(PrecisionError):
            coordinates_of(x ** 3, p)
        assert searches == [FLOAT_DIGITS, 50 - GUARD_DIGITS]

    def test_each_candidate_proved_as_found(self, monkeypatch):
        """On the seeded power products of x^3 - x + 1, whose pairs of
        exponents need relation searches, _verified_basis sign-splits each
        LLL candidate once, as it stands, and powers no generator beyond the
        largest |entry| of the candidates."""
        real_verified = arithreg.relations._verified_basis
        real_split = arithreg.relations._sign_split
        real_pow = FieldElement.__pow__
        proofs = []  # per call: (candidates, rows sign-split, exponents powered)
        current = [None]  # the entry of the call in progress

        def verified(elems, candidates):
            current[0] = ([list(c) for c in candidates], [], [])
            proofs.append(current[0])
            try:
                return real_verified(elems, candidates)
            finally:
                current[0] = None

        def split(elems, exponents):
            if current[0]:
                current[0][1].append(list(exponents))
            return real_split(elems, exponents)

        def power(self, n):
            if current[0]:
                current[0][2].append(n)
            return real_pow(self, n)

        monkeypatch.setattr(arithreg.relations, "_verified_basis", verified)
        monkeypatch.setattr(arithreg.relations, "_sign_split", split)
        monkeypatch.setattr(FieldElement, "__pow__", power)
        for _, _, gens in seeded_power_products(3):
            relation_lattice(gens, 50)
        assert proofs and all(candidates for candidates, _, _ in proofs)
        for candidates, rows, powers in proofs:
            assert rows == candidates
            assert max(map(abs, powers)) <= max(abs(x) for row in candidates for x in row)

    def test_proofs_invert_nothing(self, monkeypatch, fields):
        """The relation rows and the torsion order of -1, x, 1-x on
        x^3 - x + 1 are all proved by comparing the products over positive
        and negative exponents, so no field element is inverted."""
        K = fields["cubic"]
        x = K.gen()
        inverses = []
        real = FieldElement.inverse

        def counted(self):
            inverses.append(self)
            return real(self)

        monkeypatch.setattr(FieldElement, "inverse", counted)
        p = relation_lattice([K.element([-1]), x, K.one() - x], 50)
        assert p.torsion_order == 2
        assert inverses == []

    def test_torsion_generator_powered_once(self, monkeypatch, fields):
        """The README bloch-check generators -1, x, 1-x, (1-x)^-1, x/(x-1) on
        x^3 - x + 1 have torsion order 2, with torsion generator
        t = x^-1 (1-x)^-1 (x/(x-1))^-2. _certify_torsion forms its sign split
        P = (1-x)^-1 and N = x (x/(x-1))^2 once and compares P^2 with N^2
        and P with N: each generator is powered once, and powers and
        products start from their first factor, so the field multiplications
        are (x/(x-1))^2, its product with x, P^2 and N^2, 4 in all (20 when
        each power and product started from 1), and nothing is inverted."""
        K = fields["cubic"]
        x, one = K.gen(), K.one()
        gens = [K.element([-1]), x, one - x, (one - x).inverse(), x * (x - one).inverse()]
        basis = [list(row) for row in relation_lattice(gens, 50).relation_basis]
        calls = {"__mul__": 0, "__pow__": 0, "inverse": 0}
        for name in calls:
            count_calls(monkeypatch, calls, FieldElement, name)
        assert arithreg.relations._certify_torsion(gens, basis) == 2
        # x, (1-x)^-1 and x/(x-1) once each, then P and N to the 2nd and 1st
        assert calls == {"__mul__": 4, "__pow__": 3 + 2 + 2, "inverse": 0}

    def test_torsion_generator_of_one_sign_never_powers_one(self, monkeypatch, fields):
        """Generators -1, x on x^3 - x + 1 have relation basis [[2, 0]] and
        torsion generator t = -1, whose exponents are all of one sign: the
        sign split is P = -1, N = 1. Only P is powered, so t^2 == 1 costs the
        one product (-1)(-1), and no multiplication has an operand equal
        to 1."""
        K = fields["cubic"]
        gens = [K.element([-1]), K.gen()]
        basis = [list(row) for row in relation_lattice(gens, 50).relation_basis]
        assert basis == [[2, 0]]
        operands = []
        real_mul = FieldElement.__mul__

        def recorded(a, b):
            operands.append((a, b))
            return real_mul(a, b)

        monkeypatch.setattr(FieldElement, "__mul__", recorded)
        assert arithreg.relations._certify_torsion(gens, basis) == 2
        assert len(operands) == 1
        assert not any(a.is_one() or b.is_one() for a, b in operands)

    def test_power_product_of_one_factor_multiplies_nothing(self, monkeypatch, fields):
        """A power product with a single exponent of 1 is that generator,
        formed with no multiplication; with every exponent 0 it is 1."""
        K = fields["cubic"]
        x, one = K.gen(), K.one()
        gens = [K.element([-1]), x, one - x]
        calls = {"__mul__": 0}
        count_calls(monkeypatch, calls, FieldElement, "__mul__")
        for i, g in enumerate(gens):
            assert power_product(gens, [int(j == i) for j in range(len(gens))]) == g
        assert power_product(gens, [0] * len(gens)).is_one()
        assert calls == {"__mul__": 0}

    @pytest.mark.parametrize("name", ["cubic", "Qsqrt2"])
    def test_sign_split_agrees_with_power_product(self, fields, name):
        K = fields[name]
        x, one = K.gen(), K.one()
        gens = ([K.element([-1]), x, one - x] if name == "cubic"
                else [K.element([-1]), one + x, x - one])
        basis = relation_lattice(gens, 50).relation_basis
        rng = random.Random(f"sign-split-{name}")
        verdicts = set()
        for trial in range(60):
            if trial % 2:  # an integer combination of relations
                coeffs = [rng.randint(-3, 3) for _ in basis]
                v = [sum(c * row[i] for c, row in zip(coeffs, basis))
                     for i in range(len(gens))]
            else:
                v = [rng.randint(-4, 4) for _ in gens]
            if not any(v):
                continue
            expected = power_product(gens, v).is_one()
            try:
                _verified_basis(gens, [v])
                proved = True
            except PrecisionError:
                proved = False
            assert proved == expected, v
            verdicts.add(expected)
        assert verdicts == {True, False}


def _readme_generators(K):
    x, one = K.gen(), K.one()
    return [K.element([-1]), x, one - x, (one - x).inverse(), x * (x - one).inverse()]


# name -> (poly, generators of K, torsion order): -1 on x^3 - x + 1, i, a
# primitive cube and sixth root of unity, and the README bloch-check
# generators, whose Smith transform V has determinant -1
TORSION_PRESENTATIONS = {
    "-1": ([1, -1, 0, 1], lambda K: [K.element([-1]), K.gen()], 2),
    "i": ([1, 0, 1], lambda K: [K.gen()], 4),
    "zeta3": ([1, 1, 1], lambda K: [K.gen()], 3),
    "zeta6": ([1, 1, 1], lambda K: [-K.gen()], 6),
    "readme": ([1, -1, 0, 1], _readme_generators, 2),
}


class TestTorsionRow:
    """_smith_form returns V^-1 beside the Smith form, and the exponents of
    the torsion generator are its row i, the solution of x V = e_i, for the
    one invariant d_i > 1; V V^-1 = V^-1 V = I is the check."""

    @staticmethod
    def assert_torsion_row(rows):
        invariants, v, inverse = arithreg.relations._smith_form(rows)
        n = len(v)
        eye = [[int(i == j) for j in range(n)] for i in range(n)]
        assert [[sum(a * b for a, b in zip(row, col)) for col in zip(*inverse)] for row in v] == eye
        assert [[sum(a * b for a, b in zip(row, col)) for col in zip(*v)] for row in inverse] == eye
        i = next(i for i, d in enumerate(invariants) if d > 1)
        x = inverse[i]
        assert [sum(c * row[j] for c, row in zip(x, v)) for j in range(n)] == \
            [int(j == i) for j in range(n)]
        return det_fraction([list(row) for row in v])

    @pytest.mark.parametrize("name", list(TORSION_PRESENTATIONS))
    def test_row_proves_the_torsion_order(self, name):
        poly, gens, order = TORSION_PRESENTATIONS[name]
        K = parse_field({"poly": poly})
        elems = gens(K)
        basis = relation_lattice(elems, 50).relation_basis
        arithreg.relations._smith_form.cache_clear()
        det = self.assert_torsion_row(basis)
        assert det == (-1 if name == "readme" else 1)
        assert arithreg.relations._certify_torsion(elems, [list(r) for r in basis]) == order

    def test_row_of_a_transform_of_determinant_minus_one(self):
        # the first basis with one invariant above 1 and det V = -1 that a
        # search over random.Random(seed), seed = 0, 1, ..., drew: k in
        # [2, 4], then 1 to k rows of entries in [-6, 6]; seed 0 gave it
        arithreg.relations._smith_form.cache_clear()
        assert self.assert_torsion_row(((-6, -2, 2), (1, 0, 6))) == -1

    def test_no_row_without_exactly_one_torsion_invariant(self, monkeypatch, fields):
        """The torsion proof reads no row of V^-1 unless exactly one
        invariant exceeds 1: with none the order is 1, with two the torsion
        is refused as not cyclic, and neither sign-splits anything."""
        arithreg.relations._smith_form.cache_clear()
        K = fields["cubic"]
        elems = [K.element([-1]), K.gen()]

        def no_split(*args):
            raise AssertionError("a torsion row was sign-split")

        monkeypatch.setattr(arithreg.relations, "_sign_split", no_split)
        certify = arithreg.relations._certify_torsion
        for rows in ([[1, 0], [0, 1]], [[1, 1]]):
            assert certify(elems, rows) == 1
        with pytest.raises(PrecisionError, match="not cyclic"):
            certify(elems, [[2, 0], [0, 2]])


class TestExteriorSquare:
    def test_rank_one_vanishes(self, fields):
        K = fields["Qphi"]
        p = relation_lattice([K.one() + K.gen()], 50)  # infinite-order unit
        assert group_invariants(exterior_square(p).invariants) == ([], 0)

    def test_free_rank_two(self):
        sq = exterior_square_of_lattice(2, ())
        assert group_invariants(sq.invariants) == ([], 1)

    def test_z2_cross_z(self, fields):
        # presentation <-1, phi>: Lambda^2 = Z/2, SNF vs brute-force minors
        K = fields["Qphi"]
        p = relation_lattice([K.element([-1]), K.gen()], 50)
        sq = exterior_square(p)
        assert group_invariants(sq.invariants) == ([2], 0)

    def test_matches_minors_oracle_on_random_lattices(self):
        rng = random.Random(31)
        for _ in range(40):
            k = rng.randint(1, 3)
            m = rng.randint(0, 3)
            rows = tuple(tuple(rng.randint(-6, 6) for _ in range(k)) for _ in range(m))
            sq = exterior_square_of_lattice(k, rows)
            # index-by-index relators + minors-gcd invariant factors
            relators = wedge_relators(k, rows)
            mine = sorted(d for d in sq.invariants if d > 0)
            oracle = sorted(invariant_factors_by_minors(relators)) if relators else []
            assert mine == oracle

    @staticmethod
    def seeded_lattices():
        """(k, relation rows): no relation, k <= 1, (Z/2)^2, Z/2 + Z/4 with
        and without a free generator, a lattice that is not diagonal, and
        seeded rows for k up to 10."""
        yield from [(0, ()), (1, ()), (1, ((3,),)), (2, ()), (4, ()),
                    (2, ((2, 0), (0, 2))), (2, ((2, 0), (0, 4))), (3, ((2, 0, 0), (0, 4, 0))),
                    (3, ((2, 2, 0), (0, 4, 2)))]
        rng = random.Random(3302)
        for trial in range(40):
            k = 2 + trial % 9
            m = rng.randint(1, min(k, 4))
            yield k, tuple(tuple(rng.choice((0, 0, rng.randint(-6, 6))) for _ in range(k))
                           for _ in range(m))

    def test_wedge_matches_relator_oracle(self):
        # the invariants are those of the Smith form of the k(k-1)/2-column
        # relators, and two wedges are equal exactly when the oracle's
        # reductions of their raw vectors are; the seeded pairs include
        # u + r, v + 2u and (-v, u), which leave the class unchanged
        rng = random.Random(3303)
        seen = set()
        for k, rows in self.seeded_lattices():
            sq = exterior_square_of_lattice(k, rows)
            assert list(sq.invariants) == relator_smith_form(k, rows)[0], (k, rows)
            if k < 2:
                continue
            vectors = []
            for _ in range(8):
                u = [rng.randint(-3, 3) for _ in range(k)]
                v = [rng.randint(-3, 3) for _ in range(k)]
                r = list(rng.choice(rows)) if rows else [0] * k
                vectors += [(u, v), ([a + b for a, b in zip(u, r)], v),
                            (u, [b + 2 * a for a, b in zip(u, v)]), ([-b for b in v], u)]
            wedges = [sq.wedge(u, v) for u, v in vectors]
            reduced = [reduce_raw(k, rows, raw_wedge(u, v)) for u, v in vectors]
            for a, b in itertools.combinations(range(len(vectors)), 2):
                assert (wedges[a] == wedges[b]) == (reduced[a] == reduced[b]), (k, rows)
                seen.add(wedges[a] == wedges[b])
        assert seen == {True, False}

    def test_wedge_checks_vector_lengths(self):
        sq = exterior_square_of_lattice(3, ((2, 0, 0),))
        with pytest.raises(DomainError, match="wrong length"):
            sq.wedge([1, 0], [0, 1, 0])

    def test_wedge_bilinearity_and_antisymmetry(self):
        # a presentation whose square has a free coordinate and two Z/2
        # coordinates, on its basis coordinates, and the square of its
        # relation lattice over the generators, whose Smith transform is not
        # the identity: wedge classes add in pair coordinates, reduced modulo
        # the invariants only
        K = parse_field(SHIFTED_ROOT_FIELDS[5])
        candidates = [parse_element(c, K, "candidates") for c in ("-x", "x", "1+x")]
        p = _candidate_presentation(K, candidates, 50)
        lattice_square = exterior_square_of_lattice(p.rank, p.relation_basis)
        assert lattice_square.v_matrix != tuple(map(tuple, identity(p.rank)))
        rng = random.Random(32)
        for sq in (exterior_square(p), lattice_square):
            assert group_invariants(sq.invariants) == ([2, 2], 1)

            def plus(a, b):
                return sq.reduce_smith([x + y for x, y in zip(a, b)])

            k = sq.rank
            for _ in range(50):
                u = [rng.randint(-5, 5) for _ in range(k)]
                u2 = [rng.randint(-5, 5) for _ in range(k)]
                v = [rng.randint(-5, 5) for _ in range(k)]
                left = sq.wedge([a + b for a, b in zip(u, u2)], v)
                assert left == plus(sq.wedge(u, v), sq.wedge(u2, v))
                assert not any(plus(sq.wedge(u, v), sq.wedge(v, u)))
                assert not any(sq.wedge(u, u))

    def test_bloch_check_reduces_each_relation_basis_once(self, monkeypatch):
        # no presentation needs a Smith form of its relation basis: the nine
        # generators of this bloch-check generate Z/2 x Z, and snf reduces
        # only the one row (2, 0) of the lattice of its exterior square, once
        K = parse_field({"poly": [1, -1, 0, 1]})
        candidates = exceptional_units(K)[:4]
        bases = []
        real = arithreg.relations.snf

        def recording(rows):
            bases.append(tuple(map(tuple, rows)))
            return real(rows)

        monkeypatch.setattr(arithreg.relations, "snf", recording)
        arithreg.relations._smith_form.cache_clear()
        exterior_square_of_lattice.cache_clear()
        job = {"command": "bloch-check", "field": {"poly": list(K.defining_poly)},
               "output": "json", "payload": {"candidates": [c.to_record() for c in candidates]}}
        out = io.StringIO()
        assert run_job(job, out) == 0
        record = json.loads(out.getvalue())
        assert (len(record["generators"]), record["torsion_order"]) == (9, 2)
        assert bases == [((2, 0),)]

    def test_many_candidate_bloch_check_reduces_no_matrix_wider_than_the_generators(
            self, monkeypatch):
        # twelve candidates on x^7 - x + 1 give 25 generators of Z/2 x Z^3:
        # snf reduces the one row (2, 0, 0, 0) of the lattice of its exterior
        # square only, never the 25-column relation basis or the 300-column
        # relators of the pairs; the kernel rows vanish under the
        # raw-coordinate oracle
        K = parse_field({"poly": [1, -1, 0, 0, 0, 0, 0, 1]})
        candidates = exceptional_units(K)[:12]
        widths = []
        real = arithreg.relations.snf

        def recording(rows):
            widths.append(len(rows[0]))
            return real(rows)

        monkeypatch.setattr(arithreg.relations, "snf", recording)
        arithreg.relations._smith_form.cache_clear()
        exterior_square_of_lattice.cache_clear()
        out = io.StringIO()
        job = {"command": "bloch-check", "field": {"poly": list(K.defining_poly)},
               "output": "json", "payload": {"candidates": [c.to_record() for c in candidates]}}
        assert run_job(job, out) == 0
        record = json.loads(out.getvalue())
        assert len(record["generators"]) == 25
        assert widths == [4]
        p = _candidate_presentation(K, candidates, 50)
        assert record["kernel_basis"]
        for mults in record["kernel_basis"]:
            assert bloch_sum_vanishes(candidates, mults, p)


class TestCoordinatesOf:
    def test_empty_presentation_expresses_only_one(self, fields):
        K = fields["cubic"]
        p = relation_lattice([])
        assert coordinates_of(K.one(), p) == ()
        for elem in (K.gen(), K.element([-1])):
            with pytest.raises(PresentationIncompleteError):
                coordinates_of(elem, p)

    def test_one_is_the_zero_vector(self, fields):
        K = fields["cubic"]
        p = relation_lattice([K.element([-1]), K.gen()], 50)
        assert coordinates_of(K.one(), p) == (0, 0)

    def test_non_generator_found_by_proved_search(self, fields):
        K = fields["cubic"]
        gens = [K.element([-1]), K.gen()]
        p = relation_lattice(gens, 50)
        elem = -(K.gen() ** -2)
        coords = coordinates_of(elem, p)
        # one representative modulo the relation lattice, here that of (-1, -2)
        assert in_lattice([c - d for c, d in zip(coords, (-1, -2))],
                          [list(r) for r in p.relation_basis])
        assert power_product(gens, coords) == elem

    def test_element_of_another_field_rejected(self, fields):
        # x^3 - x - 1 against a presentation over x^3 - x + 1: 1, a
        # generator's coefficients and a proved search's input are all
        # rejected before any shortcut or search
        K, L = fields["cubic"], parse_field({"poly": [-1, -1, 0, 1]})
        p = relation_lattice([K.element([-1]), K.gen()], 50)
        for elem in (L.one(), L.gen(), L.element([-1])):
            with pytest.raises(DomainError, match="different fields"):
                coordinates_of(elem, p)


class TestSteinberg:
    def test_collinear_coordinates_give_zero(self, fields):
        # 1 - phi^-2 = phi^-1, so lam and 1-lam are powers of one generator
        # and their wedge vanishes even in a presentation with extra room
        K = fields["Qphi"]
        phi = K.gen()
        lam = phi ** -2
        assert (K.one() - lam) == phi ** -1
        p = relation_lattice([K.element([-1]), phi], 50)
        img = steinberg_image(lam, p)
        assert not any(img)

    def test_phi_hits_torsion(self, fields):
        K = fields["Qphi"]
        p = relation_lattice([K.element([-1]), K.gen()], 50)
        assert any(steinberg_image(K.gen(), p))
        assert not verify_bloch_element((K.gen(),), (1,), p)
        assert verify_bloch_element((K.gen(),), (2,), p)

    def test_cubic_nonzero_without_full_relations(self, cubic_setup):
        K, lam, p = cubic_setup
        img = steinberg_image(lam, p)
        # with the full relation lattice the Steinberg class of lam generates
        # the Z/2 part
        assert group_invariants(exterior_square(p).invariants)[0] == [2]

    def test_cubic_infinite_order_absent_relations(self, fields):
        # a hand-built presentation with no relations: the class of
        # lam ^ (1-lam) is free of infinite order
        from arithreg.relations import MultiplicativePresentation
        K = fields["cubic"]
        lam = K.gen()
        gens = (K.element([-1]), lam, K.one() - lam)
        p0 = MultiplicativePresentation(
            gens, (), 1, 50, (K.one(),) + gens, ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
            ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)))
        img = steinberg_image(lam, p0)
        assert any(img)
        assert group_invariants(exterior_square(p0).invariants) == ([], 3)
        for n in (2, 3, 7):
            assert not verify_bloch_element((lam,), (n,), p0)

    def test_presentation_incomplete(self, fields):
        """phi is not in the group -1 generates: the relation lattice of phi
        and -1 is proved complete, so this is a proved statement."""
        K = fields["Qphi"]
        phi = K.gen()
        p = relation_lattice([K.element([-1])], 50)  # phi not in the span
        with pytest.raises(PresentationIncompleteError):
            coordinates_of(phi, p)

    def test_non_rcirc_rejected(self, fields, cubic_setup):
        # 2 is no unit; -1 is a generator, proved a unit, but its complement
        # 2 is not, so coordinates_of rejects it
        _, _, p = cubic_setup
        K = fields["cubic"]
        for lam in (K.element([2]), K.element([-1])):
            with pytest.raises(DomainError):
                steinberg_image(lam, p)


class TestBlochKernel:
    def test_empty(self, cubic_setup):
        _, _, p = cubic_setup
        assert bloch_kernel([], p) == []

    def test_shifted_root_family_contains_n_1(self, fields):
        from arithreg.nf import parse_field
        for n in (2, 3, 4, 5):
            K = parse_field({"poly": [1, -1] + [0] * (n - 1) + [1]})
            lam = K.gen()
            gens = [K.element([-1]), lam, K.one() - lam]
            p = relation_lattice(gens, 50)
            cands = [lam, (K.one() - lam).inverse()]
            assert in_lattice([n, 1], bloch_kernel(cands, p))

    def test_phi_kernel_is_even_multiples(self, fields):
        K = fields["Qphi"]
        p = relation_lattice([K.element([-1]), K.gen()], 50)
        assert bloch_kernel([K.gen()], p) == [[2]]

    def test_kernel_pushes_to_zero(self, cubic_setup):
        K, lam, p = cubic_setup
        cands = [lam, (K.one() - lam).inverse()]
        for row in bloch_kernel(cands, p):
            assert verify_bloch_element(cands, row, p)

    def test_wedge_images_with_no_free_column(self):
        # on Q(sqrt -3), x is a sixth root of unity and 1 - x = x^5: with the
        # generator x alone the exterior square has dimension 0, and with
        # -1, x, 1 - x every column is torsion; either way the images of [x]
        # have no free column and [x] spans the kernel
        from arithreg.nf import parse_field
        K = parse_field({"poly": [1, -1, 1]})
        x = K.gen()
        for gens in ([x], [K.element([-1]), x, K.one() - x]):
            p = relation_lattice(gens, 50)
            assert 0 not in exterior_square(p).invariants
            assert bloch_kernel([x], p) == [[1]]
            assert torsion_only_kernel([x], p) == []
        assert exterior_square(relation_lattice([x], 50)).dim == 0

    def test_torsion_only_flagged(self, fields):
        K = fields["Qphi"]
        p = relation_lattice([K.element([-1]), K.gen()], 50)
        assert torsion_only_kernel([K.gen()], p) == [[1]]


def sampled_supports(m, trials=12):
    """Seeded supports of two or three exceptional units of x^m - x + 1, each
    with the presentation bloch-check builds for it."""
    K = parse_field(SHIFTED_ROOT_FIELDS[m])
    units = exceptional_units(K)
    rng = random.Random(f"wedge-oracle-{m}")
    for _ in range(trials):
        support = rng.sample(units, min(len(units), rng.choice((2, 3))))
        yield support, _candidate_presentation(K, support, 50)


class TestWedgeOracle:
    """The exact kernel test against the raw-coordinate oracle, on
    presentations where the Smith transform is not the identity."""

    @pytest.mark.parametrize("m", sorted(SHIFTED_ROOT_FIELDS))
    def test_verify_agrees_with_raw_coordinate_oracle(self, m):
        disagreements, verdicts = [], set()
        for support, p in sampled_supports(m):
            for mults in itertools.product(range(-2, 3), repeat=len(support)):
                got = verify_bloch_element(support, mults, p)
                want = bloch_sum_vanishes(support, mults, p)
                if got != want:
                    disagreements.append((support, mults))
                verdicts.add(want)
        assert disagreements == []
        assert verdicts == {True, False}

    @pytest.mark.parametrize("m", sorted(SHIFTED_ROOT_FIELDS))
    def test_kernel_rows_verify_and_torsion_only_rows_do_not(self, m):
        rows = {True: 0, False: 0}
        for support, p in sampled_supports(m):
            for exact, kernel in ((True, bloch_kernel), (False, torsion_only_kernel)):
                for row in kernel(support, p):
                    assert verify_bloch_element(support, row, p) == exact, row
                    rows[exact] += 1
        assert rows[True] and rows[False]


class TestRelationSearchLattices:
    """lll on the lattices relation discovery builds gives exactly the basis
    of the Fraction Gram-Schmidt oracle."""

    @staticmethod
    def recorded_lattices(monkeypatch):
        seen = []
        real = arithreg.relations.lll

        def recording(rows):
            seen.append([list(r) for r in rows])
            return real(rows)

        monkeypatch.setattr(arithreg.relations, "lll", recording)
        return seen

    def test_readme_bloch_check_lattices(self, monkeypatch):
        """The README bloch-check places its generators with no search. With
        the candidate x - x^2 = -x^4 alone instead, the free unit -x^4 comes
        first, and its complement 1 - x + x^2 = -x^5, which no power of it
        gives, runs one search."""
        seen = self.recorded_lattices(monkeypatch)
        job = {"schema": 1, "command": "bloch-check", "field": {"poly": [1, -1, 0, 1]},
               "payload": {"candidates": ["x", "(1-x)^-1"]}}
        assert run_job(job, out=io.StringIO()) == 0
        assert seen == []
        job["payload"]["candidates"] = ["x-x^2"]
        assert run_job(job, out=io.StringIO()) == 0
        assert len(seen) == 1
        for rows in seen:
            assert lll(rows) == lll_fraction(rows)

    # sha256 of the JSON of the working-precision relation-search lattice for
    # the 14 units below (15 rows) and of lll_fraction's output on it, recorded
    # with tests/intmat_oracles.lll_fraction, which needs 7-9 s on this
    # lattice on a 2-CPU host under Python 3.11
    K14_LATTICE_SHA256 = "8bca545cb805db172ef0efd8fe7a2f77806a08f6cb56b70f3c4ee529393a6a85"
    K14_REDUCED_SHA256 = "16130f4ce50b03612ef5faddd98a42ec7abac353fe8b6c4756a94bb5486069ac"

    def test_fourteen_units_of_x3_minus_3x_plus_1(self, monkeypatch):
        """relation_lattice searches and reduces double lattices only, where
        lll agrees with lll_fraction; the working-precision search lattice of
        all fourteen, built from _embedding_columns directly, keeps its
        recorded digests."""
        K = parse_field({"poly": [1, -3, 0, 1]})
        x, one = K.gen(), K.one()
        rng = random.Random(14)
        units = []
        for _ in range(14):
            u = one
            for g in (K.element([-1]), x, x - one):
                u = u * g ** rng.randint(-2, 2)
            units.append(u)
        seen = self.recorded_lattices(monkeypatch)
        p = relation_lattice(units, 50)
        assert (len(p.relation_basis), p.torsion_order) == (12, 2)
        assert seen
        for rows in seen:
            assert lll(rows) == lll_fraction(rows)

        def digest(rows):
            return hashlib.sha256(json.dumps(rows).encode()).hexdigest()

        e = embeddings(K, 50)
        with mp.workdps(e.working_dps):
            rows = _search_lattice(*_embedding_columns(units, e), 50 - GUARD_DIGITS)
        assert digest(rows) == self.K14_LATTICE_SHA256
        assert digest(lll(rows)) == self.K14_REDUCED_SHA256
