"""Acceptance suite: one test per criterion, each printing a PASS line.

Tolerances are pinned here and nowhere else: identity suites at 1e-40
(five-term at 1e-35), the finite-difference check at 1e-6 relative, exact
assertions where stated. Fixture values (units, metrics, bundles) are
constructed at the working precision of their embedding sets.
"""

import random
import time
from fractions import Fraction

import mpmath
from mpmath import mp, mpc, mpf

from arithreg.arakelov import (FractionalIdeal, Metric, MetrizedLineBundle,
                               arithmetic_degree, index_quotient, standard_metric,
                               tensor, transport, twist_metric)
from arithreg.dilog import bloch_wigner
from arithreg.heights import c_hat_height, height_scaled_trivial, scaling_alpha
from arithreg.intmat import in_lattice
from arithreg.kmodel import build_model, rank_in_degree
from arithreg.nf import embeddings, evaluate, parse_field
from arithreg.regulator import k3_regulator, unit_regulator
from arithreg.relations import (BlochElement, bloch_kernel, exterior_square_of_lattice,
                                relation_lattice, verify_bloch_element)
from intmat_oracles import group_invariants, invariant_factors_by_minors

TOL40 = mpf(10) ** -40
TOL35 = mpf(10) ** -35

# fundamental units of ten real quadratic fields, as (poly, unit coefficients)
REAL_QUADRATIC_UNITS = [
    ([-2, 0, 1], [1, 1]),     # 1 + sqrt(2)
    ([-3, 0, 1], [2, 1]),     # 2 + sqrt(3)
    ([-1, -1, 1], [0, 1]),    # golden ratio
    ([-6, 0, 1], [5, 2]),     # 5 + 2 sqrt(6)
    ([-7, 0, 1], [8, 3]),     # 8 + 3 sqrt(7)
    ([-10, 0, 1], [3, 1]),    # 3 + sqrt(10)
    ([-11, 0, 1], [10, 3]),   # 10 + 3 sqrt(11)
    ([-1, -3, 1], [0, 1]),    # (3 + sqrt(13))/2
    ([-14, 0, 1], [15, 4]),   # 15 + 4 sqrt(14)
    ([-15, 0, 1], [4, 1]),    # 4 + sqrt(15)
]


def seeded_points(seed, count):
    rng = random.Random(seed)
    pts = []
    while len(pts) < count:
        r = rng.uniform(0.1, 3.0)
        th = rng.uniform(-3.141592653589793, 3.141592653589793)
        z = mpc(r * mpmath.cos(th), r * mpmath.sin(th))
        if abs(z) < 1e-3 or abs(z - 1) < 1e-3:
            continue
        if z.real >= 1 - 1e-3 and abs(z.imag) < 1e-3:
            continue
        pts.append(z)
    return pts


def test_criterion_01_dilog_identity_suite():
    start = time.time()
    with mp.workdps(60):
        for z in seeded_points(20260808, 200):
            d = bloch_wigner(z, 50)
            assert abs(bloch_wigner(1 / (1 - z), 50) - d) < TOL40
            assert abs(bloch_wigner(1 / z, 50) + d) < TOL40
            assert abs(bloch_wigner(mp.conj(z), 50) + d) < TOL40
        rng = random.Random(20260809)
        done = 0
        while done < 100:
            x = mpc(rng.uniform(-0.95, 0.95), rng.uniform(-0.95, 0.95))
            y = mpc(rng.uniform(-0.95, 0.95), rng.uniform(-0.95, 0.95))
            if abs(x) > 0.98 or abs(y) > 0.98:
                continue
            pts = (x, y, (1 - x) / (1 - x * y), 1 - x * y, (1 - y) / (1 - x * y))
            if any(abs(w) < 1e-3 or abs(w - 1) < 1e-3 for w in pts):
                continue
            done += 1
            residual = mp.fsum(bloch_wigner(w, 50) for w in pts)
            assert abs(residual) < TOL35
    elapsed = time.time() - start
    assert elapsed < 30, f"identity suite took {elapsed:.1f}s"
    print(f"ACCEPTANCE 1 dilog identity suite: PASS ({elapsed:.1f}s)")


def test_criterion_02_differential_check():
    rng = random.Random(40404)
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
            lz, l1z = mp.log(abs(z)), mp.log(abs(1 - z))
            # closed form: log|z| d(arg(1-z)) - log|1-z| d(arg z)
            ddx = lz * (-y / a1z2) - l1z * (-y / az2)
            ddy = lz * (-(1 - x) / a1z2) - l1z * (x / az2)
            grad_norm = mp.sqrt(ddx ** 2 + ddy ** 2)
            if grad_norm < mpf(10) ** -3:
                continue  # relative comparison needs a well-conditioned point
            checked += 1
            fdx = (bloch_wigner(z + h, 40) - bloch_wigner(z - h, 40)) / (2 * h)
            fdy = (bloch_wigner(z + h * mpc(0, 1), 40)
                   - bloch_wigner(z - h * mpc(0, 1), 40)) / (2 * h)
            err = mp.sqrt((fdx - ddx) ** 2 + (fdy - ddy) ** 2)
            assert err / grad_norm < mpf(10) ** -6
    print("ACCEPTANCE 2 differential check: PASS")


def test_criterion_03_bloch_example_family():
    for n in (2, 3, 4, 5):
        K = parse_field({"poly": [1, -1] + [0] * (n - 1) + [1]})
        lam = K.gen()
        comp_inv = (K.one() - lam).inverse()
        pres = relation_lattice([K.element([-1]), lam, K.one() - lam], 50)
        basis = bloch_kernel([lam, comp_inv], pres)
        rows = [list(b.multiplicities) for b in basis]
        assert in_lattice([n, 1], rows), f"(n,1) missing for n={n}"
        x = BlochElement((lam, comp_inv), (n, 1))
        assert verify_bloch_element(x, pres)

        e = embeddings(K, 50)
        (vec,) = k3_regulator([x], e)
        with mp.workdps(60):
            for idx in e.pair_representatives:
                target = (n + 1) * (-bloch_wigner(evaluate(lam, e)[idx], 50))
                assert abs(vec.values[idx] - target) < TOL40
        for idx in e.real_indices:
            assert vec.values[idx] == 0
        for i, j in enumerate(e.conjugation_pairing):
            if i != j:
                # values are exact negatives, so the sum is exactly zero
                assert vec.values[i] + vec.values[j] == 0
    print("ACCEPTANCE 3 Bloch example family (n = 2..5): PASS")


def test_criterion_04_product_formula():
    with mp.workdps(60):
        for poly, unit_coeffs in REAL_QUADRATIC_UNITS:
            K = parse_field({"poly": poly})
            u = K.element(unit_coeffs)
            assert abs(u.norm()) == 1
            e = embeddings(K, 50)
            vec = unit_regulator(u, e)
            assert abs(mp.fsum(vec.values)) < TOL40
        K = parse_field({"poly": [1, -1, 0, 1]})
        lam = K.gen()
        unit_fixture = [K.element([-1]), lam, K.one() - lam, lam ** -1,
                        lam * (K.one() - lam), -(lam ** 2)]
        e = embeddings(K, 50)
        for u in unit_fixture:
            assert u.is_unit()
            assert abs(mp.fsum(unit_regulator(u, e).values)) < TOL40
    print("ACCEPTANCE 4 product formula (10 real quadratic units + cubic fixture): PASS")


def _fixture_bundles():
    """Ten metrized bundles over Q, Q(i), Q(sqrt 2) with generators where
    principal, plus five valid sections each."""
    out = []
    KQ = parse_field({"poly": [0, 1]})
    eQ = embeddings(KQ, 50)
    KI = parse_field({"poly": [1, 0, 1]})
    eI = embeddings(KI, 50)
    K2 = parse_field({"poly": [-2, 0, 1]})
    e2 = embeddings(K2, 50)

    def std_bundle(K, e, gen_coeffs, twist=None, scale=None):
        gen = K.element(gen_coeffs)
        L = FractionalIdeal.principal(gen)
        metric = standard_metric(L, e)
        if scale is not None:
            with mp.workdps(e.working_dps):
                metric = Metric(tuple(mpf(scale) * v for v in metric.values))
        b = MetrizedLineBundle(L, metric)
        if twist is not None:
            with mp.workdps(e.working_dps):
                b = twist_metric(b, tuple(mpf(t) for t in twist), e)
        return b, gen, e, K

    out.append(std_bundle(KQ, eQ, [1]))
    out.append(std_bundle(KQ, eQ, [2]))
    out.append(std_bundle(KQ, eQ, [3], scale=5))
    out.append(std_bundle(KQ, eQ, [Fraction(1, 2)]))
    out.append(std_bundle(KI, eI, [1]))
    out.append(std_bundle(KI, eI, [1, 1]))
    out.append(std_bundle(KI, eI, [2, 1], twist=("0.5", "0.5")))
    out.append(std_bundle(KI, eI, [1], twist=("-0.25", "-0.25")))
    out.append(std_bundle(K2, e2, [0, 1]))
    out.append(std_bundle(K2, e2, [3, 1]))
    assert len(out) == 10
    return out


def test_criterion_05_degree_well_defined():
    units = {1: None, 2: [0, 1]}  # unit multiplier coeffs per field degree
    for bundle, gen, e, K in _fixture_bundles():
        s0 = bundle.ideal.reference_section()
        sections = [s0 * K.element([m]) for m in (1, 2, 3, 5)]
        if K.degree == 2 and K.defining_poly == (1, 0, 1):
            sections.append(s0 * K.gen())  # unit multiple i
        elif K.degree == 2 and K.defining_poly == (-2, 0, 1):
            sections.append(s0 * (K.one() + K.gen()))  # unit multiple 1+sqrt2
        else:
            sections.append(s0 * K.element([7]))
        assert len(sections) >= 5
        with mp.workdps(60):
            base = arithmetic_degree(bundle, e, sections[0])
            for s in sections[1:]:
                idx = index_quotient(bundle.ideal, s)
                assert idx.denominator == 1 and idx > 0  # exact integrality
                assert abs(arithmetic_degree(bundle, e, s) - base) < TOL40
    print("ACCEPTANCE 5 arithmetic degree well-definedness (10 bundles x 5 sections): PASS")


def test_criterion_06_degree_homomorphism_and_invariance():
    K = parse_field({"poly": [1, 0, 1]})
    e = embeddings(K, 50)
    rng = random.Random(60606)
    with mp.workdps(60):
        pairs_done = 0
        while pairs_done < 20:
            coeffs = [rng.randint(-4, 4) for _ in range(4)]
            ga, gb = K.element(coeffs[:2]), K.element(coeffs[2:])
            if ga.is_zero() or gb.is_zero():
                continue
            pairs_done += 1
            la, lb = FractionalIdeal.principal(ga), FractionalIdeal.principal(gb)
            sa = mp.exp(mpf(rng.randint(-2, 2)) / 3)
            sb = mp.exp(mpf(rng.randint(-2, 2)) / 3)
            a = MetrizedLineBundle(la, Metric(tuple(sa * v for v in standard_metric(la, e).values)))
            b = MetrizedLineBundle(lb, Metric(tuple(sb * v for v in standard_metric(lb, e).values)))
            lhs = arithmetic_degree(tensor(a, b, e), e)
            rhs = arithmetic_degree(a, e) + arithmetic_degree(b, e)
            assert abs(lhs - rhs) < TOL40

        L = FractionalIdeal.principal(K.element([2, 1]))
        bundle = MetrizedLineBundle(L, standard_metric(L, e))
        base = arithmetic_degree(bundle, e)
        moved_done = 0
        while moved_done < 10:
            num = K.element([rng.randint(-5, 5), rng.randint(-5, 5)])
            if num.is_zero():
                continue
            moved_done += 1
            a_scalar = num * K.element([Fraction(1, rng.randint(1, 4))])
            moved = transport(bundle, a_scalar, e)
            assert abs(arithmetic_degree(moved, e) - base) < TOL40
    print("ACCEPTANCE 6 degree homomorphism + isomorphism invariance: PASS")


def test_criterion_07_degree_equals_height():
    with mp.workdps(60):
        for bundle, gen, e, K in _fixture_bundles():
            got = c_hat_height(bundle, 1, gen, e)
            want = arithmetic_degree(bundle, e)
            assert abs(got - want) < TOL40
        # the divisible-kernel extension: non-principal ideal, square trivialized
        K5 = parse_field({"poly": [5, 0, 1]})
        e5 = embeddings(K5, 50)
        P = FractionalIdeal.from_elements(K5, [K5.element([2]), K5.one() + K5.gen()])
        b = MetrizedLineBundle(P, standard_metric(P, e5))
        got = c_hat_height(b, 2, K5.element([2]), e5)
        want = arithmetic_degree(b, e5)
        assert abs(got - want) < TOL40
    print("ACCEPTANCE 7 height equals arithmetic degree (incl. non-principal N=2): PASS")


def test_criterion_08_height_consistency():
    cases = [
        ("Q", [0, 1], ("0.8",)),
        ("Qi", [1, 0, 1], ("0.4", "0.4")),
        ("cubic", [1, -1, 0, 1], ("0.25", "-0.5", "-0.5")),
    ]
    for _, poly, tvals in cases:
        K = parse_field({"poly": poly})
        e = embeddings(K, 50)
        with mp.workdps(60):
            t = tuple(mpf(v) for v in tvals)
            f = tuple(mp.exp(-2 * v) for v in t)
            got = height_scaled_trivial(f, e)
            want = mp.fsum(t) / e.degree
            assert abs(got - want) < TOL40

    K = parse_field({"poly": [1, 0, 1]})
    e = embeddings(K, 50)
    with mp.workdps(60):
        L = FractionalIdeal.principal(K.element([1, 2]))
        bundle = MetrizedLineBundle(L, standard_metric(L, e))
        for tv in ("0.3", "-1.25", "2"):
            t = (mpf(tv), mpf(tv))
            twisted = twist_metric(bundle, t, e)
            diff = arithmetic_degree(twisted, e) - arithmetic_degree(bundle, e)
            ratio = tuple(u / v for u, v in zip(twisted.metric.values, bundle.metric.values))
            alpha = scaling_alpha(1, ratio, e)
            assert abs(mp.fsum(alpha) / e.degree - diff) < TOL40
    print("ACCEPTANCE 8 height consistency (scaling lemma paths): PASS")


def test_criterion_09_borel_rank_table():
    records = [[0, 1], [1, 0, 1], [-2, 0, 1], [-1, -1, 1], [5, 0, 1], [1, -1, 0, 1]]
    for poly in records:
        K = parse_field({"poly": poly})
        e = embeddings(K, 50)
        table = build_model(e, 6)
        r1, r2 = e.signature
        assert table["signature"] == [r1, r2]
        for p, row in zip(range(1, 7), table["rows"], strict=True):
            d = 1 - 2 * p
            want = r1 + r2 - 1 if p == 1 else (r2 if p % 2 == 0 else r1 + r2)
            assert rank_in_degree(e, d) == row["rank"] == want
    print("ACCEPTANCE 9 rank table: PASS")


def test_criterion_10_exterior_square_oracle():
    rng = random.Random(101010)
    samples = 0
    while samples < 25:
        k = rng.randint(1, 3)
        m = rng.randint(0, 3)
        rows = tuple(tuple(rng.randint(-6, 6) for _ in range(k)) for _ in range(m))
        # oracle side 1: invariant factors of the presented group by minors
        group_inv = invariant_factors_by_minors([list(r) for r in rows]) if m else []
        torsion = [d for d in group_inv if d > 1]
        if len(torsion) > 1 or (torsion and torsion[0] > 12):
            continue  # want cyclic torsion <= 12
        samples += 1
        free_rank = k - len(group_inv)
        d = torsion[0] if torsion else 1

        sq = exterior_square_of_lattice(k, rows)

        # oracle side 2a: closed form Lambda^2(Z^r + Z/d)
        want_torsion = [d] * free_rank if d > 1 else []
        want_free = free_rank * (free_rank - 1) // 2
        assert group_invariants(sq.invariants) == (want_torsion, want_free)

        # oracle side 2b: minors-gcd on an independently expanded relator matrix
        pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
        relators = []
        for r in rows:
            for j in range(k):
                row = [0] * len(pairs)
                for i in range(k):
                    if i == j or r[i] == 0:
                        continue
                    if i < j:
                        row[pairs.index((i, j))] += r[i]
                    else:
                        row[pairs.index((j, i))] -= r[i]
                if any(row):
                    relators.append(row)
        oracle_inv = invariant_factors_by_minors(relators) if relators else []
        assert sorted(x for x in sq.invariants if x > 0) == sorted(oracle_inv)

        # wedge bilinearity and antisymmetry on exponent vectors, exact
        def add(x, y):
            return [a + b for a, b in zip(x, y)]

        zero = (0,) * sq.dim
        for _ in range(5):
            u = [rng.randint(-5, 5) for _ in range(k)]
            u2 = [rng.randint(-5, 5) for _ in range(k)]
            v = [rng.randint(-5, 5) for _ in range(k)]
            lhs = sq.wedge(add(u, u2), v)
            rhs = sq.reduce_smith(add(sq.wedge(u, v), sq.wedge(u2, v)))
            assert lhs == rhs
            assert sq.wedge(u, u) == zero
            assert sq.reduce_smith(add(sq.wedge(u, v), sq.wedge(v, u))) == zero
    print("ACCEPTANCE 10 exterior-square oracle (25 random groups): PASS")
