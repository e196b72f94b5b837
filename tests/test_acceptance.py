"""Acceptance suite: one test per release criterion, exact tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL
line per criterion.
"""

import functools
import random
import time
from fractions import Fraction
from math import factorial

from repstab.characters import (
    IrrDecomposition,
    character_table,
    decompose,
    irr_char,
    irr_character,
)
from repstab.cyclepoly import X, cycle_poly, eval_rho_all, format_poly, parse_poly
from repstab.fbmodules import CycleModule, Projective, Tensor, VFamily
from repstab.frobenius import frobenius_poly, frobenius_poly_stable
from repstab.partitions import Partition, class_size, cycle_types_of, partitions_of
from repstab.pieri import pieri_expand, projective_terms
from repstab.stability import (
    rank_pc_estimate,
    rank_rs_estimate,
    tensor_weight,
    tensor_weight_bound_holds,
    verify_equivalence,
)

from bruteforce import commuting_cycle_count, eval_rho, induce_bruteforce, representative
from lemmas import (
    express_X_in_E,
    low_weight_class_function_count,
    rho_image_kernel,
    substitute,
)


def criterion(number, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:02d} {title}: FAIL")
                raise
            print(f"ACCEPTANCE {number:02d} {title}: PASS")
            return result

        return run

    return wrap


@criterion(1, "character engine orthogonality")
def test_criterion_1_character_engine():
    t0 = time.monotonic()
    for m in range(9):
        types, table = character_table(m)
        weights = [class_size(t) for t in types]
        order = factorial(m)
        lams = partitions_of(m)
        for i, lam in enumerate(lams):
            row = table[lam]
            for mu in lams[i:]:
                other = table[mu]
                dot = sum(w * a * b for w, a, b in zip(weights, row, other))
                assert dot == (order if lam == mu else 0), (m, lam, mu)
        assert sum(table[lam][types.index((1,) * m)] ** 2 for lam in lams) == order
    elapsed = time.monotonic() - t0
    assert elapsed < 10, f"character tables took {elapsed:.1f}s"


@criterion(2, "character polynomial correctness")
def test_criterion_2_frobenius():
    for m in range(1, 9):
        for lam in partitions_of(m):
            poly = frobenius_poly(lam)
            assert poly.weighted_degree() == lam.weight(), lam
            for t in cycle_types_of(m):
                assert eval_rho(poly, t) == irr_char(lam, t), (lam, t)
    # one polynomial per socle, valid across every padding degree
    for size in range(5):
        for soc in partitions_of(size):
            stable = frobenius_poly_stable(soc)
            first = soc.parts[0] if soc else 0
            for m in range(max(soc.size + first, 1), 11):
                lam = soc.pad(m)
                assert frobenius_poly(lam) == stable
                assert eval_rho_all(stable, m) == irr_character(lam), (soc, m)


@criterion(3, "horizontal-strip rule vs induction oracle")
def test_criterion_3_pieri_oracle():
    for n in range(1, 6):
        for nu in partitions_of(n):
            chi = irr_character(nu)
            for m in range(n, 9):
                induced = decompose(induce_bruteforce(chi, m))
                expected = projective_terms(IrrDecomposition(n, {nu: 1}), m)
                assert induced == expected, (nu, m)
    # the worked example: summand counts 3, 5, 6 and frozen socles from m0 on
    nu = Partition([3, 2, 2])
    counts = {8: 3, 9: 5, 10: 6, 11: 6}
    for m, count in counts.items():
        assert len(pieri_expand(nu, m)) == count, m
    stable_socles = {mu.socle() for mu in pieri_expand(nu, 10)}
    assert {mu.socle() for mu in pieri_expand(nu, 11)} == stable_socles
    # weight bounds with equality cases, and stabilization, zero exceptions
    for n in range(1, 6):
        for nu in partitions_of(n):
            m0 = nu.size + nu.parts[0]
            for m in range(n, max(9, m0 + 3)):
                mus = pieri_expand(nu, m)
                for mu in mus:
                    w = mu.weight()
                    assert nu.weight() <= w <= nu.size
                    assert (w == nu.weight()) == (mu == nu.socle().pad(m))
                    assert (w == nu.size) == (m >= m0 and mu == nu.pad(m))
                if m >= m0:
                    assert {mu.socle() for mu in mus} == {
                        mu.socle() for mu in pieri_expand(nu, m0)
                    }


@criterion(4, "commuting-cycle counts")
def test_criterion_4_cycle_counts():
    for m in range(1, 8):
        for t in cycle_types_of(m):
            g = representative(t, m)
            for ell in range(1, 8):
                assert eval_rho(cycle_poly(ell), t) == commuting_cycle_count(g, ell), (
                    m,
                    t,
                    ell,
                )
    for m in range(11):
        for ell in range(1, 11):
            expected = Fraction(1)
            for j in range(ell):
                expected *= m - j
            expected /= ell
            assert eval_rho(cycle_poly(ell), (1,) * m) == expected


@criterion(5, "stability ranks")
def test_criterion_5_ranks():
    t0 = time.monotonic()
    for ell in (1, 2, 3):
        m_max = 2 * ell + 3
        pc = rank_pc_estimate(CycleModule(Partition([ell])), m_max)
        assert pc is not None and pc[0] == 0
        assert pc[1] == cycle_poly(ell)
        rs = rank_rs_estimate(CycleModule(Partition([ell])), m_max)
        assert rs is not None and rs[0] == 2 * ell, (ell, rs)
    for size in range(1, 5):
        for lam in partitions_of(size):
            m_max = lam.size + lam.parts[0] + 2
            rs = rank_rs_estimate(Projective(IrrDecomposition(size, {lam: 1})), m_max)
            assert rs is not None and rs[0] == lam.size + lam.parts[0], lam
    for nu in (Partition([1, 1]), Partition([2, 1])):
        m_max = 2 * nu.size + 2
        rs = rank_rs_estimate(CycleModule(nu), m_max)
        assert rs is not None and rs[0] == 2 * nu.size, nu
        pc = rank_pc_estimate(CycleModule(nu), m_max)
        assert pc is not None and pc[0] == 0
    elapsed = time.monotonic() - t0
    assert elapsed < 60, f"rank battery took {elapsed:.1f}s"


@criterion(6, "weight-restricted evaluation: image and kernel")
def test_criterion_6_rho_image_kernel():
    for m in range(10):
        for d in range(m + 1):
            image, kernel = rho_image_kernel(m, d)
            assert image == low_weight_class_function_count(m, d), (m, d)
            assert (kernel == 0) == (2 * d <= m), (m, d)


def _battery():
    specs = []
    for size in range(1, 4):
        for lam in partitions_of(size):
            specs.append(Projective(IrrDecomposition(size, {lam: 1})))
            specs.append(CycleModule(lam))
            specs.append(VFamily(lam))
    seen = set()
    for size_a in range(1, 4):
        for lam in partitions_of(size_a):
            for size_b in range(1, 4):
                for mu in partitions_of(size_b):
                    if lam.weight() + mu.weight() > 3:
                        continue
                    pair = tuple(sorted((lam.socle().parts, mu.socle().parts)))
                    if pair in seen:
                        continue
                    seen.add(pair)
                    specs.append(Tensor(VFamily(lam), VFamily(mu)))
    return specs


@criterion(7, "two-sided rank bounds across the battery")
def test_criterion_7_equivalence_battery():
    m_max = 12
    for spec in _battery():
        report = verify_equivalence(spec, m_max)
        assert report.rank_rs is not None and report.rank_pc is not None, spec
        assert report.all_bounds_hold(), (spec, report.bound_checks)
    # tightness: the cycle families meet the doubled-weight bound exactly
    for ell in (1, 2, 3):
        report = verify_equivalence(CycleModule(Partition([ell])), 2 * ell + 3)
        assert report.rank_rs == 2 * report.poly.weighted_degree()
        assert report.rank_pc == 0


@criterion(8, "tensor weight additivity")
def test_criterion_8_tensor_weights():
    labels = [lam for size in range(5) for lam in partitions_of(size)]
    for lam in labels:
        for mu in labels:
            total = lam.size + mu.size
            if total > 4 or lam.parts > mu.parts:
                continue
            start = max(
                lam.size + (lam.parts[0] if lam else 0),
                mu.size + (mu.parts[0] if mu else 0),
                1,
            )
            for m in range(start, 11):
                w = tensor_weight(lam, mu, m)
                assert tensor_weight_bound_holds(w, total, m), (lam, mu, m)
                if m >= 2 * total:
                    product = irr_character(lam.pad(m)) * irr_character(mu.pad(m))
                    assert decompose(product).module_weight() == total, (lam, mu, m)


@criterion(9, "cycle-count basis change")
def test_criterion_9_basis_change():
    qs = express_X_in_E(6)
    subs = {i: cycle_poly(i) for i in range(1, 7)}
    for ell, q in enumerate(qs, start=1):
        assert q.weighted_degree() == ell
        assert substitute(q, subs) == X(ell), ell


@criterion(10, "command-line interface")
def test_criterion_10_cli(capsys):
    from test_cli import GOLDEN, GOLDEN_CASES, random_partition, random_polynomial, random_spec
    from repstab.cli import run
    from repstab.fbmodules import format_spec, parse_spec
    from repstab.partitions import format_partition, parse_partition

    for name, argv in sorted(GOLDEN_CASES.items()):
        assert run(argv) == 0
        assert capsys.readouterr().out == (GOLDEN / name).read_text(), name
    rng = random.Random(8128)
    for _ in range(1000):
        lam = random_partition(rng)
        assert parse_partition(format_partition(lam)) == lam
        poly = random_polynomial(rng)
        assert parse_poly(format_poly(poly)) == poly
        spec = random_spec(rng)
        assert parse_spec(format_spec(spec)) == spec
