import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

import repstab
from repstab import frobenius, pieri
from repstab.characters import IrrDecomposition, decompose, inner_product, irr_character
from repstab.cyclepoly import CharPolynomial, X, cycle_poly, eval_rho_all
from repstab.fbmodules import (
    CycleModule,
    DirectSum,
    Projective,
    Tensor,
    Truncate,
    VFamily,
    WeightTruncateGT,
    WeightTruncateLE,
    family_steps,
    format_spec,
    parse_spec,
    socles_at,
    stable_range,
    terms_at,
)
from repstab.partitions import Partition, partitions_of
from repstab.pieri import sum_steps
from repstab.stability import (
    rank_pc_estimate,
    rank_rs_estimate,
    stable_window,
    tensor_weight,
    tensor_weight_bound_holds,
    verify_equivalence,
)

import bruteforce
import lemmas
from bruteforce import (
    character_by_classes,
    cycle_poly_product,
    rank_pc_by_walk,
    rank_rs_by_walk,
    socles_by_degree,
    tensor_weight_by_classes,
)
from lemmas import (
    low_weight_class_function_count,
    matrix_rank,
    minimal_weight_check,
    reconstruct_stable_family,
    rho_image_kernel,
    scalar_stability_check,
    uniqueness_check,
)


def P(*parts):
    return Partition(parts)


def test_rank_rs_projective_of_one_box():
    n, mults = rank_rs_estimate(Projective(IrrDecomposition(1, {P(1): 1})), 6)
    assert n == 2
    assert mults == {Partition(): 1, P(1): 1}


def test_rank_rs_cycle_module_two():
    n, mults = rank_rs_estimate(CycleModule(P(2)), 7)
    assert n == 4
    assert mults == {Partition(): 1, P(1): 1, P(2): 1}


def test_rank_rs_vfamily():
    for lam in [P(1), P(2), P(2, 1), P(3, 1)]:
        n, mults = rank_rs_estimate(VFamily(lam), lam.size + 3)
        assert n == lam.size
        assert mults == {lam.socle(): 1}


def test_rank_rs_zero_family():
    assert rank_rs_estimate(DirectSum(()), 4) == (0, {})
    assert rank_pc_estimate(DirectSum(()), 4) == (0, CharPolynomial.zero())


def test_rank_pc_cycle_modules_are_their_polynomials():
    for ell in (1, 2, 3):
        n, poly = rank_pc_estimate(CycleModule(P(ell)), 2 * ell + 3)
        assert n == 0
        assert poly == cycle_poly(ell)


def test_rank_pc_cycle_module_products():
    for nu in [P(1, 1), P(2, 1)]:
        n, poly = rank_pc_estimate(CycleModule(nu), 2 * nu.size + 2)
        assert n == 0
        assert poly == cycle_poly_product(nu)


def test_rank_pc_vfamily_scan_golden():
    # frozen from the scan over m = 0..8
    n, poly = rank_pc_estimate(VFamily(P(1)), 8)
    assert (n, poly) == (1, CharPolynomial.one())
    n, poly = rank_pc_estimate(VFamily(P(1), "padded"), 8)
    assert (n, poly) == (1, X(1) - 1)


def test_rank_pc_not_polynomial_reports_none():
    # a family truncated inside the window has no single polynomial there
    spec = Truncate(CycleModule(P(1)), 5)
    assert rank_pc_estimate(spec, 6) == (5, X(1))
    # a family that only switches on at the very top of the window fails
    # already one degree down, so no polynomial can be certified
    jump = Truncate(VFamily(P(1)), 6)
    assert rank_pc_estimate(jump, 6) is None


def test_uniqueness_check_states():
    p = X(1) ** 2 - X(2)
    assert uniqueness_check(p, p, 0, 6) == "equal"
    # a degree-2 kernel relation separates the pair one degree up
    q = p + (X(1) + 2 * X(2) - 2)
    assert eval_rho_all(p - q, 2).is_zero()
    assert uniqueness_check(p, q, 2, 6) == "distinct"
    assert uniqueness_check(X(3), X(3) + X(1) ** 3, 0, 4) == "inconclusive"


def test_contradictions_raise(monkeypatch):
    # both checks guard conclusions the theory rules out; force them to fire
    import repstab.stability as stability

    # an empty step list for P: D sums to the family's negated multiplicities
    monkeypatch.setattr(stability, "module_steps", lambda socles, top: ())
    with pytest.raises(RuntimeError):
        rank_pc_estimate(CycleModule(P(1)), 4)
    zero = eval_rho_all(CharPolynomial.zero(), 6)
    monkeypatch.setattr(lemmas, "eval_rho_all", lambda poly, m: zero)
    with pytest.raises(RuntimeError):
        uniqueness_check(X(1), X(2), 0, 6)


def test_matrix_rank_exact():
    assert matrix_rank([[1, 2], [2, 4]]) == 1
    assert matrix_rank([[Fraction(1, 2), 0], [0, 3]]) == 2
    assert matrix_rank([]) == 0
    assert matrix_rank([[0, 0], [0, 0]]) == 0


def test_rho_image_kernel_examples():
    image, kernel = rho_image_kernel(4, 2)
    assert kernel == 0
    assert image == low_weight_class_function_count(4, 2)
    image, kernel = rho_image_kernel(3, 2)
    assert kernel == 1 and image == 3
    for m in range(1, 6):
        image, kernel = rho_image_kernel(m, 0)
        assert image == 1 and kernel == 0


def test_rho_image_kernel_law_small():
    for m in range(7):
        for d in range(m + 1):
            image, kernel = rho_image_kernel(m, d)
            assert image == low_weight_class_function_count(m, d), (m, d)
            assert (kernel == 0) == (2 * d <= m), (m, d)


def test_orthogonality_to_high_weight_characters():
    # evaluation of a weight-d polynomial never meets characters of weight > d
    rng = random.Random(5)
    for m in range(2, 9):
        for _ in range(6):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                parts = [rng.randint(1, 3) for _ in range(rng.randint(0, 2))]
                counts = {}
                for v in parts:
                    counts[v] = counts.get(v, 0) + rng.randint(1, 2)
                terms[tuple(sorted(counts.items()))] = rng.randint(-4, 4)
            poly = CharPolynomial(terms)
            if poly.is_zero():
                continue
            d = poly.weighted_degree()
            f = eval_rho_all(poly, m)
            for lam in partitions_of(m):
                if lam.weight() > d:
                    assert inner_product(irr_character(lam), f) == 0, (poly, lam)


def test_minimal_weight_check():
    m = 6
    triv = IrrDecomposition(m, {P(m): 1})
    assert minimal_weight_check(triv, CharPolynomial.one())
    perm = IrrDecomposition(m, {P(m): 1, P(m - 1, 1): 1})
    assert minimal_weight_check(perm, X(1))
    with pytest.raises(ValueError):
        minimal_weight_check(perm, X(2))
    # a strictly heavier representing polynomial is fine: the module weight
    # stays below the polynomial weight
    nu = P(2, 2)
    dec = terms_at(CycleModule(nu), 4)
    poly = cycle_poly_product(nu)
    assert poly.weighted_degree() == 4
    assert dec.module_weight() < 4
    assert minimal_weight_check(dec, poly)


def test_scalar_stability():
    assert scalar_stability_check(CharPolynomial.one(), range(0, 8))
    assert scalar_stability_check(X(1), range(0, 9))
    assert scalar_stability_check(X(1) ** 2, range(0, 9))
    # frozen values: one orbit of points, two orbits of ordered pairs
    vals = [
        inner_product(
            irr_character(P(m)), eval_rho_all(X(1) ** 2, m)
        )
        for m in (2, 3, 4, 5, 6)
    ]
    assert set(vals) == {2}


def test_verify_equivalence_cycle_modules_tight():
    for ell in (1, 2, 3):
        report = verify_equivalence(CycleModule(P(ell)), 2 * ell + 3)
        assert report.rank_pc == 0
        assert report.rank_rs == 2 * ell
        assert report.poly.weighted_degree() == ell
        assert report.all_bounds_hold()
        # the two-sided bound is met with equality
        assert report.rank_rs == 2 * report.poly.weighted_degree()


def test_verify_equivalence_projective_and_vfamily():
    report = verify_equivalence(Projective(IrrDecomposition(1, {P(1): 1})), 8)
    assert (report.rank_rs, report.rank_pc) == (2, 0)
    assert report.all_bounds_hold()
    for lam in [P(1), P(2), P(1, 1), P(2, 1)]:
        report = verify_equivalence(VFamily(lam), 8)
        assert report.rank_rs == lam.size
        assert report.rank_pc <= report.rank_rs
        assert report.all_bounds_hold(), (lam, report.bound_checks)


def test_verify_equivalence_zero_family():
    report = verify_equivalence(DirectSum(()), 5)
    assert report.rank_rs == 0 and report.rank_pc == 0
    assert report.poly.is_zero()
    assert report.all_bounds_hold()


@pytest.mark.parametrize(
    "estimator", [rank_rs_estimate, rank_pc_estimate, verify_equivalence]
)
def test_negative_m_max_rejected(estimator):
    with pytest.raises(ValueError, match="degree must be nonnegative"):
        estimator(CycleModule(P(1)), -1)


def _cold_scan(text, m_max):
    repstab.clear_caches()
    report = verify_equivalence(parse_spec(text), m_max)
    assert report.all_bounds_hold()
    return report


@pytest.mark.parametrize(
    "text, m_max",
    [('(proj 5 "3,2" "2,2,1" "3,1,1")', 28), ("(tensor (vfam 2,1) (vfam 1))", 17)],
)
def test_cold_scan_builds_no_irr_decomposition(monkeypatch, text, m_max):
    # a scan works on socle multiplicities throughout; a decomposition is
    # built only at the API edge (terms_at), which a scan never reaches
    spec = parse_spec(text)  # a proj base is itself a decomposition
    repstab.clear_caches()
    built = []
    init = IrrDecomposition.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(IrrDecomposition, "__init__", counting_init)
    report = verify_equivalence(spec, m_max)
    assert report.all_bounds_hold()
    assert built == []


def test_cold_pieri_scan_computes_no_class_size(monkeypatch):
    # class sizes are computed on first read, and only decompose and
    # inner_product read them; a Pieri scan calls neither
    from repstab import partitions

    sized = []
    size = partitions.class_size

    def counting_size(cycles):
        sized.append(cycles)
        return size(cycles)

    monkeypatch.setattr(partitions, "class_size", counting_size)
    _cold_scan('(proj 3 "2,1")', 12)
    assert sized == []


def test_cold_pieri_scan_builds_its_step_list_once():
    # the horizontal strips of the base are listed once, into the family's
    # one step list, and the whole scan reads that list; rank_pc's module
    # polynomial holds the g_mu of the socles at m_max, the same pairs as
    # the base, and finds their list built
    _cold_scan('(proj 5 "3,2" "2,2,1" "3,1,1")', 28)
    info = pieri.horizontal_strip_steps.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_cold_pieri_scan_sums_each_module_polynomial_once():
    # the module polynomial is constant between the starts of the family's
    # step list: the scan reads it at m_max for rank_pc, then once at each
    # degree the bound checks visit, lo = max(2 * weight, rank_pc) and every
    # later start; the bounds keep every start at or below lo
    from repstab import frobenius, pieri

    text = '(proj 5 "3,2" "2,2,1" "3,1,1")'
    report = _cold_scan(text, 28)
    info = frobenius._poly_of_socles.cache_info()
    lo = max(2 * report.poly.weighted_degree(), report.rank_pc)
    starts = [b for _, b, _ in family_steps(parse_spec(text), 28)]
    assert starts and max(starts) <= report.rank_rs <= lo < 28
    assert (info.misses, info.hits) == (1, 1)


def test_cold_cycle_scan_builds_its_polynomial_steps_once():
    # the family's list comes from the cycle polynomial's f_mu, rank_pc's
    # from the g_mu of the socles at m_max: one coefficient set, one build
    _cold_scan("(cycle 3 2)", 20)
    info = pieri.horizontal_strip_steps.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_cold_cycle_scan_reads_no_class_above_the_weight(monkeypatch):
    # (cycle 3 2) has weight 5: its terms and its rank_pc come from the
    # f_mu with |mu| <= 5, whatever degree the scan reaches
    from repstab import partitions

    asked = []
    build = partitions.Classes

    def counting_build(m):
        asked.append(m)
        return build(m)

    monkeypatch.setattr(partitions, "Classes", counting_build)
    _cold_scan("(cycle 3 2)", 24)
    assert asked and max(asked) <= 5, sorted(set(asked))


def test_report_json_shape():
    report = verify_equivalence(CycleModule(P(2)), 6)
    data = report.to_json_dict()
    assert data["schema"] == 1
    assert data["spec"] == "(cycle 2)"
    assert data["certified_to"] == 6
    assert {e["name"] for e in data["bound_checks"]} >= {"rank_pc_le_rank_rs"}


def test_reconstruction_matches_original():
    specs = [
        CycleModule(P(2)),
        CycleModule(P(1, 1)),
        Projective(IrrDecomposition(1, {P(1): 1})),
        Projective(IrrDecomposition(2, {P(2): 1})),
        VFamily(P(2, 1)),
    ]
    m_max = 9
    for spec in specs:
        rebuilt = reconstruct_stable_family(spec, m_max)
        assert rebuilt is not None, spec
        n, poly = rank_pc_estimate(spec, m_max)
        d = 0 if poly.is_zero() else poly.weighted_degree()
        for m in range(max(2 * d, n), m_max + 1):
            assert terms_at(rebuilt, m) == terms_at(spec, m), (spec, m)


def test_tensor_weight_check_examples():
    assert tensor_weight_bound_holds(tensor_weight(P(1), P(1), 5), 2, 5)
    assert tensor_weight_bound_holds(tensor_weight(P(1), Partition(), 6), 1, 6)
    # below the doubling threshold only the inequality is asserted
    assert tensor_weight_bound_holds(tensor_weight(P(1), P(1), 3), 2, 3)
    with pytest.raises(ValueError):
        tensor_weight(P(2, 1), P(1), 4)


def test_tensor_weight_matches_the_class_route():
    # every pair of labels with |lam| <= 4 and |mu| <= 3 at every m <= 14:
    # the weight read off the step list is the one of the product of the
    # two characters, decomposed, or both raise the same ValueError
    def labels(top):
        return [lam for k in range(top + 1) for lam in partitions_of(k)]

    cases = list(product(labels(4), labels(3), range(15)))
    assert len(cases) == 1260
    for lam, mu, m in cases:
        try:
            expected = tensor_weight_by_classes(lam, mu, m)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                tensor_weight(lam, mu, m)
            assert str(raised.value) == str(exc), (lam, mu, m)
        else:
            assert tensor_weight(lam, mu, m) == expected, (lam, mu, m)


def test_tensor_weight_reads_no_class_above_the_label_sizes(monkeypatch):
    # 3,2 and 2,1 padded to 22: the product of their families' polynomials,
    # of weights 5 and 3, has its f_mu at |mu| <= 8, whatever m is
    from repstab import partitions

    asked = []
    build = partitions.Classes

    def counting_build(m):
        asked.append(m)
        return build(m)

    monkeypatch.setattr(partitions, "Classes", counting_build)
    repstab.clear_caches()
    assert tensor_weight(P(3, 2), P(2, 1), 22) == 8
    assert asked and max(asked) <= 8, sorted(set(asked))


def test_tensor_square_weight_frozen():
    # the tensor square of the standard module at degree 5 has weight 2,
    # and contains the expected factors
    from repstab.characters import decompose

    prod = irr_character(P(4, 1)) * irr_character(P(4, 1))
    dec = decompose(prod)
    assert dec.module_weight() == 2
    assert dec.multiplicity(P(3, 2)) == 1
    assert dec.multiplicity(P(3, 1, 1)) == 1


def test_tensor_weight_additivity_small():
    pairs = [
        (P(1), P(1)),
        (P(1), P(2)),
        (P(2), P(1, 1)),
        (P(1, 1), P(1)),
    ]
    for lam, mu in pairs:
        total = lam.size + mu.size
        start = max(lam.size + lam[0], mu.size + mu[0])
        for m in range(start, 10):
            w = tensor_weight(lam, mu, m)
            assert tensor_weight_bound_holds(w, total, m), (lam, mu, m)


def test_fb_level_tensor_weight_additivity():
    # product families built from polynomially-stable factors: weights add
    # once the degree doubles the weight sum
    cases = [
        (Tensor(CycleModule(P(1)), CycleModule(P(1))), 2),
        (Tensor(CycleModule(P(2)), CycleModule(P(1))), 3),
        (Tensor(CycleModule(P(2)), CycleModule(P(2))), 4),
    ]
    for spec, total in cases:
        for m in range(2 * total, 11):
            assert terms_at(spec, m).module_weight() == total, (spec, m)


# -- random families over the whole spec grammar -------------------------------

_small_partitions = st.lists(st.integers(1, 3), max_size=3).map(
    lambda parts: Partition(sorted(parts, reverse=True))
)
_leaf_families = st.one_of(
    st.integers(0, 4).flatmap(
        lambda n: st.lists(st.sampled_from(partitions_of(n)), max_size=3).map(
            lambda lams: Projective(IrrDecomposition(n, Counter(lams)))
        )
    ),
    st.builds(VFamily, _small_partitions, st.sampled_from(["socle", "padded"])),
    _small_partitions.filter(bool).map(CycleModule),
)
families = st.recursive(
    _leaf_families,
    lambda kids: st.one_of(
        st.builds(Tensor, kids, kids),
        st.lists(kids, max_size=3).map(lambda children: DirectSum(tuple(children))),
        st.builds(Truncate, kids, st.integers(0, 9)),
        st.builds(WeightTruncateLE, kids, st.integers(0, 4)),
        st.builds(WeightTruncateGT, kids, st.integers(0, 4)),
    ),
    max_leaves=4,
)


@settings(max_examples=150, deadline=None)
@given(families)
def test_random_family_round_trips_and_certifies(spec):
    # the text form reads back, the two routes to a character agree, and
    # every bound relating the two ranks holds once both ranks are found
    assert parse_spec(format_spec(spec)) == spec
    assert hash(parse_spec(format_spec(spec))) == hash(spec)
    for m in range(11):
        # the second route: the character on the classes of degree m
        chi = character_by_classes(spec, m)
        terms = terms_at(spec, m)
        assert terms.character() == chi, m
        assert terms == decompose(chi), m
        assert socles_at(spec, m) == terms.socle_multiplicities(), m
    report = verify_equivalence(spec, 10)
    if report.rank_rs is not None and report.rank_pc is not None:
        assert report.bound_checks and report.all_bounds_hold(), report.bound_checks
        # the exact identity, with the steps of P restricted to the window
        n_p = last_net_step(report.poly, 10)
        assert report.rank_rs == max(report.rank_pc, n_p), (report.rank_pc, n_p)
    if report.rank_pc is not None:
        # the class route: the polynomial on every class, from rank_pc on
        n = report.rank_pc
        for m in range(n, 11):
            assert eval_rho_all(report.poly, m) == character_by_classes(spec, m), m
        if n > 0:
            assert eval_rho_all(report.poly, n - 1) != character_by_classes(spec, n - 1)


# -- the exact identity rank_rs = max(rank_pc, N_P) ----------------------------


def last_net_step(poly, upto=None):
    """N_P: the largest start <= upto (default: any) at which the
    multiplicity of some socle s[m] in poly at m changes, 0 if there is none.

    Read off the step list of poly: the net step of (s, start) is the sum
    of the entries for s that start there, and from N_P on the socle
    multiplicities of poly are constant.
    """
    top = poly.weighted_degree()
    steps, _ = frobenius.socle_steps(bruteforce.binomial_coefficients(poly, top), top)
    net = {}
    for s, start, f in steps:
        if upto is None or start <= upto:
            net[s, start] = net.get((s, start), 0) + f
    return max((start for (_, start), f in net.items() if f), default=0)


# the specs of the CI rank scans
CI_SPECS = (
    '(proj 5 "3,2" "2,2,1" "3,1,1")',
    '(sum (proj 4 "2,2") (wtrunc<= 2 (proj 4 "3,1")) (vfam 3,2,1))',
    "(cycle 3 2)",
    "(cycle 2 1)",
    "(tensor (vfam 2,1) (vfam 1))",
    '(proj 4 "2,2" "2,2" "3,1")',
    '(tensor (proj 3 "2,1") (vfam 1))',
    '(wtrunc> 1 (proj 4 "3,1"))',
    "(trunc>= 9 (vfam 2,1 padded))",
    '(tensor (cycle 2) (wtrunc<= 1 (proj 3 "2,1")))',
)


@pytest.mark.parametrize("text", CI_SPECS)
def test_rank_rs_is_max_of_rank_pc_and_the_last_step(text):
    # (PC) => (RS) exactly: from rank_pc on the family's socle multiplicities
    # are those of P, and those stop changing at N_P
    report = verify_equivalence(parse_spec(text), 30)
    n_p = last_net_step(report.poly)
    assert n_p <= 2 * report.poly.weighted_degree() <= 30
    assert report.rank_rs == max(report.rank_pc, n_p), (report.rank_pc, n_p)


# -- the step list against the per-degree route --------------------------------


def weight_bound(spec):
    """A bound on |s| over the socles s of the family at every degree."""
    match spec:
        case Projective(base=w):
            return w.m
        case VFamily(lam=lam) | CycleModule(nu=lam):
            return lam.size
        case Tensor(left=left, right=right):
            return weight_bound(left) + weight_bound(right)
        case DirectSum(children=children):
            return max(map(weight_bound, children), default=0)
        case WeightTruncateLE(child=child, p=p):
            return min(p, weight_bound(child))
        case Truncate(child=child) | WeightTruncateGT(child=child):
            return weight_bound(child)


def assert_the_walk_agrees(spec, windows):
    """Every degree of every window, and both ranks, read off one step list
    per window, against each degree evaluated on its own."""
    for window in windows:
        steps = family_steps(spec, window)
        for m in range(window + 1):
            assert sum_steps(steps, m) == socles_by_degree(spec, m), (window, m)
        assert rank_rs_estimate(spec, window) == rank_rs_by_walk(spec, window)
        assert rank_pc_estimate(spec, window) == rank_pc_by_walk(spec, window)


@settings(max_examples=150, deadline=None)
@given(families)
@example(Tensor(DirectSum(()), Truncate(CycleModule(P(3)), 0)))
def test_step_list_against_the_per_degree_route(spec):
    # window 30 only up to weight 10: the module polynomial at m_max of a
    # family of weight 18 sums thousands of socles' polynomials, on either route
    windows = (0, 1, 5, 10, 30) if weight_bound(spec) <= 10 else (0, 1, 5, 10)
    assert_the_walk_agrees(spec, windows)


def test_the_tensor_oracle_runs_from_cold_caches():
    # the oracle reads a factor's socles off its polynomial as Fractions;
    # the integer polynomial route takes them as ints, with no entry the
    # library left in a cache to fall back on
    repstab.clear_caches()
    socles_by_degree.cache_clear()
    spec = Tensor(VFamily(P(1)), Truncate(CycleModule(P(2)), 0))
    assert socles_by_degree(spec, 4) == {P(): 1, P(1): 1, P(2): 1}
    assert socles_by_degree(spec, 4) == sum_steps(family_steps(spec, 4), 4)


def test_the_tensor_oracle_rejects_fractional_multiplicities(monkeypatch):
    monkeypatch.setattr(bruteforce, "socles_by_degree", lambda spec, m: {P(1): Fraction(1, 2)})
    with pytest.raises(ValueError, match="non-integral"):
        bruteforce._factor_poly(VFamily(P(1)), 4)


@pytest.mark.parametrize("text", CI_SPECS)
def test_ci_specs_against_the_per_degree_route(text):
    assert_the_walk_agrees(parse_spec(text), (0, 1, 5, 10, 30))


# -- the stable range read off the tree ------------------------------------------


@pytest.mark.parametrize(
    "text, expected",
    [
        ('(proj 5 "3,2" "2,2,1" "3,1,1")', (8, 5)),
        ("(proj 0 \"-\")", (0, 0)),
        ("(vfam 2,1)", (3, 1)),
        ("(vfam 2,1 padded)", (5, 3)),
        ("(vfam -)", (0, 0)),
        ("(cycle 3 2)", (10, 5)),
        ("(tensor (vfam 2,1) (vfam 1))", (3, 1)),
        # a cycle factor's own bound does not count, only twice the weight
        ("(tensor (cycle 2) (trunc>= 9 (vfam 1)))", (9, 2)),
        ("(tensor (trunc>= 9 (cycle 1)) (vfam 1 padded))", (9, 2)),
        ("(sum)", (0, 0)),
        ("(sum (vfam 2,1 padded) (cycle 2))", (5, 3)),
        ("(trunc>= 9 (vfam 1))", (9, 0)),
        ("(trunc>= 2 (vfam 2,1))", (3, 1)),
        ('(wtrunc<= 2 (proj 4 "3,1"))', (7, 2)),
        ('(wtrunc> 2 (proj 4 "3,1"))', (7, 4)),
    ],
)
def test_stable_range_examples(text, expected):
    assert stable_range(parse_spec(text)) == expected


@settings(max_examples=150, deadline=None)
@given(families)
def test_stable_range_bounds_the_step_list(spec):
    # no start past T and no socle past w; the per-degree route, which
    # never reads T, finds the list's sums at T on the next degrees too
    t, w = stable_range(spec)
    assert w <= weight_bound(spec)
    steps = family_steps(spec, t)
    assert all(b <= t and s.size <= w for s, b, _ in steps), steps
    assert family_steps(spec, t + 7) == steps
    if weight_bound(spec) <= 10:
        stable = sum_steps(steps, t)
        for m in range(t, t + 4):
            assert socles_by_degree(spec, m) == stable, m


@settings(max_examples=100, deadline=None)
@given(families)
def test_scans_past_the_stable_window_match_the_walk(spec):
    # a scan to m_max >= W runs at W; the walk reads every degree up to m_max
    window = stable_window(spec)
    if stable_range(spec)[1] > 8:
        return
    for m_max in (window, window + 3):
        report = verify_equivalence(spec, m_max)
        assert report.m_max == report.certified_to == m_max
        rank_rs, stable = rank_rs_by_walk(spec, m_max)
        rank_pc, poly = rank_pc_by_walk(spec, m_max)
        assert (report.rank_rs, report.stable_multiplicities) == (rank_rs, stable)
        assert (report.rank_pc, report.poly) == (rank_pc, poly)
        # the bound checks read P at max(2 * weight, rank_pc) inside the window
        two_d = 0 if poly.is_zero() else 2 * poly.weighted_degree()
        assert max(two_d, rank_pc) < window
        assert len(report.bound_checks) == 4 and report.all_bounds_hold()


def test_a_scan_past_the_window_is_a_fresh_report_of_one_cached_scan():
    repstab.clear_caches()
    spec = parse_spec("(cycle 3 2)")
    assert stable_window(spec) == 11
    first = verify_equivalence(spec, 14)
    first.stable_multiplicities.clear()
    first.bound_checks.clear()
    second = verify_equivalence(spec, 16)
    assert second.m_max == second.certified_to == 16
    assert second.stable_multiplicities and len(second.bound_checks) == 4
    assert second.to_json_dict() == {
        **verify_equivalence(spec, 11).to_json_dict(),
        "m_max": 16,
        "certified_to": 16,
    }
    # all three scanned at the window, 11: the step list was built there
    # and at T = 10 of the stable range, which serves it, and nowhere else
    assert family_steps.cache_info().currsize == 2
