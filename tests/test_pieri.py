from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from repstab.characters import IrrDecomposition, decompose, irr_character
from repstab.fbmodules import Projective, parse_spec
from repstab.partitions import Partition, partitions_of
from repstab.pieri import pieri_expand, projective_terms
from repstab.stability import rank_rs_estimate

from bruteforce import induce_bruteforce, pieri_expand_recursive


def P(*parts):
    return Partition(parts)


def test_expand_frozen_examples():
    assert pieri_expand(P(3, 2, 2), 8) == {P(4, 2, 2), P(3, 3, 2), P(3, 2, 2, 1)}
    assert pieri_expand(P(2, 1), 3) == {P(2, 1)}
    assert pieri_expand(P(1), 3) == {P(3), P(2, 1)}  # (1,1,1) shares a column
    with pytest.raises(ValueError):
        pieri_expand(P(2, 2), 3)


def test_expand_worked_example_all_degrees():
    nu = P(3, 2, 2)
    assert pieri_expand(nu, 9) == {
        P(5, 2, 2),
        P(4, 3, 2),
        P(4, 2, 2, 1),
        P(3, 3, 2, 1),
        P(3, 2, 2, 2),
    }
    assert pieri_expand(nu, 10) == {
        P(6, 2, 2),
        P(5, 3, 2),
        P(5, 2, 2, 1),
        P(4, 3, 2, 1),
        P(4, 2, 2, 2),
        P(3, 3, 2, 2),
    }
    # past m0 = 10, the summand count stays at six and the socles are frozen
    assert len(pieri_expand(nu, 11)) == 6
    assert {mu.socle() for mu in pieri_expand(nu, 11)} == {
        mu.socle() for mu in pieri_expand(nu, 10)
    }


def test_expand_matches_bruteforce_induction():
    # oracle: induce by direct enumeration, then decompose
    for n in range(1, 5):
        for nu in partitions_of(n):
            for m in range(n, 7):
                induced = decompose(induce_bruteforce(irr_character(nu), m))
                expected = IrrDecomposition(m, {mu: 1 for mu in pieri_expand(nu, m)})
                assert induced == expected, (nu, m)


def test_expand_is_multiplicity_free_and_contains_shape():
    for n in range(6):
        for nu in partitions_of(n):
            for m in range(n, n + 4):
                mus = pieri_expand(nu, m)
                assert all(mu.size == m for mu in mus)
                # horizontal strip: every row bounded by the row above in nu
                for mu in mus:
                    for i in range(1, len(mu)):
                        assert mu[i] <= (nu[i - 1] if i - 1 < len(nu) else 0) or i >= len(nu) and mu[i] <= nu[-1]


def test_weight_bounds_and_equality_cases():
    for n in range(1, 6):
        for nu in partitions_of(n):
            for m in range(n, n + nu[0] + 3):
                for mu in pieri_expand(nu, m):
                    w = mu.weight()
                    assert nu.weight() <= w <= nu.size
                    assert (w == nu.weight()) == (mu == nu.socle().pad(m))
                    assert (w == nu.size) == (
                        m >= nu.size + nu[0] and mu == nu.pad(m)
                    )


def stable_socles(nu):
    """The socles of the expansion of nu at |nu| + nu_1."""
    return {mu.socle() for mu in pieri_expand(nu, nu.size + nu[0])}


def test_stable_socle_set_examples():
    assert stable_socles(P(1)) == {Partition(), P(1)}
    assert P(3) in stable_socles(P(3))
    assert Partition() in stable_socles(P(3))
    # the s with 2 >= s_1 >= 1 >= s_2
    assert stable_socles(P(2, 1)) == {P(1), P(2), P(1, 1), P(2, 1)}


def test_socle_sets_stabilize_at_m0():
    for n in range(1, 6):
        for nu in partitions_of(n):
            m0 = nu.size + nu[0]
            stable = stable_socles(nu)
            for m in range(m0, m0 + 4):
                assert {mu.socle() for mu in pieri_expand(nu, m)} == stable
            # the padding of nu itself enters exactly at m0, with equal first rows
            at_m0 = pieri_expand(nu, m0)
            assert nu.pad(m0) in at_m0
            assert nu.pad(m0)[0] == nu.pad(m0)[1]
            for m in range(m0 + 1, m0 + 4):
                for mu in pieri_expand(nu, m):
                    assert mu[0] > (mu[1] if len(mu) > 1 else 0)


def test_projective_terms():
    w = IrrDecomposition(1, {P(1): 1})
    assert projective_terms(w, 0).is_zero()
    assert projective_terms(w, 1) == w
    assert projective_terms(w, 2) == IrrDecomposition(2, {P(2): 1, P(1, 1): 1})
    # additivity over the factors of w, multiplicities carried through
    w2 = IrrDecomposition(2, {P(2): 2, P(1, 1): 1})
    got = projective_terms(w2, 3)
    assert got.multiplicity(P(3)) == 2
    assert got.multiplicity(P(2, 1)) == 3  # 2 from (2), 1 from (1,1)
    assert got.multiplicity(P(1, 1, 1)) == 1


def test_projective_terms_match_bruteforce_on_modules():
    w = IrrDecomposition(2, {P(2): 1, P(1, 1): 2})
    chi = w.character()
    for m in range(2, 6):
        assert projective_terms(w, m) == decompose(induce_bruteforce(chi, m))


bases = st.integers(0, 6).flatmap(
    lambda n: st.lists(st.sampled_from(partitions_of(n)), max_size=4).map(
        lambda lams: IrrDecomposition(n, Counter(lams))
    )
)


@settings(max_examples=80, deadline=None)
@example(parse_spec('(proj 4 "2,2" "2,2" "3,1")').base)
@given(bases)
def test_step_list_matches_the_recursion(w):
    # every degree read off the base's one step list, against the strips
    # rebuilt row by row at that degree, factor by factor
    for m in range(w.m, w.m + 11):
        expected = Counter()
        for nu, n in w.items():
            strips = pieri_expand_recursive(nu, m)
            assert pieri_expand(nu, m) == strips, (nu, m)
            for mu in strips:
                expected[mu] += n
        assert projective_terms(w, m) == IrrDecomposition(m, expected), m


@pytest.mark.parametrize(
    "spec",
    ['(proj 5 "3,2" "2,2,1" "3,1,1")', '(proj 3 "2,1")', '(proj 4 "2,2" "3,1" "3,1")'],
)
def test_projective_terms_agree_with_table_route(spec):
    # second route past the degree cap of induce_bruteforce: the Pieri
    # decomposition, turned into a character and decomposed back against
    # the character table
    w = parse_spec(spec).base
    for m in range(19):
        terms = projective_terms(w, m)
        assert decompose(terms.character()) == terms, (spec, m)


def test_rank_rs_projective():
    # the family induced from the irreducible lam stabilizes at |lam| + lam_1
    cases = [(P(1), 2), (P(3, 2, 2), 10)] + [(P(k), 2 * k) for k in range(1, 6)]
    for lam, rank in cases:
        spec = Projective(IrrDecomposition(lam.size, {lam: 1}))
        assert rank_rs_estimate(spec, 12)[0] == rank, lam
