from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repstab.characters import IrrDecomposition, decompose, irr_character
from repstab.cyclepoly import X, cycle_poly, parse_poly
from repstab.errors import ParseError
from repstab.fbmodules import (
    CycleModule,
    DirectSum,
    Projective,
    Tensor,
    Truncate,
    VFamily,
    WeightTruncateGT,
    WeightTruncateLE,
    _cycle_form,
    _integer_steps,
    character_at,
    family_steps,
    format_spec,
    parse_spec,
    terms_at,
)
from repstab.frobenius import binomial_form_of_socles, binomial_product
from repstab.partitions import Partition, classes, cycle_types_of, partitions_of

from bruteforce import (
    binomial_coefficients,
    character_by_classes,
    commuting_cycle_count,
    cycle_poly_by_falling_factorials,
    eval_rho,
    hook_length_dimension,
    integer_steps_by_jumps,
    representative,
)
from lemmas import express_X_in_E, substitute


def P(*parts):
    return Partition(parts)


TOTIENTS = {1: 1, 2: 1, 3: 2, 4: 2, 5: 4, 6: 2, 7: 6, 8: 4}


def test_cycle_poly_small_cases():
    assert cycle_poly(1) == X(1)
    assert cycle_poly(2) == X(2) + X(1) * (X(1) - 1) / 2
    assert cycle_poly(3) == 2 * X(3) + X(1) * (X(1) - 1) * (X(1) - 2) / 3
    for ell in range(1, 9):
        assert cycle_poly(ell).weighted_degree() == ell
        # the leading pure X_ell coefficient is the totient
        assert cycle_poly(ell).terms[((ell, 1),)] == TOTIENTS[ell]


def test_cycle_poly_against_the_falling_factorials():
    # built in integers off the Stirling numbers; the oracle multiplies the
    # falling factorials out in the ring, in Fractions
    for ell in range(1, 61):
        assert cycle_poly(ell) == cycle_poly_by_falling_factorials(ell), ell


def test_cycle_poly_identity_class_dimension():
    for m in range(11):
        for ell in range(1, 11):
            expected = Fraction(1)
            for k in range(ell):
                expected *= m - k
            expected /= ell
            assert eval_rho(cycle_poly(ell), (1,) * m) == expected


def test_cycle_poly_counts_commuting_cycles():
    # oracle: enumerate ell-cycles commuting with a representative of each class
    for m in range(1, 7):
        for t in cycle_types_of(m):
            g = representative(t, m)
            for ell in range(1, m + 1):
                assert eval_rho(cycle_poly(ell), t) == commuting_cycle_count(g, ell), (
                    m,
                    t,
                    ell,
                )


def test_cycle_module_char_examples():
    for m in range(1, 6):
        perm = character_at(CycleModule(P(1)), m)
        for t in cycle_types_of(m):
            assert perm.values[t] == t.count(1)
    vals = character_at(CycleModule(P(2)), 3)
    assert vals.values[(1, 1, 1)] == 3
    assert vals.values[(2, 1)] == 1
    assert vals.values[(3,)] == 0
    sq = character_at(CycleModule(P(1, 1)), 3)
    assert vals.m == sq.m == 3
    assert sq.values[(1, 1, 1)] == 9
    assert sq.values[(2, 1)] == 1
    assert sq.values[(3,)] == 0


def test_express_X_in_E_roundtrip():
    qs = express_X_in_E(6)
    assert qs[0] == X(1)
    assert qs[1] == X(2) - X(1) * (X(1) - 1) / 2
    subs = {i: cycle_poly(i) for i in range(1, 7)}
    for ell, q in enumerate(qs, start=1):
        assert q.weighted_degree() == ell
        assert substitute(q, subs) == X(ell), ell


def test_terms_at_vfamily_conventions():
    v = VFamily(P(2, 1))
    assert terms_at(v, 2).is_zero()
    assert terms_at(v, 5) == IrrDecomposition(5, {P(4, 1): 1})
    padded = VFamily(P(2, 1), "padded")
    assert terms_at(padded, 4).is_zero()
    assert terms_at(padded, 6) == IrrDecomposition(6, {P(3, 2, 1): 1})
    with pytest.raises(ValueError):
        VFamily(P(1), "bogus")


def test_character_at_vfamily_conventions():
    # paper-literal convention: the (1)-family is the trivial family
    assert character_at(VFamily(P(1)), 3) == irr_character(P(3))
    # re-padded convention: the (1)-family is the standard-representation family
    f = character_at(VFamily(P(1), "padded"), 3)
    assert f.values[(1, 1, 1)] == 2
    assert f.values[(2, 1)] == 0
    assert f.values[(3,)] == -1


def test_terms_at_cycle_module():
    d = terms_at(CycleModule(P(2)), 4)
    assert d == IrrDecomposition(4, {P(4): 1, P(3, 1): 1, P(2, 2): 1})
    dimension = sum(n * hook_length_dimension(lam.parts) for lam, n in d.items())
    assert dimension == character_at(CycleModule(P(2)), 4).values[(1, 1, 1, 1)] == 6


@pytest.mark.parametrize(
    "poly, m, message",
    [
        ("1/3*X2", 4, "non-integral multiplicity 1/6 for 4"),
        ("X1 - 2", 1, "negative multiplicity -1 for 1"),
    ],
)
def test_module_socles_reject_a_non_character(poly, m, message):
    # the socles of a cycle module or a tensor product are read in integers
    # off a polynomial's step list; a polynomial that takes no character at
    # m has a non-integral or a negative multiplicity there
    with pytest.raises(ValueError) as info:
        list(_integer_steps([(binomial_coefficients(parse_poly(poly)), m, m)]))
    assert str(info.value) == message


def test_module_socles_report_the_first_failing_degree():
    # read over 0..4, each polynomial fails first below 4: 1/3*X2 at 2, its
    # first degree with a 2-cycle, and X1 - 2 at 0
    for poly, message in [
        ("1/3*X2", "non-integral multiplicity 1/6 for 2"),
        ("X1 - 2", "negative multiplicity -2 for -"),
    ]:
        with pytest.raises(ValueError) as info:
            list(_integer_steps([(binomial_coefficients(parse_poly(poly)), 0, 4)]))
        assert str(info.value) == message


_socles = st.dictionaries(
    st.integers(0, 4).flatmap(lambda k: st.sampled_from(partitions_of(k))),
    st.integers(-2, 3),
    max_size=3,
)


@st.composite
def integer_step_pieces(draw):
    """Pieces (form, lo, hi) over consecutive ranges that cover [0, top],
    each the form of a cycle module, of a product of two module
    polynomials (a tensor piece; a negative multiplicity makes it no
    character) or of any polynomial, cut at hi."""
    top = draw(st.integers(0, 9))
    breaks = sorted({0}.union(draw(st.sets(st.integers(0, top), max_size=3))))
    pieces = []
    for lo, end in zip(breaks, breaks[1:] + [top + 1]):
        hi = end - 1
        kind = draw(st.sampled_from(["cycle", "tensor", "any"]))
        if kind == "cycle":
            nu = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
            form = _cycle_form(sorted(nu, reverse=True), hi)
        elif kind == "tensor":
            left, right = draw(_socles), draw(_socles)
            form = binomial_product(
                binomial_form_of_socles(left), binomial_form_of_socles(right), hi
            )
        else:
            rho = st.integers(0, 6).flatmap(lambda k: st.sampled_from(classes(k).cycles))
            num = draw(st.dictionaries(rho, st.integers(-3, 3).filter(bool), max_size=4))
            form = num, draw(st.integers(1, 3))
        pieces.append((form, lo, hi))
    return pieces


def _netted(entries):
    """{(s, start): delta} of the entries netted, zeros dropped, or the
    message of the ValueError they stop at."""
    net = {}
    try:
        for s, start, delta in entries:
            net[s, start] = net.get((s, start), 0) + delta
    except ValueError as exc:
        return str(exc)
    return {key: d for key, d in net.items() if d}


@settings(max_examples=150, deadline=None)
@given(integer_step_pieces())
def test_integer_steps_net_to_the_entries_of_every_jump(pieces):
    # only the multiplicities that change are emitted, and only they are
    # checked: the same net entries, or the same first failing socle and
    # degree (the message names s[m])
    assert _netted(_integer_steps(pieces)) == _netted(integer_steps_by_jumps(pieces))


def test_terms_at_projective_and_sum():
    spec = Projective(IrrDecomposition(1, {P(1): 1}))
    assert terms_at(spec, 0).is_zero()
    assert terms_at(spec, 2) == IrrDecomposition(2, {P(2): 1, P(1, 1): 1})
    twice = DirectSum((spec, spec))
    assert terms_at(twice, 2) == terms_at(spec, 2) + terms_at(spec, 2)
    assert character_at(twice, 3) == character_at(spec, 3).scale(2)


def test_terms_at_tensor():
    spec = Tensor(VFamily(P(1), "padded"), VFamily(P(1), "padded"))
    d = terms_at(spec, 5)
    assert d == IrrDecomposition(
        5, {P(5): 1, P(4, 1): 1, P(3, 2): 1, P(3, 1, 1): 1}
    )
    assert d.module_weight() == 2


def test_truncations():
    spec = CycleModule(P(2))
    assert terms_at(Truncate(spec, 5), 4).is_zero()
    assert terms_at(Truncate(spec, 5), 6) == terms_at(spec, 6)
    gt = terms_at(WeightTruncateGT(spec, 0), 4)
    le = terms_at(WeightTruncateLE(spec, 0), 4)
    assert gt + le == terms_at(spec, 4)
    assert le.module_weight() == 0
    assert all(lam.weight() > 0 for lam, _ in gt.items())


def test_weight_truncate():
    # a decomposition d of degree n is the induced family of d at degree n
    d = IrrDecomposition(8, {P(4, 2, 2): 1, P(3, 3, 2): 1})
    assert d.module_weight() == 5
    assert terms_at(Projective(d), 8) == d
    assert terms_at(WeightTruncateLE(Projective(d), 4), 8) == IrrDecomposition(
        8, {P(4, 2, 2): 1}
    )
    assert terms_at(WeightTruncateGT(Projective(d), 4), 8) == IrrDecomposition(
        8, {P(3, 3, 2): 1}
    )
    assert terms_at(WeightTruncateGT(Projective(d), 99), 8).is_zero()
    assert terms_at(WeightTruncateLE(Projective(d), 99), 8) == d
    assert IrrDecomposition(5).module_weight() == 0


def test_weight_truncate_recovers_vfamily():
    # the single lowest-weight factor of the induced family is the V-family term
    lam = P(2, 1)
    w = IrrDecomposition(3, {lam: 1})
    le = terms_at(WeightTruncateLE(Projective(w), lam.weight()), 5)
    assert le == IrrDecomposition(5, {P(4, 1): 1})
    assert le == terms_at(VFamily(lam), 5)


def test_cycle_module_weight_bound():
    for nu in [P(1), P(2), P(1, 1), P(2, 1), P(3)]:
        for m in range(1, 7):
            w = terms_at(CycleModule(nu), m).module_weight()
            assert w <= min(m, nu.size)


def test_vfamily_weight():
    lam = P(2, 2)
    for m in range(lam.size, 9):
        assert terms_at(VFamily(lam), m).module_weight() == lam.weight()
    for m in range(lam.size):
        assert terms_at(VFamily(lam), m).module_weight() == 0


def test_consistency_terms_vs_character():
    specs = [
        Projective(IrrDecomposition(2, {P(2): 1, P(1, 1): 1})),
        VFamily(P(2)),
        VFamily(P(1, 1), "padded"),
        CycleModule(P(2, 1)),
        Tensor(CycleModule(P(1)), VFamily(P(1))),
        DirectSum((CycleModule(P(2)), VFamily(P(1)))),
        Truncate(CycleModule(P(1)), 3),
        WeightTruncateLE(CycleModule(P(2)), 1),
        WeightTruncateGT(CycleModule(P(2)), 0),
    ]
    for spec in specs:
        for m in range(7):
            assert decompose(character_by_classes(spec, m)) == terms_at(spec, m), (spec, m)


def test_budget_errors():
    # the cap on the degree is the command line's: the library takes a
    # degree past its default of 14
    assert terms_at(CycleModule(P(1)), 15).m == 15


def test_spec_language_examples():
    assert parse_spec("(vfam 2,1)") == VFamily(P(2, 1))
    assert parse_spec("(vfam 2,1 padded)") == VFamily(P(2, 1), "padded")
    assert parse_spec("(tensor (vfam 1) (vfam 1))") == Tensor(VFamily(P(1)), VFamily(P(1)))
    assert parse_spec("(cycle 2 1)") == CycleModule(P(2, 1))
    assert parse_spec('(proj 3 "2,1")') == Projective(IrrDecomposition(3, {P(2, 1): 1}))
    assert parse_spec("(trunc>= 5 (cycle 2))") == Truncate(CycleModule(P(2)), 5)
    assert parse_spec('(wtrunc<= 1 (proj 2 "1,1"))') == WeightTruncateLE(
        Projective(IrrDecomposition(2, {P(1, 1): 1})), 1
    )
    assert parse_spec("(sum)") == DirectSum(())


# (text, message, pos) for malformed specs.  A string is closed before
# anything is parsed, a node's arguments are read before its head is
# checked, and a truncation reads its family before its integer.
SPEC_ERRORS = [
    ("", "unexpected end of input", 0),
    ("   ", "unexpected end of input", 3),
    ('(proj 3 "2,1', "unterminated string", 8),
    ('(frob "x', "unterminated string", 6),
    ("(", "expected a constructor name", 0),
    ("vfam 1", "expected '(' to open an expression", 0),
    (")", "expected '(' to open an expression", 0),
    ('("vfam" 1)', "expected a constructor name", 0),
    ("(vfam 1", "missing ')'", 0),
    ("(sum (vfam 1)", "missing ')'", 0),
    ("(frob 1", "missing ')'", 0),
    ("(vfam 1) extra", "trailing input after expression", 9),
    ("(vfam 1))", "trailing input after expression", 8),
    ("(vfam)", "(vfam parts [padded]) needs a partition", 0),
    ("(vfam 2,1 sideways)", "unknown convention 'sideways'", 10),
    ("(vfam 1 padded x)", "too many arguments to vfam", 0),
    ("(vfam 1 (vfam 1))", "expected a plain atom", 0),
    ('(vfam "2,x")', "bad partition part 'x'", 9),
    ('(vfam " 2,x")', "bad partition part 'x'", 10),
    ('(vfam "2, x")', "bad partition part 'x'", 10),
    ("(sum (vfam 1) (vfam 2,x))", "bad partition part 'x'", 22),
    ('(vfam "")', "empty partition is spelled '-'", 7),
    ('(vfam "1,2")', "partition parts must be weakly decreasing: (1, 2)", 7),
    ('(proj 3 "2,1" " 1,2")', "partition parts must be weakly decreasing: (1, 2)", 16),
    ("(vfam ²)", "bad partition part '²'", 6),
    ('(vfam "2,²")', "bad partition part '²'", 9),
    ("(proj)", '(proj n "parts" ...) needs a degree', 0),
    ('(proj 3 "2,2")', "2,2 is not a partition of 3", 9),
    ('(proj 3 "2,1" " 2,2")', "2,2 is not a partition of 3", 16),
    ("(proj 2 3)", "3 is not a partition of 2", 8),
    ("(proj x)", "expected an integer, got 'x'", 6),
    ('(proj 3 "2,1" (vfam 1))', "expected a plain atom", 0),
    ("(cycle)", "(cycle parts...) needs at least one part", 0),
    ("(cycle 0)", "partition parts must be positive, got 0", 0),
    ("(cycle 2 y)", "expected an integer, got 'y'", 9),
    ("(cycle ²)", "expected an integer, got '²'", 7),
    ("(proj -²)", "expected an integer, got '-²'", 6),
    ("(proj -1)", "expected an integer, got '-1'", 6),
    ("(cycle -1)", "expected an integer, got '-1'", 7),
    ("(trunc>= -3 (vfam 1))", "expected an integer, got '-3'", 9),
    ("(wtrunc<= -1 (vfam 1))", "expected an integer, got '-1'", 10),
    ("(tensor (vfam 1))", "(tensor a b) takes exactly two factors", 0),
    ("(tensor (vfam 1) 2)", "expected a sub-expression", 17),
    ("(sum 1)", "expected a sub-expression", 5),
    ("(trunc>= x (cycle 2))", "expected an integer, got 'x'", 9),
    ("(trunc>= 1 2)", "expected a sub-expression", 11),
    ("(trunc>= x 2)", "expected a sub-expression", 11),
    ("(trunc>= 5)", "(trunc>= n expr) takes a cutoff and a family", 0),
    ("(wtrunc<= 1)", "(wtrunc<= p expr) takes a bound and a family", 0),
    ("(wtrunc> 1 2 3)", "(wtrunc> p expr) takes a bound and a family", 0),
    ("(frob 1)", "unknown constructor 'frob'", 0),
    ("(frob (vfam))", "(vfam parts [padded]) needs a partition", 6),
]


def test_spec_language_errors():
    for text, message, pos in SPEC_ERRORS:
        with pytest.raises(ParseError) as info:
            parse_spec(text)
        assert str(info.value) == f"{message} (at position {pos})", text
        assert info.value.pos == pos, text


def test_spec_print_parse_roundtrip():
    specs = [
        VFamily(P(3, 1)),
        VFamily(P(2), "padded"),
        CycleModule(P(3, 2)),
        Projective(IrrDecomposition(3, {P(2, 1): 2, P(3): 1})),
        Projective(IrrDecomposition(0, {})),
        Tensor(VFamily(P(1)), CycleModule(P(2))),
        DirectSum((VFamily(P(1)), DirectSum(()))),
        Truncate(CycleModule(P(1)), 4),
        WeightTruncateLE(VFamily(P(2, 2)), 2),
        WeightTruncateGT(VFamily(P(2, 2)), 2),
    ]
    for spec in specs:
        assert parse_spec(format_spec(spec)) == spec, spec


def test_family_nodes_are_immutable_values():
    c = CycleModule(P(2))
    assert Truncate(c, 3) == Truncate(CycleModule(P(2)), 3)
    assert hash(Truncate(c, 3)) == hash(Truncate(CycleModule(P(2)), 3))
    # one type per constructor: equal fields do not make equal families,
    # and the step-list cache keeps them apart
    assert Truncate(c, 3) != WeightTruncateLE(c, 3)
    family_steps.cache_clear()
    kept = family_steps(WeightTruncateLE(c, 3), 8)
    assert kept == family_steps(c, 8)
    assert family_steps(Truncate(c, 3), 8) == tuple(
        (s, max(b, 3), d) for s, b, d in kept
    ) != kept
    with pytest.raises(AttributeError):
        c.nu = P(3)
    with pytest.raises(AttributeError):
        del c.nu
    assert c.nu == P(2)
    assert DirectSum() == DirectSum(()) and DirectSum().children == ()
    assert DirectSum([c]).children == (c,)
    with pytest.raises(ValueError):
        VFamily(P(1), "bogus")
    with pytest.raises(ValueError):
        CycleModule(P())
    assert repr(Tensor(VFamily(P(2, 1)), c)) == (
        "Tensor(left=VFamily(lam=Partition([2, 1]), convention='socle'), "
        "right=CycleModule(nu=Partition([2])))"
    )
    spec = DirectSum(
        [
            Truncate(VFamily(P(), "padded"), 3),
            WeightTruncateGT(Projective(IrrDecomposition(2, {P(1, 1): 1})), 1),
        ]
    )
    assert repr(spec) == (
        "DirectSum(children=(Truncate(child=VFamily(lam=Partition([]), "
        "convention='padded'), cutoff=3), WeightTruncateGT(child=Projective("
        "base=IrrDecomposition(m=2, {1,1: 1})), p=1)))"
    )
