"""Empirical certification of the two stability ranks of a module family.

Both ranks are statements about the family's socle multiplicities
{s: multiplicity of s[m]} (fbmodules.socles_at), and the scan works on
those alone: it builds no decomposition.  rank_rs_estimate finds the
degree past which they stop changing (and the occurring socles are
admissible for that degree); rank_pc_estimate finds the degree past
which one fixed polynomial P in the cycle-count variables evaluates to
the family's characters.  It compares multiplicities, not values: the
step list of P (frobenius.socle_steps), built once per scan from
classes of degree at most the weight of P, gives P's multiplicities at
every degree in integers over one denominator, so neither estimator
touches the conjugacy classes of the degrees it scans.  Both are
certified only on the scanned window [0, m_max]: the estimators verify,
they do not prove.  verify_equivalence runs both and checks the bounds
relating the two ranks; tensor_weight and tensor_weight_bound_holds
serve the tensorweight command.
"""

from dataclasses import dataclass, field

from .characters import decompose, irr_character
from .cyclepoly import CharPolynomial, format_poly
from .fbmodules import DEFAULT_BUDGET, check_budget, format_spec, socles_at
from .frobenius import frobenius_poly_of_socles, socle_steps
from .partitions import format_partition
from .pieri import sum_steps


@dataclass
class StabilityReport:
    spec: object
    m_max: int
    rank_rs: int | None = None
    rank_pc: int | None = None
    poly: CharPolynomial | None = None
    stable_multiplicities: dict = field(default_factory=dict)
    bound_checks: list = field(default_factory=list)

    @property
    def certified_to(self):
        """Ranks are verified on [0, m_max] only; nothing beyond is claimed."""
        return self.m_max

    def all_bounds_hold(self):
        return all(ok for _, ok in self.bound_checks)

    def to_json_dict(self):
        return {
            "schema": 1,
            "spec": format_spec(self.spec),
            "m_max": self.m_max,
            "certified_to": self.certified_to,
            "rank_rs": self.rank_rs,
            "rank_pc": self.rank_pc,
            "poly": None if self.poly is None else format_poly(self.poly),
            "stable_multiplicities": [
                {"socle": format_partition(s), "mult": n}
                for s, n in sorted(
                    self.stable_multiplicities.items(), key=lambda kv: kv[0].parts
                )
            ],
            "bound_checks": [
                {"name": name, "ok": ok} for name, ok in self.bound_checks
            ],
        }


def rank_rs_estimate(spec, m_max, budget=DEFAULT_BUDGET):
    """Smallest N <= m_max from which the socle multiplicities are constant
    and every occurring socle s satisfies |s| + s_1 <= N.

    Returns (N, multiplicities) or None when no such N exists in the window.
    Constancy is only checked up to m_max.
    """
    check_budget(m_max, budget)
    stable = socles_at(spec, m_max, budget)
    start = m_max
    while start > 0 and socles_at(spec, start - 1, budget) == stable:
        start -= 1
    admissible = max(
        (s.size + (s.parts[0] if s else 0) for s in stable), default=0
    )
    n = max(start, admissible)
    if n > m_max:
        return None
    return n, stable


def rank_pc_estimate(spec, m_max, budget=DEFAULT_BUDGET):
    """Smallest N such that the module polynomial taken at m_max evaluates to
    the family's character on every degree in [N, m_max].

    Returns (N, P) or None ("not polynomial in the window") when the
    candidate already fails at m_max - 1.

    Two class functions of one degree are equal exactly when their
    decompositions are.  The step list of P (frobenius.socle_steps) is
    read once: at each degree k its integer sums over the entries that
    start at or below k are the multiplicities of P at k times den, and
    are compared with the family's socle multiplicities times den.  An
    entry for mu starts at or above |mu|, so the list taken at
    min(m_max, weight of P) holds every entry that decompose_poly(P, k)
    would read, and no class above the weight of P is used.
    """
    check_budget(m_max, budget)
    poly = frobenius_poly_of_socles(socles_at(spec, m_max, budget))
    steps, den = socle_steps(poly, min(m_max, poly.weighted_degree()))

    def agrees(k):
        sums = {s: n for s, n in sum_steps(steps, k).items() if n}
        return sums == {s: n * den for s, n in socles_at(spec, k, budget).items()}

    n = m_max
    while n > 0 and agrees(n - 1):
        n -= 1
    if n == m_max and m_max > 0:
        # re-derivation check: the polynomial taken one degree down must
        # disagree, else the failure would contradict its own construction
        other = frobenius_poly_of_socles(socles_at(spec, m_max - 1, budget))
        if other == poly:
            raise RuntimeError(
                f"module polynomial at degree {m_max - 1} equals the candidate "
                "that fails there"
            )
        return None
    return n, poly


def verify_equivalence(spec, m_max, budget=DEFAULT_BUDGET):
    """Estimate both ranks and check every bound relating them.

    Bound checks (all certified on [0, m_max] only):
      - rank_pc <= rank_rs;
      - rank_rs <= max(rank_pc, 2 * weight of the polynomial);
      - from max(2 * weight, rank_pc) on, the module polynomial is the
        polynomial and the module weight equals its weight.
    """
    check_budget(m_max, budget)
    report = StabilityReport(spec=spec, m_max=m_max)
    rs = rank_rs_estimate(spec, m_max, budget)
    pc = rank_pc_estimate(spec, m_max, budget)
    if rs is not None:
        report.rank_rs, report.stable_multiplicities = rs
    if pc is not None:
        report.rank_pc, report.poly = pc
    if rs is None or pc is None:
        return report
    poly = report.poly
    two_d = 0 if poly.is_zero() else 2 * poly.weighted_degree()
    report.bound_checks.append(("rank_pc_le_rank_rs", report.rank_pc <= report.rank_rs))
    report.bound_checks.append(
        ("rank_rs_le_max_rank_pc_2degw", report.rank_rs <= max(report.rank_pc, two_d))
    )
    lo = max(two_d, report.rank_pc)
    poly_ok, weight_ok = True, True
    expected_w = 0 if poly.is_zero() else poly.weighted_degree()
    for m in range(lo, m_max + 1):
        socles = socles_at(spec, m, budget)
        if frobenius_poly_of_socles(socles) != poly:
            poly_ok = False
        # s[m] has weight |s|
        if max((s.size for s in socles), default=0) != expected_w:
            weight_ok = False
    report.bound_checks.append(("poly_equals_module_polynomial", poly_ok))
    report.bound_checks.append(("module_weight_equals_poly_weight", weight_ok))
    return report


def tensor_weight(lam, mu, m):
    """Weight of the tensor product of the irreducibles lam.pad(m) and mu.pad(m).

    Raises ValueError, from Partition.pad, when m is too small to pad either label.
    """
    product = irr_character(lam.pad(m)) * irr_character(mu.pad(m))
    return decompose(product).module_weight()


def tensor_weight_bound_holds(w, bound, m):
    """The weight w of a tensor product of padded irreducibles with labels
    of bound = |lam| + |mu| boxes never exceeds bound, and equals it once
    m >= 2 * bound."""
    return w <= bound and (m < 2 * bound or w == bound)
