"""Empirical certification of the two stability ranks of a module family.

Both ranks are statements about one step function of m, the family's
socle multiplicities {s: multiplicity of s[m]}, and a scan reads them off
the family's net step list up to m_max (fbmodules.family_steps), built
once per scan; it builds no decomposition and touches no conjugacy class
of the degrees it scans.  rank_rs_estimate is the last start of the list,
or the degree from which the occurring socles are admissible if that is
later.  rank_pc_estimate compares the list with the step list of the
module polynomial P of the socles at m_max (frobenius.module_steps, read
in integers off the signed vertical-strip sums g_mu that build P): the
rank is where their difference last stops vanishing.  Both are
certified only on the scanned window [0, m_max]: the estimators verify,
they do not prove.  verify_equivalence runs both and checks the bounds
relating the two ranks at the breakpoints of the list.  Past the stable
window W = max(T, 2w) + 1 of the family's stable range (T, w) no degree
a scan reads changes, so verify_equivalence scans at min(m_max, W) and
reports to m_max (no cap); tensor_weight, off a step list too, and
tensor_weight_bound_holds serve tensorweight.
"""

from operator import itemgetter

from .cyclepoly import CharPolynomial, format_poly
from .fbmodules import (
    Tensor,
    VFamily,
    check_degree,
    family_steps,
    format_spec,
    stable_range,
)
from .frobenius import frobenius_poly_of_socles, module_steps
from .partitions import format_partition
from .pieri import prefix_sums, sum_steps


class StabilityReport:
    """What a scan certified on [0, m_max]; None: a rank not reached."""

    def __init__(self, spec, m_max, rank_rs=None, rank_pc=None, poly=None,
                 stable_multiplicities=None, bound_checks=None):
        self.spec, self.m_max = spec, m_max
        self.rank_rs: int | None = rank_rs
        self.rank_pc: int | None = rank_pc
        self.poly: CharPolynomial | None = poly
        self.stable_multiplicities: dict = (
            {} if stable_multiplicities is None else stable_multiplicities)
        self.bound_checks: list = [] if bound_checks is None else bound_checks

    @property
    def certified_to(self):
        """Ranks are verified on [0, m_max] only; nothing beyond is claimed."""
        return self.m_max

    def all_bounds_hold(self):
        return all(ok for _, ok in self.bound_checks)

    def to_json_dict(self):
        return {**self.head_json_dict(), **self.scan_json_dict()}

    def head_json_dict(self):
        """The fields of to_json_dict through certified_to: the family and
        the window it is certified on."""
        return {
            "schema": 1,
            "spec": format_spec(self.spec),
            "m_max": self.m_max,
            "certified_to": self.certified_to,
        }

    def scan_json_dict(self):
        """The fields of to_json_dict after certified_to: what the scan
        found, the same at every m_max whose scan runs at one window
        (verify_equivalence)."""
        return {
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


def rank_rs_estimate(spec, m_max):
    """Smallest N <= m_max from which the socle multiplicities are constant
    and every occurring socle s satisfies |s| + s_1 <= N.

    Returns (N, multiplicities) or None when no such N exists in the window.
    Constancy is only checked up to m_max: the multiplicities last change
    at the last start of the family's step list.
    """
    check_degree(m_max)
    steps = family_steps(spec, m_max)
    stable = sum_steps(steps, m_max)
    admissible = max((s.size + (s.parts[0] if s else 0) for s in stable), default=0)
    n = max(steps[-1][1] if steps else 0, admissible)
    return None if n > m_max else (n, stable)


def rank_pc_estimate(spec, m_max):
    """Smallest N such that the module polynomial taken at m_max evaluates to
    the family's character on every degree in [N, m_max].

    Returns (N, P) or None ("not polynomial in the window") when the
    candidate already fails at m_max - 1.

    Two class functions of one degree are equal exactly when their
    decompositions are.  D, P's step list minus the family's, sums at each
    degree to the difference of their multiplicities; N is the degree from
    which D sums to zero below m_max.  P's list is read in integers off the
    g_mu that built P (frobenius.module_steps); an entry for mu starts at
    or above |mu|, so the mu with |mu| <= m_max give every entry up to
    m_max.
    """
    check_degree(m_max)
    steps = family_steps(spec, m_max)
    socles = sum_steps(steps, m_max)
    poly = frobenius_poly_of_socles(socles)
    p_steps = module_steps(socles, m_max)
    diff = sorted(p_steps + tuple((s, b, -d) for s, b, d in steps), key=itemgetter(1))
    starts = sorted({0}.union(b for _, b, _ in diff if b < m_max))
    ends = starts[1:] + [m_max]
    n = max((end for end, sums in zip(ends, prefix_sums(diff, starts)) if sums), default=0)
    if n == m_max and m_max > 0:
        # re-derivation check: the polynomial taken one degree down must
        # disagree, else the failure would contradict its own construction
        other = frobenius_poly_of_socles(sum_steps(steps, m_max - 1))
        if other == poly:
            raise RuntimeError(
                f"module polynomial at degree {m_max - 1} equals the candidate "
                "that fails there"
            )
        return None
    return n, poly


def stable_window(spec):
    """W = max(T, 2w) + 1 for the (T, w) of fbmodules.stable_range: no
    degree that a scan reads changes past W - 1, so a scan to any m_max >= W
    finds what the scan to W finds.  The family's starts are at most T, the
    module polynomial's entries start at |s| + mu_1 <= 2w, and the bound
    checks start at max(2 * weight, rank_pc) <= W - 1."""
    t, w = stable_range(spec)
    return max(t, 2 * w) + 1


def scan_window(spec, m_max):
    """min(m_max, stable_window(spec)): the degree verify_equivalence scans
    at for m_max, which finds what a scan at m_max finds."""
    return min(m_max, stable_window(spec))


def verify_equivalence(spec, m_max):
    """Estimate both ranks and check every bound relating them.

    Bound checks (all certified on [0, m_max] only):
      - rank_pc <= rank_rs;
      - rank_rs <= max(rank_pc, 2 * weight of the polynomial);
      - from max(2 * weight, rank_pc) on, the module polynomial is the
        polynomial and the module weight equals its weight.  Both are
        constant between the starts of the family's step list, so they
        are checked at the first degree and at each later start.

    The scan runs at scan_window(spec, m_max), where it finds the same
    ranks, polynomial, multiplicities and checks as at m_max; the report is
    certified to m_max.
    """
    check_degree(m_max)
    window = scan_window(spec, m_max)
    rs = rank_rs_estimate(spec, window)
    pc = rank_pc_estimate(spec, window)
    rank_rs, stable = (None, None) if rs is None else rs
    rank_pc, poly = (None, None) if pc is None else pc
    if rs is None or pc is None:
        return StabilityReport(spec, m_max, rank_rs, rank_pc, poly, stable)
    two_d = 0 if poly.is_zero() else 2 * poly.weighted_degree()
    checks = [
        ("rank_pc_le_rank_rs", rank_pc <= rank_rs),
        ("rank_rs_le_max_rank_pc_2degw", rank_rs <= max(rank_pc, two_d)),
    ]
    lo = max(two_d, rank_pc)
    steps = family_steps(spec, window)
    degrees = sorted({b for _, b, _ in steps if b > lo}.union([lo] if lo <= window else []))
    poly_ok, weight_ok = True, True
    expected_w = 0 if poly.is_zero() else poly.weighted_degree()
    for socles in prefix_sums(steps, degrees):
        if frobenius_poly_of_socles(socles) != poly:
            poly_ok = False
        # s[m] has weight |s|
        if max((s.size for s in socles), default=0) != expected_w:
            weight_ok = False
    checks.append(("poly_equals_module_polynomial", poly_ok))
    checks.append(("module_weight_equals_poly_weight", weight_ok))
    return StabilityReport(spec, m_max, rank_rs, rank_pc, poly, stable, checks)


def tensor_weight(lam, mu, m):
    """Weight of the tensor product of the irreducibles lam.pad(m) and
    mu.pad(m), read off the step list of the product of their padded families.

    Raises ValueError, from Partition.pad, when m is too small to pad either label.
    """
    lam.pad(m), mu.pad(m)  # ValueError when m cannot pad a label
    spec = Tensor(VFamily(lam, "padded"), VFamily(mu, "padded"))
    return max((s.size for s in sum_steps(family_steps(spec, m), m)), default=0)


def tensor_weight_bound_holds(w, bound, m):
    """The weight w of a tensor product of padded irreducibles with labels
    of bound = |lam| + |mu| boxes never exceeds bound, and equals it once
    m >= 2 * bound."""
    return w <= bound and (m < 2 * bound or w == bound)
