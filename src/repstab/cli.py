"""Command-line front end.

Subcommands: chartable, frobpoly, pieri, decompose, cyclepoly, rho,
rankscan, tensorweight.  Every command takes --json for a versioned JSON
document instead of the text table and --budget to override the cap on
the degree.  Exit codes:
0 success, 1 usage or parse error, 2 budget exceeded, 3 a theorem bound
check failed.
"""

import argparse
import json
import sys
from fractions import Fraction

from .characters import ClassFunction, character_table, decompose
from .cyclepoly import eval_rho_all, format_poly, parse_poly
from .errors import BudgetError, ParseError
from .fbmodules import DEFAULT_BUDGET, check_budget, cycle_poly, parse_spec
from .frobenius import frobenius_poly_stable
from .partitions import (
    cycle_types_of,
    format_cycle_type,
    format_partition,
    parse_partition,
    partitions_of,
)
from .pieri import pieri_expand
from .stability import tensor_weight, tensor_weight_bound_holds, verify_equivalence

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BUDGET = 2
EXIT_BOUND_FAILED = 3


class _ArgumentError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _ArgumentError(message)


def _nonnegative_int(text):
    """The argparse type of --budget: an int >= 0, else a usage error."""
    try:
        if int(text) >= 0:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"invalid nonnegative int value: {text!r}")


def _build_parser():
    common = _Parser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON (schema 1)")
    common.add_argument(
        "--budget",
        type=_nonnegative_int,
        default=DEFAULT_BUDGET,
        help=(
            f"cap on the degree (default {DEFAULT_BUDGET}): on m for the commands that "
            "run over the p(m) classes of degree m, on --mmax for rankscan, on the "
            "socle size for frobpoly"
        ),
    )

    parser = _Parser(prog="repstab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("chartable", parents=[common], help="character table of degree m")
    p.add_argument("m", type=int)

    p = sub.add_parser(
        "frobpoly", parents=[common], help="character polynomial of an irreducible"
    )
    p.add_argument("label", help="a partition like 4,1 or socle:2,1")

    p = sub.add_parser("pieri", parents=[common], help="horizontal-strip expansion")
    p.add_argument("nu", help="base partition, e.g. 3,2,2")
    p.add_argument("m", type=int)

    p = sub.add_parser(
        "decompose", parents=[common], help="decompose a class function"
    )
    p.add_argument("--m", type=int, required=True)
    p.add_argument(
        "--values",
        required=True,
        help="comma-separated rationals, one per cycle type of m in canonical order",
    )

    p = sub.add_parser(
        "cyclepoly", parents=[common], help="commuting-cycle count polynomial"
    )
    p.add_argument("ell", type=int)

    p = sub.add_parser("rho", parents=[common], help="evaluate a polynomial on classes")
    p.add_argument("--poly", required=True)
    p.add_argument("--m", type=int, required=True)

    p = sub.add_parser(
        "rankscan", parents=[common], help="stability report for a family expression"
    )
    p.add_argument("--spec", required=True)
    p.add_argument("--mmax", type=int, required=True)

    p = sub.add_parser(
        "tensorweight", parents=[common], help="weight of a tensor product of irreducibles"
    )
    p.add_argument("lam")
    p.add_argument("mu")
    p.add_argument("m", type=int)

    return parser


_PARSER = _build_parser()


def run(argv):
    """Execute one invocation; returns the exit code, output on stdout."""
    try:
        args = _PARSER.parse_args(argv)
    except _ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    handler = _HANDLERS[args.command]
    try:
        return handler(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main():
    sys.exit(run(sys.argv[1:]))


def _emit(data):
    print(json.dumps(data, indent=2, sort_keys=False))


def _cmd_chartable(args):
    check_budget(args.m, args.budget)
    types, table = character_table(args.m)
    lams = partitions_of(args.m)
    if args.json:
        _emit(
            {
                "schema": 1,
                "m": args.m,
                "classes": [format_cycle_type(t) for t in types],
                "rows": [
                    {"partition": format_partition(lam), "values": list(table[lam])}
                    for lam in lams
                ],
            }
        )
        return EXIT_OK
    headers = [format_cycle_type(t) for t in types]
    labels = [format_partition(lam) for lam in lams]
    label_w = max((len(s) for s in labels), default=1)
    col_w = [
        max(len(headers[j]), max(len(str(table[lam][j])) for lam in lams))
        for j in range(len(types))
    ]
    print(f"character table of degree {args.m}")
    print(
        " " * (label_w + 2)
        + "  ".join(h.rjust(w) for h, w in zip(headers, col_w))
    )
    for lam, label in zip(lams, labels):
        row = "  ".join(str(v).rjust(w) for v, w in zip(table[lam], col_w))
        print(f"{label.ljust(label_w)}  {row}")
    return EXIT_OK


def _cmd_frobpoly(args):
    is_socle = args.label.startswith("socle:")
    lam = parse_partition(args.label[len("socle:") :] if is_socle else args.label)
    soc = lam if is_socle else lam.socle()
    check_budget(soc.size, args.budget)  # kernel rows go up to degree |soc|
    poly = frobenius_poly_stable(soc)
    key, value = ("socle" if is_socle else "partition"), format_partition(lam)
    if args.json:
        _emit(
            {
                "schema": 1,
                key: value,
                "poly": format_poly(poly),
                "weight": int(poly.weighted_degree()) if not poly.is_zero() else None,
            }
        )
    else:
        print(format_poly(poly))
    return EXIT_OK


def _cmd_pieri(args):
    nu = parse_partition(args.nu)
    check_budget(args.m, args.budget)
    mus = sorted(pieri_expand(nu, args.m), key=lambda p: p.parts, reverse=True)
    if args.json:
        _emit(
            {
                "schema": 1,
                "nu": format_partition(nu),
                "m": args.m,
                "factors": [
                    {"partition": format_partition(mu), "mult": 1} for mu in mus
                ],
            }
        )
    else:
        for mu in mus:
            print(format_partition(mu))
    return EXIT_OK


def _cmd_decompose(args):
    check_budget(args.m, args.budget)
    types = cycle_types_of(args.m)
    raw = args.values.split(",")
    if len(raw) != len(types):
        raise ParseError(
            f"expected {len(types)} values for degree {args.m}, got {len(raw)}"
        )
    try:
        values = {t: Fraction(chunk.strip()) for t, chunk in zip(types, raw)}
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational in --values: {exc}") from None
    dec = decompose(ClassFunction(args.m, values))
    if args.json:
        _emit({"schema": 1, **dec.to_json_dict()})
    else:
        if dec.is_zero():
            print("0")
        for lam, n in dec.items():
            print(f"{format_partition(lam)}: {n}")
    return EXIT_OK


def _cmd_cyclepoly(args):
    if args.ell < 1:
        raise ParseError("cycle length must be positive")
    poly = cycle_poly(args.ell)
    if args.json:
        _emit(
            {
                "schema": 1,
                "ell": args.ell,
                "poly": format_poly(poly),
                "weight": int(poly.weighted_degree()),
            }
        )
    else:
        print(format_poly(poly))
    return EXIT_OK


def _cmd_rho(args):
    check_budget(args.m, args.budget)
    poly = parse_poly(args.poly)
    f = eval_rho_all(poly, args.m)
    if args.json:
        _emit({"schema": 1, **f.to_json_dict()})
    else:
        for t, v in f.values.items():
            print(f"{format_cycle_type(t)}: {v}")
    return EXIT_OK


def _cmd_rankscan(args):
    spec = parse_spec(args.spec)
    check_budget(args.mmax, args.budget)
    report = verify_equivalence(spec, args.mmax, budget=args.budget)
    if args.json:
        _emit(report.to_json_dict())
    else:
        print(f"spec: {args.spec}")
        print(f"m_max: {args.mmax} (ranks certified on 0..{report.certified_to} only)")
        print(f"rank_rs: {'not stabilized' if report.rank_rs is None else report.rank_rs}")
        print(f"rank_pc: {'not polynomial' if report.rank_pc is None else report.rank_pc}")
        if report.poly is not None:
            print(f"poly: {format_poly(report.poly)}")
        if report.stable_multiplicities:
            print("stable multiplicities:")
            for soc, n in sorted(
                report.stable_multiplicities.items(), key=lambda kv: kv[0].parts
            ):
                print(f"  {format_partition(soc)}: {n}")
        if report.bound_checks:
            print("bound checks:")
            for name, ok in report.bound_checks:
                print(f"  {name}: {'ok' if ok else 'FAILED'}")
    return EXIT_OK if report.all_bounds_hold() else EXIT_BOUND_FAILED


def _cmd_tensorweight(args):
    lam = parse_partition(args.lam)
    mu = parse_partition(args.mu)
    check_budget(args.m, args.budget)
    w = tensor_weight(lam, mu, args.m)
    total = lam.size + mu.size
    ok = tensor_weight_bound_holds(w, total, args.m)
    equality = args.m >= 2 * total
    if args.json:
        _emit(
            {
                "schema": 1,
                "lam": format_partition(lam),
                "mu": format_partition(mu),
                "m": args.m,
                "weight": w,
                "bound": total,
                "equality_expected": equality,
                "ok": ok,
            }
        )
    else:
        print(f"weight of the product module: {w}")
        relation = "=" if equality else "<="
        print(f"expected: weight {relation} {total}: {'ok' if ok else 'FAILED'}")
    return EXIT_OK if ok else EXIT_BOUND_FAILED


_HANDLERS = {
    "chartable": _cmd_chartable,
    "frobpoly": _cmd_frobpoly,
    "pieri": _cmd_pieri,
    "decompose": _cmd_decompose,
    "cyclepoly": _cmd_cyclepoly,
    "rho": _cmd_rho,
    "rankscan": _cmd_rankscan,
    "tensorweight": _cmd_tensorweight,
}
