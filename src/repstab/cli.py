"""Command-line front end.

Subcommands, one row each of _COMMANDS: chartable, frobpoly, pieri,
decompose, cyclepoly, rho, rankscan, tensorweight.  Every command takes
--json for a versioned JSON document instead of the text table, --budget
to override the cap on the degree, which no library function takes, and
-h or --help.  The --json output is byte-identical to json.dumps(document,
indent=2).  Exit codes: 0 success, 1 usage or parse error or a closed
stdout, 2 budget exceeded, 3 a theorem bound check failed.
"""

import os
import sys
from fractions import Fraction
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

from .characters import ClassFunction, character_table, decompose
from .cyclepoly import cycle_poly, eval_rho_all, format_poly, parse_poly
from .errors import BudgetError, ParseError
from .fbmodules import check_degree, parse_spec
from .frobenius import frobenius_poly_stable
from .partitions import (
    cycle_types_of,
    format_cycle_type,
    format_partition,
    parse_partition,
    partitions_of,
)
from .pieri import pieri_expand
from .stability import (
    StabilityReport,
    scan_window,
    tensor_weight,
    tensor_weight_bound_holds,
    verify_equivalence,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BUDGET = 2
EXIT_BOUND_FAILED = 3
DEFAULT_BUDGET = 14


class _ArgumentError(Exception):
    pass


# command -> (positionals, required options, one-line help); every command
# also takes --json and --budget
_COMMANDS = {
    "chartable": (("m",), (), "character table of degree m"),
    "frobpoly": (("label",), (), "character polynomial of label: 4,1 or socle:2,1"),
    "pieri": (("nu", "m"), (), "horizontal-strip expansion of nu (e.g. 3,2,2) at m"),
    "decompose": ((), ("m", "values"), "decompose one rational per cycle type of m"),
    "cyclepoly": (("ell",), (), "commuting-cycle count polynomial"),
    "rho": ((), ("poly", "m"), "evaluate a polynomial on the classes of degree m"),
    "rankscan": ((), ("spec", "mmax"), "stability report for a family expression"),
    "tensorweight": (("lam", "mu", "m"), (), "weight of a tensor product of irreducibles"),
}
_KINDS = {"budget": "nonnegative int", "m": "int", "ell": "int", "mmax": "int"}


def _help(commands):
    """Usage, one row per command of commands, the common options, exit codes."""
    rows = (
        (" ".join([c, *pos, *(f"--{o} {o.upper()}" for o in req)]), text)
        for c in commands
        for pos, req, text in [_COMMANDS[c]]
    )
    return "\n".join([
        "usage: repstab COMMAND ... [--json] [--budget BUDGET]\n",
        *(f"  {row:<32}  {text}" for row, text in rows),
        "\n  --json           emit JSON (schema 1)",
        f"  --budget BUDGET  cap on the degree (default {DEFAULT_BUDGET}): on m, on --mmax "
        "for rankscan, on the socle size for frobpoly",
        "\nexit codes: 0 ok, 1 bad input, 2 budget exceeded, 3 bound check failed",
    ])


def _value(name, label, text):
    """text as the value of the argument name, shown as label in errors."""
    kind = _KINDS.get(name)
    if kind is None:
        return text
    try:
        if int(text) >= 0 or kind == "int":
            return int(text)
    except ValueError:
        pass
    raise _ArgumentError(f"argument {label}: invalid {kind} value: {text!r}")


def _parse(argv):
    """The arguments of argv as read off _COMMANDS, or the help text when
    -h or --help is given.  An option takes the text after '=' or else the
    next token as its value, as given; any other token is the next
    positional.  _ArgumentError on a usage error."""
    if not argv:
        raise _ArgumentError("the following arguments are required: command")
    command, tokens = argv[0], iter(argv[1:])
    if command in ("-h", "--help"):
        return _help(_COMMANDS)
    if command not in _COMMANDS:
        choices = ", ".join(map(repr, _COMMANDS))
        raise _ArgumentError(f"argument command: invalid choice: {command!r} "
                             f"(choose from {choices})")
    positionals, required, _ = _COMMANDS[command]
    args = {"command": command, "json": False, "budget": DEFAULT_BUDGET}
    todo, extra = list(positionals), []
    for token in tokens:
        name, eq, value = token[2:].partition("=")
        if token in ("-h", "--help"):
            return _help([command])
        if not token.startswith("--"):
            if todo:
                name = todo.pop(0)
                args[name] = _value(name, name, token)
            else:
                extra.append(token)
        elif name == "json" and not eq:
            args["json"] = True
        elif name == "json":
            raise _ArgumentError(f"argument --json: ignored explicit argument {value!r}")
        elif name == "budget" or name in required:
            if not eq and (value := next(tokens, None)) is None:
                raise _ArgumentError(f"argument --{name}: expected one argument")
            args[name] = _value(name, f"--{name}", value)
        else:
            extra.append(token)
    missing = todo + [f"--{name}" for name in required if name not in args]
    if missing:
        raise _ArgumentError(f"the following arguments are required: {', '.join(missing)}")
    if extra:
        raise _ArgumentError(f"unrecognized arguments: {' '.join(extra)}")
    return SimpleNamespace(**args)


def run(argv):
    """Execute one invocation; returns the exit code, output on stdout.
    Exact integers are read and printed at any size: CPython's cap on the
    digits of an int/str conversion (0 when off or absent) is lifted while
    it runs and the caller's restored after."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _run(argv):
    try:
        args = _parse(argv)
    except _ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if isinstance(args, str):
        print(args)
        return EXIT_OK
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
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:  # the reader left; the flush at exit must not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


def check_budget(m, budget):
    """ValueError for a negative degree, BudgetError for one past the budget."""
    check_degree(m)
    if m > budget:
        raise BudgetError(f"degree {m} exceeds the enumeration budget {budget}")


def _emit(data):
    print(_json(data))


def _json(value, indent="\n"):
    """json.dumps(value, indent=2), byte for byte, for the documents the
    commands emit: str-keyed dicts, lists and tuples of str, int, True,
    False and None.  TypeError on any other type.  indent is the newline
    and indentation that close the enclosing container.

    json.dumps runs its pure-Python encoder whenever indent is set; this
    writer keeps the C string escaper and skips the rest of that machinery.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        items = _json_fields(value, inner)
        return "{" + inner + ("," + inner).join(items) + indent + "}" if items else "{}"
    if isinstance(value, (list, tuple)):
        items = [_json(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]" if items else "[]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_fields(fields, inner):
    """The "key": value items of the str-keyed dict fields as _json writes
    them in a dict whose items open with the newline and indentation inner."""
    items = []
    for k, v in fields.items():
        if not isinstance(k, str):
            raise TypeError(f"keys must be str, not {type(k).__name__}")
        items.append(encode_basestring_ascii(k) + ": " + _json(v, inner))
    return items


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
                "weight": soc.size,  # F_s is never zero and has weight |s|
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
    if args.json:
        # _emit(verify_equivalence(spec, m_max).to_json_dict()), byte for
        # byte: the head from spec and m_max alone, the fields after
        # certified_to and the exit code rendered once per scan window
        head = StabilityReport(spec, args.mmax).head_json_dict()
        fields, code = _scan_fields(spec, scan_window(spec, args.mmax))
        print("{\n  " + ",\n  ".join(_json_fields(head, "\n  ") + [fields]) + "\n}")
        return code
    report = verify_equivalence(spec, args.mmax)
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


@lru_cache(maxsize=1024)
def _scan_fields(spec, window):
    """(the fields of a rankscan --json document after certified_to, as
    _json writes them there, its exit code) for every m_max whose scan
    runs at window (stability.scan_window): scanned and rendered once per
    family and window."""
    report = verify_equivalence(spec, window)
    fields = ",\n  ".join(_json_fields(report.scan_json_dict(), "\n  "))
    return fields, EXIT_OK if report.all_bounds_hold() else EXIT_BOUND_FAILED


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
