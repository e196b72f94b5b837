import contextlib
import json
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import repstab
from repstab import cli
from repstab.cli import _json, run
from repstab.cyclepoly import CharPolynomial, cycle_poly, format_poly, parse_poly
from repstab.errors import ParseError
from repstab.fbmodules import (
    MAX_SPEC_DEPTH,
    CycleModule,
    DirectSum,
    Projective,
    Tensor,
    Truncate,
    VFamily,
    WeightTruncateGT,
    WeightTruncateLE,
    format_spec,
    parse_spec,
)
from repstab.characters import IrrDecomposition
from repstab.partitions import (
    Partition,
    format_partition,
    parse_partition,
    partitions_of,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"

GOLDEN_CASES = {
    "chartable_3.txt": ["chartable", "3"],
    "chartable_4_json.txt": ["chartable", "4", "--json"],
    "chartable_5_json.txt": ["chartable", "5", "--json"],
    "frobpoly_4_1.txt": ["frobpoly", "4,1"],
    "frobpoly_socle_2_json.txt": ["frobpoly", "socle:2", "--json"],
    "pieri_322_10.txt": ["pieri", "3,2,2", "10"],
    "pieri_1_3_json.txt": ["pieri", "1", "3", "--json"],
    "decompose_perm3.txt": ["decompose", "--m", "3", "--values=0,1,3"],
    "decompose_perm3_json.txt": ["decompose", "--m", "3", "--values=0,1,3", "--json"],
    "cyclepoly_1.txt": ["cyclepoly", "1"],
    "cyclepoly_3_json.txt": ["cyclepoly", "3", "--json"],
    "rho_std_3.txt": ["rho", "--poly", "X1 - 1", "--m", "3"],
    "rho_std_3_json.txt": ["rho", "--poly", "X1 - 1", "--m", "3", "--json"],
    "rho_x1sq_x2_6.txt": ["rho", "--poly", "X1^2*X2 - X3", "--m", "6"],
    "rho_x1sq_x2_6_json.txt": ["rho", "--poly", "X1^2*X2 - X3", "--m", "6", "--json"],
    "rankscan_cycle2.txt": ["rankscan", "--spec", "(cycle 2)", "--mmax", "7"],
    "rankscan_cycle2_json.txt": [
        "rankscan", "--spec", "(cycle 2)", "--mmax", "7", "--json",
    ],
    "rankscan_tensor_json.txt": [
        "rankscan",
        "--spec",
        "(tensor (vfam 1 padded) (vfam 1 padded))",
        "--mmax",
        "8",
        "--json",
    ],
    "tensorweight_1_1_5.txt": ["tensorweight", "1", "1", "5"],
    "tensorweight_1_1_5_json.txt": ["tensorweight", "1", "1", "5", "--json"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_output(name, capsys):
    argv = GOLDEN_CASES[name]
    assert run(argv) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / name).read_text(), name


@pytest.mark.parametrize(
    "argv",
    [
        ["chartable", "3"],
        ["frobpoly", "socle:2,1"],
        ["rankscan", "--spec", "(cycle 2)", "--mmax", "6", "--json"],
    ],
)
def test_identical_invocations_are_byte_identical(argv, capsys):
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    assert capsys.readouterr().out == first


def test_json_documents_carry_schema(capsys):
    for argv in [
        ["chartable", "2", "--json"],
        ["pieri", "1", "2", "--json"],
        ["cyclepoly", "2", "--json"],
        ["rankscan", "--spec", "(vfam 1)", "--mmax", "4", "--json"],
    ]:
        assert run(argv) == 0
        assert json.loads(capsys.readouterr().out)["schema"] == 1


_json_leaves = st.one_of(
    st.text(),
    st.text(st.sampled_from('"\\/\x00\x01\x1f\x7f\n\t\u00e9\u2028\ud800\U0001d11e a')),
    st.integers(),
    st.integers(min_value=2**64),
    st.integers(max_value=-(2**64)),
    st.booleans(),
    st.none(),
)
_json_documents = st.recursive(
    _json_leaves,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), kids, max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(_json_documents)
@example({"a": [], "b": {}, "c": (), "d": [[{}]], "\u00e9\"\\": [True, False, None, -0]})
def test_json_writer_matches_json_dumps(doc):
    assert _json(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize(
    "value", [Fraction(1, 2), {1}, object(), {"a": [Fraction(1)]}, {(1, 2): 0}]
)
def test_json_writer_rejects_what_json_dumps_rejects(value):
    with pytest.raises(TypeError):
        json.dumps(value, indent=2)
    with pytest.raises(TypeError):
        _json(value)


@pytest.mark.parametrize(
    "argv, key, label, weight",
    [
        (["frobpoly", "--json", "4,1"], "partition", "4,1", 1),
        (["frobpoly", "--json", "socle:-"], "socle", "-", 0),
        (["frobpoly", "--json", "socle:3,2,2"], "socle", "3,2,2", 7),
    ],
)
def test_frobpoly_weight_is_the_socle_size(argv, key, label, weight, capsys):
    assert run(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc[key] == label
    assert doc["weight"] == weight == parse_poly(doc["poly"]).weighted_degree()


@pytest.mark.parametrize("spec", ['(vfam -)', '(proj 0 "-")'])
def test_trivial_family(spec, capsys):
    assert run(["rankscan", "--spec", spec, "--mmax", "4"]) == 0
    out = capsys.readouterr().out
    assert "rank_rs: 0\nrank_pc: 0\npoly: 1\n" in out
    assert "FAILED" not in out


def test_usage_and_parse_errors_exit_1(capsys):
    assert run(["frobpoly", "2,3"]) == 1  # not weakly decreasing
    assert run(["rho", "--poly", "X0", "--m", "2"]) == 1
    assert run(["rankscan", "--spec", "(bogus 1)", "--mmax", "3"]) == 1
    assert run(["nonsense"]) == 1
    assert run(["decompose", "--m", "2", "--values=1"]) == 1
    assert run(["decompose", "--m", "2", "--values=1/2,1/2"]) == 1  # not a character
    assert run(["rankscan", "--spec", "(cycle 1)", "--mmax", "-1"]) == 1
    # a negative budget is rejected with the options, before any degree
    capsys.readouterr()
    assert run(["rankscan", "--budget", "-1", "--spec", "(vfam 1)", "--mmax", "0"]) == 1
    assert "--budget: invalid nonnegative int value: '-1'" in capsys.readouterr().err
    assert run(["frobpoly", "socle:1,1", "--budget", "-1"]) == 1
    assert run(["frobpoly", "socle:1,1", "--budget", "x"]) == 1
    assert run(["rankscan", "--budget", "0", "--spec", "(vfam 1)", "--mmax", "0"]) == 0


def test_one_call_leaves_no_state_for_the_next(capsys):
    # an option given in one call must not leak into the next
    assert run(["chartable", "3", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["m"] == 3
    assert run(["chartable", "3"]) == 0
    first = capsys.readouterr().out
    assert first == (GOLDEN / "chartable_3.txt").read_text()
    assert run(["chartable", "3"]) == 0
    assert capsys.readouterr().out == first
    assert run(["chartable", "15", "--budget", "15"]) == 0
    assert run(["chartable", "15"]) == 2
    capsys.readouterr()
    # a usage error after a successful call still exits 1, and the next
    # call parses normally again
    assert run(["chartable"]) == 1
    assert run(["chartable", "3", "--bogus"]) == 1
    assert run(["chartable", "3"]) == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize(
    "argv, joined",
    [
        (["rho", "--poly", "-X1 + 1", "--m", "3"], ["rho", "--poly=-X1 + 1", "--m=3"]),
        (["rho", "--poly", "-X1", "--m", "3"], ["rho", "--poly=-X1", "--m=3"]),
        (
            ["decompose", "--m", "2", "--values", "-1,1"],
            ["decompose", "--m=2", "--values=-1,1"],
        ),
    ],
)
def test_option_values_are_taken_as_given(argv, joined, capsys):
    # a value right after its option may start with '-'
    assert run(argv) == 0
    out = capsys.readouterr().out
    assert run(joined) == 0
    assert capsys.readouterr().out == out != ""


COMMANDS = (
    "chartable", "frobpoly", "pieri", "decompose", "cyclepoly", "rho", "rankscan",
    "tensorweight",
)


def test_help_names_every_command_and_option(capsys):
    for flag in ("--help", "-h"):
        assert run([flag]) == 0
        out = capsys.readouterr().out
        assert all(command in out for command in COMMANDS), out
    assert run(["rankscan", "-h"]) == 0
    out = capsys.readouterr().out
    assert all(option in out for option in ("--spec", "--mmax", "--json", "--budget")), out
    assert run(["rankscan", "--spec", "(vfam 1)", "--help"]) == 0
    assert "--mmax" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, message",
    [
        (["nonsense"], "argument command: invalid choice: 'nonsense' (choose from "
         + ", ".join(map(repr, COMMANDS)) + ")"),
        ([], "the following arguments are required: command"),
        (["chartable", "3", "--bogus"], "unrecognized arguments: --bogus"),
        (["tensorweight", "1"], "the following arguments are required: mu, m"),
        (["chartable", "3", "4"], "unrecognized arguments: 4"),
        (["rankscan", "--spec", "(cycle 2)"], "the following arguments are required: --mmax"),
        # option names are spelled in full: no unique-prefix abbreviations
        (["rankscan", "--spec", "(vfam 1)", "--mm", "3"],
         "the following arguments are required: --mmax"),
        (["rho", "--m", "3", "--poly"], "argument --poly: expected one argument"),
        (["chartable", "x"], "argument m: invalid int value: 'x'"),
        (["rho", "--poly", "X1", "--m=x"], "argument --m: invalid int value: 'x'"),
        (["chartable", "3", "--json=1"], "argument --json: ignored explicit argument '1'"),
    ],
)
def test_usage_errors_print_one_line(argv, message, capsys):
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_budget_errors_exit_2(capsys):
    assert run(["chartable", "15"]) == 2
    assert run(["rankscan", "--spec", "(cycle 1)", "--mmax", "15"]) == 2
    assert run(["chartable", "15", "--budget", "15"]) == 0


def test_frobpoly_budget_caps_the_socle_size(capsys):
    # the polynomial of socle s takes kernel rows up to degree |s|
    assert run(["frobpoly", "socle:9,9", "--budget", "3"]) == 2
    assert "exceeds the enumeration budget 3" in capsys.readouterr().err
    assert run(["frobpoly", "20,9,9", "--budget", "3"]) == 2
    assert run(["frobpoly", "socle:2,1", "--budget", "3"]) == 0
    assert run(["frobpoly", "20,2,1", "--budget", "3"]) == 0


def test_bound_check_failure_exit_3(capsys, monkeypatch):
    # the library's own families never violate the theorem bounds, so force
    # a failing report to exercise the exit-code mapping
    import repstab.cli as cli_mod
    from repstab.stability import StabilityReport

    def failing(spec, m_max):
        report = StabilityReport(spec=spec, m_max=m_max)
        report.bound_checks.append(("rank_pc_le_rank_rs", False))
        return report

    monkeypatch.setattr(cli_mod, "verify_equivalence", failing)
    assert run(["rankscan", "--spec", "(vfam 1)", "--mmax", "3"]) == 3
    assert "FAILED" in capsys.readouterr().out

    monkeypatch.setattr(cli_mod, "tensor_weight_bound_holds", lambda *a, **k: False)
    assert run(["tensorweight", "1", "1", "4"]) == 3


def test_rankscan_json_builds_one_report_per_window(capsys, monkeypatch):
    # a render-cache miss builds the one report its fields and exit code
    # come from; a repeat at another m_max in the same window builds none
    from repstab.stability import StabilityReport, stable_window, verify_equivalence

    calls = []

    def counted(spec, m_max):
        calls.append(m_max)
        return verify_equivalence(spec, m_max)

    def scan(text, m_max):
        calls.clear()
        code = run(["rankscan", "--json", "--spec", text, "--mmax", str(m_max), "--budget", str(m_max)])
        return code, len(calls), capsys.readouterr().out

    monkeypatch.setattr(cli, "verify_equivalence", counted)
    repstab.clear_caches()
    text = "(tensor (vfam 2,1) (vfam 1))"
    w = stable_window(parse_spec(text))
    for m_max, reports in [(w + 1, 1), (10**6, 0), (w - 1, 1), (w - 1, 0)]:
        code, made, out = scan(text, m_max)
        assert (code, made) == (0, reports), m_max
        expected = verify_equivalence(parse_spec(text), m_max).to_json_dict()
        assert out == json.dumps(expected, indent=2) + "\n", m_max

    # the exit code is cached with the fields: a failed bound check exits 3
    # on the miss and on the repeat
    def failing(spec, m_max):
        calls.append(m_max)
        return StabilityReport(spec, m_max, bound_checks=[("rank_pc_le_rank_rs", False)])

    monkeypatch.setattr(cli, "verify_equivalence", failing)
    repstab.clear_caches()
    assert scan(text, w + 1)[:2] == (3, 1)
    assert scan(text, w + 2)[:2] == (3, 0)
    repstab.clear_caches()  # no failing render left for later tests


def _int_digits():
    """CPython's cap on the digits of an int/str conversion, 0 when it is
    off or the interpreter has none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


@contextlib.contextmanager
def _no_int_digit_cap():
    """The cap on int/str conversions lifted, as cli.run lifts it."""
    limit = _int_digits()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def test_cyclepoly_prints_coefficients_of_any_size(capsys):
    # cycle_poly(1560) and up have coefficients past CPython's default cap
    # of 4,300 digits, which made the command exit 1
    assert run(["cyclepoly", "1600", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["weight"] == 1600
    with _no_int_digit_cap():
        assert parse_poly(doc["poly"]) == cycle_poly(1600)


def test_rho_prints_values_of_any_size(capsys):
    # 3**9100 has 4,342 digits
    argv = ["rho", "--poly", "X1^9100", "--m", "3"]
    assert run(argv) == 0
    text = capsys.readouterr().out
    assert run([*argv, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    with _no_int_digit_cap():
        assert f"1^3: {3**9100}\n" in text
        assert {"type": "1^3", "value": str(3**9100)} in doc["values"]


def test_run_restores_the_callers_int_digit_cap():
    default = _int_digits()
    for limit in ([640, 0, default] if default else []):
        sys.set_int_max_str_digits(limit)
        try:
            assert run(["rho", "--poly", "X1^9100", "--m", "3"]) == 0
            assert _int_digits() == limit
            assert run(["rho", "--poly", "X1^", "--m", "3"]) == 1
            assert _int_digits() == limit
        finally:
            sys.set_int_max_str_digits(default)
    assert _int_digits() == default


# the caller's environment, PYTHONDONTWRITEBYTECODE included, with the
# library on the path
_CHILD_ENV = {**os.environ, "PYTHONPATH": "src"}


def _run_python(*args, timeout=None):
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=_CHILD_ENV,
        cwd=str(pathlib.Path(__file__).parent.parent),
        timeout=timeout,
    )


def test_entry_point_subprocess():
    out = _run_python("-m", "repstab", "cyclepoly", "1")
    assert out.returncode == 0
    assert out.stdout.strip() == "X1"


def test_a_reader_that_closes_the_pipe_gets_no_traceback():
    # the table of degree 14 is about 220 kB, more than a pipe holds, so
    # the command is still writing when the reader closes after 10 bytes
    proc = subprocess.Popen(
        [sys.executable, "-m", "repstab", "chartable", "14"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_CHILD_ENV,
        cwd=str(pathlib.Path(__file__).parent.parent),
    )
    assert proc.stdout.read(10) == b"character "
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=20) == 1
    assert "Traceback" not in err, err


@pytest.mark.parametrize("spec", ["(cycle 800)", "(tensor (cycle 800) (vfam 1))"])
def test_a_cycle_longer_than_the_window_scans_at_once(spec):
    # (cycle 800) is zero below degree 800, so a scan to 3 need not build
    # its weight-800 polynomial; it took about 30 s when it did
    out = _run_python("-m", "repstab", "rankscan", "--spec", spec, "--mmax", "3", timeout=10)
    assert out.returncode == 0, out.stderr
    assert "rank_rs: 0\nrank_pc: 0\npoly: 0\n" in out.stdout


@pytest.mark.parametrize(
    "spec", ["(cycle 8 8 8 8 8 8 8 8 8 8)", "(cycle 14 14 14 14 14 14 14 14)"]
)
def test_a_heavy_cycle_scans_only_its_window(spec):
    # weights 80 and 112 scanned to 14: only the B_rho with |rho| <= 14 are
    # formed; expanding the whole polynomial in the binomial basis took 15
    # and 28 s
    out = _run_python("-m", "repstab", "rankscan", "--spec", spec, "--mmax", "14", timeout=10)
    assert out.returncode == 0, out.stderr
    assert "rank_rs: 14\nrank_pc: not polynomial\n" in out.stdout


def test_warm_rankscan_documents_match_a_fresh_interpreter(capsys):
    # a --json document renders its fields after certified_to once per
    # scan, keyed by (spec, min(m_max, W)), the window it runs at: windows
    # on both sides of W, run in shuffled order in this interpreter, must
    # each print what a fresh interpreter prints
    from repstab.stability import stable_window
    from test_stability import CI_SPECS

    cases = [
        (text, m_max)
        for text in CI_SPECS
        for w in [stable_window(parse_spec(text))]
        for m_max in (w - 2, w - 1, w, w + 1, 10**6)
    ]
    random.Random(27).shuffle(cases)
    for text, m_max in cases:
        argv = ["rankscan", "--json", "--spec", text, "--mmax", str(m_max), "--budget", str(m_max)]
        assert run(argv) == 0
        warm = capsys.readouterr().out
        fresh = _run_python("-m", "repstab", *argv, timeout=20)
        assert fresh.returncode == 0, fresh.stderr
        assert warm == fresh.stdout, (text, m_max)


def nested(head, depth):
    """A spec whose nodes nest depth deep: head wraps (vfam 1) depth - 1 times."""
    wrap = {"sum": "(sum {})", "tensor": "(tensor {} (vfam 1))", "trunc>=": "(trunc>= 2 {})"}
    spec = "(vfam 1)"
    for _ in range(depth - 1):
        spec = wrap[head].format(spec)
    return spec


@pytest.mark.parametrize("head", ["sum", "tensor", "trunc>="])
def test_nesting_past_the_limit_is_a_parse_error(head):
    # a scan recurses a few frames per level of the tree: about 250 levels
    # of tensor or 330 of sum overflowed the stack inside family_steps
    scan = ("-m", "repstab", "rankscan", "--mmax", "14", "--spec")
    out = _run_python(*scan, nested(head, MAX_SPEC_DEPTH), timeout=20)
    assert out.returncode == 0, out.stderr
    deep = nested(head, MAX_SPEC_DEPTH + 1)
    out = _run_python(*scan, deep, timeout=20)
    assert out.returncode == 1
    assert "parse error" in out.stderr and "Traceback" not in out.stderr, out.stderr
    with pytest.raises(ParseError) as info:
        parse_spec(deep)
    assert info.value.pos == deep.index("(vfam 1)")  # the first node too deep


def test_cli_start_up_imports_neither_argparse_nor_dataclasses():
    # both cost start-up time on every command: argparse pulls in gettext
    # and shutil, dataclasses pulls in inspect and runs exec per class
    code = (
        "import sys, repstab.cli;"
        "print(sorted({'argparse', 'dataclasses'} & set(sys.modules)))"
    )
    out = _run_python("-S", "-c", code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def random_partition(rng, max_part=6, max_len=5):
    return Partition(
        sorted((rng.randint(1, max_part) for _ in range(rng.randint(0, max_len))), reverse=True)
    )


def random_polynomial(rng):
    terms = {}
    for _ in range(rng.randint(0, 5)):
        mono = tuple(
            (v, rng.randint(1, 3))
            for v in sorted(rng.sample(range(1, 7), rng.randint(0, 3)))
        )
        terms[mono] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return CharPolynomial(terms)


def random_spec(rng, depth=0):
    choices = ["vfam", "cycle", "proj"]
    if depth < 2:
        choices += ["tensor", "sum", "trunc", "wle", "wgt"]
    kind = rng.choice(choices)
    if kind == "vfam":
        return VFamily(random_partition(rng), rng.choice(["socle", "padded"]))
    if kind == "cycle":
        parts = [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
        return CycleModule(Partition(sorted(parts, reverse=True)))
    if kind == "proj":
        n = rng.randint(0, 4)
        mults = {}
        for lam in partitions_of(n):
            if rng.random() < 0.5:
                mults[lam] = rng.randint(1, 2)
        return Projective(IrrDecomposition(n, mults))
    if kind == "tensor":
        return Tensor(random_spec(rng, depth + 1), random_spec(rng, depth + 1))
    if kind == "sum":
        return DirectSum(
            tuple(random_spec(rng, depth + 1) for _ in range(rng.randint(0, 3)))
        )
    if kind == "trunc":
        return Truncate(random_spec(rng, depth + 1), rng.randint(0, 9))
    if kind == "wle":
        return WeightTruncateLE(random_spec(rng, depth + 1), rng.randint(0, 5))
    return WeightTruncateGT(random_spec(rng, depth + 1), rng.randint(0, 5))


def test_roundtrip_thousand_random_cases():
    rng = random.Random(20240131)
    for _ in range(1000):
        lam = random_partition(rng)
        assert parse_partition(format_partition(lam)) == lam
        poly = random_polynomial(rng)
        assert parse_poly(format_poly(poly)) == poly
        spec = random_spec(rng)
        assert parse_spec(format_spec(spec)) == spec
