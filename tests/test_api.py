"""The public names, the names the benchmark harness reaches, and the error
contracts of the class arguments."""

import ast
import importlib
import inspect
import pathlib

import pytest

import repstab
from repstab.characters import ClassFunction, irr_char
from repstab.fbmodules import VFamily
from repstab.partitions import Partition

ROOT = pathlib.Path(__file__).parents[1]
LAYERS = ROOT / "perfbench" / "layers.py"

# the library functions that take a degree of a family, and no cap on it
DEGREE_FUNCTIONS = (
    ("fbmodules", "socles_at"),
    ("fbmodules", "terms_at"),
    ("fbmodules", "character_at"),
    ("stability", "rank_rs_estimate"),
    ("stability", "rank_pc_estimate"),
    ("stability", "verify_equivalence"),
)

# names perfbench reaches besides the SPANS pairs of layers.py
HARNESS_NAMES = (
    ("characters", "irr_char"),
    ("characters", "kernel_name"),
    ("characters", "irr_character"),
    ("characters", "IrrDecomposition.character"),
    ("characters", "IrrDecomposition.total_multiplicity"),
    ("_mnpure", "cache_size"),
    ("cyclepoly", "eval_rho_all"),
    ("cyclepoly", "parse_poly"),
    ("partitions", "format_partition"),
    ("partitions", "parse_partition"),
    ("partitions", "partitions_of"),
)


def spans():
    """The (module, name) pairs of SPANS in layers.py, read without importing
    it, so that no tracer is installed."""
    for node in ast.parse(LAYERS.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["SPANS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("no SPANS in perfbench/layers.py")


def resolve(module, dotted):
    value = importlib.import_module(f"repstab.{module}")
    for attr in dotted.split("."):
        value = getattr(value, attr)
    return value


def test_every_exported_name_resolves():
    missing = [name for name in repstab.__all__ if not hasattr(repstab, name)]
    assert missing == []


def test_every_name_the_benchmark_reaches_resolves():
    pairs = spans()
    assert ("partitions", "cycle_types_of") in pairs
    for module, name in pairs + HARNESS_NAMES:
        assert callable(resolve(module, name)), (module, name)


@pytest.mark.parametrize("module, name", DEGREE_FUNCTIONS)
def test_the_library_takes_no_budget_and_rejects_a_negative_degree(module, name):
    function = resolve(module, name)
    assert list(inspect.signature(function).parameters) in (["spec", "m"], ["spec", "m_max"])
    with pytest.raises(ValueError, match="^degree must be nonnegative$"):
        function(VFamily(Partition([1])), -1)


def test_the_degree_cap_lives_in_the_command_line_alone():
    holders = {
        path.stem: [n for n in ("check_budget", "DEFAULT_BUDGET") if hasattr(module, n)]
        for path in sorted((ROOT / "src" / "repstab").glob("*.py"))
        for module in [importlib.import_module(f"repstab.{path.stem}")]
    }
    assert {stem: names for stem, names in holders.items() if names} == {
        "cli": ["check_budget", "DEFAULT_BUDGET"]
    }


@pytest.mark.parametrize(
    "call",
    [
        lambda: irr_char(Partition([2, 1]), (1, 2)),  # not descending
        lambda: irr_char(Partition([2, 1]), (2, 2)),  # a class of degree 4
        lambda: irr_char(Partition([2, 1]), (3, 0)),
        lambda: ClassFunction(3, {(1, 2): 1}),
        lambda: ClassFunction(3, {(2, 2): 1}),
    ],
)
def test_a_tuple_that_is_no_class_of_the_degree_raises_value_error(call):
    with pytest.raises(ValueError, match="is not a class of degree"):
        call()
