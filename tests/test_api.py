"""The public names, the names the benchmark harness reaches, and the error
contracts of the class arguments."""

import ast
import importlib
import pathlib

import pytest

import repstab
from repstab.characters import ClassFunction, irr_char
from repstab.partitions import Partition

LAYERS = pathlib.Path(__file__).parents[1] / "perfbench" / "layers.py"

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
