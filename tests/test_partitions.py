import pytest
from hypothesis import given, strategies as st
from math import factorial

from repstab.errors import ParseError
from repstab.partitions import (
    Partition,
    class_size,
    classes,
    cycle_types_of,
    format_cycle_type,
    format_partition,
    parse_partition,
    partitions_of,
)

from bruteforce import class_sizes_by_enumeration, partition_count
from lemmas import double_first


partitions_st = st.lists(st.integers(1, 9), max_size=6).map(
    lambda xs: Partition(sorted(xs, reverse=True))
)


def test_socle_examples():
    assert Partition([3, 2, 2]).socle() == Partition([2, 2])
    assert Partition([5]).socle() == Partition()
    assert Partition().socle() == Partition()


def test_weight_examples():
    assert Partition([3, 2, 2]).weight() == 4
    assert Partition([7]).weight() == 0
    assert Partition([2, 2]).weight() == 2
    assert Partition().weight() == 0


def test_pad_examples():
    assert Partition([1]).pad(5) == Partition([4, 1])
    assert Partition([2, 2]).pad(6) == Partition([2, 2, 2])
    with pytest.raises(ValueError, match="padding too small"):
        Partition([2, 2]).pad(4)


def test_double_first():
    assert double_first(Partition([3, 1])) == Partition([3, 3, 1])
    assert double_first(Partition()) == Partition()
    lam = Partition([2, 2, 1])
    assert double_first(lam).socle() == lam


@given(partitions_st, st.integers(0, 40))
def test_pad_socle_roundtrip(lam, m):
    first = lam.parts[0] if lam else 0
    if m < lam.size + first:
        return
    padded = lam.pad(m)
    assert padded.size == m
    assert padded.socle() == lam


@given(partitions_st)
def test_socle_pad_roundtrip(lam):
    # lam = socle(lam) padded back to |lam|, whenever lam is nonempty
    if lam:
        assert lam.socle().pad(lam.size) == lam


def test_invalid_partition():
    with pytest.raises(ValueError):
        Partition([1, 2])
    with pytest.raises(ValueError):
        Partition([2, 0])


def test_partitions_of_order():
    assert partitions_of(0) == [Partition()]
    assert partitions_of(4) == [
        Partition([4]),
        Partition([3, 1]),
        Partition([2, 2]),
        Partition([2, 1, 1]),
        Partition([1, 1, 1, 1]),
    ]
    assert len(partitions_of(10)) == 42


def test_partition_counts_match_pentagonal_recurrence():
    for m in range(31):
        assert len(partitions_of(m)) == partition_count(m)


def test_partitions_of_distinct_and_sorted():
    for m in range(12):
        ps = partitions_of(m)
        assert len(set(ps)) == len(ps)
        assert ps == sorted(ps, key=lambda p: p.parts, reverse=True)
        assert all(p.size == m for p in ps)


def test_class_starts_against_scan():
    for j in range(13):
        cls = classes(j)
        for k in range(j + 3):
            first = next(
                (i for i, c in enumerate(cls.cycles) if all(x <= k for x in c)),
                len(cls.cycles),
            )
            assert cls.start(k) == first, (j, k)


def test_class_size_examples():
    assert class_size((1, 1, 1)) == 1
    assert class_size((3,)) == 2
    assert class_size((2, 2)) == 3
    assert class_size(()) == 1


def test_class_sizes_against_enumeration():
    for m in range(7):
        expected = class_sizes_by_enumeration(m)
        for t in cycle_types_of(m):
            assert class_size(t) == expected.get(t, 1 if m == 0 else 0)
        record = classes(m)
        assert dict(zip(record.cycles, record.sizes)) == expected


def test_class_sizes_sum_to_group_order():
    for m in range(9):
        assert sum(class_size(t) for t in cycle_types_of(m)) == factorial(m)


def test_partition_text_roundtrip():
    assert parse_partition("3,2,2") == Partition([3, 2, 2])
    assert parse_partition("-") == Partition()
    assert parse_partition("2,١") == Partition([2, 1])  # an Arabic-Indic 1
    assert format_partition(Partition([4, 1])) == "4,1"
    assert format_partition(Partition()) == "-"


def test_cycle_type_text_roundtrip():
    assert format_cycle_type((2, 1, 1)) == "1^2 2^1"
    assert format_cycle_type((3, 3, 2, 1, 1)) == "1^2 2^1 3^2"
    assert format_cycle_type(()) == "-"


def read_cycle_type(text):
    """The descending cycle tuple of 'i^n' factors, written apart from the library."""
    if text == "-":
        return ()
    lengths = []
    for factor in text.split():
        i, n = factor.split("^")
        lengths += [int(i)] * int(n)
    return tuple(sorted(lengths, reverse=True))


# (parser, text, message, pos) for malformed partitions;
# '²' passes str.isdigit but not int(), so it must be refused as a digit
TEXT_ERRORS = [
    (parse_partition, "", "empty partition is spelled '-'", 0),
    (parse_partition, "3,,2", "bad partition part ''", 2),
    (parse_partition, "2,3", "partition parts must be weakly decreasing: (2, 3)", 0),
    (parse_partition, "2,²", "bad partition part '²'", 2),
    (parse_partition, "2, x", "bad partition part 'x'", 3),
    (parse_partition, " 2,x", "bad partition part 'x'", 3),
]


def test_partition_and_cycle_type_errors():
    for parse, text, message, pos in TEXT_ERRORS:
        with pytest.raises(ParseError) as info:
            parse(text)
        assert str(info.value) == f"{message} (at position {pos})", text
        assert info.value.pos == pos, text


@given(partitions_st)
def test_partition_print_parse_identity(lam):
    assert parse_partition(format_partition(lam)) == lam


@given(st.integers(0, 9))
def test_cycle_type_print_parse_identity(m):
    texts = [format_cycle_type(t) for t in cycle_types_of(m)]
    assert len(set(texts)) == len(texts)
    for t, text in zip(cycle_types_of(m), texts):
        assert read_cycle_type(text) == t
