"""The bitmask kernel must agree with the beta-set reference recursion."""

import pytest

import repstab
from repstab import _mnpure, characters
from repstab.partitions import classes, cycle_types_of, partitions_of

from bruteforce import mn_beta_set


def test_kernel_matches_reference_exhaustively():
    for m in range(11):
        cycle_list = cycle_types_of(m)
        for lam in partitions_of(m):
            expected = tuple(mn_beta_set(lam.parts, c) for c in cycle_list)
            assert _mnpure.char_row(lam.parts) == expected, lam
            for cycles, value in zip(cycle_list, expected):
                assert _mnpure.char_value(lam.parts, cycles) == value, (lam, cycles)


@pytest.mark.parametrize("m", [14, 16])
def test_kernel_matches_reference_sampled_high_degree(m):
    lams = partitions_of(m)
    types = cycle_types_of(m)
    for lam in lams[:: max(1, len(lams) // 12)]:
        for t in types[:: max(1, len(types) // 12)]:
            assert _mnpure.char_value(lam.parts, t) == mn_beta_set(lam.parts, t), (lam, t)


@pytest.mark.parametrize("n", [20, 24])
def test_rows_at_scan_degrees_match_reference(n):
    # long-first-row shapes s[n], as a rank scan builds them: each row is
    # summed from suffixes of sub-rows many degrees down
    cycle_list = classes(n).cycles
    for size in range(5):
        for socle in partitions_of(size):
            shape = socle.pad(n).parts
            expected = tuple(mn_beta_set(shape, c) for c in cycle_list)
            assert _mnpure.char_row(shape) == expected, shape


def test_size_mismatch_raises():
    with pytest.raises(ValueError, match="size mismatch"):
        _mnpure.char_value((2, 1), (2, 2))


def cache_sizes():
    return _mnpure.cache_size(), classes.cache_info().currsize


def test_cache_management():
    repstab.clear_caches()
    assert cache_sizes() == (0, 0)
    _mnpure.char_value((3, 2), (2, 2, 1))
    characters.character_table(4)
    cycle_types_of(6)
    assert all(size > 0 for size in cache_sizes())
    repstab.clear_caches()
    assert cache_sizes() == (0, 0)


def test_kernel_cache_is_bounded():
    repstab.clear_caches()
    characters.character_table(20)
    assert 0 < _mnpure.cache_size() <= _mnpure.ROW_CACHE_ROWS


def test_kernel_keeps_one_row_per_shape():
    # normalised masks give each shape one key, so the table of degree 10
    # leaves exactly one row for every shape of degree <= 10
    repstab.clear_caches()
    characters.character_table(10)
    assert _mnpure.cache_size() == sum(len(partitions_of(j)) for j in range(11))
