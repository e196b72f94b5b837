"""The bitmask kernel must agree with the beta-set reference recursion."""

import pytest

from repstab import _mnpure
from repstab import characters
from repstab.partitions import classes, cycle_types_of, partitions_of

from bruteforce import mn_beta_set


def test_kernel_matches_reference_exhaustively():
    for m in range(11):
        cycle_list = [t.cycles_desc() for t in cycle_types_of(m)]
        for lam in partitions_of(m):
            expected = tuple(mn_beta_set(lam.parts, c) for c in cycle_list)
            assert _mnpure.char_row(lam.parts, cycle_list) == expected, lam
            for cycles, value in zip(cycle_list, expected):
                assert _mnpure.char_value(lam.parts, cycles) == value, (lam, cycles)


@pytest.mark.parametrize("m", [14, 16])
def test_kernel_matches_reference_sampled_high_degree(m):
    lams = partitions_of(m)
    types = cycle_types_of(m)
    for lam in lams[:: max(1, len(lams) // 12)]:
        for t in types[:: max(1, len(types) // 12)]:
            cycles = t.cycles_desc()
            assert _mnpure.char_value(lam.parts, cycles) == mn_beta_set(
                lam.parts, cycles
            ), (lam, t)


def test_size_mismatch_raises():
    with pytest.raises(ValueError, match="size mismatch"):
        _mnpure.char_value((2, 1), (2, 2))
    with pytest.raises(ValueError, match="size mismatch"):
        _mnpure.char_row((2, 1), [(2, 1), (2, 2)])


def cache_sizes():
    return _mnpure.cache_size(), classes.cache_info().currsize


def test_cache_management():
    characters.clear_caches()
    assert cache_sizes() == (0, 0)
    _mnpure.char_value((3, 2), (2, 2, 1))
    characters.character_table(4)
    cycle_types_of(6)
    assert all(size > 0 for size in cache_sizes())
    characters.clear_caches()
    assert cache_sizes() == (0, 0)
