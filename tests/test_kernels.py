"""The bitmask kernel must agree with the beta-set reference recursion."""

import pytest

from repstab import _mnpure
from repstab import characters
from repstab.partitions import cycle_types_of, partitions_of

from bruteforce import mn_beta_set


def test_kernel_matches_reference_exhaustively():
    for m in range(11):
        for lam in partitions_of(m):
            for t in cycle_types_of(m):
                cycles = t.cycles_desc()
                assert _mnpure.char_value(lam.parts, cycles) == mn_beta_set(
                    lam.parts, cycles
                ), (lam, t)


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
    with pytest.raises(ValueError):
        _mnpure.char_value((2, 1), (2, 2))


def test_cache_management():
    characters.clear_caches()
    assert _mnpure.cache_size() == 0
    _mnpure.char_value((3, 2), (2, 2, 1))
    assert _mnpure.cache_size() > 0
    characters.clear_caches()
    assert _mnpure.cache_size() == 0
