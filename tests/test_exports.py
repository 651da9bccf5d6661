"""The package's export list: sorted, without repeats, and every name defined."""

import posenergy


def test_all_is_sorted_unique_and_resolves():
    names = posenergy.__all__
    assert names == sorted(set(names))
    assert [name for name in names if not hasattr(posenergy, name)] == []
