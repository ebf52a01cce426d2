"""The family registry is the one table the CLI, the search and verification read."""

import pytest

import subvacuum.verification as verification
from subvacuum.cli import FAMILY_NAMES, SEARCH_FAMILY_NAMES
from subvacuum.state_families import REGISTRY, SCALAR, SEARCHES


def test_cli_family_names_are_registry_entries():
    assert set(FAMILY_NAMES) == set(REGISTRY)


def test_search_names_resolve_to_views_of_registry_entries():
    assert SEARCHES["coherent-pair-free"][0] == "coherent-pair"
    for name in SEARCH_FAMILY_NAMES:
        family, view = SEARCHES[name]
        assert view is REGISTRY[family].searches[name]


def test_verified_families_are_registry_entries():
    # registry order keys each family's verification stream
    assert list(verification.FAMILIES) == [name for name, family in REGISTRY.items() if family.oracle is not None]


@pytest.mark.parametrize("name", verification.FAMILIES)
def test_draw_ranges_cover_every_key_in_defaults_order(name):
    family = REGISTRY[name]
    assert tuple(family.draws) == tuple(family.defaults)
    assert all(upper > 0.0 for upper in family.draws.values())


@pytest.mark.parametrize("name", list(REGISTRY))
def test_defaults_lie_in_domain(name):
    family = REGISTRY[name]
    assert set(family.domain) <= set(family.defaults)
    for key, low in family.domain.items():
        assert family.defaults[key] >= low


@pytest.mark.parametrize("name", [n for n, f in REGISTRY.items() if f.layout is not SCALAR])
def test_superposition_defaults_are_normalizable(name):
    # a state that is no superposition has the denominator 1
    family = REGISTRY[name]
    assert family.moments(family.record(family.defaults)).denominator > 0.0
