"""The family registry is the one table the CLI, the search and verification read."""

import pytest

import subvacuum.verification as verification
from subvacuum.cli import FAMILY_NAMES, SEARCH_FAMILY_NAMES
from subvacuum.state_families import REGISTRY, SEARCHES


def test_cli_family_names_are_registry_entries():
    assert set(FAMILY_NAMES) == set(REGISTRY)


def test_search_names_resolve_to_views_of_registry_entries():
    assert SEARCHES["coherent-pair-free"][0] == "coherent-pair"
    for name in SEARCH_FAMILY_NAMES:
        family, view = SEARCHES[name]
        assert view is REGISTRY[family].searches[name]


def test_verified_entries_are_exactly_the_drawers():
    verified = {name for name, family in REGISTRY.items() if family.verified}
    assert set(verification.FAMILIES) <= set(REGISTRY)
    assert set(verification._DRAWERS) == verified


@pytest.mark.parametrize("name", list(REGISTRY))
def test_defaults_lie_in_domain(name):
    family = REGISTRY[name]
    assert set(family.domain) <= set(family.defaults)
    for key, low in family.domain.items():
        assert family.defaults[key] >= low


@pytest.mark.parametrize("name", [n for n, f in REGISTRY.items() if f.norm is not None])
def test_superposition_defaults_are_normalizable(name):
    family = REGISTRY[name]
    assert family.denominator(family.record(family.defaults)) > 0.0
