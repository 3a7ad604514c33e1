"""Fixtures shared by the test modules."""

import pytest

from kkinetics import fracoracle, kinetics, specfun


@pytest.fixture
def empty_registries():
    """Empty every per-process table registry, so that the test builds its tables cold.

    Returns the function that empties them, for a test that needs cold tables again.
    """
    def empty():
        for registry in (specfun._kbessel_table, kinetics._shared_table, fracoracle._grid_weights):
            registry.cache_clear()

    empty()
    return empty
