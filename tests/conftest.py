import tracemalloc

import numpy as np
import pytest

import rrsim
from rrsim.chip import UNITS_PER_PAIR


@pytest.fixture(scope="session")
def profile():
    return rrsim.default_profile()


@pytest.fixture(scope="session")
def small_geometry():
    # Big enough for a 32-bit payload at replica 256 plus spare reference cells.
    return rrsim.ChipGeometry(address_count=16384)


@pytest.fixture
def chip(profile, small_geometry):
    return rrsim.new_chip(small_geometry, profile, seed=42)


def fresh_chip(profile, seed, addresses=16384):
    return rrsim.new_chip(rrsim.ChipGeometry(address_count=addresses),
                          profile, seed=seed)


def wear_pairs(chip, addresses=None):
    """Set-reset pairs of wear per cell, as floats; every cell by default."""
    if addresses is None:
        addresses = np.arange(chip.geometry.address_count)
    return chip.wear_units(addresses) / UNITS_PER_PAIR


def rng_for(seed):
    return np.random.Generator(np.random.PCG64(seed))


def traced_peak(fn):
    """Peak traced bytes above those allocated when `fn` starts."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
