"""Shared fixtures: frozen oracle values and the shipped reference tables."""

import json
from importlib import resources
from pathlib import Path

import pytest

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def oracle():
    with open(FIXTURES / "oracle_values.json", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def reference():
    path = resources.files("msindex.data").joinpath("reference_tables.json")
    with path.open(encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def family_sweeps():
    """Default-window sweeps for all five families, run once per session.

    64 steps is enough to bracket every published transition; Brent's
    method on the crossing eigenvalue shrinks each bracket to 1e-9, so
    the refined roots land within 1e-9 of their converged positions.
    """
    from msindex.sweep import DEFAULT_WINDOWS, SweepConfig, sweep

    out = {}
    for fam, (lo, hi) in DEFAULT_WINDOWS.items():
        out[fam] = sweep(fam, SweepConfig(a_min=lo, a_max=hi, steps=64))
    return out
