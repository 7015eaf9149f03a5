"""Fixtures shared by the test modules."""

import sys
from pathlib import Path

import pytest


@pytest.fixture
def oracles():
    """perfbench/oracles.py: mpmath/scipy references that import no bdm."""
    pytest.importorskip("mpmath")
    pytest.importorskip("scipy")
    path = str(Path(__file__).resolve().parents[1] / "perfbench")
    if path not in sys.path:
        sys.path.insert(0, path)
    import oracles
    return oracles
