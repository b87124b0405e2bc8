"""Shared fixtures for the serving-tier suite."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.serving import DrillDownServer

_SERVING_DIR = Path(__file__).resolve().parent


def pytest_collection_modifyitems(items):
    """Stamp every test under tests/serving with the ``serving`` marker
    (registered in pytest.ini), so ``-m serving`` selects the tier;
    files named ``*versioning*`` additionally get ``versioning`` so
    ``-m versioning`` selects the append/version suites alone."""
    for item in items:
        try:
            path = Path(str(item.fspath)).resolve()
            in_serving = _SERVING_DIR in path.parents
        except OSError:  # pragma: no cover - exotic collection nodes
            continue
        if in_serving or path.parent == _SERVING_DIR:
            item.add_marker(pytest.mark.serving)
            if "versioning" in path.name:
                item.add_marker(pytest.mark.versioning)


@pytest.fixture
def server(retail):
    """A serving tier over the retail table, serial counting."""
    with DrillDownServer() as tier:
        tier.register_table("retail", retail)
        yield tier
