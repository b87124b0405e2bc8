"""Simulated disk storage substrate (Section 4's cost model)."""

from repro.storage.disk import DEFAULT_PAGE_READ_SECONDS, DiskTable, IOStats, ScanContext

__all__ = [
    "DEFAULT_PAGE_READ_SECONDS",
    "DiskTable",
    "IOStats",
    "ScanContext",
]
