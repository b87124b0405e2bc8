"""TableCatalog: registration, conflicts, and close."""

from __future__ import annotations

import pytest

from repro.errors import ServingError, TableConflictError, UnknownTableError
from repro.serving import TableCatalog


class TestRegistration:
    def test_register_and_get(self, retail):
        catalog = TableCatalog()
        assert catalog.register("retail", retail) is retail
        assert catalog.get("retail") is retail
        assert "retail" in catalog and catalog.names() == ("retail",)

    def test_register_same_object_idempotent(self, retail):
        catalog = TableCatalog()
        catalog.register("retail", retail)
        assert catalog.register("retail", retail) is retail
        assert len(catalog) == 1

    def test_register_different_table_rejected(self, retail, tiny_table):
        catalog = TableCatalog()
        catalog.register("retail", retail)
        # The typed conflict (HTTP 409) names both explicit remedies.
        with pytest.raises(TableConflictError, match="append_rows"):
            catalog.register("retail", tiny_table)
        with pytest.raises(TableConflictError, match="replace_table"):
            catalog.register("retail", tiny_table)

    def test_empty_name_rejected(self, retail):
        with pytest.raises(ServingError):
            TableCatalog().register("", retail)

    def test_unknown_table(self):
        with pytest.raises(UnknownTableError):
            TableCatalog().get("nope")

    def test_unregister(self, retail):
        catalog = TableCatalog()
        catalog.register("retail", retail)
        catalog.unregister("retail")
        assert "retail" not in catalog
        catalog.unregister("retail")  # idempotent


class TestClose:
    def test_close_is_idempotent(self, retail):
        catalog = TableCatalog()
        catalog.register("retail", retail)
        catalog.close()
        catalog.close()

    def test_closed_catalog_rejects_registration(self, retail):
        catalog = TableCatalog()
        catalog.close()
        with pytest.raises(ServingError):
            catalog.register("retail", retail)
