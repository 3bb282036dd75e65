"""The ProfileStore: one table profile per live table name.

A :class:`~repro.relational.table.TableCache` over
:func:`~repro.prep.profile.profile_table` — the same class behind the
serving layer's ``NarrationCache``: a table whose ``Table.fingerprint()``
is the one its entry was built from gets its profile back with no sketch
build, and any content change misses and replaces the entry.  ``version``
counts the profiles built.  The pipeline consults the store only when the
catalog version moved, so the hit/miss counters read per catalog change,
not per turn.
"""

from __future__ import annotations

from typing import Dict

from ..relational.catalog import Database
from ..relational.table import TableCache
from .profile import TableProfile, profile_table


class ProfileStore(TableCache):
    """Thread-safe cache of :class:`TableProfile` objects, keyed by content."""

    def __init__(self) -> None:
        super().__init__(profile_table)

    profile = TableCache.get

    def profile_catalog(self, lake: Database) -> Dict[str, TableProfile]:
        """Profiles for every table of ``lake`` (warm tables hit the cache)."""
        return {table.name: self.profile(table) for table in lake.tables()}

    def stats(self) -> Dict[str, int]:
        return {**super().stats(), "version": self.version}
