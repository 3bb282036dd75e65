"""The ProfileStore: one table profile (what join discovery reads of
each column, :mod:`repro.prep.profile`) per live table name.

A :class:`~repro.relational.table.TableCache` over
:func:`~repro.prep.profile.profile_tables` — the same class behind the
serving layer's ``NarrationCache``: a table whose ``Table.fingerprint()``
is the one its entry was built from gets its profile back with no sketch
build, and any content change misses and replaces the entry.  The misses
of one call are profiled together, in one sketch pass.  A preparation
pipeline profiles its catalog once, so under a service the hit/miss
counters move per catalog generation, not per turn.
"""

from __future__ import annotations

from typing import Dict

from ..relational.catalog import Database
from ..relational.table import TableCache
from .profile import TableProfile, profile_tables


class ProfileStore(TableCache):
    """Thread-safe cache of :class:`TableProfile` objects, keyed by content."""

    def __init__(self) -> None:
        super().__init__(profile_tables)

    profile = TableCache.get

    def profile_catalog(self, lake: Database) -> Dict[str, TableProfile]:
        """Profiles for every table of ``lake`` (warm tables hit the cache,
        the rest are profiled in one pass)."""
        tables = lake.tables()
        return {table.name: profile for table, profile in zip(tables, self.get_many(tables))}
