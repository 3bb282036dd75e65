"""The scenario class grid: KU cell x hop depth x intent (+ derived axes).

SEARCH_ENGINEER's query-construction model (SNIPPETS.md) classifies an
information need by what the investigator already *knows*: the KU matrix
crosses Known/Unknown over the need's two components — here, whether the
chain's far endpoint is known, and whether the relationship type is.
STATE + INTENT = ACTION: each cell, crossed with hop depth and a
DISCOVER/ENRICH intent, prescribes a distinct investigation behavior the
Seeker must support.

The grid is the coverage contract: ``enumerate_grid()`` is exhaustive over
4 KU cells x 3 hop depths x 2 intents = 24 cells, and each cell carries a
deterministically assigned entity class and relationship type so those
axes are exercised across the grid without squaring its size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

#: Node-class vocabularies (SEARCH_ENGINEER's S/L/N node classes: subjects,
#: locations, narrative records).  ``(plural, singular)`` pairs: the plural
#: names the table, the singular prefixes its columns.
ENTITY_CLASSES = {
    "subject": [
        ("vendors", "vendor"),
        ("brokers", "broker"),
        ("sponsors", "sponsor"),
        ("stewards", "steward"),
        ("carriers", "carrier"),
        ("patrons", "patron"),
    ],
    "location": [
        ("harbors", "harbor"),
        ("depots", "depot"),
        ("districts", "district"),
        ("terminals", "terminal"),
        ("yards", "yard"),
        ("quarries", "quarry"),
    ],
    "narrative": [
        ("contracts", "contract"),
        ("permits", "permit"),
        ("ledgers", "ledger"),
        ("charters", "charter"),
        ("dockets", "docket"),
        ("manifests", "manifest"),
    ],
}

#: Relationship-type vocabulary; each chain edge gets a distinct one, and
#: the cell's assigned type names the first edge (the one a
#: relation-knowing investigator can articulate up front).
RELATION_TYPES = ["custody", "licensing", "dispatch", "oversight", "tenancy", "brokerage"]

#: Distinctive per-node numeric attributes.  None of these (nor any word in
#: the persona templates) trips ``detect_aggregate``: scenario needs are
#: enrichment/discovery needs, not computations.
ATTRIBUTE_WORDS = [
    "margin",
    "rating",
    "exposure",
    "tenure",
    "intensity",
    "clearance",
    "backlog",
    "altitude",
]

_CLASS_ORDER = ["subject", "location", "narrative"]
_KU_CELLS = [(True, True), (True, False), (False, True), (False, False)]
_HOP_DEPTHS = (1, 2, 3)
_INTENTS = ("discover", "enrich")


@dataclass(frozen=True)
class ScenarioCell:
    """One coverage cell: what the investigator knows, wants, and about whom."""

    endpoint_known: bool
    relation_known: bool
    hops: int
    intent: str  # 'discover' | 'enrich'
    entity_class: str  # class of the chain's root node
    relation_type: str  # type of the chain's first edge

    @property
    def ku_code(self) -> str:
        """Two letters: endpoint then relation, K(nown) or U(nknown)."""
        return ("K" if self.endpoint_known else "U") + ("K" if self.relation_known else "U")

    @property
    def cell_id(self) -> str:
        return f"{self.ku_code}-{self.hops}hop-{self.intent}"


def enumerate_grid() -> List[ScenarioCell]:
    """The full scenario grid, in a fixed deterministic order.

    Entity class and relationship type cycle at coprime strides across the
    enumeration, so every class and every relation type appears in several
    KU/hop/intent combinations.
    """
    cells: List[ScenarioCell] = []
    index = 0
    for endpoint_known, relation_known in _KU_CELLS:
        for hops in _HOP_DEPTHS:
            for intent in _INTENTS:
                cells.append(
                    ScenarioCell(
                        endpoint_known=endpoint_known,
                        relation_known=relation_known,
                        hops=hops,
                        intent=intent,
                        entity_class=_CLASS_ORDER[index % len(_CLASS_ORDER)],
                        relation_type=RELATION_TYPES[index % len(RELATION_TYPES)],
                    )
                )
                index += 1
    return cells


def cells_for(stress: str) -> List[ScenarioCell]:
    """The cells a stress mode is defined on (the full grid when quiet).

    Drift renames a request column after turn 1, so it can only perturb a
    cell that has not already converged on turn 1: a KK cell is satisfied
    before the rename fires and would then be graded against a lake it
    never saw.  Append restarts the service between catalog growth and the
    session, which only matters when rows are re-materialized (enrich).
    """
    cells = enumerate_grid()
    if stress == "drift":
        return [cell for cell in cells if cell.ku_code != "KK"]
    if stress == "append":
        return [cell for cell in cells if cell.intent == "enrich"]
    return cells
