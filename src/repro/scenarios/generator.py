"""Seeded generator for planted entity-relationship investigation scenarios.

Each scenario is a small data lake built around one *planted chain*:
``chain[0]`` (the root the investigator starts from) is referenced by
``chain[1]`` through a typed foreign key, which is referenced by
``chain[2]``, and so on for the cell's hop depth.  Every table carries a
primary key over its own disjoint id domain, a human-readable label
column, and one distinctive numeric attribute; foreign keys are named
``{parent_singular}_{relation}_ref`` so a narration of the child table
*mentions* its parent — the signal an investigator (and the Conductor's
pivot retrieval) walks.

Around the chain sit distractors: unrelated tables, and a pseudo-bridge
"archive" that mimics the first bridge's name and foreign-key column but
draws its values from a disjoint domain — textually plausible, relationally
dead, so sketch-based discovery correctly refuses it and the planted chain
stays the unique ground truth.

Everything is drawn from one seeded generator derived from
``(seed, cell, stress)``; the same inputs rebuild byte-identical scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..datasets.generator import make_rng, normal, pick, with_nulls
from ..storage.crash import derive_seed  # also imported from here by stress and the benchmark
from .grid import ATTRIBUTE_WORDS, ENTITY_CLASSES, RELATION_TYPES, ScenarioCell

_CLASS_ORDER = ["subject", "location", "narrative"]
_FK_NULL_FRACTION = 0.05


@dataclass(frozen=True)
class ChainEdge:
    """One planted hop: ``child.fk`` references ``parent.pk`` (containment 1)."""

    child: str
    fk: str
    parent: str
    pk: str


@dataclass
class DriftPlan:
    """A mid-session schema drift: rename a request column between turns."""

    table: str
    old_column: str
    new_column: str
    after_turn: int = 1
    applied: bool = False


@dataclass
class PlantedScenario:
    """One generated cell: the lake, the planted truth, and the need."""

    cell: ScenarioCell
    seed: int
    lake: Any  # relational.catalog.Database
    chain: List[str]  # chain[0] = root ... chain[-1] = far endpoint
    nouns: Dict[str, str]  # table -> singular column prefix
    edges: List[ChainEdge]  # edges[i]: chain[i+1] references chain[i]
    relations: List[str]  # relation word per edge; [0] == cell.relation_type
    attrs: Dict[str, str]  # table -> numeric attribute column
    labels: Dict[str, str]  # table -> label column
    distractors: List[str] = field(default_factory=list)
    stress: str = "none"  # 'none' | 'drift' | 'append' | 'noisy'
    drift: Optional[DriftPlan] = None
    broken: bool = False  # break_chain dropped the first bridge

    @property
    def root(self) -> str:
        return self.chain[0]

    @property
    def deep(self) -> str:
        return self.chain[-1]

    def request_columns(self) -> List[Tuple[str, str]]:
        """The two endpoint columns the need asks for, in user order.

        Reads the live ``attrs``/``labels`` maps, so a drift rename applied
        mid-session changes what the persona asks for next — exactly the
        staleness the session must survive.
        """
        named = self.labels if self.cell.intent == "discover" else self.attrs
        return [(self.root, named[self.root]), (self.deep, named[self.deep])]

    def expected_edges(self) -> set:
        """The planted chain as undirected column pairs (alignment oracle)."""
        return {frozenset([(e.child, e.fk), (e.parent, e.pk)]) for e in self.edges}

    def oracle_rows(self) -> List[Tuple[Any, Any]]:
        """The planted join's answer: one ``(root_value, deep_value)`` pair
        per far-endpoint row whose foreign-key path resolves (inner-join
        semantics: a null anywhere on the path drops the row).

        Computed against the *current* lake, so append-stress rows extend
        the expectation and drift renames follow ``request_columns``.
        """
        (root_table, root_col), (deep_table, deep_col) = self.request_columns()
        root = self.lake.resolve_table(root_table)
        root_by_id = dict(
            zip(root.column_values(f"{self.nouns[root_table]}_id"), root.column_values(root_col))
        )
        deep = self.lake.resolve_table(deep_table)
        deep_values = deep.column_values(deep_col)
        pointers = deep.column_values(self.edges[-1].fk)
        # Intermediate tables: id -> parent pointer, per edge below the top.
        hop_maps = []
        for edge in reversed(self.edges[:-1]):
            child = self.lake.resolve_table(edge.child)
            hop_maps.append(
                dict(
                    zip(
                        child.column_values(f"{self.nouns[edge.child]}_id"),
                        child.column_values(edge.fk),
                    )
                )
            )
        rows: List[Tuple[Any, Any]] = []
        for value, pointer in zip(deep_values, pointers):
            for hop in hop_maps:
                if pointer is None:
                    break
                pointer = hop.get(pointer)
            if pointer is None or pointer not in root_by_id:
                continue
            rows.append((root_by_id[pointer], value))
        return rows


def _chain_nouns(cell: ScenarioCell, rng) -> List[Tuple[str, str]]:
    """One (plural, singular) per chain node, classes cycling from the root's."""
    start = _CLASS_ORDER.index(cell.entity_class)
    used: set = set()
    nouns: List[Tuple[str, str]] = []
    for node in range(cell.hops + 1):
        pool = [
            p
            for p in ENTITY_CLASSES[_CLASS_ORDER[(start + node) % len(_CLASS_ORDER)]]
            if p[0] not in used
        ]
        choice = pool[int(rng.integers(0, len(pool)))]
        used.add(choice[0])
        nouns.append(choice)
    return nouns


def _spare_nouns(taken: set, rng, count: int) -> List[Tuple[str, str]]:
    pool = [p for cls in _CLASS_ORDER for p in ENTITY_CLASSES[cls] if p[0] not in taken]
    spares: List[Tuple[str, str]] = []
    for _ in range(count):
        choice = pool.pop(int(rng.integers(0, len(pool))))
        spares.append(choice)
    return spares


def build_scenario(
    cell: ScenarioCell,
    seed: int = 7,
    rows: int = 48,
    stress: str = "none",
    break_chain: bool = False,
) -> PlantedScenario:
    """Generate one cell's scenario: lake + planted chain + need.

    ``stress`` selects a generator mode: ``'noisy'`` adds near-duplicate
    narration twins of both endpoints at build time; ``'drift'`` attaches a
    :class:`DriftPlan` (applied mid-session by the harness); ``'append'``
    marks the scenario for the append-restart runner.  ``break_chain``
    (hops >= 2) drops the first bridge table after building, leaving the
    pseudo-bridge distractor as the only — relationally dead — path: the
    alignment compiler must refuse, and the harness must report the cell
    as failed, not converge through the distractor.
    """
    from ..relational.catalog import Database
    from ..relational.table import Table

    if break_chain and cell.hops < 2:
        raise ValueError("break_chain needs a bridge to drop (hops >= 2)")
    rng = make_rng(derive_seed(seed, cell.cell_id, stress, break_chain))
    chain_nouns = _chain_nouns(cell, rng)
    chain = [plural for plural, _ in chain_nouns]
    nouns = dict(chain_nouns)

    relations = [cell.relation_type]
    relation_pool = [r for r in RELATION_TYPES if r != cell.relation_type]
    for _ in range(cell.hops - 1):
        relations.append(relation_pool.pop(int(rng.integers(0, len(relation_pool)))))

    attr_pool = list(ATTRIBUTE_WORDS)
    attrs: Dict[str, str] = {}
    labels: Dict[str, str] = {}
    for plural, singular in chain_nouns:
        attrs[plural] = f"{singular}_{attr_pool.pop(int(rng.integers(0, len(attr_pool))))}"
        labels[plural] = f"{singular}_label"

    lake = Database(f"scenario_{cell.cell_id}_{stress}_{seed}")
    edges: List[ChainEdge] = []
    ids: Dict[str, List[int]] = {}
    for i, (plural, singular) in enumerate(chain_nouns):
        base = (i + 1) * 1_000_000
        n = rows + int(rng.integers(0, 9))
        table_ids = [base + j for j in range(n)]
        ids[plural] = table_ids
        columns: Dict[str, List[Any]] = {
            f"{singular}_id": list(table_ids),
            labels[plural]: [f"{singular}-{j:04d}" for j in range(n)],
            attrs[plural]: normal(rng, 40.0 + 10.0 * i, 9.0, n, lo=1.0),
        }
        if i > 0:
            parent_plural, parent_singular = chain_nouns[i - 1]
            fk = f"{parent_singular}_{relations[i - 1]}_ref"
            columns[fk] = with_nulls(rng, pick(rng, ids[parent_plural], n), _FK_NULL_FRACTION)
            edges.append(ChainEdge(plural, fk, parent_plural, f"{parent_singular}_id"))
        lake.register(Table.from_columns(plural, columns))

    distractors: List[str] = []

    # Pseudo-bridge: mimics the first child's name and foreign-key column,
    # but its values live in a disjoint domain — no containment, no edge.
    bridge_plural, bridge_singular = chain_nouns[1]
    root_singular = chain_nouns[0][1]
    archive = f"{bridge_plural}_archive"
    n = rows + int(rng.integers(0, 9))
    archive_base = 8_000_000
    lake.register(
        Table.from_columns(
            archive,
            {
                f"{bridge_singular}_archive_id": [archive_base + j for j in range(n)],
                f"{root_singular}_{relations[0]}_ref": with_nulls(
                    rng, [archive_base + 500_000 + j for j in range(n)], _FK_NULL_FRACTION
                ),
                f"{bridge_singular}_remark": [
                    f"{bridge_singular}-remark-{int(v):03d}"
                    for v in rng.integers(0, 40, n)
                ],
            },
        )
    )
    distractors.append(archive)

    # Plain distractors: self-contained tables with disjoint everything.
    for d, (plural, singular) in enumerate(_spare_nouns(set(chain) | {archive}, rng, 2)):
        base = (11 + d) * 1_000_000
        n = rows + int(rng.integers(0, 9))
        attr = ATTRIBUTE_WORDS[int(rng.integers(0, len(ATTRIBUTE_WORDS)))]
        lake.register(
            Table.from_columns(
                plural,
                {
                    f"{singular}_id": [base + j for j in range(n)],
                    f"{singular}_label": [f"{singular}-{j:04d}" for j in range(n)],
                    f"{singular}_{attr}": normal(rng, 500.0 + 40.0 * d, 25.0, n),
                },
            )
        )
        distractors.append(plural)

    scenario = PlantedScenario(
        cell=cell,
        seed=seed,
        lake=lake,
        chain=chain,
        nouns=nouns,
        edges=edges,
        relations=relations,
        attrs=attrs,
        labels=labels,
        distractors=distractors,
        stress=stress,
    )

    if stress == "noisy":
        _add_noisy_twins(scenario, rng, rows)
    if stress == "drift":
        (deep_table, deep_col) = scenario.request_columns()[1]
        singular = nouns[deep_table]
        scenario.drift = DriftPlan(
            table=deep_table,
            old_column=deep_col,
            new_column=f"{singular}_revised_{deep_col[len(singular) + 1:]}",
        )
    if break_chain:
        lake.drop_table(chain[1])
        scenario.broken = True
    return scenario


def _add_noisy_twins(scenario: PlantedScenario, rng, rows: int) -> None:
    """Near-duplicate narration twins of both endpoints.

    A twin shares its endpoint's singular prefix (so its narration is a
    near-duplicate in exactly the tokens the persona uses) but none of its
    request columns — it competes for retrieval slots without offering the
    alignment compiler a false match.
    """
    from ..relational.table import Table

    chain_attr_words = {col.split("_", 1)[1] for col in scenario.attrs.values()}
    spare_attrs = [w for w in ATTRIBUTE_WORDS if w not in chain_attr_words]
    for t, endpoint in enumerate([scenario.root, scenario.deep]):
        singular = scenario.nouns[endpoint]
        base = (14 + t) * 1_000_000
        n = rows + int(rng.integers(0, 9))
        attr = spare_attrs.pop(int(rng.integers(0, len(spare_attrs))))
        twin = f"{endpoint}_registry"
        scenario.lake.register(
            Table.from_columns(
                twin,
                {
                    f"{singular}_registry_id": [base + j for j in range(n)],
                    f"{singular}_memo": [
                        f"{singular}-memo-{int(v):03d}" for v in rng.integers(0, 40, n)
                    ],
                    f"{singular}_{attr}": normal(rng, 200.0 + 30.0 * t, 15.0, n),
                },
            )
        )
        scenario.distractors.append(twin)
