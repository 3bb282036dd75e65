"""The alignment compiler: reified need -> executable preparation plan.

Takes a :class:`~repro.core.state.TargetTable` spec (the paper's ``T``)
plus the join candidates discovery surfaced, resolves every target column
to a concrete lake column, connects the source tables through the
candidate graph, and compiles the whole thing to one SELECT executed on
the columnar engine.  Compilation is total-or-nothing: anything the
compiler cannot guarantee — web provenance, transforms, unresolvable
columns, disconnected tables — raises :class:`AlignmentError` and the
caller falls back to the LLM materialization loop.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.state import TargetTable
from ..relational.catalog import Database
from ..relational.errors import RelationalError
from ..relational.table import Table
from .discovery import JoinCandidate

#: Integration hints the compiler can honor.  Anything else (``web``,
#: ``interpolate``, ``transform``, ...) needs the generate/repair loop.
_SUPPORTED_HINTS = {"join"}


class AlignmentError(Exception):
    """The spec cannot be compiled to a lake-only preparation plan."""


@dataclass
class JoinEdge:
    """One equi-join step of the compiled plan."""

    left_table: str
    left_column: str
    right_table: str
    right_column: str
    containment: float

    def condition(self) -> str:
        return f"{self.left_table}.{self.left_column} = {self.right_table}.{self.right_column}"


@dataclass
class PreparationPlan:
    """A compiled, executable preparation plan for one target table."""

    target: str
    sql: str
    tables: List[str]
    joins: List[JoinEdge] = field(default_factory=list)
    column_map: List[Tuple[str, str, str]] = field(default_factory=list)  # (target, table, column)


class AlignmentCompiler:
    """Compile target-table specs against one lake + one candidate set."""

    def __init__(self, lake: Database, candidates: Sequence[JoinCandidate]):
        self.lake = lake
        # Undirected adjacency keyed by lowercase table name; the best
        # (highest-containment) candidate per table pair wins.
        self._adjacency: Dict[str, Dict[str, JoinCandidate]] = {}
        for candidate in candidates:
            self._add_edge(candidate)

    def _add_edge(self, candidate: JoinCandidate) -> None:
        left = candidate.left_table.lower()
        right = candidate.right_table.lower()
        # Prefer containment, then key-like (high-distinct) join columns:
        # a category column can tie a true FK on containment (both 1.0)
        # but joining on it fans rows out instead of matching entities.
        rank = (candidate.containment, candidate.key_cardinality)
        for a, b in ((left, right), (right, left)):
            best = self._adjacency.setdefault(a, {}).get(b)
            if best is None or rank > (best.containment, best.key_cardinality):
                self._adjacency[a][b] = candidate

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def compile(self, spec: TargetTable) -> PreparationPlan:
        if not spec.columns:
            raise AlignmentError(f"target {spec.name!r} declares no columns")
        unsupported = set(spec.integration) - _SUPPORTED_HINTS
        if unsupported:
            raise AlignmentError(
                f"integration hints {sorted(unsupported)} need the materialization loop"
            )

        column_map = [(c.name, *self._resolve(c.name, c.source, spec)) for c in spec.columns]
        targets = [name for name, _, _ in column_map]
        if len(set(n.lower() for n in targets)) != len(targets):
            raise AlignmentError(f"duplicate target column names in {spec.name!r}")

        tables: List[str] = []
        for _, table, _ in column_map:
            if table not in tables:
                tables.append(table)
        joins = self._connect(tables, spec)

        select_list = ", ".join(
            f"{table}.{column} AS {target}" for target, table, column in column_map
        )
        sql = f"SELECT {select_list} FROM {tables[0]}"
        ordered = [tables[0]]
        for edge in joins:
            new_table = edge.right_table if edge.right_table not in ordered else edge.left_table
            ordered.append(new_table)
            sql += f" JOIN {new_table} ON {edge.condition()}"

        plan = PreparationPlan(
            target=spec.name, sql=sql, tables=ordered, joins=joins, column_map=column_map
        )
        try:
            # Bind errors surface at compile time, and the plan lands in the
            # lake's plan cache for execute() to run.
            self.lake.plan(sql)
        except RelationalError as exc:
            raise AlignmentError(f"compiled SQL failed to bind: {exc}") from exc
        return plan

    def execute(self, plan: PreparationPlan) -> Table:
        """Run the plan on the columnar engine; result carries the target name."""
        try:
            return self.lake.execute(plan.sql).renamed(plan.target)
        except RelationalError as exc:
            raise AlignmentError(f"preparation plan failed: {exc}") from exc

    # ------------------------------------------------------------------
    # Column resolution
    # ------------------------------------------------------------------
    def _resolve(self, name: str, source: str, spec: TargetTable) -> Tuple[str, str]:
        """Map one target column to a concrete ``(table, column)`` pair."""
        if source:
            if ":" in source:  # e.g. 'web:tariff-schedule'
                raise AlignmentError(f"column {name!r} has non-lake provenance {source!r}")
            if "." in source:
                table_name, column = source.split(".", 1)
                table = self.lake.find_table(table_name)
                if table is None:
                    raise AlignmentError(f"source table {table_name!r} not in the lake")
                if not table.schema.has_column(column):
                    raise AlignmentError(f"source column {source!r} not found")
                return table.name, table.schema.column(column).name
            # A bare source names a column; fall through to search for it.
            name = source
        matches: List[Tuple[str, str]] = []
        search_order = [t for t in spec.base_tables if self.lake.find_table(t) is not None]
        search_order += [
            t.name for t in self.lake.tables() if t.name.lower() not in
            {s.lower() for s in search_order}
        ]
        for table_name in search_order:
            table = self.lake.find_table(table_name)
            if table is not None and table.schema.has_column(name):
                matches.append((table.name, table.schema.column(name).name))
        in_base = [m for m in matches if m[0].lower() in {b.lower() for b in spec.base_tables}]
        pool = in_base or matches
        if not pool:
            raise AlignmentError(f"no lake column matches target column {name!r}")
        if len(pool) > 1:
            raise AlignmentError(
                f"target column {name!r} is ambiguous: {sorted(t for t, _ in pool)}"
            )
        return pool[0]

    # ------------------------------------------------------------------
    # Join-path construction
    # ------------------------------------------------------------------
    def _connect(self, tables: List[str], spec: TargetTable) -> List[JoinEdge]:
        """Join edges connecting ``tables``, in an order where each edge
        attaches exactly one new table to the already-connected set."""
        if len(tables) <= 1:
            return []
        adjacency = self._adjacency
        hint = spec.integration.get("join")
        if hint:
            hinted = self._hinted_candidate(hint, tables)
            if hinted is not None:
                # The compiled graph outlives this call; the hint gets a copy.
                adjacency = {t: dict(n) for t, n in adjacency.items()}
                left = hinted.left_table.lower()
                right = hinted.right_table.lower()
                adjacency.setdefault(left, {})[right] = hinted
                adjacency.setdefault(right, {})[left] = hinted

        connected = {tables[0].lower()}
        edges: List[JoinEdge] = []
        for target in tables[1:]:
            if target.lower() in connected:
                continue
            path = self._shortest_path(adjacency, connected, target.lower())
            if path is None:
                raise AlignmentError(
                    f"no discovered join path connects {target!r} for target {spec.name!r}"
                )
            for candidate, new_table in path:
                # Orient the edge so the right side is the newly attached table.
                if candidate.left_table.lower() == new_table:
                    edge = JoinEdge(
                        left_table=candidate.right_table,
                        left_column=candidate.right_column,
                        right_table=candidate.left_table,
                        right_column=candidate.left_column,
                        containment=candidate.containment,
                    )
                else:
                    edge = JoinEdge(
                        left_table=candidate.left_table,
                        left_column=candidate.left_column,
                        right_table=candidate.right_table,
                        right_column=candidate.right_column,
                        containment=candidate.containment,
                    )
                edges.append(edge)
                connected.add(new_table)
        return edges

    def _hinted_candidate(
        self, hint: Mapping[str, str], tables: List[str]
    ) -> Optional[JoinCandidate]:
        """An integration 'join' hint as a forced, top-confidence edge."""
        right = hint.get("table")
        left_on = hint.get("left_on")
        right_on = hint.get("right_on")
        if not (right and left_on and right_on) or not tables:
            return None
        left_table = self.lake.find_table(tables[0])
        right_table = self.lake.find_table(right)
        if left_table is None or right_table is None:
            return None
        if not left_table.schema.has_column(left_on):
            return None
        if not right_table.schema.has_column(right_on):
            return None
        return JoinCandidate(
            left_table=left_table.name,
            left_column=left_table.schema.column(left_on).name,
            right_table=right_table.name,
            right_column=right_table.schema.column(right_on).name,
            jaccard=1.0,
            containment=1.0,
            key_cardinality=float("inf"),  # a forced hint outranks any discovered edge
        )

    @staticmethod
    def _shortest_path(
        adjacency: Dict[str, Dict[str, JoinCandidate]],
        connected: set,
        target: str,
    ) -> Optional[List[Tuple[JoinCandidate, str]]]:
        """BFS from the connected set to ``target`` through the candidate
        graph; ties between equal-hop frontiers break on containment."""
        parents: Dict[str, Tuple[str, JoinCandidate]] = {}
        frontier = deque(sorted(connected))
        seen = set(connected)
        while frontier:
            node = frontier.popleft()
            neighbors = sorted(
                adjacency.get(node, {}).items(),
                key=lambda item: (-item[1].containment, -item[1].key_cardinality, item[0]),
            )
            for neighbor, candidate in neighbors:
                if neighbor in seen:
                    continue
                parents[neighbor] = (node, candidate)
                if neighbor == target:
                    path: List[Tuple[JoinCandidate, str]] = []
                    current = target
                    while current not in connected:
                        parent, edge = parents[current]
                        path.append((edge, current))
                        current = parent
                    path.reverse()
                    return path
                seen.add(neighbor)
                frontier.append(neighbor)
        return None
