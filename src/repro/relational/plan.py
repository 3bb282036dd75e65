"""Logical plans: lower the AST once, execute column-at-a-time many times.

The planner binds every column reference to a position, splits join
conditions into hash-join key pairs plus residuals, compiles expressions
into vector closures (:mod:`repro.relational.vectorized`), and emits a
small tree of operator nodes:

    scan → filter → project / hash-aggregate → sort → limit → set-op

A plan is immutable and reusable: per-execution state (CTE
materializations, subquery results) lives in an :class:`ExecContext`, so
one plan can serve concurrent sessions.  :class:`PlanCache` is the LRU that
:class:`repro.relational.catalog.Database` keys by
``(normalized SQL text, catalog version)`` — a warm hit skips
parse+bind+plan entirely.

This is the only executor: name resolution (star expansion, GROUP BY /
ORDER BY aliases and ordinals, equi-join splitting) comes from
:mod:`repro.relational.semantics`, every expression — HAVING, grouped
projections and ``INSERT ... VALUES`` constants included — is evaluated
by :func:`repro.relational.vectorized.compile_vector`, and the
tuple-at-a-time interpreter the results are checked against lives in
``tests/oracles/row_engine.py``, outside the import graph of ``src/``.
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Tuple

from . import ast
from .aggregates import lookup_aggregate
from .errors import BindError, ExecutionError
from .semantics import (
    Binding,
    aggregates_in,
    bind_group_expr,
    expand_items,
    resolve_group_exprs,
    resolve_output_ref,
    split_equi_condition,
)
from .table import Column, Schema, Table
from .types import DataType, cast_value, common_type, infer_column_type, parse_type_name, sort_key
from .vectorized import (
    Chunk,
    LazyColumns,
    VecFn,
    compile_vector,
    accumulate_aggregate,
    distinct_indices,
    group_rows,
    hash_join_matches,
    order_indices,
    truth_indices,
)


class ExecContext:
    """Per-execution state threaded through one plan run."""

    __slots__ = ("catalog", "cte", "subq")

    def __init__(self, catalog):
        self.catalog = catalog
        self.cte: Dict[int, Chunk] = {}
        self.subq: Dict[Any, Any] = {}


# ----------------------------------------------------------------------
# Plan nodes
# ----------------------------------------------------------------------
class PlanNode:
    """Base class: an operator producing a :class:`Chunk`."""

    def execute(self, ctx: ExecContext) -> Chunk:  # pragma: no cover - abstract
        raise NotImplementedError


class UnitNode(PlanNode):
    """The FROM-less source: one row, zero columns."""

    __slots__ = ()

    def execute(self, ctx: ExecContext) -> Chunk:
        return Chunk([], 1)


class ScanNode(PlanNode):
    """Scan a catalog table via its memoized column-major view (no copy)."""

    __slots__ = ("table_name",)

    def __init__(self, table_name: str):
        self.table_name = table_name

    def execute(self, ctx: ExecContext) -> Chunk:
        table = ctx.catalog.resolve_table(self.table_name)
        return Chunk(table.as_columns(), table.num_rows)


class CTERefNode(PlanNode):
    """Reference a CTE materialized once per execution."""

    __slots__ = ("cte_id",)

    def __init__(self, cte_id: int):
        self.cte_id = cte_id

    def execute(self, ctx: ExecContext) -> Chunk:
        return ctx.cte[self.cte_id]


class SubqueryScanNode(PlanNode):
    """A derived table: ``FROM (SELECT ...) alias``."""

    __slots__ = ("plan",)

    def __init__(self, plan: "SelectPlan"):
        self.plan = plan

    def execute(self, ctx: ExecContext) -> Chunk:
        return self.plan.execute(ctx)


class FilterNode(PlanNode):
    __slots__ = ("input", "predicate", "context")

    def __init__(self, input: PlanNode, predicate: VecFn, context: str):
        self.input = input
        self.predicate = predicate
        self.context = context

    def execute(self, ctx: ExecContext) -> Chunk:
        chunk = self.input.execute(ctx)
        keep = truth_indices(self.predicate(chunk, ctx), self.context)
        if len(keep) == chunk.n:
            return chunk
        return chunk.gather(keep)


class ProjectNode(PlanNode):
    """Evaluate output expressions (plus optional hidden sort-key columns).

    Output column types are inferred here — before DISTINCT / ORDER BY /
    LIMIT trim rows, so trimming never changes a column's type.
    """

    __slots__ = ("input", "fns", "key_fns", "n_out")

    def __init__(self, input: PlanNode, fns: List[VecFn], key_fns: List[VecFn] = ()):
        self.input = input
        self.fns = fns
        self.key_fns = list(key_fns)
        self.n_out = len(fns)

    def execute(self, ctx: ExecContext) -> Chunk:
        chunk = self.input.execute(ctx)
        cols = [fn(chunk, ctx) for fn in self.fns]
        types = [infer_column_type(col) for col in cols]
        for fn in self.key_fns:
            cols.append(fn(chunk, ctx))
            types.append(None)
        return Chunk(cols, chunk.n, types)


class DistinctNode(PlanNode):
    __slots__ = ("input",)

    def __init__(self, input: PlanNode):
        self.input = input

    def execute(self, ctx: ExecContext) -> Chunk:
        chunk = self.input.execute(ctx)
        keep = distinct_indices(chunk)
        if len(keep) == chunk.n:
            return chunk
        return chunk.gather(keep)


class SortNode(PlanNode):
    """Sort by key columns of the input chunk, keeping the first
    ``keep_width`` columns (hidden sort keys are dropped)."""

    __slots__ = ("input", "key_indices", "order_by", "keep_width")

    def __init__(
        self,
        input: PlanNode,
        key_indices: List[int],
        order_by: List[ast.OrderItem],
        keep_width: Optional[int] = None,
    ):
        self.input = input
        self.key_indices = key_indices
        self.order_by = order_by
        self.keep_width = keep_width

    def execute(self, ctx: ExecContext) -> Chunk:
        chunk = self.input.execute(ctx)
        key_cols = [chunk.cols[i] for i in self.key_indices]
        key_rows = list(zip(*key_cols)) if key_cols else [()] * chunk.n
        order = order_indices(key_rows, self.order_by)
        width = chunk.width if self.keep_width is None else self.keep_width
        cols = [[col[i] for i in order] for col in chunk.cols[:width]]
        types = chunk.types[:width] if chunk.types is not None else None
        return Chunk(cols, chunk.n, types)


class LimitNode(PlanNode):
    __slots__ = ("input", "limit", "offset")

    def __init__(self, input: PlanNode, limit: Optional[int], offset: Optional[int]):
        self.input = input
        self.limit = limit
        self.offset = offset

    def execute(self, ctx: ExecContext) -> Chunk:
        chunk = self.input.execute(ctx)
        start = self.offset if self.offset else 0
        stop = None if self.limit is None else start + self.limit
        cols = [col[start:stop] for col in chunk.cols]
        n = len(cols[0]) if cols else len(range(chunk.n)[start:stop])
        return Chunk(cols, n, chunk.types)


class JoinNode(PlanNode):
    """Hash join on equi-key pairs, or nested-loop when none exist.

    NULL keys never match, LEFT/FULL append unmatched left rows (then
    RIGHT/FULL unmatched right rows) after the matches, USING drops the
    duplicate right-side key columns.
    """

    __slots__ = (
        "left",
        "right",
        "join_type",
        "left_keys",
        "right_keys",
        "condition",
        "keep",
    )

    def __init__(
        self,
        left: PlanNode,
        right: PlanNode,
        join_type: str,
        left_keys: List[int],
        right_keys: List[int],
        condition: Optional[VecFn],
        keep: Optional[List[int]] = None,
    ):
        self.left = left
        self.right = right
        self.join_type = join_type
        self.left_keys = left_keys
        self.right_keys = right_keys
        self.condition = condition  # residual (hash) or full predicate (loop)
        self.keep = keep  # merged-column indices kept after USING

    def execute(self, ctx: ExecContext) -> Chunk:
        lchunk = self.left.execute(ctx)
        rchunk = self.right.execute(ctx)
        ln, rn = lchunk.n, rchunk.n

        if self.join_type == "CROSS":
            lidx = [i for i in range(ln) for _ in range(rn)]
            ridx = list(range(rn)) * ln
            return self._assemble(lchunk, rchunk, lidx, ridx)

        if self.left_keys:
            lidx, ridx = hash_join_matches(
                [lchunk.cols[k] for k in self.left_keys],
                [rchunk.cols[k] for k in self.right_keys],
            )
        else:
            lidx = [i for i in range(ln) for _ in range(rn)]
            ridx = list(range(rn)) * ln

        if self.condition is not None and (lidx or not self.left_keys):
            candidate = self._gather_pairs(lchunk, rchunk, lidx, ridx)
            passed = truth_indices(self.condition(candidate, ctx), "JOIN ON")
            lidx = [lidx[p] for p in passed]
            ridx = [ridx[p] for p in passed]

        # Matched-row sets are only needed to find outer-join null rows;
        # skip the O(matches) set builds on plain inner joins (the hot path).
        extra_left: List[int] = []
        extra_right: List[int] = []
        if self.join_type in ("LEFT", "FULL"):
            matched_left = set(lidx)
            extra_left = [i for i in range(ln) if i not in matched_left]
        if self.join_type in ("RIGHT", "FULL"):
            matched_right = set(ridx)
            extra_right = [j for j in range(rn) if j not in matched_right]
        return self._assemble(lchunk, rchunk, lidx, ridx, extra_left, extra_right)

    @staticmethod
    def _gather_pairs(lchunk: Chunk, rchunk: Chunk, lidx, ridx) -> Chunk:
        """Candidate-match chunk for residual evaluation (lazy columns)."""
        thunks = [
            JoinNode._side_thunk(lchunk.cols, k, lidx, (), 0)
            for k in range(lchunk.width)
        ]
        thunks += [
            JoinNode._side_thunk(rchunk.cols, k, ridx, (), 0)
            for k in range(rchunk.width)
        ]
        return Chunk(LazyColumns(thunks), len(lidx))

    @staticmethod
    def _side_thunk(cols, k: int, matched, extra, pad: int):
        """Build one output column on demand: matched rows, then this
        side's unmatched rows, then NULL padding for the other side's."""

        def build() -> List[Any]:
            col = cols[k]
            out = [col[i] for i in matched]
            out += [col[i] for i in extra]
            out += [None] * pad
            return out

        return build

    def _assemble(
        self, lchunk: Chunk, rchunk: Chunk, lidx, ridx, extra_left=(), extra_right=()
    ) -> Chunk:
        n_extra_l, n_extra_r = len(extra_left), len(extra_right)
        thunks = [
            self._side_thunk(lchunk.cols, k, lidx, extra_left, n_extra_r)
            for k in range(lchunk.width)
        ]
        # Right side interleaves its NULL padding (for unmatched left rows)
        # before its own unmatched rows: matches, left extras, right extras.
        thunks += [
            self._right_thunk(rchunk.cols, k, ridx, n_extra_l, extra_right)
            for k in range(rchunk.width)
        ]
        n = len(lidx) + n_extra_l + n_extra_r
        if self.keep is not None:
            thunks = [thunks[i] for i in self.keep]
        return Chunk(LazyColumns(thunks), n)

    @staticmethod
    def _right_thunk(cols, k: int, matched, pad: int, extra):
        def build() -> List[Any]:
            col = cols[k]
            out = [col[j] for j in matched]
            out += [None] * pad
            out += [col[j] for j in extra]
            return out

        return build


class AggregateNode(PlanNode):
    """Hash aggregation grouping on key columns directly.

    Key hashing and aggregate accumulation run over the input chunk; the
    results form a second chunk, ``[group keys | aggregate results]`` with
    one row per group, and HAVING, the grouped select list and the ORDER
    keys are vector closures over *that* chunk (the planner has replaced
    every group key and aggregate call in them by its column there).
    HAVING runs first, so projections only see the surviving groups.
    """

    __slots__ = ("input", "key_fns", "agg_specs", "having", "out_fns", "order_fns", "order_items")

    def __init__(
        self,
        input: PlanNode,
        key_fns: List[VecFn],
        agg_specs: List[Tuple],
        having: Optional[VecFn],
        out_fns: List[VecFn],
        order_fns: List[VecFn],
        order_items: List[ast.OrderItem],
    ):
        self.input = input
        self.key_fns = key_fns
        self.agg_specs = agg_specs
        self.having = having
        self.out_fns = out_fns
        self.order_fns = order_fns
        self.order_items = order_items

    def execute(self, ctx: ExecContext) -> Chunk:
        chunk = self.input.execute(ctx)
        if self.key_fns:
            gids, key_rows = group_rows([fn(chunk, ctx) for fn in self.key_fns], chunk.n)
            ngroups = len(key_rows)
        else:
            gids, key_rows, ngroups = None, [()], 1

        cols: List[List[Any]] = (
            [list(col) for col in zip(*key_rows)] if key_rows else [[] for _ in self.key_fns]
        )
        for agg, arg_fns, distinct in self.agg_specs:
            arg_cols = [fn(chunk, ctx) for fn in arg_fns]
            cols.append(accumulate_aggregate(agg, arg_cols, distinct, gids, ngroups))
        groups = Chunk(cols, ngroups)

        if self.having is not None:
            keep = truth_indices(self.having(groups, ctx), "HAVING clause")
            if len(keep) != ngroups:
                groups = groups.gather(keep)

        out = [fn(groups, ctx) for fn in self.out_fns]
        types = [infer_column_type(col) for col in out]
        if self.order_fns:
            key_cols = [fn(groups, ctx) for fn in self.order_fns]
            order = order_indices(list(zip(*key_cols)), self.order_items)
            out = [[col[i] for i in order] for col in out]
        return Chunk(out, groups.n, types)


class SetOpNode(PlanNode):
    """UNION / INTERSECT / EXCEPT: ``ALL`` keeps the left side's duplicates,
    otherwise the result is de-duplicated."""

    __slots__ = ("left", "right", "op", "all_flag")

    def __init__(self, left: PlanNode, right: PlanNode, op: str, all_flag: bool):
        self.left = left
        self.right = right
        self.op = op
        self.all_flag = all_flag

    def execute(self, ctx: ExecContext) -> Chunk:
        left = self.left.execute(ctx)
        right = self.right.execute(ctx)
        ltypes = left.types or [infer_column_type(col) for col in left.cols]
        rtypes = right.types or [infer_column_type(col) for col in right.cols]
        types = [common_type(a, b) for a, b in zip(ltypes, rtypes)]

        if self.op == "UNION":
            cols = [lc + rc for lc, rc in zip(left.cols, right.cols)]
            result = Chunk(cols, left.n + right.n, types)
            if not self.all_flag:
                result = result.gather(distinct_indices(result))
                result.types = types
            return result

        right_markers = {
            tuple(sort_key(v) for v in row) for row in right.rows()
        }
        if self.op == "INTERSECT":
            keep = [
                i
                for i, row in enumerate(left.rows())
                if tuple(sort_key(v) for v in row) in right_markers
            ]
        elif self.op == "EXCEPT":
            keep = [
                i
                for i, row in enumerate(left.rows())
                if tuple(sort_key(v) for v in row) not in right_markers
            ]
        else:  # pragma: no cover - guarded by the parser
            raise ExecutionError(f"unknown set operation {self.op!r}")
        result = left.gather(keep)
        result.types = types
        if not self.all_flag:
            result = result.gather(distinct_indices(result))
            result.types = types
        return result


class SelectPlan:
    """A fully lowered SELECT: eager CTE materializations + operator tree."""

    __slots__ = ("ctes", "root", "names")

    def __init__(self, ctes: List[Tuple[int, "SelectPlan"]], root: PlanNode, names: List[str]):
        self.ctes = ctes
        self.root = root
        self.names = names

    def execute(self, ctx: ExecContext) -> Chunk:
        for cte_id, plan in self.ctes:
            if cte_id not in ctx.cte:
                ctx.cte[cte_id] = plan.execute(ctx)
        return self.root.execute(ctx)


class LazySubplan:
    """Plans an uncorrelated sub-SELECT on first execution.

    Subqueries bind lazily: one under a predicate that never runs is
    never bound, so its binding errors never surface.  The planned tree
    is memoized, so cached plans keep their subplans.
    """

    __slots__ = ("_thunk", "_plan")

    def __init__(self, thunk: Callable[[], SelectPlan]):
        self._thunk = thunk
        self._plan = None

    def execute(self, ctx: ExecContext) -> Chunk:
        plan = self._plan
        if plan is None:
            plan = self._plan = self._thunk()
        return plan.execute(ctx)


# ----------------------------------------------------------------------
# The planner
# ----------------------------------------------------------------------
class Planner:
    """Lowers SELECT ASTs into :class:`SelectPlan` trees.

    ``env`` maps each CTE name in scope to its ``(id, names)``; a FROM
    name resolves among the CTEs first, then in the catalog.
    """

    def __init__(self, catalog):
        self.catalog = catalog
        self._cte_ids = itertools.count(1)

    # -- entry points ---------------------------------------------------
    def plan(self, select: ast.Select) -> SelectPlan:
        return self._plan_select(select, {})

    # -- SELECT ---------------------------------------------------------
    def _plan_select(self, select: ast.Select, env: Dict[str, Tuple]) -> SelectPlan:
        local_env = dict(env)
        ctes: List[Tuple[int, SelectPlan]] = []
        for name, sub in select.ctes:
            sub_plan = self._plan_select(sub, local_env)
            cte_id = next(self._cte_ids)
            ctes.append((cte_id, sub_plan))
            local_env[name.lower()] = (cte_id, sub_plan.names)

        node, names = self._plan_core(select, local_env)
        for set_op in select.set_ops:
            right_node, right_names = self._plan_core(set_op.select, local_env)
            if len(names) != len(right_names):
                raise BindError(
                    f"{set_op.op} requires equal column counts "
                    f"({len(names)} vs {len(right_names)})"
                )
            node = SetOpNode(node, right_node, set_op.op, set_op.all)
        if select.set_ops:
            if select.order_by:
                node = self._plan_output_order(node, names, select.order_by)
            if select.limit is not None or select.offset:
                node = LimitNode(node, select.limit, select.offset)
        return SelectPlan(ctes, node, names)

    def _plan_core(
        self, select: ast.Select, env: Dict[str, Tuple]
    ) -> Tuple[PlanNode, List[str]]:
        if select.from_clause is None:
            binding = Binding([])
            node: PlanNode = UnitNode()
        else:
            binding, node = self._plan_table_expr(select.from_clause, env)

        subplan = self._subplanner(env)
        if select.where is not None:
            node = FilterNode(
                node, compile_vector(select.where, binding, subplan), "WHERE clause"
            )

        grouped_exprs = [item.expr for item in select.items]
        if select.having is not None:
            grouped_exprs.append(select.having)
        has_aggregates = bool(select.group_by) or any(
            next(aggregates_in(expr), None) is not None for expr in grouped_exprs
        )

        if has_aggregates:
            node, names = self._plan_grouped(select, binding, node, subplan)
            if select.distinct:
                node = DistinctNode(node)
        else:
            if select.having is not None:
                raise BindError("HAVING requires GROUP BY or aggregates")
            node, names = self._plan_projection(select, binding, node, subplan)
        if not select.set_ops and (select.limit is not None or select.offset):
            node = LimitNode(node, select.limit, select.offset)
        return node, names

    # -- FROM -----------------------------------------------------------
    def _plan_table_expr(
        self, texpr: ast.TableExpr, env: Dict[str, Tuple]
    ) -> Tuple[Binding, PlanNode]:
        if isinstance(texpr, ast.TableRef):
            entry = env.get(texpr.name.lower())
            if entry is not None:
                cte_id, names = entry
                binding = Binding([(self._qualifier(texpr.binding_name), n) for n in names])
                return binding, CTERefNode(cte_id)
            table = self.catalog.resolve_table(texpr.name)
            binding = Binding.for_table(texpr.binding_name, table.schema)
            return binding, ScanNode(texpr.name)
        if isinstance(texpr, ast.SubqueryRef):
            sub_plan = self._plan_select(texpr.select, env)
            binding = Binding(
                [(self._qualifier(texpr.alias), n) for n in sub_plan.names]
            )
            return binding, SubqueryScanNode(sub_plan)
        if isinstance(texpr, ast.Join):
            return self._plan_join(texpr, env)
        raise ExecutionError(f"unsupported FROM item: {type(texpr).__name__}")

    @staticmethod
    def _qualifier(name: Optional[str]) -> Optional[str]:
        return name.lower() if name else None

    def _plan_join(
        self, join: ast.Join, env: Dict[str, Tuple]
    ) -> Tuple[Binding, PlanNode]:
        left_binding, left_node = self._plan_table_expr(join.left, env)
        right_binding, right_node = self._plan_table_expr(join.right, env)
        merged = left_binding.merge(right_binding)
        subplan = self._subplanner(env)

        if join.join_type == "CROSS":
            return merged, JoinNode(left_node, right_node, "CROSS", [], [], None)

        condition = join.condition
        using_cols = join.using or []
        if using_cols:
            condition = None

        left_keys: List[int] = []
        right_keys: List[int] = []
        residual_fn: Optional[VecFn] = None
        if using_cols:
            for col in using_cols:
                left_keys.append(Binding(left_binding.entries).resolve(col))
                right_keys.append(Binding(right_binding.entries).resolve(col))
        elif condition is not None:
            pairs, residual_expr = split_equi_condition(condition, left_binding, right_binding)
            left_keys = [p[0] for p in pairs]
            right_keys = [p[1] for p in pairs]
            if pairs:
                if residual_expr is not None:
                    residual_fn = compile_vector(residual_expr, merged, subplan)
            else:
                residual_fn = compile_vector(condition, merged, subplan)

        keep: Optional[List[int]] = None
        if using_cols:
            left_width = len(left_binding.entries)
            right_width = len(right_binding.entries)
            drop = {
                left_width + Binding(right_binding.entries).resolve(col)
                for col in using_cols
            }
            keep = [i for i in range(left_width + right_width) if i not in drop]
            merged = Binding([merged.entries[i] for i in keep])

        node = JoinNode(
            left_node,
            right_node,
            join.join_type,
            left_keys,
            right_keys,
            residual_fn,
            keep,
        )
        return merged, node

    # -- projection / ORDER BY ------------------------------------------
    def _plan_projection(
        self,
        select: ast.Select,
        binding: Binding,
        node: PlanNode,
        subplan: Callable[[ast.Select], LazySubplan],
    ) -> Tuple[PlanNode, List[str]]:
        expanded = expand_items(select.items, binding)
        names = [name for _, name in expanded]
        out_fns = [compile_vector(expr, binding, subplan) for expr, _ in expanded]

        order_by = select.order_by if not select.set_ops else []
        if not order_by:
            node = ProjectNode(node, out_fns)
            if select.distinct:
                node = DistinctNode(node)
            return node, names

        lowered_names = [n.lower() for n in names]
        key_specs: List[Tuple[str, Any]] = []
        for item in order_by:
            expr = item.expr
            if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
                ordinal = expr.value
                if not 1 <= ordinal <= len(expanded):
                    raise BindError(f"ORDER BY ordinal {ordinal} out of range")
                key_specs.append(("out", ordinal - 1))
                continue
            if (
                isinstance(expr, ast.ColumnRef)
                and expr.table is None
                and expr.name.lower() in lowered_names
            ):
                key_specs.append(("out", lowered_names.index(expr.name.lower())))
                continue
            key_specs.append(("fn", compile_vector(expr, binding, subplan)))

        all_output = all(kind == "out" for kind, _ in key_specs)
        if select.distinct and not all_output:
            raise BindError("ORDER BY expressions must appear in SELECT DISTINCT output")

        if select.distinct:
            node = DistinctNode(ProjectNode(node, out_fns))
            key_indices = [idx for _, idx in key_specs]
            node = SortNode(node, key_indices, order_by)
            return node, names

        key_fns = [payload for kind, payload in key_specs if kind == "fn"]
        node = ProjectNode(node, out_fns, key_fns)
        key_indices = []
        hidden = len(out_fns)
        for kind, payload in key_specs:
            if kind == "out":
                key_indices.append(payload)
            else:
                key_indices.append(hidden)
                hidden += 1
        node = SortNode(node, key_indices, order_by, keep_width=len(out_fns))
        return node, names

    def _plan_output_order(
        self, node: PlanNode, names: List[str], order_by: List[ast.OrderItem]
    ) -> PlanNode:
        lowered = [n.lower() for n in names]
        key_indices: List[int] = []
        for item in order_by:
            expr = item.expr
            if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
                key_indices.append(expr.value - 1)
            elif isinstance(expr, ast.ColumnRef):
                target = expr.name.lower()
                if target not in lowered:
                    raise BindError(
                        f"column {expr.name!r} not found; available: {names}"
                    )
                key_indices.append(lowered.index(target))
            else:
                raise BindError("ORDER BY after set operations must use output columns")
        return SortNode(node, key_indices, order_by)

    # -- grouped aggregation --------------------------------------------
    def _plan_grouped(
        self,
        select: ast.Select,
        binding: Binding,
        node: PlanNode,
        subplan: Callable[[ast.Select], LazySubplan],
    ) -> Tuple[PlanNode, List[str]]:
        group_exprs = resolve_group_exprs(select)
        key_fns = [compile_vector(e, binding, subplan) for e in group_exprs]

        expanded = expand_items(select.items, binding)
        names = [name for _, name in expanded]
        out_exprs = [expr for expr, _ in expanded]
        # Deliberately NOT gated on select.set_ops: a grouped operand of a
        # set operation is ordered here, and that pre-sort fixes tie order
        # under the (stable) outer output sort.
        order_exprs = [resolve_output_ref(item.expr, select) for item in select.order_by]
        having = [select.having] if select.having is not None else []

        agg_calls: Dict[Tuple, ast.FunctionCall] = {}
        for expr in out_exprs + having + order_exprs:
            for call in aggregates_in(expr):
                agg_calls.setdefault(call.key(), call)

        agg_specs: List[Tuple] = []
        for call in agg_calls.values():
            agg = lookup_aggregate(call.name)
            assert agg is not None
            if call.is_star:
                if agg.name != "count":
                    raise BindError(f"{call.name}(*) is not supported")
                # COUNT(*) counts a column that is never NULL.
                arg_fns: List[VecFn] = [lambda chunk, ctx: [True] * chunk.n]
            else:
                if len(call.args) != agg.num_args:
                    raise BindError(
                        f"aggregate {agg.name} expects {agg.num_args} args, got {len(call.args)}"
                    )
                arg_fns = [compile_vector(a, binding, subplan) for a in call.args]
            agg_specs.append((agg, arg_fns, call.distinct))

        # Columns of the per-group chunk: group keys, then aggregate results.
        slots = {e.key(): i for i, e in enumerate(group_exprs)}
        for i, key in enumerate(agg_calls, start=len(group_exprs)):
            slots.setdefault(key, i)
        no_names = Binding([])  # bind_group_expr leaves only positional references

        def lower(expr: ast.Expr) -> VecFn:
            return compile_vector(bind_group_expr(expr, slots), no_names, subplan)

        agg_node = AggregateNode(
            node,
            key_fns,
            agg_specs,
            lower(select.having) if select.having is not None else None,
            [lower(expr) for expr in out_exprs],
            [lower(expr) for expr in order_exprs],
            select.order_by,
        )
        return agg_node, names

    # -- subqueries -----------------------------------------------------
    def _subplanner(self, env: Dict[str, Tuple]) -> Callable[[ast.Select], LazySubplan]:
        def make(sub: ast.Select) -> LazySubplan:
            return LazySubplan(lambda: self._plan_select(sub, env))

        return make


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------
def plan_select(catalog, select: ast.Select) -> SelectPlan:
    """Lower one SELECT against the catalog."""
    return Planner(catalog).plan(select)


def run_plan(plan: SelectPlan, catalog) -> Table:
    """Execute a planned SELECT with fresh per-execution state."""
    ctx = ExecContext(catalog)
    try:
        chunk = plan.execute(ctx)
    except OverflowError as exc:  # an int past float range met float arithmetic
        raise ExecutionError(f"numeric overflow: {exc}") from None
    # The chunk's columns (a LazyColumns built once here) become the
    # result's as_columns() memo: a later scan of the result pivots nothing.
    cols = list(chunk.cols)
    rows: List[Tuple] = list(zip(*cols)) if cols else [()] * chunk.n
    types = chunk.types or [infer_column_type(col) for col in cols]
    columns = [
        Column(name, dtype if dtype is not None else infer_column_type(col))
        for name, dtype, col in zip(plan.names, types, cols)
    ]
    return Table.adopt("result", Schema(columns), rows, cols)


def execute_statement_planned(catalog, stmt: ast.Statement) -> Table:
    """Execute one parsed statement (SELECT, DDL or INSERT) against ``catalog``."""
    if isinstance(stmt, ast.Select):
        return run_plan(plan_select(catalog, stmt), catalog)
    if isinstance(stmt, ast.CreateTableAs):
        result = run_plan(plan_select(catalog, stmt.select), catalog).renamed(stmt.name)
        catalog.put_table(result, replace=stmt.or_replace)
        return result
    if isinstance(stmt, ast.CreateTable):
        columns = [Column(c.name, parse_type_name(c.type_name)) for c in stmt.columns]
        table = Table(stmt.name, Schema(columns), [])
        catalog.put_table(table, replace=stmt.or_replace)
        return table
    if isinstance(stmt, ast.InsertValues):
        return _execute_insert(catalog, stmt)
    if isinstance(stmt, ast.DropTable):
        catalog.drop_table(stmt.name, if_exists=stmt.if_exists)
        return Table(stmt.name, Schema([]), [])
    raise ExecutionError(f"unsupported statement: {type(stmt).__name__}")


def _execute_insert(catalog, stmt: ast.InsertValues) -> Table:
    """Append VALUES rows, each value cast to its column's declared type.

    The table is replaced only after every row evaluated and cast, so a
    failing INSERT leaves the table and the catalog version untouched.
    """
    table = catalog.resolve_table(stmt.table)
    names = stmt.columns or table.column_names()
    targets = [table.schema.index_of(n) for n in names]
    subplan = Planner(catalog)._subplanner({})
    constants, one_row, ctx = Binding([]), Chunk([], 1), ExecContext(catalog)
    new_rows = list(table.rows)
    for row_exprs in stmt.rows:
        if len(row_exprs) != len(targets):
            raise ExecutionError(f"INSERT has {len(row_exprs)} values for {len(targets)} columns")
        # Columns not mentioned default to NULL.
        row: List[Any] = [None] * len(table.schema)
        for idx, expr in zip(targets, row_exprs):
            try:
                (value,) = compile_vector(expr, constants, subplan)(one_row, ctx)
            except OverflowError as exc:
                raise ExecutionError(f"numeric overflow: {exc}") from None
            column = table.schema.columns[idx]
            # A NULL-typed column was inferred from all-NULL data, not declared.
            if column.dtype is not DataType.NULL:
                try:
                    value = cast_value(value, column.dtype)
                except ExecutionError as exc:
                    raise ExecutionError(
                        f"INSERT into {table.name}.{column.name}: {exc}"
                    ) from None
            row[idx] = value
        new_rows.append(tuple(row))
    updated = Table(table.name, table.schema, new_rows)
    catalog.put_table(updated, replace=True)
    return updated


# ----------------------------------------------------------------------
# Plan cache
# ----------------------------------------------------------------------
def normalize_sql(sql: str) -> str:
    """Collapse insignificant whitespace so textually-equivalent queries
    share a cache slot.  Quoted regions (string literals and quoted
    identifiers) are preserved byte-for-byte."""
    out: List[str] = []
    pending_space = False
    i, n = 0, len(sql)
    while i < n:
        ch = sql[i]
        if ch in ("'", '"'):
            j = i + 1
            while j < n:
                if sql[j] == ch:
                    if j + 1 < n and sql[j + 1] == ch:  # doubled-quote escape
                        j += 2
                        continue
                    break
                j += 1
            if pending_space and out:
                out.append(" ")
            pending_space = False
            out.append(sql[i : j + 1])
            i = j + 1
        elif ch.isspace():
            pending_space = True
            i += 1
        else:
            if pending_space and out:
                out.append(" ")
            pending_space = False
            out.append(ch)
            i += 1
    return "".join(out)


class PlanCache:
    """A thread-safe LRU of compiled plans with hit/miss/eviction counters.

    Keys are ``(catalog namespace, normalized SQL text, catalog
    version)``; the catalog bumps its version on every DDL/insert, so a
    stale plan can never be served, and the namespace keeps multiple
    catalogs sharing one cache from colliding.  Concurrent sessions share
    one cache under its lock.
    """

    def __init__(self, capacity: int = 128):
        if capacity < 1:
            raise ValueError(f"plan cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple, SelectPlan]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Tuple) -> Optional[SelectPlan]:
        with self._lock:
            plan = self._entries.get(key)
            if plan is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return plan

    def peek(self, key: Tuple) -> Optional[SelectPlan]:
        """The plan under ``key``, if any, counting neither a hit nor a miss."""
        with self._lock:
            return self._entries.get(key)

    def put(self, key: Tuple, plan: SelectPlan) -> None:
        with self._lock:
            self._entries[key] = plan
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "size": len(self._entries),
                "capacity": self.capacity,
            }
