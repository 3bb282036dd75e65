"""Vectorized (column-at-a-time) operator kernels and expression evaluation.

The engine (:mod:`repro.relational.plan`) lowers a SELECT into operator
nodes whose payloads are *vector expression closures* compiled here —
:func:`compile_vector` is the engine's only expression evaluator.  A
closure has the shape ``fn(chunk, ctx) -> list`` — it evaluates one
expression over every row of a :class:`Chunk` at once, so the per-row
interpreter overhead (closure trees, three-valued-logic dispatch, tuple
indexing) is paid once per column instead of once per value.

The kernels inline the common cases (exact numbers, same-type
comparisons, already-boolean predicates) and fall back to the
value-at-a-time rules of :mod:`repro.relational.semantics` for the rest:
three-valued logic, NULL handling in joins and aggregation, cross-type
comparison via textual rendering.  CASE branches are lazy, implemented by
masked evaluation over shrinking row subsets.  The row interpreter under
``tests/oracles/`` holds these results to tuple-at-a-time evaluation.
"""

from __future__ import annotations

import re
from itertools import compress
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from . import ast
from .aggregates import Aggregate, lookup_aggregate
from .errors import BindError, ExecutionError
from .functions import lookup_scalar
from .semantics import Binding, InvertedKey, apply_binary, apply_unary, like_regex, to_bool
from .types import cast_value, compare_values, parse_type_name, sort_key

#: Exact numeric types for fast paths (``type(x) in _NUM`` excludes bool,
#: whose ``type`` is ``bool`` even though it subclasses ``int``).
_NUM = (int, float)


_UNSET = object()


class LazyColumns:
    """Columns materialized on first access (late materialization).

    Join assembly and row gathers produce these so that only the columns
    an expression actually references get built — a ``SELECT t.a, u.c``
    over a six-column join touches two columns, not six.  Supports the
    small sequence surface the operators use: indexing, slicing,
    iteration, ``len`` and truthiness.
    """

    __slots__ = ("_thunks", "_cols")

    def __init__(self, thunks: List[Callable[[], List[Any]]]):
        self._thunks = thunks
        self._cols: List[Any] = [_UNSET] * len(thunks)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self._thunks)))]
        col = self._cols[index]
        if col is _UNSET:
            col = self._cols[index] = self._thunks[index]()
        return col

    def __len__(self) -> int:
        return len(self._thunks)

    def __iter__(self):
        return (self[i] for i in range(len(self._thunks)))

    def __bool__(self) -> bool:
        return bool(self._thunks)


class Chunk:
    """A batch of rows stored column-major: ``cols[i]`` is column *i*.

    ``cols`` is a list of value lists or a :class:`LazyColumns`.
    ``types`` is optional explicit column typing (set-operation results
    carry their ``common_type`` schema); ``None`` means "infer from
    values", matching how projections type their output.
    """

    __slots__ = ("cols", "n", "types")

    def __init__(self, cols, n: int, types=None):
        self.cols = cols
        self.n = n
        self.types = types

    @property
    def width(self) -> int:
        return len(self.cols)

    def gather(self, indices: Sequence[int]) -> "Chunk":
        """A new chunk holding the given rows (columns build lazily)."""
        cols = self.cols

        def thunk(k: int) -> Callable[[], List[Any]]:
            def build() -> List[Any]:
                col = cols[k]
                return [col[i] for i in indices]

            return build

        return Chunk(
            LazyColumns([thunk(k) for k in range(len(cols))]), len(indices), self.types
        )

    def rows(self) -> List[Tuple[Any, ...]]:
        """Row-major view (used by sort keys and set-op markers)."""
        if not self.cols:
            return [()] * self.n
        return list(zip(*self.cols))


#: A compiled vector expression: (chunk, ctx) -> column of chunk.n values.
VecFn = Callable[[Chunk, Any], List[Any]]


# ----------------------------------------------------------------------
# Primitive vector helpers
# ----------------------------------------------------------------------
def truth_indices(values: List[Any], context: str) -> List[int]:
    """Indices where a predicate column is (SQL) TRUE — the filter kernel."""
    out: List[int] = []
    append = out.append
    for i, v in enumerate(values):
        if v is True:
            append(i)
        elif v is None or v is False:
            continue
        elif type(v) in _NUM:
            if v != 0:
                append(i)
        else:
            raise ExecutionError(f"{context} must be a boolean, got {v!r}")
    return out


def _bool3(v: Any, context: str) -> Optional[bool]:
    """to_bool with a fast path for the common already-boolean case."""
    if type(v) is bool or v is None:
        return v
    return to_bool(v, context)


def _cmp(a: Any, b: Any) -> int:
    """compare_values for non-NULL operands, with a same-type fast path.

    Mirrors :func:`repro.relational.types.compare_values` exactly —
    including NaN comparing "equal" to NaN (neither < nor >) and
    cross-type operands falling back to textual rendering.
    """
    ta, tb = type(a), type(b)
    if ta is tb or (ta in _NUM and tb in _NUM):
        if a < b:
            return -1
        if a > b:
            return 1
        return 0
    result = compare_values(a, b)
    assert result is not None  # neither side is None here
    return result


def compare_columns(op: str, lefts: List[Any], rights: List[Any]) -> List[Any]:
    """Vectorized three-valued comparison of two columns."""
    out: List[Any] = []
    append = out.append
    if op == "=":
        for a, b in zip(lefts, rights):
            append(None if a is None or b is None else _cmp(a, b) == 0)
    elif op == "!=":
        for a, b in zip(lefts, rights):
            append(None if a is None or b is None else _cmp(a, b) != 0)
    elif op == "<":
        for a, b in zip(lefts, rights):
            append(None if a is None or b is None else _cmp(a, b) < 0)
    elif op == "<=":
        for a, b in zip(lefts, rights):
            append(None if a is None or b is None else _cmp(a, b) <= 0)
    elif op == ">":
        for a, b in zip(lefts, rights):
            append(None if a is None or b is None else _cmp(a, b) > 0)
    elif op == ">=":
        for a, b in zip(lefts, rights):
            append(None if a is None or b is None else _cmp(a, b) >= 0)
    else:  # pragma: no cover - guarded by the compiler
        raise ExecutionError(f"unknown comparison {op!r}")
    return out


def arithmetic_columns(op: str, lefts: List[Any], rights: List[Any]) -> List[Any]:
    """Vectorized arithmetic / concat.

    The fast path covers exact int/float operands; everything else (dates,
    booleans, strings, type errors) routes through ``apply_binary``, which
    owns those rules and their error messages.
    """
    out: List[Any] = []
    append = out.append
    if op == "+":
        for a, b in zip(lefts, rights):
            if type(a) in _NUM and type(b) in _NUM:
                append(a + b)
            elif a is None or b is None:
                append(None)
            else:
                append(apply_binary(op, a, b))
    elif op == "-":
        for a, b in zip(lefts, rights):
            if type(a) in _NUM and type(b) in _NUM:
                append(a - b)
            elif a is None or b is None:
                append(None)
            else:
                append(apply_binary(op, a, b))
    elif op == "*":
        for a, b in zip(lefts, rights):
            if type(a) in _NUM and type(b) in _NUM:
                append(a * b)
            elif a is None or b is None:
                append(None)
            else:
                append(apply_binary(op, a, b))
    elif op == "/":
        for a, b in zip(lefts, rights):
            if type(a) in _NUM and type(b) in _NUM:
                if b == 0:
                    raise ExecutionError("division by zero")
                append(a / b)
            elif a is None or b is None:
                append(None)
            else:
                append(apply_binary(op, a, b))
    elif op == "%":
        for a, b in zip(lefts, rights):
            if type(a) in _NUM and type(b) in _NUM:
                if b == 0:
                    raise ExecutionError("modulo by zero")
                append(a % b)
            elif a is None or b is None:
                append(None)
            else:
                append(apply_binary(op, a, b))
    elif op == "||":
        for a, b in zip(lefts, rights):
            if type(a) is str and type(b) is str:
                append(a + b)
            elif a is None or b is None:
                append(None)
            else:
                append(apply_binary(op, a, b))
    else:
        for a, b in zip(lefts, rights):
            append(apply_binary(op, a, b))
    return out


def order_indices(
    key_rows: List[Tuple], order_by: List[ast.OrderItem]
) -> List[int]:
    """Stable argsort of per-row key tuples under ORDER BY semantics.

    NULLs rank first/last regardless of direction, DESC inverts via
    ``InvertedKey``.
    """
    directions = [(item.ascending, 1 if item.nulls_last else -1) for item in order_by]

    def key_for(i: int) -> Tuple:
        parts = []
        for value, (ascending, null_rank) in zip(key_rows[i], directions):
            if value is None:
                parts.append((null_rank, (0, 0.0, "")))
            else:
                base = sort_key(value)
                parts.append((0, base if ascending else InvertedKey(base)))
        return tuple(parts)

    indexed = list(range(len(key_rows)))
    indexed.sort(key=key_for)
    return indexed


def distinct_indices(chunk: Chunk) -> List[int]:
    """Indices of the first occurrence of each distinct row."""
    seen: set = set()
    out: List[int] = []
    for i, row in enumerate(chunk.rows()):
        marker = tuple(sort_key(v) for v in row)
        if marker not in seen:
            seen.add(marker)
            out.append(i)
    return out


# ----------------------------------------------------------------------
# Hash join kernel
# ----------------------------------------------------------------------
def hash_join_matches(
    left_key_cols: List[List[Any]],
    right_key_cols: List[List[Any]],
) -> Tuple[List[int], List[int]]:
    """Matching (left, right) row-index pairs for an equi-join.

    NULL keys never match (SQL equi-join semantics).  Keys are raw values,
    so ``1`` and ``1.0`` unify.
    """
    index: Dict[Any, List[int]] = {}
    if len(right_key_cols) == 1:
        for j, key in enumerate(right_key_cols[0]):
            if key is None:
                continue
            index.setdefault(key, []).append(j)
    else:
        for j, key in enumerate(zip(*right_key_cols)):
            if None in key:
                continue
            index.setdefault(key, []).append(j)

    left_out: List[int] = []
    right_out: List[int] = []
    if len(left_key_cols) == 1:
        for i, key in enumerate(left_key_cols[0]):
            if key is None:
                continue
            for j in index.get(key, ()):
                left_out.append(i)
                right_out.append(j)
    else:
        for i, key in enumerate(zip(*left_key_cols)):
            if None in key:
                continue
            for j in index.get(key, ()):
                left_out.append(i)
                right_out.append(j)
    return left_out, right_out


# ----------------------------------------------------------------------
# Hash aggregation kernel
# ----------------------------------------------------------------------
def group_rows(key_cols: List[List[Any]], n: int) -> Tuple[List[int], List[Tuple]]:
    """Assign each row a dense group id; returns (gids, first-seen keys).

    Grouping hashes ``sort_key`` forms, so ``1``, ``1.0`` and ``TRUE`` land
    in one group while the group's *reported* key is the first value seen.
    """
    gids: List[int] = []
    key_rows: List[Tuple] = []
    seen: Dict[Any, int] = {}
    append = gids.append
    if len(key_cols) == 1:
        for v in key_cols[0]:
            h = sort_key(v)
            g = seen.get(h)
            if g is None:
                g = seen[h] = len(key_rows)
                key_rows.append((v,))
            append(g)
    else:
        for raw in zip(*key_cols):
            h = tuple(sort_key(v) for v in raw)
            g = seen.get(h)
            if g is None:
                g = seen[h] = len(key_rows)
                key_rows.append(raw)
            append(g)
    return gids, key_rows


def accumulate_aggregate(
    agg: Aggregate,
    arg_cols: List[List[Any]],
    distinct: bool,
    gids: Optional[List[int]],
    ngroups: int,
) -> List[Any]:
    """Per-group results for one aggregate over the whole input chunk.

    ``gids is None`` means a single implicit group (no GROUP BY).  The
    argument columns are NULL-filtered and de-duplicated chunk-wide (group
    id and arguments together), split by group id in row order, and handed
    to ``agg.reduce`` once per group — the contract spelled out in
    :mod:`repro.relational.aggregates`.
    """
    # Group ids ride along as one more column through both filters.
    cols = arg_cols if gids is None else [*arg_cols, gids]
    if agg.skip_nulls and None in cols[0]:
        present = [v is not None for v in cols[0]]
        cols = [list(compress(col, present)) for col in cols]
    if distinct:
        first_seen = distinct_indices(Chunk(cols, len(cols[0])))
        cols = [[col[i] for i in first_seen] for col in cols]
    if gids is None:
        return [agg.reduce(*cols)]
    *arg_cols, gids = cols
    split: List[List[List[Any]]] = []
    for col in arg_cols:
        buckets: List[List[Any]] = [[] for _ in range(ngroups)]
        for g, v in zip(gids, col):
            buckets[g].append(v)
        split.append(buckets)
    return list(map(agg.reduce, *split))


# ----------------------------------------------------------------------
# Vector expression compiler
# ----------------------------------------------------------------------
def compile_vector(
    expr: ast.Expr,
    binding: Binding,
    subplan: Callable[[ast.Select], Any],
) -> VecFn:
    """Compile ``expr`` into a column-at-a-time evaluator.

    ``binding`` resolves column references to positions at compile (plan)
    time.  ``subplan`` lowers an uncorrelated sub-SELECT into something
    with ``execute(ctx) -> Chunk`` — evaluation defers to first use and is
    memoized per execution in ``ctx``.
    """
    if isinstance(expr, ast.Literal):
        value = expr.value
        return lambda chunk, ctx: [value] * chunk.n
    if isinstance(expr, ast.ColumnRef):
        idx = binding.resolve(expr.name, expr.table)
        return lambda chunk, ctx: chunk.cols[idx]
    if isinstance(expr, ast.Positional):
        idx = expr.index
        return lambda chunk, ctx: chunk.cols[idx]
    if isinstance(expr, ast.Star):
        raise BindError("'*' is only allowed in SELECT lists and COUNT(*)")
    if isinstance(expr, ast.Unary):
        inner = compile_vector(expr.operand, binding, subplan)
        op = expr.op
        if op == "-":

            def neg(chunk: Chunk, ctx) -> List[Any]:
                out: List[Any] = []
                append = out.append
                for v in inner(chunk, ctx):
                    if type(v) in _NUM:
                        append(-v)
                    elif v is None:
                        append(None)
                    else:
                        append(apply_unary("-", v))
                return out

            return neg
        return lambda chunk, ctx: [apply_unary(op, v) for v in inner(chunk, ctx)]
    if isinstance(expr, ast.Binary):
        return _compile_binary(expr, binding, subplan)
    if isinstance(expr, ast.FunctionCall):
        return _compile_function(expr, binding, subplan)
    if isinstance(expr, ast.Case):
        return _compile_case(expr, binding, subplan)
    if isinstance(expr, ast.Cast):
        inner = compile_vector(expr.operand, binding, subplan)
        target = parse_type_name(expr.type_name)
        return lambda chunk, ctx: [cast_value(v, target) for v in inner(chunk, ctx)]
    if isinstance(expr, ast.IsNull):
        inner = compile_vector(expr.operand, binding, subplan)
        if expr.negated:
            return lambda chunk, ctx: [v is not None for v in inner(chunk, ctx)]
        return lambda chunk, ctx: [v is None for v in inner(chunk, ctx)]
    if isinstance(expr, ast.InList):
        return _compile_in_list(expr, binding, subplan)
    if isinstance(expr, ast.InSubquery):
        return _compile_in_subquery(expr, binding, subplan)
    if isinstance(expr, ast.ScalarSubquery):
        plan = subplan(expr.subquery)

        def scalar_subquery(chunk: Chunk, ctx) -> List[Any]:
            if chunk.n == 0:  # no row ever evaluates it, so it is never bound
                return []
            key = ("scalar", id(plan))
            if key not in ctx.subq:
                sub = plan.execute(ctx)
                if sub.width != 1:
                    raise ExecutionError("scalar subquery must return one column")
                if sub.n > 1:
                    raise ExecutionError("scalar subquery returned more than one row")
                ctx.subq[key] = sub.cols[0][0] if sub.n else None
            return [ctx.subq[key]] * chunk.n

        return scalar_subquery
    if isinstance(expr, ast.Exists):
        plan = subplan(expr.subquery)
        negated = expr.negated

        def exists(chunk: Chunk, ctx) -> List[Any]:
            if chunk.n == 0:
                return []
            key = ("exists", id(plan))
            if key not in ctx.subq:
                ctx.subq[key] = plan.execute(ctx).n > 0
            found = ctx.subq[key]
            return [not found if negated else found] * chunk.n

        return exists
    if isinstance(expr, ast.Between):
        operand = compile_vector(expr.operand, binding, subplan)
        low = compile_vector(expr.low, binding, subplan)
        high = compile_vector(expr.high, binding, subplan)
        negated = expr.negated

        def between(chunk: Chunk, ctx) -> List[Any]:
            out: List[Any] = []
            append = out.append
            for v, lo, hi in zip(operand(chunk, ctx), low(chunk, ctx), high(chunk, ctx)):
                if v is None or lo is None or hi is None:
                    append(None)
                    continue
                result = _cmp(v, lo) >= 0 and _cmp(v, hi) <= 0
                append(not result if negated else result)
            return out

        return between
    if isinstance(expr, ast.Like):
        return _compile_like(expr, binding, subplan)
    raise BindError(f"cannot compile expression: {expr!r}")


def _compile_binary(expr: ast.Binary, binding: Binding, subplan) -> VecFn:
    left = compile_vector(expr.left, binding, subplan)
    right = compile_vector(expr.right, binding, subplan)
    op = expr.op
    if op in ("AND", "OR"):
        # AND / OR do not short-circuit: both operand columns are evaluated
        # in full, so an error in either side surfaces.
        is_and = op == "AND"

        def logic(chunk: Chunk, ctx) -> List[Any]:
            out: List[Any] = []
            append = out.append
            for a, b in zip(left(chunk, ctx), right(chunk, ctx)):
                x = _bool3(a, op)
                y = _bool3(b, op)
                if is_and:
                    if x is False or y is False:
                        append(False)
                    elif x is None or y is None:
                        append(None)
                    else:
                        append(True)
                else:
                    if x is True or y is True:
                        append(True)
                    elif x is None or y is None:
                        append(None)
                    else:
                        append(False)
            return out

        return logic
    if op in ("=", "!=", "<", "<=", ">", ">="):
        return lambda chunk, ctx: compare_columns(op, left(chunk, ctx), right(chunk, ctx))
    return lambda chunk, ctx: arithmetic_columns(op, left(chunk, ctx), right(chunk, ctx))


def _compile_function(expr: ast.FunctionCall, binding: Binding, subplan) -> VecFn:
    if lookup_aggregate(expr.name):
        raise BindError(
            f"aggregate {expr.name} is not allowed here (no GROUP BY context)"
        )
    scalar = lookup_scalar(expr.name)
    if scalar is None:
        raise BindError(f"unknown function {expr.name!r}")
    scalar.check_arity(len(expr.args))
    arg_fns = [compile_vector(a, binding, subplan) for a in expr.args]
    invoke = scalar.invoke
    if not arg_fns:
        return lambda chunk, ctx: [invoke([])] * chunk.n
    if len(arg_fns) == 1:
        fn0 = arg_fns[0]
        return lambda chunk, ctx: [invoke([v]) for v in fn0(chunk, ctx)]

    def call(chunk: Chunk, ctx) -> List[Any]:
        arg_cols = [fn(chunk, ctx) for fn in arg_fns]
        return [invoke(list(args)) for args in zip(*arg_cols)]

    return call


def _compile_case(expr: ast.Case, binding: Binding, subplan) -> VecFn:
    """CASE with masked evaluation: each branch only sees the rows that
    reach it, which keeps branches lazy (e.g.
    ``CASE WHEN x = 0 THEN 0 ELSE 1/x END`` never divides by zero)."""
    operand_fn = (
        compile_vector(expr.operand, binding, subplan) if expr.operand is not None else None
    )
    when_fns = [
        (compile_vector(cond, binding, subplan), compile_vector(result, binding, subplan))
        for cond, result in expr.whens
    ]
    else_fn = compile_vector(expr.else_, binding, subplan) if expr.else_ is not None else None

    def case(chunk: Chunk, ctx) -> List[Any]:
        n = chunk.n
        out: List[Any] = [None] * n
        remaining = list(range(n))
        live = chunk
        subjects = operand_fn(chunk, ctx) if operand_fn is not None else None
        for cond_fn, result_fn in when_fns:
            if not remaining:
                break
            conds = cond_fn(live, ctx)
            taken: List[int] = []  # positions within `remaining`
            if operand_fn is not None:
                for pos, c in enumerate(conds):
                    subject = subjects[remaining[pos]]
                    if compare_values(subject, c) == 0:
                        taken.append(pos)
            else:
                for pos, c in enumerate(conds):
                    if _bool3(c, "CASE WHEN") is True:
                        taken.append(pos)
            if taken:
                taken_chunk = live.gather(taken)
                results = result_fn(taken_chunk, ctx)
                for pos, value in zip(taken, results):
                    out[remaining[pos]] = value
                taken_set = set(taken)
                keep = [pos for pos in range(len(remaining)) if pos not in taken_set]
                remaining = [remaining[pos] for pos in keep]
                live = live.gather(keep)
        if else_fn is not None and remaining:
            results = else_fn(live, ctx)
            for i, value in zip(remaining, results):
                out[i] = value
        return out

    return case


def _compile_in_list(expr: ast.InList, binding: Binding, subplan) -> VecFn:
    operand = compile_vector(expr.operand, binding, subplan)
    item_fns = [compile_vector(i, binding, subplan) for i in expr.items]
    negated = expr.negated

    def in_list(chunk: Chunk, ctx) -> List[Any]:
        values = operand(chunk, ctx)
        item_cols = [fn(chunk, ctx) for fn in item_fns]
        out: List[Any] = []
        append = out.append
        for i, value in enumerate(values):
            if value is None:
                append(None)
                continue
            saw_null = False
            found = False
            for col in item_cols:
                item = col[i]
                if item is None:
                    saw_null = True
                elif _cmp(value, item) == 0:
                    found = True
                    break
            if found:
                append(not negated)
            elif saw_null:
                append(None)
            else:
                append(negated)
        return out

    return in_list


def _compile_in_subquery(expr: ast.InSubquery, binding: Binding, subplan) -> VecFn:
    operand = compile_vector(expr.operand, binding, subplan)
    plan = subplan(expr.subquery)
    negated = expr.negated

    def in_subquery(chunk: Chunk, ctx) -> List[Any]:
        if chunk.n == 0:
            return []
        key = ("in", id(plan))
        if key not in ctx.subq:
            sub = plan.execute(ctx)
            if sub.width != 1:
                raise ExecutionError("IN subquery must return one column")
            members = set()
            saw_null = False
            for v in sub.cols[0]:
                if v is None:
                    saw_null = True
                else:
                    members.add(sort_key(v))
            ctx.subq[key] = (members, saw_null)
        members, saw_null = ctx.subq[key]
        out: List[Any] = []
        append = out.append
        for value in operand(chunk, ctx):
            if value is None:
                append(None)
            elif sort_key(value) in members:
                append(not negated)
            elif saw_null:
                append(None)
            else:
                append(negated)
        return out

    return in_subquery


def _compile_like(expr: ast.Like, binding: Binding, subplan) -> VecFn:
    operand = compile_vector(expr.operand, binding, subplan)
    negated, ci = expr.negated, expr.case_insensitive
    if isinstance(expr.pattern, ast.Literal) and isinstance(expr.pattern.value, str):
        # The common shape — a constant pattern — compiles its regex once
        # at plan time instead of consulting a per-row cache.
        regex = like_regex(expr.pattern.value, ci)

        def like_const(chunk: Chunk, ctx) -> List[Any]:
            out: List[Any] = []
            append = out.append
            match = regex.match
            for value in operand(chunk, ctx):
                if value is None:
                    append(None)
                    continue
                if not isinstance(value, str):
                    value = str(value)
                result = bool(match(value))
                append(not result if negated else result)
            return out

        return like_const

    pattern_fn = compile_vector(expr.pattern, binding, subplan)

    def like(chunk: Chunk, ctx) -> List[Any]:
        cache: Dict[str, re.Pattern] = {}
        out: List[Any] = []
        append = out.append
        for value, pattern in zip(operand(chunk, ctx), pattern_fn(chunk, ctx)):
            if value is None or pattern is None:
                append(None)
                continue
            if not isinstance(value, str):
                value = str(value)
            regex = cache.get(pattern)
            if regex is None:
                regex = cache[pattern] = like_regex(pattern, ci)
            result = bool(regex.match(value))
            append(not result if negated else result)
        return out

    return like
