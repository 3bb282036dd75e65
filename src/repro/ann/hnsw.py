"""``HNSWIndex`` is :class:`~repro.ann.exact.ExactIndex` under its old name.

The graph index is gone: at the scale this system serves, an exact scan
is faster to build, faster to search, and exact.  The name stays for one
reader.  The turn-budget benchmark (``benchmarks/turn_budget/layers.py``)
imports it when its module loads and wraps this class's ``add``,
``compile``, ``search_batch`` and ``search_batch_ids``; without the name
every benchmark run stops on ``ImportError``.  Delete this module once
the benchmark wraps its targets by dotted name.
"""

from .exact import ExactIndex

HNSWIndex = ExactIndex

__all__ = ["HNSWIndex"]
