"""repro — a reproduction of the Pneuma Project (CIDR 2026).

Pneuma-Seeker reifies a user's information need as a relational data model
``(T, Q)`` and iteratively aligns it with available data through
language-guided interaction.  README.md ("Layout") is the system inventory,
its "Benchmarks" section reproduces the paper's tables and figures, and
PAPER.md holds the paper's abstract.
"""

__version__ = "1.0.0"
