"""prep — sketch-based discovery and preparation over the catalog.

The paper's "automate discovery, guide preparation" made concrete:

* :mod:`repro.prep.sketches` — per-column MinHash + HyperLogLog sketches;
* :mod:`repro.prep.profile` — column/table profiles (what discovery reads);
* :mod:`repro.prep.store` — the ProfileStore (one profile per live table);
* :mod:`repro.prep.discovery` — join candidate ranking over sketches;
* :mod:`repro.prep.align` — the alignment compiler (reified need -> SQL);
* :mod:`repro.prep.pipeline` — the facade the service and sessions use.
"""

from .align import AlignmentCompiler, AlignmentError, JoinEdge, PreparationPlan
from .discovery import JoinCandidate, discover_join_candidates
from .pipeline import PreparationPipeline
from .profile import ColumnProfile, TableProfile, profile_tables
from .sketches import ColumnSketch
from .store import ProfileStore

__all__ = [
    "AlignmentCompiler",
    "AlignmentError",
    "ColumnProfile",
    "ColumnSketch",
    "JoinCandidate",
    "JoinEdge",
    "PreparationPipeline",
    "PreparationPlan",
    "ProfileStore",
    "TableProfile",
    "discover_join_candidates",
    "profile_tables",
]
