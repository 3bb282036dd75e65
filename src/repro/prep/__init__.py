"""prep — sketch-based discovery and preparation over the catalog.

The paper's "automate discovery, guide preparation" made concrete:

* :mod:`repro.prep.sketches` — per-column MinHash + HyperLogLog sketches;
* :mod:`repro.prep.profile` — column/table profiles (sketches + statistics);
* :mod:`repro.prep.store` — the ProfileStore (one profile per live table);
* :mod:`repro.prep.discovery` — join candidate ranking over sketches;
* :mod:`repro.prep.align` — the alignment compiler (reified need -> SQL);
* :mod:`repro.prep.pipeline` — the facade the service and sessions use.
"""

from .align import AlignmentCompiler, AlignmentError, JoinEdge, PreparationPlan
from .discovery import JoinCandidate, discover_join_candidates
from .pipeline import PreparationPipeline
from .profile import ColumnProfile, TableProfile, profile_column, profile_table, type_family
from .sketches import ColumnSketch, encode_values
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
    "encode_values",
    "profile_column",
    "profile_table",
    "type_family",
]
