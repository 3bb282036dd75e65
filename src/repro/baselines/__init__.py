"""baselines — every comparison system of §4 plus the static-pipeline
ablation of §3.5."""

from .ds_guru import DSGuruRunner
from .full_context import FullContextAnswer, FullContextRunner
from .rag_system import RAGSystem
from .seeker_system import SeekerSystem
from .static_pipeline import StaticPipelineRunner
from .static_systems import FTSSystem, RetrieverOnlySystem, raw_text_index

__all__ = [
    "FTSSystem",
    "raw_text_index",
    "RetrieverOnlySystem",
    "RAGSystem",
    "SeekerSystem",
    "DSGuruRunner",
    "FullContextRunner",
    "FullContextAnswer",
    "StaticPipelineRunner",
]
