"""Role-specific policies behind the offline RuleLLM."""

from .conductor import ConductorPolicy
from .ds_guru import DSGuruPolicy
from .full_context import FullContextPolicy
from .materializer import MaterializerPolicy
from .rag import RAGPolicy
from .static_planner import StaticPlannerPolicy
from .user_sim import UserSimPolicy

__all__ = [
    "ConductorPolicy",
    "MaterializerPolicy",
    "RAGPolicy",
    "UserSimPolicy",
    "DSGuruPolicy",
    "FullContextPolicy",
    "StaticPlannerPolicy",
]
