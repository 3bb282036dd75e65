"""Every system's model, built in one place: :data:`MODELS` names the model
each system runs on and the role policies it registers.  Outside this
package the program reaches a model only through ``complete()``, the
prompts and the reply contract, so a hosted model can stand in for a role.
"""

from __future__ import annotations

from .policies import (ConductorPolicy, DSGuruPolicy, FullContextPolicy, MaterializerPolicy,
                       RAGPolicy, StaticPlannerPolicy, UserSimPolicy)
from .rule_llm import RuleLLM

#: system -> (the model the paper runs it on, the policies of its roles)
MODELS = {
    "seeker": ("O4-mini", (ConductorPolicy, MaterializerPolicy)),
    "user_sim": ("GPT-4o", (UserSimPolicy,)),
    "rag": ("O4-mini", (RAGPolicy,)),
    "ds_guru": ("O3", (DSGuruPolicy,)),
    "full_context": ("O3", (FullContextPolicy,)),
    "static_pipeline": ("O4-mini", (StaticPlannerPolicy, MaterializerPolicy)),
}


def build_model(system: str, **kwargs) -> RuleLLM:
    """A fresh model for ``system``; ``kwargs`` go to :class:`RuleLLM` (``limits``)."""
    model_name, policies = MODELS[system]
    llm = RuleLLM(model_name=model_name, **kwargs)
    for policy in policies:
        llm.register(policy())
    return llm
