"""Diverse planning over behaviour spaces, with SAT and search backends."""

from .bspace import (
    Behaviour,
    BehaviourSpace,
    categorical_score_feature,
    goal_endings_feature,
    ltl_feature,
    pbehaviour,
)
from .core import (
    Fluent,
    GeneratorTimeout,
    GoalFormula,
    GroundAction,
    GroundProblem,
    Plan,
    PlanTrace,
    PlanningError,
    validate_plan,
)
from .fbi import FbiResult, fbi
from .satplan import behaviour_generator_sat, plan_generator_sat
from .searchplan import (
    SearchConfig,
    behaviour_generator_ltl,
    constrained_search,
    plan_generator_ltl,
)

__version__ = "0.1.0"

__all__ = [
    "Behaviour",
    "BehaviourSpace",
    "FbiResult",
    "Fluent",
    "GeneratorTimeout",
    "GoalFormula",
    "GroundAction",
    "GroundProblem",
    "Plan",
    "PlanTrace",
    "PlanningError",
    "SearchConfig",
    "behaviour_generator_ltl",
    "behaviour_generator_sat",
    "categorical_score_feature",
    "constrained_search",
    "fbi",
    "goal_endings_feature",
    "ltl_feature",
    "pbehaviour",
    "plan_generator_ltl",
    "plan_generator_sat",
    "validate_plan",
]
