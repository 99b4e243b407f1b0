"""Planning as satisfiability: sequential CNF encoding, a small CDCL solver,
and the behaviour/plan generator pair built on them.

The generators drive the built-in `Solver` themselves: one live solver per
problem and generator, loaded once per step from one growing encoding, with
each horizon's goal an assumption. `encode` and `solve_task` are the
one-shot reference they are checked against: a fresh solver on the task at
one horizon.
"""

from .encoding import (
    CnfTask,
    EncodingError,
    HorizonMismatch,
    MalformedModel,
    decode,
    encode,
    forbid_behaviour,
    forbid_plan,
    solve_task,
)
from .generators import (
    DEFAULT_HORIZONS,
    behaviour_generator_sat,
    plan_generator_sat,
)
from .solver import (
    EXTERNAL_SOLVER_ENV,
    ResourceLimit,
    SatError,
    Solver,
)

__all__ = [
    "CnfTask",
    "DEFAULT_HORIZONS",
    "EXTERNAL_SOLVER_ENV",
    "EncodingError",
    "HorizonMismatch",
    "MalformedModel",
    "ResourceLimit",
    "SatError",
    "Solver",
    "behaviour_generator_sat",
    "decode",
    "encode",
    "forbid_behaviour",
    "forbid_plan",
    "plan_generator_sat",
    "solve_task",
]
