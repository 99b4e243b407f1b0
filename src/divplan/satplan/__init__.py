"""Planning as satisfiability: sequential CNF encoding, a small CDCL solver,
and the behaviour/plan generator pair built on them.

The generators drive the built-in `Solver` themselves: one live solver per
problem and generator, loaded once per step from one growing encoding, with
each horizon's goal an assumption. `solve_task` is the one-shot call to an
external solver.
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
    SolverBridgeError,
    external_solver_command,
    parse_solver_output,
    solve_external,
    to_dimacs,
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
    "SolverBridgeError",
    "behaviour_generator_sat",
    "decode",
    "encode",
    "external_solver_command",
    "forbid_behaviour",
    "forbid_plan",
    "parse_solver_output",
    "plan_generator_sat",
    "solve_external",
    "solve_task",
    "to_dimacs",
]
