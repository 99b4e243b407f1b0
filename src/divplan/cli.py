"""Command-line front end: plan, validate, render.

`plan` runs the diverse-planning driver with the backend its source implies
(sat for a declarative problem, search for a simulator) and writes a JSON
report that carries its behaviour space; `validate` replays plan files on a
problem or simulator; `render` replays a report and turns it back into
human-readable text (grids, level strips, narrative summaries). Reports are
deterministic: same config, same bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from functools import partial
from typing import Optional

from .bspace import (
    BehaviourSpace,
    BspaceError,
    format_behaviour,
    goal_endings_feature,
    pbehaviour,
    space_from_json,
    value_to_json,
)
from .core import (
    BudgetExceeded,
    GoalNotSatisfied,
    GroundProblem,
    InapplicableAction,
    Plan,
    PlanTrace,
    PlanningError,
    load_problem,
    read_json,
    validate_plan,
)
from .domains import BUNDLED, get_domain
from .fbi import fbi
from .ltl import LtlError
from .pddl import PddlError, ground, load_domain, load_problem_file
from .satplan import (
    DEFAULT_HORIZONS,
    EXTERNAL_SOLVER_ENV,
    behaviour_generator_sat,
    plan_generator_sat,
)
from .searchplan import (
    STRATEGIES,
    SearchConfig,
    behaviour_generator_ltl,
    plan_generator_ltl,
)

SCHEMA_VERSION = 4
EXIT_OK = 0
EXIT_USAGE = 1
EXIT_EMPTY = 2


class ConfigError(Exception):
    """Bad command-line configuration; always exits with EXIT_USAGE."""


# ---------------------------------------------------------------------------
# problem sources
# ---------------------------------------------------------------------------


def _resolve_source(args) -> tuple:
    """Return (subject, space, source_doc).

    subject is a GroundProblem (planned with the SAT backend) or a simulator
    (planned with the search backend); space is a bundled domain's behaviour
    space, None for a PDDL or problem-JSON source; source_doc echoes where
    the subject came from.
    """
    picked = [
        bool(args.domain),
        bool(args.pddl_domain or args.pddl_problem),
        bool(args.problem_json),
    ]
    if sum(picked) != 1:
        raise ConfigError(
            "pick exactly one problem source: --domain, "
            "--pddl-domain/--pddl-problem, or --problem-json"
        )

    if args.domain:
        try:
            pack = get_domain(args.domain)
        except KeyError as exc:
            raise ConfigError(str(exc.args[0])) from exc
        subject, space = pack()
        return subject, space, {"domain": args.domain}

    if args.problem_json:
        problem = load_problem(args.problem_json)
        source = {"problem_json": args.problem_json}
    elif not (args.pddl_domain and args.pddl_problem):
        raise ConfigError("--pddl-domain and --pddl-problem go together")
    else:
        domain_ast = load_domain(args.pddl_domain)
        problem_ast = load_problem_file(args.pddl_problem, domain_ast)
        problem = ground(domain_ast, problem_ast)
        source = {"pddl_domain": args.pddl_domain, "pddl_problem": args.pddl_problem}
    return problem, None, source


def _space_of(doc, subject, where: str) -> BehaviourSpace:
    """The space doc describes over subject; a doc that describes none is
    one ConfigError that names where it came from."""
    try:
        return space_from_json(doc, subject)
    except KeyError as exc:
        raise ConfigError(f"{where}: missing key {exc}") from exc
    except (ValueError, BspaceError, LtlError) as exc:  # key types, kinds, formulas
        raise ConfigError(f"{where}: {exc}") from exc


def _check_backend(backend: Optional[str], declarative: bool) -> None:
    """A --backend that was given must be the one the source implies."""
    if backend == "sat" and not declarative:
        raise ConfigError(
            "the sat backend needs a declarative problem (PDDL, problem JSON, "
            "or a declarative bundled domain such as 'story')"
        )
    if backend == "search" and declarative:
        raise ConfigError(
            "the search backend needs a simulator domain "
            "('urban' or 'platformer')"
        )


# ---------------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------------


# the plan options each backend reads; they default to None, so cmd_plan
# tells a given one from an absent one and fills in the defaults itself
_BACKEND_OPTIONS = {
    "sat": ("horizon_min", "horizon_max", "max_conflicts"),
    "search": ("node_budget", "strategy"),
}


def _check_options(args, backend: str) -> None:
    """Refuse a given option that `backend` does not read."""
    other = "search" if backend == "sat" else "sat"
    for name in _BACKEND_OPTIONS[other]:
        if getattr(args, name) is not None:
            flag = "--" + name.replace("_", "-")
            raise ConfigError(
                f"{flag} is a {other} option; the {backend} backend does not read it"
            )


def _counted(fn, counts, key):
    def wrapped(arg):
        counts[key] += 1
        return fn(arg)

    return wrapped


def _check_out(path: str) -> None:
    """Refuse, before planning starts, a report path that no file can take."""
    if os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
        raise ConfigError(f"--out {path}: not a file in an existing directory")


def cmd_plan(args) -> int:
    subject, space, source = _resolve_source(args)
    declarative = isinstance(subject, GroundProblem)
    _check_backend(args.backend, declarative)
    backend = "sat" if declarative else "search"
    _check_options(args, backend)
    if declarative and os.environ.get(EXTERNAL_SOLVER_ENV):
        raise ConfigError(
            f"{EXTERNAL_SOLVER_ENV} is set, but the external SAT solver is gone; "
            "unset it to plan with the built-in solver"
        )
    if args.k < 1:
        raise ConfigError(f"--k must be at least 1, got {args.k}")
    if args.out:
        _check_out(args.out)

    space_doc = "bundled"
    if args.space:
        space_doc = read_json(args.space, ConfigError)
        space = _space_of(space_doc, subject, args.space)
    elif space is None:
        try:
            space = BehaviourSpace((goal_endings_feature(subject),))
        except ValueError as exc:  # a goal that every state satisfies
            raise ConfigError(f"default behaviour space: {exc}") from exc

    config_doc: dict = {
        "backend": backend,
        "source": source,
        "space": space_doc,
        "k": args.k,
    }
    counts = {"behaviour": 0, "plan": 0}

    if declarative:
        lo = DEFAULT_HORIZONS.start if args.horizon_min is None else args.horizon_min
        hi = DEFAULT_HORIZONS.stop - 1 if args.horizon_max is None else args.horizon_max
        if lo < 0 or hi < lo:
            raise ConfigError(f"bad horizon range [{lo}, {hi}]")
        if args.max_conflicts is not None and args.max_conflicts < 0:
            raise ConfigError(
                f"--max-conflicts must be at least 0, got {args.max_conflicts}"
            )
        options = dict(horizon_range=range(lo, hi + 1), max_conflicts=args.max_conflicts)
        bgen = partial(behaviour_generator_sat, subject, space, **options)
        pgen = partial(plan_generator_sat, subject, **options)
        config_doc["horizons"] = [lo, hi]
        config_doc["max_conflicts"] = args.max_conflicts
    else:
        budget = SearchConfig.node_budget if args.node_budget is None else args.node_budget
        try:
            cfg = SearchConfig(
                strategy=args.strategy or SearchConfig.strategy, node_budget=budget
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        bgen = partial(behaviour_generator_ltl, subject, space, cfg=cfg)
        pgen = partial(plan_generator_ltl, subject, cfg=cfg)
        config_doc["node_budget"] = cfg.node_budget
        config_doc["strategy"] = cfg.strategy

    result = fbi(
        args.k,
        space,
        _counted(bgen, counts, "behaviour"),
        _counted(pgen, counts, "plan"),
    )

    report = {
        "schema_version": SCHEMA_VERSION,
        "config": config_doc,
        "result": result.to_json(),
        "stats": {
            "behaviour_calls": counts["behaviour"],
            "plan_calls": counts["plan"],
            "plan_lengths": [len(t.plan) for t in result.plans],
        },
    }
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK if result.plans else EXIT_EMPTY


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def _malformed(path: str, exc: Exception) -> ConfigError:
    return ConfigError(f"{path}: malformed ({type(exc).__name__}: {exc})")


def _checked_report(doc) -> dict:
    """doc, if it is a report of this schema version."""
    version = doc.get("schema_version") if isinstance(doc, dict) else None
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unknown report schema version {version!r}")
    return doc


def _plans_from_file(path: str) -> tuple:
    """(the label plans, and the source a report names, else None)."""
    doc = read_json(path, ConfigError)
    if isinstance(doc, dict) and "result" in doc:  # a plan report
        report = _checked_report(doc)
        return [list(p) for p in report["result"]["plans"]], report["config"]["source"]
    if isinstance(doc, dict) and "plans" in doc:
        doc = doc["plans"]
    elif isinstance(doc, list) and all(isinstance(x, str) for x in doc):
        doc = [doc]
    elif not isinstance(doc, list):
        raise ConfigError(f"{path} holds neither a plan list nor a report")
    return [list(p) for p in doc], None


def _replay(subject, labels) -> PlanTrace:
    """The trace of the plan labels name on subject, with valuations on a
    simulator. A label a ground problem lacks is a ValueError; a step that
    is not applicable or legal, a plan over the budget or a final state
    that is not a goal is a PlanningError."""
    if isinstance(subject, GroundProblem):
        try:
            plan = Plan(tuple(subject.action(name) for name in labels))
        except KeyError as exc:
            raise ValueError(f"unknown action {exc.args[0]!r} for this problem") from exc
        return validate_plan(subject, plan)
    states = [subject.initial()]
    for step, label in enumerate(labels):
        if label not in subject.legal_actions(states[-1]):
            raise InapplicableAction(f"step {step}: {label!r} is not a legal action", step)
        states.append(subject.step(states[-1], label))
    if subject.budget is not None and len(labels) > subject.budget:
        raise BudgetExceeded(f"plan length {len(labels)} exceeds budget {subject.budget}")
    if not subject.is_goal(states[-1]):
        raise GoalNotSatisfied("final state is not a goal")
    valuations = tuple(map(subject.propositions, states))
    return PlanTrace(Plan(tuple(labels)), tuple(states), valuations)


def cmd_validate(args) -> int:
    subject, _space, source = _resolve_source(args)
    try:
        label_plans, planned_on = _plans_from_file(args.plans)
    except (KeyError, TypeError) as exc:
        raise _malformed(args.plans, exc) from exc
    if planned_on not in (None, source):
        raise ConfigError(f"{args.plans} was planned on {planned_on}, not on {source}")
    failures = 0
    for i, labels in enumerate(label_plans):
        try:
            trace = _replay(subject, labels)
        except ValueError as exc:
            raise ConfigError(f"plan {i}: {exc}") from exc
        except PlanningError as exc:
            print(f"plan {i}: INVALID — {exc}")
            failures += 1
            continue
        print(f"plan {i}: valid, {len(trace.plan)} steps, goal reached")
    return EXIT_EMPTY if failures else EXIT_OK


# ---------------------------------------------------------------------------
# render
# ---------------------------------------------------------------------------


def _occupancy_lines(report: dict) -> list:
    counts = Counter(map(format_behaviour, report["result"]["behaviours"]))
    lines = ["behaviour-space occupancy:"]
    return lines + [f"  {key}: {counts[key]} plan(s)" for key in sorted(counts)]


def cmd_render(args) -> int:
    report = _checked_report(read_json(args.report, ConfigError))
    try:
        config = report["config"]
        domain = config["source"].get("domain")
        if domain not in BUNDLED:
            raise ConfigError(
                f"{args.report}: render needs a report from a bundled domain "
                f"({', '.join(sorted(BUNDLED))}), not {config['source']!r}"
            )
        pack, view = BUNDLED[domain]
        subject, space = pack()
        if config["space"] != "bundled":
            space = _space_of(config["space"], subject, f"{args.report}: config.space")
        plans, behaviours = report["result"]["plans"], report["result"]["behaviours"]
        if len(plans) != len(behaviours):
            raise ConfigError(
                f"{args.report}: {len(plans)} plans but {len(behaviours)} behaviours"
            )
        replayed = []
        for i, (labels, behaviour) in enumerate(zip(plans, behaviours)):
            try:
                trace = _replay(subject, labels)
                derived = [value_to_json(v) for v in pbehaviour(space, trace)]
            except (ValueError, PlanningError, BspaceError, LtlError) as exc:
                at = " " if isinstance(exc, InapplicableAction) else ": "
                raise ConfigError(f"{args.report}: plan {i}{at}{exc}") from exc
            if derived != behaviour:
                raise ConfigError(
                    f"{args.report}: plan {i} is annotated "
                    f"{format_behaviour(behaviour)} but replays to "
                    f"{format_behaviour(derived)}"
                )
            replayed.append((trace.states, behaviour))
        lines = view(subject, replayed, args.color)
    except (KeyError, TypeError, AttributeError, IndexError, ValueError) as exc:
        raise _malformed(args.report, exc) from exc
    print("\n".join(lines + _occupancy_lines(report)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def _add_source_flags(sub) -> None:
    sub.add_argument(
        "--domain", help=f"bundled domain ({', '.join(sorted(BUNDLED))})"
    )
    sub.add_argument("--pddl-domain", help="PDDL domain file")
    sub.add_argument("--pddl-problem", help="PDDL problem file")
    sub.add_argument("--problem-json", help="ground problem JSON file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="divplan",
        description="Generate behaviourally diverse plan sets.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    plan = subs.add_parser("plan", help="run the diverse-planning driver")
    _add_source_flags(plan)
    plan.add_argument(
        "--backend", choices=("sat", "search"),
        help="default: sat for a declarative source, search for a simulator",
    )
    plan.add_argument("--space", help="behaviour-space JSON file (overrides bundled)")
    plan.add_argument("--k", type=int, default=2, help="requested number of plans")
    plan.add_argument("--horizon-min", type=int)
    plan.add_argument("--horizon-max", type=int)
    plan.add_argument("--max-conflicts", type=int)
    plan.add_argument("--node-budget", type=int)
    plan.add_argument("--strategy", choices=STRATEGIES)
    plan.add_argument("--out", help="report path (stdout when omitted)")
    plan.set_defaults(func=cmd_plan)

    validate = subs.add_parser("validate", help="replay plans against a problem")
    _add_source_flags(validate)
    validate.add_argument(
        "--plans", required=True,
        help="plan file: a report, {'plans': [...]}, or a bare label list",
    )
    validate.set_defaults(func=cmd_validate)

    render = subs.add_parser("render", help="pretty-print a plan report")
    render.add_argument("report", help="report JSON from `divplan plan`")
    render.add_argument("--color", action="store_true", help="ANSI colours")
    render.set_defaults(func=cmd_render)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        ConfigError, PddlError, PlanningError, BspaceError, LtlError, OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
