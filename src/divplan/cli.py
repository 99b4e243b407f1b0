"""Command-line front end: plan, validate, render.

`plan` runs the diverse-planning driver against either backend and writes a
JSON report; `validate` replays plan files against a declarative problem;
`render` turns a report back into human-readable text (grids, level strips,
narrative summaries). Reports are deterministic: same config and seed, same
bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from typing import Optional

from .bspace import BehaviourSpace, BspaceError, goal_endings_feature, load_space
from .core import (
    GroundProblem,
    Plan,
    PlanningError,
    load_problem,
    validate_plan,
)
from .domains import DECLARATIVE, SIMULATOR, BUNDLED, get_domain
from .domains.platformer import PlatformerSimulator, bundled_level
from .domains.urban import (
    UrbanSimulator,
    LAND_USE_NAMES,
    bundled_grid,
    diversity_score,
    render_grid,
    sustainability_score,
)
from .fbi import fbi
from .pddl import PddlError, ground, load_domain, load_problem_file
from .satplan import (
    DEFAULT_HORIZONS,
    SatError,
    behaviour_generator_sat,
    plan_generator_sat,
)
from .searchplan import (
    STRATEGIES,
    SearchConfig,
    behaviour_generator_ltl,
    plan_generator_ltl,
)

SCHEMA_VERSION = 2
EXIT_OK = 0
EXIT_USAGE = 1
EXIT_EMPTY = 2


class ConfigError(Exception):
    """Bad command-line configuration; always exits with EXIT_USAGE."""


# ---------------------------------------------------------------------------
# problem sources
# ---------------------------------------------------------------------------


def _resolve_source(args) -> tuple:
    """Return (kind, subject, space, source_doc).

    kind is DECLARATIVE with a GroundProblem subject or SIMULATOR with a
    simulator subject; space is the bundled/default behaviour space (before
    any --space override); source_doc echoes where the subject came from.
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
            bundle = get_domain(args.domain)
        except KeyError as exc:
            raise ConfigError(str(exc.args[0])) from exc
        subject, space = bundle.load()
        return bundle.kind, subject, space, {"domain": args.domain}

    if args.problem_json:
        problem = load_problem(args.problem_json)
        space = BehaviourSpace((goal_endings_feature(problem),))
        return DECLARATIVE, problem, space, {"problem_json": args.problem_json}

    if not (args.pddl_domain and args.pddl_problem):
        raise ConfigError("--pddl-domain and --pddl-problem go together")
    domain_ast = load_domain(args.pddl_domain)
    problem_ast = load_problem_file(args.pddl_problem, domain_ast)
    problem = ground(domain_ast, problem_ast)
    space = BehaviourSpace((goal_endings_feature(problem),))
    source = {"pddl_domain": args.pddl_domain, "pddl_problem": args.pddl_problem}
    return DECLARATIVE, problem, space, source


def _check_backend(backend: str, kind: str) -> None:
    if backend == "sat" and kind != DECLARATIVE:
        raise ConfigError(
            "the sat backend needs a declarative problem (PDDL, problem JSON, "
            "or a declarative bundled domain such as 'story')"
        )
    if backend == "search" and kind != SIMULATOR:
        raise ConfigError(
            "the search backend needs a simulator domain "
            "('urban' or 'platformer')"
        )


# ---------------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------------


def _counted(fn, counts, key):
    def wrapped(arg):
        counts[key] += 1
        return fn(arg)

    return wrapped


def cmd_plan(args) -> int:
    kind, subject, space, source = _resolve_source(args)
    _check_backend(args.backend, kind)
    if args.k < 1:
        raise ConfigError(f"--k must be at least 1, got {args.k}")

    if args.space:
        problem = subject if kind == DECLARATIVE else None
        try:
            space = load_space(args.space, problem=problem)
        except BspaceError as exc:
            raise ConfigError(f"bad --space file: {exc}") from exc

    config_doc: dict = {
        "backend": args.backend,
        "source": source,
        "space": args.space or "bundled",
        "k": args.k,
        "seed": args.seed,
    }
    counts = {"behaviour": 0, "plan": 0}

    if args.backend == "sat":
        lo, hi = args.horizon_min, args.horizon_max
        if lo < 0 or hi < lo:
            raise ConfigError(f"bad horizon range [{lo}, {hi}]")
        horizons = range(lo, hi + 1)
        bgen = partial(
            behaviour_generator_sat,
            subject,
            space,
            horizon_range=horizons,
            seed=args.seed,
            max_conflicts=args.max_conflicts,
        )
        pgen = partial(
            plan_generator_sat,
            subject,
            horizon_range=horizons,
            seed=args.seed,
            max_conflicts=args.max_conflicts,
        )
        config_doc["horizons"] = [lo, hi]
        config_doc["max_conflicts"] = args.max_conflicts
    else:
        try:
            cfg = SearchConfig(
                strategy=args.strategy,
                node_budget=args.node_budget,
                seed=args.seed,
                prune=not args.no_prune,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        bgen = partial(behaviour_generator_ltl, subject, space, cfg=cfg)
        pgen = partial(plan_generator_ltl, subject, cfg=cfg)
        config_doc["node_budget"] = args.node_budget
        config_doc["strategy"] = args.strategy
        config_doc["prune"] = not args.no_prune

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


def _plans_from_file(path: str) -> list:
    with open(path) as fh:
        doc = json.load(fh)
    if isinstance(doc, dict) and "result" in doc:  # a plan report
        if doc.get("schema_version") != SCHEMA_VERSION:
            raise ConfigError(
                f"unknown report schema version {doc.get('schema_version')!r}"
            )
        return [list(p) for p in doc["result"]["plans"]]
    if isinstance(doc, dict) and "plans" in doc:
        return [list(p) for p in doc["plans"]]
    if isinstance(doc, list) and all(isinstance(x, str) for x in doc):
        return [doc]
    if isinstance(doc, list):
        return [list(p) for p in doc]
    raise ConfigError(f"{path} holds neither a plan list nor a report")


def cmd_validate(args) -> int:
    kind, subject, _space, _source = _resolve_source(args)
    if kind != DECLARATIVE:
        raise ConfigError("validate needs a declarative problem source")
    problem: GroundProblem = subject

    label_plans = _plans_from_file(args.plans)
    failures = 0
    for i, labels in enumerate(label_plans):
        try:
            actions = tuple(problem.action(name) for name in labels)
        except KeyError as exc:
            raise ConfigError(
                f"plan {i}: unknown action {exc.args[0]!r} for this problem"
            ) from exc
        try:
            trace = validate_plan(problem, Plan(actions))
        except PlanningError as exc:
            print(f"plan {i}: INVALID — {exc}")
            failures += 1
            continue
        print(f"plan {i}: valid, {len(trace.plan)} steps, goal reached")
    return EXIT_EMPTY if failures else EXIT_OK


# ---------------------------------------------------------------------------
# render
# ---------------------------------------------------------------------------


def _load_report(path: str) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(
            f"unknown report schema version {doc.get('schema_version')!r}"
        )
    return doc


def _fmt_behaviour(values) -> str:
    parts = []
    for value in values:
        if isinstance(value, list):
            parts.append("{" + ", ".join(value) + "}")
        else:
            parts.append(str(value))
    return "<" + " | ".join(parts) + ">"


def _occupancy_lines(report: dict) -> list:
    counts: dict = {}
    for values in report["result"]["behaviours"]:
        key = _fmt_behaviour(values)
        counts[key] = counts.get(key, 0) + 1
    lines = ["behaviour-space occupancy:"]
    for key in sorted(counts):
        lines.append(f"  {key}: {counts[key]} plan(s)")
    return lines


def _require_domain(report: dict, expected: tuple, what: str) -> str:
    domain = report["config"].get("source", {}).get("domain")
    if domain not in expected:
        raise ConfigError(
            f"--what {what} needs a report from {' or '.join(expected)}, "
            f"got {domain!r}"
        )
    return domain


def _render_urban(report: dict, color: bool) -> list:
    _require_domain(report, ("urban",), "urban-grid")
    sim = UrbanSimulator(bundled_grid())
    legend = ", ".join(f"{code}={name}" for code, name in LAND_USE_NAMES.items())
    lines = [f"legend: {legend}", ""]
    for i, labels in enumerate(report["result"]["plans"]):
        state = sim.initial()
        for label in labels:
            state = sim.step(state, label)
        behaviour = _fmt_behaviour(report["result"]["behaviours"][i])
        lines.append(f"plan {i} {behaviour}: {len(labels)} conversions")
        before = render_grid(sim.initial(), color=color).splitlines()
        after = render_grid(state, color=color).splitlines()
        lines.extend(
            f"  {b}   ->   {a}" for b, a in zip(before, after)
        )
        lines.append(
            "  scores: sustainability "
            f"{sustainability_score(sim.initial()):.1f} -> "
            f"{sustainability_score(state):.1f}, diversity "
            f"{diversity_score(sim.initial()):.1f} -> {diversity_score(state):.1f}"
        )
        lines.append("")
    lines.extend(_occupancy_lines(report))
    return lines


def _render_platformer(report: dict) -> list:
    _require_domain(report, ("platformer",), "platformer")
    level = bundled_level()
    sim = PlatformerSimulator(level)
    lines = []
    for i, labels in enumerate(report["result"]["plans"]):
        state = sim.initial()
        visited = {(state.col, state.row)}
        for label in labels:
            state = sim.step(state, label)
            visited.add((state.col, state.row))
        behaviour = _fmt_behaviour(report["result"]["behaviours"][i])
        lines.append(f"plan {i} {behaviour}: {len(labels)} moves")
        for row in range(level.height - 1, -1, -1):
            chars = []
            for col in range(level.width):
                if (col, row) == (state.col, state.row):
                    chars.append("A")
                elif (col, row) == level.enemy_pos:
                    chars.append("E" if state.enemy_alive else "x")
                elif level.is_solid(col, row):
                    chars.append("#")
                elif (col, row) in visited:
                    chars.append("o")
                else:
                    chars.append(".")
            lines.append("  " + "".join(chars))
        lines.append("")
    lines.append("legend: A avatar (final), o path, E enemy, x stomped enemy")
    lines.extend(_occupancy_lines(report))
    return lines


def _render_story(report: dict) -> list:
    _require_domain(report, ("story", "story-tiny"), "story-summary")
    lines = []
    for i, values in enumerate(report["result"]["behaviours"]):
        endings = []
        for value in values:
            items = value if isinstance(value, list) else [value]
            for item in items:
                if item.startswith("married-to(") and item.endswith(")"):
                    a, b = item[len("married-to(") : -1].split(",")
                    endings.append(f"{a.strip()} married {b.strip()}")
                else:
                    endings.append(item)
        summary = "; ".join(endings) if endings else "nobody married"
        steps = len(report["result"]["plans"][i])
        lines.append(f"plan {i} ({steps} steps): {summary}")
    lines.append("")
    lines.extend(_occupancy_lines(report))
    return lines


def cmd_render(args) -> int:
    report = _load_report(args.report)
    if args.what == "urban-grid":
        lines = _render_urban(report, args.color)
    elif args.what == "platformer":
        lines = _render_platformer(report)
    else:
        lines = _render_story(report)
    print("\n".join(lines))
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
    plan.add_argument("--backend", choices=("sat", "search"), required=True)
    plan.add_argument("--space", help="behaviour-space JSON file (overrides bundled)")
    plan.add_argument("--k", type=int, default=2, help="requested number of plans")
    plan.add_argument("--horizon-min", type=int, default=DEFAULT_HORIZONS.start)
    plan.add_argument(
        "--horizon-max", type=int, default=DEFAULT_HORIZONS.stop - 1
    )
    plan.add_argument("--max-conflicts", type=int, default=None)
    plan.add_argument("--node-budget", type=int, default=100_000)
    plan.add_argument(
        "--strategy", choices=STRATEGIES,
        default="breadth-first",
    )
    plan.add_argument("--no-prune", action="store_true")
    plan.add_argument("--seed", type=int, default=0)
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
    render.add_argument(
        "--what", choices=("urban-grid", "platformer", "story-summary"),
        required=True,
    )
    render.add_argument("--color", action="store_true", help="ANSI colours")
    render.set_defaults(func=cmd_render)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        ConfigError, PddlError, PlanningError, BspaceError, SatError,
        FileNotFoundError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
