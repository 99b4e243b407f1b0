"""divplan benchmark: seeded workloads run as a closed loop with one client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
`src/` directory. One request is one `fbi` call on freshly built inputs, so
each pays the set-up and the cold simulator caches a CLI user pays. The
workload's fixed request list runs in rounds, one request after another,
while another round fits in `--seconds`. Every time is scaled to a
reference host speed, which `probe.py` measures between requests, and a
request's time is the median over its repeats.

With `--trace 0` the run prints the end-to-end metrics. With `--trace 1` it
runs one untraced round, then traced rounds, and prints the per-layer
metrics, each a total per traced round. Both read the metric names and
units from BENCHMARK.json. Outputs are checked after the timed rounds; the
last line of stdout is one JSON object, and any failure makes the exit
code 1.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

from probe import EVERY_S, SpeedGauge

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# set-up-only passes after the timed rounds, when the process is warm: at
# least this many, and on for at least this long
SETUP_PASSES = 11
SETUP_SECONDS = 1.0

# Every span and leaf name the tracer records; each gets a self-time metric.
SELF_LAYERS = (
    "setup", "pddl.parse", "pddl.ground", "request", "fbi.behaviour_gen",
    "fbi.plan_gen", "encode", "solve_task", "solver.load", "solver.add_clause",
    "solver.search", "decode", "core.validate", "search", "ltl.progress",
    "ltl.final_eval", "ltl.eval_finite", "sim.initial", "sim.legal_actions",
    "sim.step", "sim.propositions", "sim.is_goal", "bspace.extract",
)

# The layers each workload was chosen to load: on every seed the first sum
# should exceed the second (reported as focus.ratio).
FOCUS = {
    "sat-story": (("encode.s", "solver.load_s"), ("solver.search_s",)),
    "sat-exhaust": (("solver.search_s",), ("encode.s", "solver.load_s")),
    "search-urban": (("ltl.progress_s", "ltl.final_eval_s"), ("sim.step_s",)),
    "search-platformer": (("sim.step_s", "sim.legal_actions_s"), ("ltl.progress_s",)),
}


def _import_program() -> None:
    """Put the checkout's src/ first on the path and refuse any other copy."""
    if not (SRC / "divplan" / "__init__.py").is_file():
        sys.exit(f"bench: no program source at {SRC}")
    sys.path.insert(0, str(SRC))
    import divplan

    if Path(divplan.__file__).resolve().parent != SRC / "divplan":
        sys.exit(f"bench: imported divplan from {divplan.__file__}, not {SRC}")


@dataclass
class Outcome:
    index: int  # position in the run
    slot: int  # position in the request list
    start: float  # perf_counter when the request's set-up began
    end: float  # perf_counter when the request returned
    setup_s: float
    request_s: float
    first_plan_s: Optional[float]
    result: object  # FbiResult; None once checked against the slot's first
    error: Optional[str]


def run_request(request, index: int, slot: int, tracer=None) -> Outcome:
    from divplan.fbi import fbi

    import workloads

    clock = time.perf_counter
    first_plan: list = []

    def noting_first_plan(generator):
        def call(found):
            trace = generator(found)
            if trace is not None and not first_plan:
                first_plan.append(clock())
            return trace

        return call

    setup_s = request_s = 0.0
    result = error = None
    start = began = clock()
    try:
        if tracer is None:
            subject, space = workloads.build(request)
        else:
            tracer.request = index
            subject, space = tracer.span(
                "setup", workloads.build, request, tracer.sim_proxy
            )
        setup_s = clock() - start
        start = clock()
        bgen, pgen = workloads.generators(request, subject, space)
        bgen, pgen = noting_first_plan(bgen), noting_first_plan(pgen)
        if tracer is None:
            result = fbi(request.k, space, bgen, pgen)
        else:
            bgen = tracer.spanned("fbi.behaviour_gen", bgen)
            pgen = tracer.spanned("fbi.plan_gen", pgen)
            result = tracer.span("request", fbi, request.k, space, bgen, pgen)
        request_s = clock() - start
    except Exception as exc:  # a failed request is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
    first_plan_s = first_plan[0] - start if first_plan else None
    return Outcome(
        index, slot, began, clock(), setup_s, request_s, first_plan_s, result, error
    )


def run_rounds(requests, seconds: float, results: dict, gauge,
               first_index: int = 0, tracer=None) -> list:
    """Whole rounds over the request list: at least one, then more while the
    median round so far still fits in the time left.

    results keeps each slot's first result. A repeat must equal it; the
    comparison runs outside the timed span, and the repeat's result is then
    dropped, so memory does not grow with the number of rounds. The gauge
    probes the host's speed between requests, at least every EVERY_S.
    """
    rounds, lengths = [], []
    began = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        round_ = []
        for slot, request in enumerate(requests):
            index = first_index + len(rounds) * len(requests) + slot
            gauge.maybe_burst()
            outcome = run_request(request, index, slot, tracer)
            if outcome.end - outcome.start >= EVERY_S:
                gauge.burst()
            if outcome.result is not None:
                if slot not in results:
                    results[slot] = outcome.result
                else:
                    if outcome.result != results[slot]:
                        outcome.error = "differs from the same request's first result"
                    outcome.result = None
            round_.append(outcome)
        rounds.append(round_)
        lengths.append(time.perf_counter() - round_start)
        elapsed = time.perf_counter() - began
        if elapsed + statistics.median(lengths) > seconds:
            gauge.burst()
            return rounds


def scaled(rounds, gauge) -> list:
    """The rounds with every time scaled to the reference host speed."""
    out = []
    for round_ in rounds:
        out.append([])
        for o in round_:
            k = gauge.scale(o.start, o.end)
            first = None if o.first_plan_s is None else o.first_plan_s * k
            out[-1].append(replace(
                o, setup_s=o.setup_s * k, request_s=o.request_s * k, first_plan_s=first
            ))
    return out


def setup_passes(requests, gauge) -> list:
    """Scaled times of set-up-only passes over the whole request list."""
    import workloads

    spans = []
    gauge.burst()
    while len(spans) < SETUP_PASSES or sum(e - s for s, e in spans) < SETUP_SECONDS:
        start = time.perf_counter()
        for request in requests:
            workloads.build(request)
        spans.append((start, time.perf_counter()))
        gauge.maybe_burst()
    gauge.burst()
    return [(end - start) * gauge.scale(start, end) for start, end in spans]


def check(workload: str, requests, rounds, results: dict) -> tuple:
    """(failed request count, problems): a request fails when it raised, or
    its result differs from its slot's first, or that result breaks a check.
    A failed bundled-CLI determinism run is a problem but not a request."""
    import checks

    problems = []
    for slot, result in sorted(results.items()):
        problems += [(slot, p) for p in checks.problems(requests[slot], result)]
    bad_slots = {slot for slot, _ in problems}
    failed = 0
    for outcome in (o for round_ in rounds for o in round_):
        if outcome.error is not None:
            problems.append((outcome.slot, outcome.error))
        failed += outcome.error is not None or outcome.slot in bad_slots
    problems += [(None, p) for p in checks.cli_determinism(workload, str(ROOT))]
    return failed, problems


def quantile(values: list, q: int) -> float:
    """The q-th percentile, interpolated between samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def per_slot(rounds, field: str) -> list:
    """Each request's median over its repeats."""
    values: dict = {}
    for outcome in (o for round_ in rounds for o in round_):
        value = getattr(outcome, field)
        if outcome.error is None and value is not None:
            values.setdefault(outcome.slot, []).append(value)
    return [statistics.median(v) for v in values.values()]


def end_to_end(rounds, results: dict, setup_passes: list, peak_rss_mb: float,
               failed: int) -> dict:
    times = per_slot(rounds, "request_s")
    first = per_slot(rounds, "first_plan_s")
    attempted = sum(len(round_) for round_ in rounds)
    return {
        "setup_s": statistics.median(setup_passes),
        "wall_s": sum(times),
        "request_s_p50": statistics.median(times) if times else 0.0,
        "request_s_p90": quantile(times, 90) if times else 0.0,
        "first_plan_s_p50": statistics.median(first) if first else 0.0,
        "peak_rss_mb": peak_rss_mb,
        "bdc_total": sum(result.bdc for result in results.values()),
        "success_share": 1.0 - failed / attempted,
    }


def per_layer(workload: str, tracer, traced_rounds: int, overhead_s: float) -> dict:
    spans_by_name: dict = {}
    for span in tracer.spans:
        spans_by_name.setdefault(span.name, []).append(span)
    span_name = {span.id: span.name for span in tracer.spans}

    def spans(name):
        return spans_by_name.get(name, [])

    def seconds(name):
        return sum(s.seconds for s in spans(name))

    def fact(name, key):
        return sum(s.info.get(key, 0) for s in spans(name))

    leaf_calls: dict = {}
    leaf_seconds: dict = {}
    leaf_self: dict = {}
    loose_add_clause = 0.0  # add_clause outside Solver.__init__
    for (parent, name), (calls, total, self_s) in tracer.leaves.items():
        leaf_calls[name] = leaf_calls.get(name, 0) + calls
        leaf_seconds[name] = leaf_seconds.get(name, 0.0) + total
        leaf_self[name] = leaf_self.get(name, 0.0) + self_s
        if name == "solver.add_clause" and span_name.get(parent) != "solver.load":
            loose_add_clause += total

    solver_calls = len(spans("solver.search"))
    solver_sat = sum(1 for s in spans("solver.search") if s.info.get("sat") is True)
    solver_unsat = sum(1 for s in spans("solver.search") if s.info.get("sat") is False)
    generator_calls = len(spans("fbi.behaviour_gen")) + len(spans("fbi.plan_gen"))
    search_calls = len(spans("search"))
    search_s = seconds("search")
    expanded = fact("search", "expanded")
    m = {
        "pddl.parse_s": seconds("pddl.parse"),
        "pddl.ground_s": seconds("pddl.ground"),
        "pddl.ground_actions": fact("pddl.ground", "actions"),
        "encode.calls": len(spans("encode")),
        "encode.s": seconds("encode"),
        "encode.clauses": fact("encode", "clauses"),
        "encode.vars": fact("encode", "vars"),
        "decode.s": seconds("decode"),
        "solver.calls": solver_calls,
        "solver.load_s": seconds("solver.load") + loose_add_clause,
        "solver.search_s": seconds("solver.search"),
        "solver.conflicts": fact("solver.search", "conflicts"),
        "solver.sat": solver_sat,
        "solver.unsat": solver_unsat,
        "core.validate_calls": len(spans("core.validate")),
        "core.validate_s": seconds("core.validate"),
        "search.calls": search_calls,
        "search.s": search_s,
        "search.expanded": expanded,
        "search.pruned": fact("search", "pruned"),
        "search.deduplicated": fact("search", "deduplicated"),
        "search.empty_cells": fact("search", "empty"),
        "ltl.progress_calls": leaf_calls.get("ltl.progress", 0),
        "ltl.progress_s": leaf_seconds.get("ltl.progress", 0.0),
        "ltl.final_eval_calls": leaf_calls.get("ltl.final_eval", 0),
        "ltl.final_eval_s": leaf_seconds.get("ltl.final_eval", 0.0),
        "ltl.eval_finite_calls": leaf_calls.get("ltl.eval_finite", 0),
        "sim.step_calls": leaf_calls.get("sim.step", 0),
        "sim.step_s": leaf_seconds.get("sim.step", 0.0),
        "sim.legal_actions_s": leaf_seconds.get("sim.legal_actions", 0.0),
        "sim.propositions_s": leaf_seconds.get("sim.propositions", 0.0),
        "sim.is_goal_s": leaf_seconds.get("sim.is_goal", 0.0),
        "bspace.extract_calls": len(spans("bspace.extract")),
        "bspace.extract_s": seconds("bspace.extract"),
        "fbi.behaviour_calls": len(spans("fbi.behaviour_gen")),
        "fbi.plan_calls": len(spans("fbi.plan_gen")),
        "fbi.behaviour_gen_s": seconds("fbi.behaviour_gen"),
        "fbi.plan_gen_s": seconds("fbi.plan_gen"),
        "trace.spans": len(tracer.spans),
    }
    m.update({f"self.{name}_s": 0.0 for name in SELF_LAYERS})
    for name, group in spans_by_name.items():
        m[f"self.{name}_s"] = sum(s.self_s for s in group)
    for name, self_s in leaf_self.items():
        m[f"self.{name}_s"] = self_s
    m = {name: value / traced_rounds for name, value in m.items()}
    m.update({
        "satgen.horizons_per_call": (
            len(spans("encode")) / generator_calls if spans("encode") else 0.0
        ),
        "satgen.sat_ratio": solver_sat / solver_calls if solver_calls else 0.0,
        "search.found_ratio": fact("search", "found") / search_calls if search_calls else 0.0,
        "search.expanded_per_s": expanded / search_s if search_s else 0.0,
    })
    m["trace.overhead_s"] = overhead_s
    loads, rivals = FOCUS[workload]
    rival = sum(m[name] for name in rivals)
    m["focus.ratio"] = sum(m[name] for name in loads) / rival if rival else 0.0
    return m


def report(declared: list, measured: dict) -> dict:
    """The declared metrics, in BENCHMARK.json order, with their units."""
    return {
        entry["name"]: {"value": measured[entry["name"]], "unit": entry["unit"]}
        for entry in declared
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    import checks
    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload; pick one of {sorted(workloads.WORKLOADS)}")
    if checks.external_solver_set():
        sys.exit("bench: unset DIVPLAN_EXTERNAL_SAT; the built-in solver is measured")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    requests = workloads.WORKLOADS[args.workload](args.seed)

    results: dict = {}
    gauge = SpeedGauge()
    if args.trace == 0:
        rounds = run_rounds(requests, args.seconds, results, gauge)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        passes = setup_passes(requests, gauge)
    else:
        (untraced,) = run_rounds(requests, 0, results, gauge)
        tracer = Tracer()
        undo = tracer.install()
        try:
            traced = run_rounds(
                requests, args.seconds, results, gauge, len(requests), tracer
            )
        finally:
            undo()
        rounds = [untraced] + traced
    unscaled_wall = sum(per_slot(rounds, "request_s"))
    rounds = scaled(rounds, gauge)

    failed, problems = check(args.workload, requests, rounds, results)
    for slot, problem in problems[:20]:
        where = "bundled CLI" if slot is None else f"request {slot}"
        print(f"FAIL {where}: {problem}")

    probes = [seconds for _, seconds in gauge.samples]
    print(f"host: median probe {statistics.median(probes) * 1000:.2f} ms over "
          f"{len(probes)} probes; unscaled wall_s {unscaled_wall:.4f}")
    if args.trace == 0:
        passes += [sum(o.setup_s for o in round_) for round_ in rounds]
        measured = end_to_end(rounds, results, passes, peak_rss_mb, failed)
        metrics = report(declared["end_to_end"], measured)
    else:
        overhead = sum(per_slot(rounds[1:], "request_s")) - sum(
            per_slot(rounds[:1], "request_s")
        )
        measured = per_layer(args.workload, tracer, len(traced), overhead)
        loads, rivals = FOCUS[args.workload]
        verdict = "yes" if measured["focus.ratio"] > 1 else "NO"
        print(f"focus: {' + '.join(loads)} > {' + '.join(rivals)}: {verdict} "
              f"(ratio {measured['focus.ratio']:.3f})")
        metrics = report(declared["per_layer"], measured)
    for name, metric in metrics.items():
        print(f"{name:28} {metric['value']:>14.6g} {metric['unit']}")
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": sum(len(round_) for round_ in rounds),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
