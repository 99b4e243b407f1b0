"""A fixed reference workload that gauges how fast the host runs right now.

On a shared host the same Python code runs up to twice as slow for tens
of seconds at a time, when other tenants load the machine. Timings taken a
minute apart then differ more than any change worth measuring. The probe
below does a fixed mix of the operations the program spends its time in:
frozen dataclasses hashed into dicts and frozensets, isinstance dispatch
over a small formula tree, list indexing and sorting. The benchmark runs it
between requests and scales each request's time by PROBE_REF_S over the
probe time measured around it.

The probe must not change, and it uses nothing from the program: a change
to either would rescale every reported time.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

# One probe takes about this long on the 2-vCPU host the baseline numbers
# were measured on, when the host is not slowed. Scaled times are seconds
# on such a host.
PROBE_REF_S = 0.008
BURST = 3  # probes per measurement
EVERY_S = 0.5  # at most this long between bursts while requests run
WINDOW_S = 1.0  # a request is scaled by the probes this close to it


@dataclass(frozen=True)
class _Item:
    key: tuple
    depth: int


@dataclass(frozen=True)
class _Op:
    kind: str
    args: tuple


def _truth(node, env: dict) -> bool:
    if isinstance(node, str):
        return env.get(node, False)
    if node.kind == "and":
        return all(_truth(a, env) for a in node.args)
    if node.kind == "or":
        return any(_truth(a, env) for a in node.args)
    return not _truth(node.args[0], env)


_FORMULA = _Op(
    "or",
    (
        _Op("and", ("a", _Op("not", ("b",)))),
        _Op("and", ("c", "d")),
        _Op("not", ("e",)),
    ),
)


def probe(rounds: int = 1200) -> int:
    seen: dict = {}
    frontier = [_Item((0, 0, frozenset()), 0)]
    assign: list = [None] * 64
    total = 0
    for i in range(rounds):
        node = frontier[i % len(frontier)]
        a, b, s = node.key
        for move in (1, 2, 3):
            key = ((a + move) % 37, (b * 3 + move) % 41, s | {move * a % 5})
            if seen.get(key, 99) > node.depth:
                seen[key] = node.depth
                frontier.append(_Item(key, node.depth + 1))
        env = {"a": a & 1, "b": b & 2, "c": i & 1, "d": i & 4, "e": a > b}
        total += _truth(_FORMULA, env)
        for v in range(1, 64, 7):
            assign[v] = (v + i) % 3 == 0
            if assign[v] is False and assign[v - 1] is None:
                total += 1
        total += sorted((a, b, i % 13), reverse=True)[0]
    return total


class SpeedGauge:
    """Probe bursts with their times, and the scale they imply for a span."""

    def __init__(self):
        self.samples: list = []  # (perf_counter at the burst, probe seconds)
        self._last = float("-inf")

    def burst(self) -> None:
        clock = time.perf_counter
        for _ in range(BURST):
            start = clock()
            probe()
            self.samples.append((start, clock() - start))
        self._last = clock()

    def maybe_burst(self) -> None:
        if time.perf_counter() - self._last >= EVERY_S:
            self.burst()

    def scale(self, start: float, end: float) -> float:
        """PROBE_REF_S over the median probe time around [start, end].

        A burst runs at most EVERY_S before any span the benchmark times, so
        the window always holds probes."""
        near = [s for at, s in self.samples if start - WINDOW_S <= at <= end + WINDOW_S]
        return PROBE_REF_S / statistics.median(near)
