"""Measurement helpers shared by the workloads.

Everything here is independent of the system under test: percentiles,
the reference-speed clock, the closed-loop timed window, span
self-time aggregation, peak RSS and the per-run result record.  Wall
time is read only here and in the workload modules, never through the
program's own metrics.
"""

from __future__ import annotations

import gc
import heapq
import os
import random
import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Any, Callable, Iterator, Sequence

# The program's sources in the checkout this benchmark lives in.
SRC = Path(__file__).resolve().parent.parent / "src"


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) by linear interpolation between ranks."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of another process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class CpuRotation:
    """Moves the calling thread round the CPUs it may use, one per step.

    On a virtual machine the CPUs can run at different speeds at the
    same moment (a busy neighbour on one host core).  Each measured
    segment runs pinned to one CPU, timed against the reference work on
    that same CPU, and the next segment moves to the next CPU.
    """

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        self.steps = 0

    def step(self) -> None:
        if len(self.cpus) > 1:
            os.sched_setaffinity(0, {self.cpus[self.steps % len(self.cpus)]})
        self.steps += 1

    def release(self) -> None:
        """Let the thread (and processes it starts) use every CPU again."""
        os.sched_setaffinity(0, set(self.cpus))


# -- Reference speed ---------------------------------------------------------
#
# The speed of a shared virtual machine drifts: on a 2-vCPU VM a fixed
# pure-Python loop took from 5.6 to 10 ms within one minute, in phases
# of 5-15 s, and every timing of the program moved with it (measured
# thread CPU time moved too, so this is not steal time).  The benchmark
# therefore times a fixed piece of its own pure-Python work right
# before and right after every measured segment of about SEGMENT_S, on
# the same CPU, and reports each interval at reference speed:
#
#     reported = measured x REFERENCE_S / (reference time beside it)
#
# so a slower program reads slower in full, while a slower host cancels
# out.  REFERENCE_S is what the reference work takes on a 2.1 GHz Xeon
# vCPU in its fast phase under CPython 3.11 (2.5-2.9 ms, against
# 4.1-4.6 ms in its slow phase), so reported times read as wall times
# on such a core.

REFERENCE_S = 0.0027
SEGMENT_S = 0.25


class _Node:
    __slots__ = ("name", "cost", "peers")

    def __init__(self, name: str, cost: int) -> None:
        self.name = name
        self.cost = cost
        self.peers: list[tuple[int, int]] = []


def _reference_graph() -> list[_Node]:
    rng = random.Random(0)
    nodes = [_Node(f"r{i}", 1 + i % 17) for i in range(300)]
    for node in nodes:
        node.peers = [(rng.randrange(300), rng.randrange(1, 20)) for _ in range(6)]
    return nodes


_GRAPH = _reference_graph()


def reference_work() -> int:
    """Shortest paths from a few sources over a fixed 300-node graph:
    heap, dict, tuple, attribute and sorting work of the kind the
    program does, with none of the program's code."""
    total = 0
    for source in range(0, 300, 50):
        dist = {source: 0}
        heap = [(0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            node = _GRAPH[u]
            for v, w in node.peers:
                nd = d + w + node.cost
                if nd < dist.get(v, 1 << 30):
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        ranked = sorted(dist.items(), key=lambda item: (item[1], _GRAPH[item[0]].name))
        total += len({_GRAPH[v].name for v, _ in ranked[:100]})
    return total


def reference_seconds() -> float:
    """Wall seconds of one :func:`reference_work` on the current CPU,
    with the collector off so the program's heap cannot lengthen it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class SegmentClock:
    """Records op latencies at reference speed, segment by segment.

    Each segment runs pinned to one CPU (the rotation moves on at every
    segment) between two reference timings on that CPU; every latency
    recorded in it is divided by the segment's slowdown, the mean of
    the two reference times over ``REFERENCE_S``.  A segment closes at
    the first op boundary after ``SEGMENT_S``.
    """

    def __init__(self, rotation: CpuRotation) -> None:
        self.rotation = rotation
        self.latencies: list[float] = []
        self.seconds = 0.0  # the segments' wall time, at reference speed
        self.slowdowns: list[float] = []
        self._open()

    def _open(self) -> None:
        self.rotation.step()
        self._before = reference_seconds()
        self._pending: list[float] = []
        self._began = time.perf_counter()

    def record(self, seconds: float) -> None:
        self._pending.append(seconds)
        if time.perf_counter() - self._began >= SEGMENT_S:
            self.close()
            self._open()

    def close(self) -> None:
        elapsed = time.perf_counter() - self._began
        slowdown = (self._before + reference_seconds()) / (2 * REFERENCE_S)
        self.slowdowns.append(slowdown)
        self.latencies += [seconds / slowdown for seconds in self._pending]
        self.seconds += elapsed / slowdown


def timed(fn: Callable[[], Any]) -> tuple[float, Any]:
    """(seconds, result) of one call."""
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def median_setup(
    measure: Callable[[], tuple[float, Any]], repeats: int, rotation: CpuRotation
) -> tuple[float, Any]:
    """Median, at reference speed, of ``repeats`` set-ups on
    alternating CPUs; ``measure`` returns (seconds, what it built).
    Keeps the last build."""
    samples: list[float] = []
    built: Any = None
    for _ in range(repeats):
        built = None  # release the previous build before timing the next
        gc.collect()
        rotation.step()
        before = reference_seconds()
        seconds, built = measure()
        slowdown = (before + reference_seconds()) / (2 * REFERENCE_S)
        samples.append(seconds / slowdown)
    return median(samples), built


class Cycle:
    """Endless seeded draws that visit every stratum once per pass.

    Without ``key`` every element is its own stratum, so each pass is
    a fresh shuffle of the whole population.  With ``key`` elements
    that the key maps together (say, the fat-tree links between the
    same two tiers, which cost the same to fail) form one stratum, and
    a pass draws one random member of each.  Either way a run's mix of
    sites depends on the seed only through order and through choices
    among equivalent sites, which keeps class latencies steady from
    seed to seed.
    """

    def __init__(
        self,
        population: Sequence[Any],
        rng: random.Random,
        key: Callable[[Any], Any] | None = None,
    ) -> None:
        if not population:
            raise ValueError("empty population")
        strata: dict[Any, list[Any]] = {}
        for index, element in enumerate(population):
            strata.setdefault(index if key is None else key(element), []).append(
                element
            )
        self._strata = list(strata.values())
        self._rng = rng
        self._pending: list[list[Any]] = []

    def next(self) -> Any:
        if not self._pending:
            self._pending = list(self._strata)
            self._rng.shuffle(self._pending)
        return self._rng.choice(self._pending.pop())


def deck_order(shares: dict[str, int], rng: random.Random) -> list[str]:
    """One deck: every class name repeated by its share, shuffled."""
    names = [name for name, count in shares.items() for _ in range(count)]
    rng.shuffle(names)
    return names


@dataclass
class Op:
    """One closed-loop operation: a class name and what to send."""

    kind: str
    changes: list[Any]
    inverse: list[Any] = field(default_factory=list)


@dataclass
class WindowResult:
    latencies: list[float]  # reference-speed seconds, one per op, in order
    seconds: float  # reference-speed seconds the window's ops took
    slowdown: float  # median host slowdown over the window's segments

    @property
    def ops(self) -> int:
        return len(self.latencies)


def run_window(
    decks: Iterator[list[Op]],
    do_op: Callable[[Op], None],
    seconds: float,
    rotation: CpuRotation,
) -> WindowResult:
    """Send whole decks of ops back to back until ``seconds`` elapse.

    The window always ends on a deck boundary, so every class keeps
    its exact share of the ops measured.
    """
    clock = SegmentClock(rotation)
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        for op in next(decks):
            began = time.perf_counter()
            do_op(op)
            clock.record(time.perf_counter() - began)
    clock.close()
    return WindowResult(clock.latencies, clock.seconds, median(clock.slowdowns))


def end_to_end(
    latencies: Sequence[float],
    seconds: float,
    setup_s: float,
    rss: float,
    attempted: int,
    failed: int,
    slowdown: float,
) -> dict[str, float]:
    """The end-to-end metrics of one window; ``latencies`` and
    ``seconds`` at reference speed."""
    print(
        f"{len(latencies)} ops; {len(latencies) * 0.1:.0f} samples beyond p90; "
        f"host slowdown {slowdown:.2f} (wall = reported x slowdown)",
        file=sys.stderr,
    )
    return {
        "setup_s": setup_s,
        "latency_p50_ms": percentile(latencies, 0.5) * 1e3,
        "latency_p90_ms": percentile(latencies, 0.9) * 1e3,
        "throughput_ops_s": len(latencies) / seconds,
        "success_rate": (attempted - failed) / attempted,
        "peak_rss_mb": rss,
    }


def self_times(tracer: Any) -> dict[str, float]:
    """Seconds of self time per span name over a recorded forest.

    A span's self time is its duration minus its direct children's,
    which are sequential, so their durations never overlap.
    """
    totals: dict[str, float] = {}
    for record in tracer.walk():
        own = record.duration - sum(child.duration for child in record.children)
        totals[record.name] = totals.get(record.name, 0.0) + own
    return totals


def counter_delta(after: dict[str, int], before: dict[str, int]) -> dict[str, int]:
    return {
        name: value - before.get(name, 0)
        for name, value in after.items()
        if value != before.get(name, 0)
    }


def state_signature(state: Any) -> tuple:
    """Everything a converged state forwards and reaches, canonically.

    Best routes and FIB entries per router, plus reachability as
    coalesced destination intervals, so two states that split the
    address space into different atoms but behave the same compare
    equal.
    """
    ribs = []
    for router in sorted(state.ribs):
        best = state.ribs[router].best_routes()
        ribs.append((router, tuple(best[prefix] for prefix in sorted(best))))
    fibs = []
    for router in sorted(state.fibs):
        fib = state.fibs[router]
        fibs.append(
            (
                router,
                tuple(fib.entry_for(prefix) for prefix in sorted(fib.prefixes())),
            )
        )
    reach: list[list[Any]] = []
    for atom in state.dataplane.atom_table.atoms():
        pairs = state.reachability.for_atom(atom).pair_set()
        if reach and reach[-1][1] == atom.lo and reach[-1][2] == pairs:
            reach[-1][1] = atom.hi
        else:
            reach.append([atom.lo, atom.hi, pairs])
    return (tuple(ribs), tuple(fibs), tuple(tuple(entry) for entry in reach))


def metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": value, "unit": unit}


@dataclass
class RunResult:
    """What one workload run reports; :func:`emit` prints it."""

    metrics: dict[str, dict[str, Any]]
    attempted: int
    failed: int
    problems: list[str]

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0

    def to_json(self) -> dict[str, Any]:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
        }
