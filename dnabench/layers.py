"""The metric catalogue and the per-layer numbers of a traced pass.

Every run prints every metric of its mode: the end-to-end set with
``--trace 0`` and the per-layer set with ``--trace 1``.  A per-layer
metric of a layer the workload never enters reads 0 (for example BGP
self time on ``dc_commit``, or the service cache on ``wan_whatif``).
:data:`EXPECTED` says which metrics each workload must move, so a
renamed span or counter fails the traced run instead of reading 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

# name -> unit.  Tail latency is p90: on every workload at least ten
# samples lie beyond it (the run prints N to stderr); p99 would not on
# the in-process workloads, so the service's p99 is a per-layer metric.
END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_ops_s": "1/s",
    "success_rate": "ratio",
    "peak_rss_mb": "MB",
}

# Self times are per op, averaged over the traced passes; counters are
# per op, from the first traced pass, which replays a fixed op list.
SELF_TIME_SPANS = (
    "analyze.edits",
    "analyze.epoch",
    "pipeline.igp",
    "pipeline.bgp.sessions",
    "pipeline.bgp.policy",
    "pipeline.bgp.adjrib",
    "pipeline.bgp.decision",
    "pipeline.fib",
    "pipeline.reachability",
    "fork.rollback",
)
PER_OP_COUNTERS = (
    "pipeline.bgp_prefixes_resolved",
    "pipeline.bgp_sessions_rescanned",
    "pipeline.spf_sources_recomputed",
    "pipeline.fib_entries_updated",
    "fork.rib_prefixes_restored",
    "fork.fib_entries_restored",
)
PASS_COUNTERS = ("planner.full", "planner.scoped")

PER_LAYER = {
    **{f"{span}.self_ms": "ms" for span in SELF_TIME_SPANS},
    **{name: "count/op" for name in PER_OP_COUNTERS},
    **{name: "count" for name in PASS_COUNTERS},
    "bgp.useful_ratio": "ratio",
    "fib.useful_ratio": "ratio",
    "atoms.scope_ratio": "ratio",
    "converge.ms": "ms",
    "snapshot_diff.latency_p50_ms": "ms",
    "speedup_vs_snapshot_diff": "ratio",
    "service.hit.latency_p50_ms": "ms",
    "service.miss.latency_p50_ms": "ms",
    "service.miss.latency_p90_ms": "ms",
    "service.latency_p99_ms": "ms",
    "service.cache_hit_ratio": "ratio",
    "service.cache_hits": "count",
    "service.cache_misses": "count",
    "service.errors": "count",
    "codec.encode_ms": "ms",
    "codec.payload_bytes": "bytes",
    "invariants.check_ms": "ms",
    "campaign.errors": "count",
    "trace.overhead_ratio": "ratio",
}




@dataclass(frozen=True)
class Expected:
    """What a traced run of one workload must show."""

    largest: str | None  # the span with the largest self time, if known
    nonzero: tuple[str, ...]  # metrics the workload's ops must move
    zero: tuple[str, ...]  # metrics of layers the workload bypasses


BGP_STAGES = tuple(
    f"pipeline.bgp.{stage}.self_ms"
    for stage in ("sessions", "policy", "adjrib", "decision")
)
# Timed by the benchmark itself on every in-process workload.
BASE_COSTS = (
    "converge.ms",
    "snapshot_diff.latency_p50_ms",
    "speedup_vs_snapshot_diff",
    "codec.encode_ms",
    "codec.payload_bytes",
    "invariants.check_ms",
    "trace.overhead_ratio",
)
EXPECTED = {
    "wan_whatif": Expected(
        largest="pipeline.bgp.decision",
        nonzero=(
            "pipeline.bgp.sessions.self_ms",
            "pipeline.bgp.adjrib.self_ms",
            "pipeline.bgp.decision.self_ms",
            "pipeline.igp.self_ms",
            "pipeline.fib.self_ms",
            "pipeline.reachability.self_ms",
            "analyze.edits.self_ms",
            "fork.rollback.self_ms",
            *PER_OP_COUNTERS,
            "bgp.useful_ratio",
            "atoms.scope_ratio",
            *BASE_COSTS,
        ),
        zero=("campaign.errors",),
    ),
    "dc_commit": Expected(
        largest="pipeline.igp",
        nonzero=(
            "pipeline.igp.self_ms",
            "pipeline.fib.self_ms",
            "pipeline.reachability.self_ms",
            "analyze.edits.self_ms",
            "pipeline.spf_sources_recomputed",
            "pipeline.fib_entries_updated",
            "atoms.scope_ratio",
            *BASE_COSTS,
        ),
        zero=(
            *BGP_STAGES,
            "pipeline.bgp_prefixes_resolved",
            "pipeline.bgp_sessions_rescanned",
            "campaign.errors",
        ),
    ),
    # The daemon's spans are not exported, so no self time is known.
    "service_mixed": Expected(
        largest=None,
        nonzero=(
            "pipeline.bgp_prefixes_resolved",
            "pipeline.fib_entries_updated",
            "service.hit.latency_p50_ms",
            "service.miss.latency_p50_ms",
            "service.miss.latency_p90_ms",
            "service.latency_p99_ms",
            "service.cache_hit_ratio",
            "service.cache_hits",
            "service.cache_misses",
            "converge.ms",
            "trace.overhead_ratio",
        ),
        zero=("service.errors",),
    ),
}


def check_expected(
    workload: str, values: dict[str, float], self_seconds: dict[str, float]
) -> list[str]:
    """Problems with a traced run's shape: a metric the workload must
    move that reads 0, a bypassed layer that does not, or another span
    than the expected one taking the largest self time."""
    expected = EXPECTED[workload]
    problems = [
        f"{name} is 0 on {workload}"
        for name in expected.nonzero
        if not values.get(name, 0.0)
    ]
    problems += [
        f"{name} is {values[name]} on {workload}, expected 0"
        for name in expected.zero
        if values.get(name, 0.0)
    ]
    if expected.largest is not None:
        largest = max(self_seconds, key=self_seconds.__getitem__, default=None)
        if largest != expected.largest:
            problems.append(
                f"largest self time on {workload} is {largest}, "
                f"expected {expected.largest}"
            )
    return problems


def catalogue(values: dict[str, float], units: dict[str, str]) -> dict[str, Any]:
    """``values`` as printed metrics, every catalogued name present."""
    unknown = sorted(set(values) - set(units))
    if unknown:
        raise KeyError(f"metrics missing from the catalogue: {unknown}")
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }


def bgp_prefixes_changed(report: Any) -> int:
    """Prefixes whose BGP best route changed on some router."""
    prefixes = set()
    for changes in report.rib_changes.values():
        for prefix, (before, after) in changes.items():
            if any(r is not None and r.protocol == "bgp" for r in (before, after)):
                prefixes.add(prefix)
    return len(prefixes)


def pass_metrics(
    self_seconds: dict[str, float],
    traced_ops: int,
    counters: dict[str, int],
    pass_ops: int,
    reports: list[Any],
) -> dict[str, float]:
    """Per-layer metrics from one or more traced passes.

    ``self_seconds``/``traced_ops`` cover every traced pass;
    ``counters`` (a metrics-registry delta) and ``reports`` cover the
    first pass, of ``pass_ops`` ops.
    """
    values: dict[str, float] = {}
    for span in SELF_TIME_SPANS:
        values[f"{span}.self_ms"] = self_seconds.get(span, 0.0) * 1e3 / traced_ops
    for name in PER_OP_COUNTERS:
        values[name] = counters.get(name, 0) / pass_ops
    for name in PASS_COUNTERS:
        values[name] = counters.get(name, 0)
    resolved = sum(r.counters.get("bgp_prefixes_resolved", 0) for r in reports)
    changed = sum(bgp_prefixes_changed(r) for r in reports)
    values["bgp.useful_ratio"] = changed / resolved if resolved else 0.0
    updated = sum(r.counters.get("fib_entries_updated", 0) for r in reports)
    reported = sum(r.num_fib_changes() for r in reports)
    values["fib.useful_ratio"] = reported / updated if updated else 0.0
    analyzed = sum(r.counters.get("atoms_analyzed", 0) for r in reports)
    total = sum(r.counters.get("atoms_total", 0) for r in reports)
    values["atoms.scope_ratio"] = analyzed / total if total else 0.0
    return values


def breakdown(self_seconds: dict[str, float]) -> str:
    """Self-time shares of the traced passes, largest first."""
    total = sum(self_seconds.values()) or 1.0
    rows = sorted(self_seconds.items(), key=lambda item: -item[1])
    return "\n".join(
        f"  {name:<28} {seconds * 1e3:10.1f} ms  {seconds / total:6.1%}"
        for name, seconds in rows
    )
