"""The in-process closed-loop workloads: ``wan_whatif`` and ``dc_commit``.

One caller sends one op at a time through the public
:class:`repro.Network` facade and waits for its report.  ``wan_whatif``
previews (fork, recompute, roll back); ``dc_commit`` commits each change
and then its exact inverse, as two ops.
"""

from __future__ import annotations

import gc
import random
import sys
import time
from dataclasses import dataclass
from statistics import median
from typing import Any, Callable, Iterator

import layers
from common import (
    CpuRotation,
    Op,
    RunResult,
    counter_delta,
    end_to_end,
    median_setup,
    peak_rss_mb,
    run_window,
    self_times,
    state_signature,
    timed,
)
from ops import OpFactory, deck_stream, merged
from repro import Network, SnapshotDiff, Tracer
from repro.campaign import all_single_link_failures, sampled_k_link_failures
from repro.controlplane.simulation import simulate
from repro.core import codec
from repro.service.protocol import strip_timings
from repro.workloads.scenarios import fat_tree_ospf, internet2_bgp

SETUP_REPEATS = 10
INVARIANTS = ["loop-freedom", "blackhole-freedom"]


@dataclass(frozen=True)
class Spec:
    name: str
    build: Callable[[], Any]  # scenario builder
    # Ops of each class per deck.  The shares keep every class boundary
    # away from the p50 and p90 ranks (see README.md).
    shares: dict[str, int]
    commit: bool
    by_role: bool


WAN = Spec(
    name="wan_whatif",
    build=lambda: internet2_bgp(customers_per_pop=2, prefixes_per_customer=3),
    shares={
        "acl": 4, "announce": 4, "flip": 4, "cost": 4,
        "session": 10, "link": 4, "k8": 10,
    },
    commit=False,
    by_role=False,
)
DC = Spec(
    name="dc_commit",
    build=lambda: fat_tree_ospf(6),
    shares={"acl": 3, "static": 4, "cost": 2, "link": 1, "interface": 1},
    commit=True,
    by_role=True,
)
SPECS = {spec.name: spec for spec in (WAN, DC)}


def op_stream(spec: Spec, scenario: Any, seed: int) -> Iterator[list[Op]]:
    """The workload's endless decks; a commit deck commits each change
    and then, right away, its inverse."""
    for deck in deck_stream(OpFactory(scenario, seed, spec.by_role), spec.shares):
        if not spec.commit:
            yield deck
            continue
        yield [
            half
            for op in deck
            for half in (Op(op.kind, op.changes), Op(op.kind, op.inverse))
        ]


class Session:
    """One converged network plus the closed-loop caller around it."""

    def __init__(self, spec: Spec, net: Any, tracer: Tracer | None = None) -> None:
        self.spec = spec
        self.net = net
        self.tracer = tracer
        self.failed = 0

    def do(self, op: Op) -> Any:
        try:
            if self.spec.commit:
                return self.net.apply(op.changes)
            return self.net.preview(op.changes)
        except Exception as error:  # counted against success_rate
            self.failed += 1
            print(f"op {op.kind} failed: {error!r}", file=sys.stderr)
            return None

    def do_traced(self, op: Op) -> Any:
        assert self.tracer is not None
        name = "bench.apply" if self.spec.commit else "bench.preview"
        with self.tracer.span(name, kind=op.kind):
            return self.do(op)


def build_network(spec: Spec, trace: Tracer | bool = False) -> tuple[Any, Any]:
    scenario = spec.build()
    net = Network(scenario.snapshot.clone(), trace=trace)
    net.analyzer  # converge
    return scenario, net


def check_against_snapshot_diff(
    spec: Spec, scenario: Any, net: Any, sample: list[tuple[Op, Op]]
) -> tuple[list[str], list[float], list[float], Any]:
    """Each sampled op's report against the from-scratch baseline.

    Returns (problems, incremental seconds, baseline seconds, a link
    failure report for the invariant timing).
    """
    problems: list[str] = []
    incremental: list[float] = []
    baseline: list[float] = []
    link_report = None
    diff = SnapshotDiff(scenario.snapshot.clone())
    diff.base_state()  # converge the baseline's base outside the clock
    for forward, inverse in sample:
        seconds, report = timed(
            lambda: net.apply(forward.changes)
            if spec.commit
            else net.preview(forward.changes)
        )
        incremental.append(seconds)
        if spec.commit:
            net.apply(inverse.changes)
        seconds, expected = timed(lambda: diff.analyze(merged(forward.changes)))
        baseline.append(seconds)
        if report.behavior_signature() != expected.behavior_signature():
            problems.append(f"{forward.kind} op differs from SnapshotDiff")
        if forward.kind == "link":
            link_report = report
    return problems, incremental, baseline, link_report


def comparable(report: Any) -> dict[str, Any]:
    """A campaign report without wall clock and without the fields that
    name the backend it ran on."""
    document = strip_timings(report.to_dict())
    del document["backend"], document["jobs"]
    return document


def check_campaign(seed: int) -> tuple[list[str], int]:
    """A jobs=2 campaign must equal the serial one, timings aside.

    Runs on the small fat-tree a campaign audit would sweep: seeded
    single- and two-link failures under both invariants.
    """
    scenario = fat_tree_ospf(4)
    net = Network(scenario.snapshot.clone())
    singles = random.Random(seed).sample(all_single_link_failures(scenario), 4)
    batch = singles + sampled_k_link_failures(scenario, k=2, samples=4, seed=seed)
    serial = net.campaign(batch, jobs=1, invariants=INVARIANTS)
    parallel = net.campaign(batch, jobs=2, invariants=INVARIANTS)
    problems = []
    if comparable(serial) != comparable(parallel):
        problems.append("jobs=2 campaign report differs from the serial one")
    errors = parallel.metrics.counters().get("campaign.errors", 0)
    return problems, errors


def warm_up(session: Session, sample: list[tuple[Op, Op]]) -> None:
    """One op of each class (and its inverse when committing), so lazy
    caches fill outside the clock."""
    for forward, inverse in sample:
        session.do(forward)
        if session.spec.commit:
            session.do(inverse)


def sample_pairs(spec: Spec, deck: list[Op]) -> list[tuple[Op, Op]]:
    """(op, inverse) of the first op of each class in a deck; a preview
    deck carries no inverses, so the op stands in for its own."""
    pairs = zip(deck[0::2], deck[1::2]) if spec.commit else zip(deck, deck)
    seen: dict[str, tuple[Op, Op]] = {}
    for forward, inverse in pairs:
        seen.setdefault(forward.kind, (forward, inverse))
    return list(seen.values())


def run(name: str, seed: int, seconds: float, trace: bool) -> RunResult:
    spec = SPECS[name]
    rotation = CpuRotation()
    setup_s, (scenario, net) = median_setup(
        lambda: timed(lambda: build_network(spec)), SETUP_REPEATS, rotation
    )
    initial = state_signature(net.state)
    decks = op_stream(spec, scenario, seed)
    session = Session(spec, net)
    first = next(decks)
    sample = sample_pairs(spec, first)
    warm_up(session, sample)

    def replay() -> Iterator[list[Op]]:
        yield first
        yield from decks

    gc.collect()
    if trace:
        values, spans, attempted = traced_run(spec, session, first, seconds, rotation)
    else:
        window = run_window(replay(), session.do, seconds, rotation)
        rss = peak_rss_mb()
        attempted = window.ops
    rotation.release()
    problems: list[str] = []
    if state_signature(net.state) != initial:
        problems.append("state after the stream differs from the state before it")
    sd_problems, incremental, baseline, link_report = check_against_snapshot_diff(
        spec, scenario, net, sample
    )
    problems += sd_problems
    if spec.commit:
        final = simulate(net.snapshot.clone(), precompute_reachability=True)
        if state_signature(final) != initial:
            problems.append("committed state differs from a fresh simulate")
        campaign_problems, campaign_errors = check_campaign(seed)
        problems += campaign_problems
    else:
        campaign_errors = 0
    if trace:
        values["snapshot_diff.latency_p50_ms"] = median(baseline) * 1e3
        values["speedup_vs_snapshot_diff"] = median(baseline) / median(incremental)
        values["campaign.errors"] = campaign_errors
        values.update(base_costs(scenario, net, link_report))
        problems += layers.check_expected(spec.name, values, spans)
    failed = session.failed + len(problems)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    if trace:
        metrics = layers.catalogue(values, layers.PER_LAYER)
    else:
        values = end_to_end(
            window.latencies, window.seconds, setup_s, rss, attempted, failed,
            window.slowdown,
        )
        metrics = layers.catalogue(values, layers.END_TO_END)
    return RunResult(metrics, attempted, failed, problems)


def traced_run(
    spec: Spec,
    session: Session,
    deck: list[Op],
    seconds: float,
    rotation: CpuRotation,
) -> tuple[dict[str, float], dict[str, float], int]:
    """Alternate untraced and traced passes over one fixed deck.

    The traced network is a second converged copy whose tracer records
    every span the program emits, under the benchmark's own
    ``bench.*`` spans.  Counters come from the first traced pass, so
    they are an exact function of the seed.  Returns (per-layer
    values, self seconds per span, ops attempted).
    """
    tracer = Tracer()
    traced = Session(spec, build_network(spec, trace=tracer)[1], tracer)
    warm_up(traced, sample_pairs(spec, deck))
    tracer.reset()
    untraced_passes: list[float] = []
    traced_passes: list[float] = []
    counters: dict[str, int] = {}
    reports: list[Any] = []
    start = time.perf_counter()
    while not traced_passes or time.perf_counter() - start < seconds:
        rotation.step()
        began = time.perf_counter()
        for op in deck:
            session.do(op)
        untraced_passes.append(time.perf_counter() - began)
        before = traced.net.metrics.counters()
        began = time.perf_counter()
        outputs = [traced.do_traced(op) for op in deck]
        traced_passes.append(time.perf_counter() - began)
        if not reports:
            counters = counter_delta(traced.net.metrics.counters(), before)
            reports = [report for report in outputs if report is not None]
    spans = self_times(tracer)
    print(layers.breakdown(spans), file=sys.stderr)
    values = layers.pass_metrics(
        spans, len(deck) * len(traced_passes), counters, len(deck), reports
    )
    values["trace.overhead_ratio"] = median(untraced_passes) / median(traced_passes)
    attempted = len(deck) * (len(untraced_passes) + len(traced_passes))
    session.failed += traced.failed
    return values, spans, attempted


def base_costs(scenario: Any, net: Any, link_report: Any) -> dict[str, float]:
    """Convergence, codec and invariant costs of this network."""
    encode = [timed(lambda: codec.dumps_base(net.analyzer)) for _ in range(3)]
    check = [timed(lambda: net.check(link_report, INVARIANTS))[0] for _ in range(5)]
    return {
        "converge.ms": converge_ms(lambda: scenario.snapshot.clone()),
        "codec.encode_ms": median([seconds for seconds, _ in encode]) * 1e3,
        "codec.payload_bytes": len(encode[0][1]),
        "invariants.check_ms": median(check) * 1e3,
    }


def converge_ms(snapshot: Callable[[], Any]) -> float:
    """Median milliseconds of three from-scratch ``simulate`` runs,
    each on a fresh ``snapshot()``."""
    seconds = []
    for _ in range(3):
        fresh = snapshot()
        seconds.append(timed(lambda: simulate(fresh, precompute_reachability=True))[0])
    return median(seconds) * 1e3
