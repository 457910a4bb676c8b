"""The ``service_mixed`` workload: a what-if daemon under two callers.

A ``repro serve --generate internet2`` daemon runs as its own process
on loopback (a server thread inside this process would share the
interpreter lock with the load generator and skew both).  This process
drives it over ``CONNECTIONS`` connections, one thread each, in a
closed loop through :class:`repro.service.client.ServiceClient`.

Each connection owns a disjoint working set: every item is a change
script with a label unique to the run (the label is part of the
result-cache key) and is requested ``REPEATS`` times in seeded
shuffled order within its deck.  The first request of an item is a
cache miss and the rest are hits, so the hit share is exactly
``1 - 1/REPEATS``.

The daemon and this process share one CPU, so every request's time is
spent on a CPU whose speed the benchmark measures: every ``SEGMENT_S``
the connections stop between two requests, the reference work is timed
on that CPU, and each request is reported at reference speed (see
``common.py``), scaled by the reference times that bracket its segment.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from statistics import median
from typing import Any

import layers
from common import (
    REFERENCE_S,
    SEGMENT_S,
    SRC,
    CpuRotation,
    Op,
    RunResult,
    counter_delta,
    end_to_end,
    median_setup,
    percentile,
    process_peak_rss_mb,
    reference_seconds,
)
from inprocess import converge_ms
from ops import OpFactory, deck_order
from repro import Network
from repro.core.change_text import serialize_change_batch
from repro.core.delta import DeltaReport
from repro.service.client import ServiceClient
from repro.workloads.scenarios import internet2_bgp

CONNECTIONS = 2
# Hits are 2/3 of requests, so p50 (rank 0.5) lies well inside the hit
# class and p90 (rank 0.7 of the misses) inside the miss class.
REPEATS = 3
# Working-set items per deck and connection, in ascending miss latency;
# p90 falls in the middle of the cost class, p99 inside the link class.
SHARES = {"static": 2, "acl": 2, "announce": 2, "flip": 1, "cost": 3, "link": 2}
SETUP_SPAWNS = 10
TRACE_DECKS = 4  # per connection, replayed by every traced-run pass
LISTENING = "repro service listening on "


class Daemon:
    """One ``repro serve`` subprocess, stopped on exit."""

    def __init__(self, trace: bool = False) -> None:
        command = [
            sys.executable, "-m", "repro", "serve",
            "--generate", "internet2", "--listen", "127.0.0.1:0",
        ]
        if trace:
            command.append("--trace")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        began = time.perf_counter()
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, env=env, text=True
        )
        line = self.process.stdout.readline()
        self.setup_s = time.perf_counter() - began
        self.address: str | None = None
        if not line.startswith(LISTENING):
            self.stop()
            raise RuntimeError(f"daemon did not start: {line!r}")
        self.address = line[len(LISTENING):].split()[0]

    def stop(self) -> None:
        """Ask the daemon to shut down (terminate it if it cannot be
        asked) and wait until it has exited."""
        if self.process.poll() is None:
            try:
                if self.address is None:
                    raise OSError("no address to connect to")
                with ServiceClient.connect(self.address, timeout=10) as client:
                    client.shutdown()
            except OSError:
                self.process.terminate()
        try:
            self.process.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()

    def __enter__(self) -> "Daemon":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


@dataclass
class Item:
    kind: str
    script: str
    label: str
    changes: list[Any]


class Caller:
    """Draws one connection's decks of working-set items."""

    def __init__(self, scenario: Any, seed: int, index: int) -> None:
        self.index = index
        self.factory = OpFactory(scenario, seed * 1000 + index)
        self.rng = random.Random(f"{seed}/{index}/order")
        self._next_item = 0

    def deck(self) -> list[Item]:
        """``REPEATS`` requests of each of this deck's fresh items."""
        items = []
        for kind in deck_order(SHARES, self.rng):
            op: Op = getattr(self.factory, kind)()
            label = f"c{self.index}-{self._next_item}"
            self._next_item += 1
            items.append(Item(kind, serialize_change_batch(op.changes), label, op.changes))
        requests = [item for item in items for _ in range(REPEATS)]
        self.rng.shuffle(requests)
        return requests


@dataclass
class Sample:
    kind: str
    latency: float  # wall seconds; reference-speed seconds once drive() returns
    cache: str | None
    segment: int


@dataclass
class Observed:
    """What one connection saw: latencies and result checks."""

    samples: list[Sample] = field(default_factory=list)
    failed: int = 0
    digests: dict[str, str] = field(default_factory=dict)
    first: dict[str, tuple[Item, dict[str, Any]]] = field(default_factory=dict)

    def request(self, client: ServiceClient, item: Item, segment: int) -> None:
        began = time.perf_counter()
        try:
            result = client.request("preview", script=item.script, label=item.label)
        except Exception as error:  # counted against success_rate
            self.failed += 1
            print(f"{item.kind} request failed: {error!r}", file=sys.stderr)
            return
        self.samples.append(
            Sample(item.kind, time.perf_counter() - began, client.last_cache, segment)
        )
        digest = hashlib.sha256(
            json.dumps(result, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()
        if digest != self.digests.setdefault(item.label, digest):
            self.failed += 1
            print(f"{item.kind} hit differs from its miss", file=sys.stderr)
        self.first.setdefault(item.kind, (item, result))


class Gate:
    """Lets the main thread stop every connection between two requests,
    to time the reference work on an otherwise idle machine."""

    def __init__(self, connections: int) -> None:
        self._condition = threading.Condition()
        self._holding = False
        self._parked = 0
        self._running = connections
        self.segment = 0

    def checkpoint(self) -> int:
        """Called before each request; returns its segment."""
        with self._condition:
            if self._holding:
                self._parked += 1
                self._condition.notify_all()
                while self._holding:
                    self._condition.wait()
                self._parked -= 1
            return self.segment

    def leave(self) -> None:
        with self._condition:
            self._running -= 1
            self._condition.notify_all()

    def hold(self, after: float) -> bool:
        """After ``after`` seconds, or as soon as no connection is left,
        wait until every running connection is parked; False once none
        is left."""
        deadline = time.perf_counter() + after
        with self._condition:
            while self._running:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    break
                self._condition.wait(remaining)
            self._holding = True
            while self._parked < self._running:
                self._condition.wait()
            return self._running > 0

    def release(self) -> None:
        with self._condition:
            self.segment += 1
            self._holding = False
            self._condition.notify_all()


@dataclass
class Window:
    """What the connections of one window saw, at reference speed."""

    seconds: float  # the segments' wall time, at reference speed
    slowdown: float  # median host slowdown over the segments
    observed: list[Observed]

    @property
    def samples(self) -> list[Sample]:
        return [sample for o in self.observed for sample in o.samples]


def drive(
    address: str,
    callers: list[Caller],
    seconds: float,
    fixed: list[list[Item]] | None = None,
) -> Window:
    """Run one thread per connection for one window.

    Without ``fixed`` each connection draws fresh decks until
    ``seconds`` have elapsed, always finishing the deck it is on; with
    ``fixed`` connection ``i`` replays ``fixed[i]`` once.
    """
    observed = [Observed() for _ in callers]
    gate = Gate(len(callers))
    references = [reference_seconds()]
    bounds = [time.perf_counter()]  # segment k runs from bounds[2k] to bounds[2k+1]
    start = time.perf_counter()

    def loop(index: int) -> None:
        try:
            with ServiceClient.connect(address) as client:
                while True:
                    deck = fixed[index] if fixed is not None else callers[index].deck()
                    for item in deck:
                        observed[index].request(client, item, gate.checkpoint())
                    if fixed is not None or time.perf_counter() - start >= seconds:
                        return
        finally:
            gate.leave()

    threads = [threading.Thread(target=loop, args=(i,)) for i in range(len(callers))]
    for thread in threads:
        thread.start()
    running = True
    while running:
        running = gate.hold(SEGMENT_S)
        bounds.append(time.perf_counter())
        references.append(reference_seconds())
        bounds.append(time.perf_counter())
        gate.release()
    for thread in threads:
        thread.join()
    slowdowns = [
        (before + after) / (2 * REFERENCE_S)
        for before, after in zip(references, references[1:])
    ]
    for sample in (s for o in observed for s in o.samples):
        sample.latency /= slowdowns[sample.segment]
    calibrated = sum(
        (bounds[2 * k + 1] - bounds[2 * k]) / slowdown
        for k, slowdown in enumerate(slowdowns)
    )
    return Window(calibrated, median(slowdowns), observed)


def warm_up(address: str, scenario: Any, seed: int) -> None:
    """One deck of distinct items, so lazy state fills outside the clock."""
    caller = Caller(scenario, seed, CONNECTIONS)
    drive(address, [caller], 0.0, [caller.deck()])


def stats(address: str) -> dict[str, Any]:
    with ServiceClient.connect(address) as client:
        return client.stats()


def verify(
    observed: list[Observed], before: dict[str, Any], after: dict[str, Any]
) -> tuple[list[str], dict[str, int]]:
    """Cache counts against the working-set design, and one served
    result per class against an in-process preview."""
    problems = []
    counts = {
        key: after["cache"][key] - before["cache"][key] for key in ("hits", "misses")
    }
    counters = after["metrics"]["counters"]
    counts["errors"] = counters.get("service.errors", 0) - before["metrics"][
        "counters"
    ].get("service.errors", 0)
    requests = sum(len(o.samples) for o in observed)
    if counts["misses"] * REPEATS != requests or counts["errors"]:
        problems.append(f"cache counts {counts} for {requests} requests")
    net = Network(internet2_bgp().snapshot)
    for kind, (item, result) in sorted(observed[0].first.items()):
        local = net.preview(item.changes, label=item.label)
        if DeltaReport.from_dict(result).behavior_signature() != local.behavior_signature():
            problems.append(f"served {kind} result differs from in-process preview")
    return problems, counts


def spawn() -> tuple[float, None]:
    """Seconds from spawning a daemon to its "listening" line."""
    with Daemon() as daemon:
        return daemon.setup_s, None


def run(name: str, seed: int, seconds: float, trace: bool) -> RunResult:
    scenario = internet2_bgp()
    rotation = CpuRotation()
    # A daemon inherits the CPU it is spawned on, which the reference
    # work is timed on too.
    setup_s, _ = median_setup(spawn, SETUP_SPAWNS, rotation)
    rotation.step()  # the rest of the run, daemons included, on one CPU
    if trace:
        return traced_run(scenario, seed, seconds)
    callers = [Caller(scenario, seed, index) for index in range(CONNECTIONS)]
    with Daemon() as daemon:
        warm_up(daemon.address, scenario, seed)
        before = stats(daemon.address)
        window = drive(daemon.address, callers, seconds)
        rss = process_peak_rss_mb(daemon.process.pid)
        after = stats(daemon.address)
    problems, _counts = verify(window.observed, before, after)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    samples = window.samples
    attempted = len(samples) + sum(o.failed for o in window.observed)
    failed = sum(o.failed for o in window.observed) + len(problems)
    values = end_to_end(
        [s.latency for s in samples], window.seconds, setup_s, rss,
        attempted, failed, window.slowdown,
    )
    return RunResult(
        layers.catalogue(values, layers.END_TO_END), attempted, failed, problems
    )


def traced_run(scenario: Any, seed: int, seconds: float) -> RunResult:
    """Fixed decks against an untraced and a ``--trace`` daemon, in
    alternation; cache and work counts come from the first untraced
    pass, so they are an exact function of the seed."""
    callers = [Caller(scenario, seed, index) for index in range(CONNECTIONS)]
    fixed = [[item for _ in range(TRACE_DECKS) for item in caller.deck()] for caller in callers]
    untraced: list[float] = []
    traced: list[float] = []
    samples: list[Sample] = []
    problems: list[str] = []
    attempted = failed = 0
    counts: dict[str, int] = {}
    work: dict[str, int] = {}
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        for tracing, passes in ((False, untraced), (True, traced)):
            with Daemon(trace=tracing) as daemon:
                warm_up(daemon.address, scenario, seed)
                before = stats(daemon.address)
                window = drive(daemon.address, callers, 0.0, fixed)
                after = stats(daemon.address)
            passes.append(window.seconds)
            found, pass_counts = verify(window.observed, before, after)
            problems += found
            attempted += sum(len(o.samples) + o.failed for o in window.observed)
            failed += sum(o.failed for o in window.observed)
            if not tracing:
                samples += window.samples
            if not counts:
                counts = pass_counts
                work = counter_delta(
                    after["metrics"]["counters"], before["metrics"]["counters"]
                )
    requests = sum(len(deck) for deck in fixed)
    hits, misses = split(samples, "hit"), split(samples, "miss")
    values: dict[str, float] = {
        name: work.get(name, 0) / requests for name in layers.PER_OP_COUNTERS
    }
    values.update({name: work.get(name, 0) for name in layers.PASS_COUNTERS})
    values.update(
        {
            "service.hit.latency_p50_ms": percentile(hits, 0.5) * 1e3,
            "service.miss.latency_p50_ms": percentile(misses, 0.5) * 1e3,
            "service.miss.latency_p90_ms": percentile(misses, 0.9) * 1e3,
            "service.latency_p99_ms": percentile([s.latency for s in samples], 0.99) * 1e3,
            "service.cache_hit_ratio": counts["hits"] / (counts["hits"] + counts["misses"]),
            "service.cache_hits": counts["hits"],
            "service.cache_misses": counts["misses"],
            "service.errors": counts["errors"],
            "converge.ms": converge_ms(lambda: internet2_bgp().snapshot),
            "trace.overhead_ratio": median(untraced) / median(traced),
        }
    )
    problems += layers.check_expected("service_mixed", values, {})
    failed += len(problems)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return RunResult(
        layers.catalogue(values, layers.PER_LAYER), attempted, failed, problems
    )


def split(samples: list[Sample], cache: str) -> list[float]:
    return [sample.latency for sample in samples if sample.cache == cache]

