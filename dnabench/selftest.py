"""Self-test of the benchmark itself (not of the program it measures).

Run from the root of a checkout, either directly or under pytest::

    python3 dnabench/selftest.py
    python3 -m pytest -q dnabench/selftest.py

It makes reduced runs (about two and a half minutes in all) and checks
that the benchmark is deterministic where it claims to be, that the
seed reaches the inputs, that what the command prints matches
``BENCHMARK.json``, and that the service window's gate stops every
connection between requests.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
from functools import lru_cache
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (sibling module; puts the program on the path)

run.import_program()

import inprocess  # noqa: E402
import layers  # noqa: E402
import service_mixed  # noqa: E402

# Units whose values are work counts, or ratios of work counts: these
# must repeat exactly for one seed.
EXACT_UNITS = ("count", "count/op")
EXACT_RATIOS = (
    "bgp.useful_ratio",
    "fib.useful_ratio",
    "atoms.scope_ratio",
    "service.cache_hit_ratio",
)


@lru_cache(maxsize=None)
def bench(workload: str, seed: int, trace: int, repeat: int = 0) -> dict:
    """The printed result of one reduced run; ``repeat`` is the run's
    hash seed, so a re-run also changes every set and dict order."""
    out = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
        ],
        capture_output=True, text=True, cwd=ROOT, timeout=180,
        env=dict(os.environ, PYTHONHASHSEED=str(repeat)),
    )
    assert out.returncode == 0, out.stderr[-2000:]
    return json.loads(out.stdout.strip().splitlines()[-1])


def exact(result: dict) -> dict:
    return {
        name: metric["value"]
        for name, metric in result["metrics"].items()
        if metric["unit"] in EXACT_UNITS or name in EXACT_RATIOS
    }


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_counters_repeat_for_one_seed() -> None:
    for workload in run.WORKLOADS:
        first = exact(bench(workload, 3, 1))
        second = exact(bench(workload, 3, 1, repeat=1))
        assert first == second, workload
    counts = exact(bench("service_mixed", 3, 1))
    assert counts["service.cache_misses"] > 0
    assert counts["service.cache_hits"] == 2 * counts["service.cache_misses"]


def test_seed_reaches_the_inputs() -> None:
    for spec in inprocess.SPECS.values():
        scenario = spec.build()
        decks = {}
        for seed in (1, 1, 2):
            deck = next(inprocess.op_stream(spec, scenario, seed))
            decks.setdefault(seed, []).append(
                [(op.kind, [c.label for c in op.changes]) for op in deck]
            )
        assert decks[1][0] == decks[1][1], spec.name
        assert decks[1][0] != decks[2][0], spec.name
    scenario = service_mixed.internet2_bgp()

    def scripts(seed: int) -> list:
        caller = service_mixed.Caller(scenario, seed, 0)
        return [(item.script, item.label) for item in caller.deck()]

    assert scripts(1) == scripts(1)
    assert scripts(1) != scripts(2)


def test_printed_metrics_match_benchmark_json() -> None:
    spec = declared()
    names = {w["name"] for w in spec["workloads"]}
    assert names == set(run.WORKLOADS)
    for key, trace in (("end_to_end", 0), ("per_layer", 1)):
        units = {m["name"]: m["unit"] for m in spec[key]}
        assert units == (layers.END_TO_END if trace == 0 else layers.PER_LAYER)
        for workload in run.WORKLOADS:
            printed = bench(workload, 3, trace)["metrics"]
            assert {n: m["unit"] for n, m in printed.items()} == units, workload


def test_gate_parks_every_connection() -> None:
    """No request starts while the gate holds, and every connection
    runs to the end, with more threads than CPUs and fast switching."""
    threads_n, requests = 6, 300
    gate = service_mixed.Gate(threads_n)
    lock = threading.Lock()
    held = False
    violations = 0
    done = [0] * threads_n

    def connection(index: int) -> None:
        nonlocal violations
        try:
            for _ in range(requests):
                gate.checkpoint()
                with lock:
                    violations += held
                done[index] += 1
        finally:
            gate.leave()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=connection, args=(i,)) for i in range(threads_n)]
        for thread in threads:
            thread.start()
        running = True
        while running:
            running = gate.hold(0.001)
            with lock:
                held = True
            with lock:
                held = False
            gate.release()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert violations == 0
    assert done == [requests] * threads_n


def test_refuses_to_run_without_program_sources() -> None:
    with tempfile.TemporaryDirectory(dir=ROOT) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / HERE.name)
        out = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "wan_whatif",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, timeout=180,
        )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


if __name__ == "__main__":
    failures = 0
    for name, test in sorted(globals().items()):
        if name.startswith("test_") and callable(test):
            try:
                test()
                print(f"ok   {name}")
            except AssertionError as error:
                failures += 1
                print(f"FAIL {name}: {error}")
    sys.exit(1 if failures else 0)
