"""End-to-end benchmark of the differential network analyzer.

Run from the root of a checkout::

    python3 dnabench/run.py --workload wan_whatif --seed 1 --seconds 20 --trace 0

Each invocation is one fresh process measuring one workload for about
``--seconds`` seconds (the window always ends on a whole deck of ops).
The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``layers.END_TO_END``;
``--trace 1`` replays a fixed deck with a recording tracer and reports
the per-layer metrics of ``layers.PER_LAYER``, printing the self-time
breakdown to standard error.  The exit code is 0 only when every
output check passed.  The workloads and their metrics are described in
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import pkgutil
import sys
from pathlib import Path

from common import SRC

WORKLOADS = ("wan_whatif", "dc_commit", "service_mixed")


def import_program() -> None:
    """Put the checkout's sources first on the path and import every
    module, so no lazy import lands inside a measured interval."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"dnabench: no program sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"dnabench: imported repro from {repro.__file__}, not {SRC}")
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if not module.name.endswith("__main__"):
            importlib.import_module(module.name)


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    import_program()
    if args.workload == "service_mixed":
        import service_mixed as workload
    else:
        import inprocess as workload
    result = workload.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result.to_json(), sort_keys=True))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
