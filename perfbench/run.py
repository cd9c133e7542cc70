"""Seeded closed-loop benchmark of the chronolabel pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload nav-heuristic --seed 0 --seconds 10 --trace 0

One caller submits requests one after another, each only after the previous
one returned (a closed loop with one client, no threads or processes).  The
package is imported from ./src and receives only the inputs generated from
the seed.  Every emitted solution passes through a correctness gate; failures
are counted, not raised.  The last line of standard output is one JSON
object: with ``--trace 0`` it carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced pass (see BENCHMARK.json).
"""

import time

STARTED = time.perf_counter()

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
PACKAGE = HERE.parent / "src" / "chronolabel" / "__init__.py"

if __name__ == "__main__":
    if not PACKAGE.is_file():
        sys.exit(f"perfbench: {PACKAGE} not found; run from a chronolabel checkout")
    sys.path.insert(0, str(PACKAGE.parent.parent))
    import chronolabel

    if Path(chronolabel.__file__).resolve() != PACKAGE:
        sys.exit(f"perfbench: chronolabel was imported from {chronolabel.__file__}, not {PACKAGE}")
    import bench

    sys.exit(bench.main(sys.argv[1:], STARTED))
