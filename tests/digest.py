"""Print one digest of the package's outputs on scenarios 0..N-1 and on the
benchmark's own inputs.

Usage: ``python tests/digest.py N`` (from any directory; it imports the
package from this checkout's ``src`` and the corpus builder from its
``perfbench``).  Run it on two trees: equal digests mean equal outputs.  To
compare a change with its parent, copy the change's ``tests/digest.py`` into
a checkout of the parent and run both copies.  Each scenario is taken raw
and after ``apply_min_activity(..., 1.0)``, and each instance of
perfbench's nav-heuristic corpora of seeds 0 and 91 as the benchmark loads
it; for each instance, the items are

* the ``dump_instance`` bytes;
* greedy and IntGraph solution bytes and objectives, GMT and KRMT k=1-3 at
  AM1-AM3;
* per model, the unrepaired greedy selection, a seeded random maximal
  independent set and its repair;
* for the GMT outputs and those selections, ``check_model`` reports under
  every model with k in {None, 1, 2} and a 2.0 s minimum duration, and
  ``is_justified`` of every activity;
* PLS (GMT, AM1-AM3) and exact (GMT AM1-AM3, KRMT k=2 AM1, 1.1 s limit)
  under a clock that advances a fixed step per read, with their statuses
  and upper bounds.

Prints the item count and a sha256 over the items in order.  Runtimes are
left out: they are the only outputs that depend on the host.
"""

from __future__ import annotations

import hashlib
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from chronolabel import solvers  # noqa: E402
from chronolabel.cli import apply_min_activity  # noqa: E402
from chronolabel.conflict_graph import build_graph  # noqa: E402
from chronolabel.model import dump_instance, dump_solution  # noqa: E402
from chronolabel.scenario import extract_instance, synthesize_scenario  # noqa: E402
from chronolabel.validation import AmMode, check_model, is_justified  # noqa: E402
import workloads  # noqa: E402

CORPUS_SEEDS = (0, 91)
PROBLEMS = (solvers.GMT, solvers.krmt(1), solvers.krmt(2), solvers.krmt(3))
TICK = 1e-4  # seconds per clock read: 1000 PLS budget reads, 11000 exact deadline reads


class TickClock:
    """A ``time`` stand-in for the solvers whose ``perf_counter`` moves by
    ``TICK`` per read."""

    def __init__(self):
        self.now = 0.0

    def perf_counter(self) -> float:
        self.now += TICK
        return self.now


def random_maximal(graph, seed: int) -> set:
    order = list(range(len(graph)))
    random.Random(seed).shuffle(order)
    blocked = bytearray(len(graph))
    selection = set()
    for v in order:
        if not blocked[v]:
            selection.add(v)
            for u in graph.neighbor_ids(v):
                blocked[u] = 1
    return selection


def checks(instance, phi):
    for mode in AmMode:
        for k in (None, 1, 2):
            yield check_model(instance, phi, mode, k=k, min_duration=2.0).to_json()
    for lid, ivs in phi.items():
        for iv in ivs:
            yield repr((lid, iv, is_justified(instance, phi, lid, iv)))


def result_items(result):
    yield dump_solution(result.phi)
    yield repr((result.objective, result.status.value, result.upper_bound))


def items(instance, salt: int):
    yield dump_instance(instance)
    for problem in PROBLEMS:
        for mode in AmMode:
            for solve in (solvers.solve_greedy, solvers.solve_intgraph):
                result = solve(instance, problem, mode)
                yield from result_items(result)
                if problem is solvers.GMT:
                    yield from checks(instance, result.phi)
    for mode in AmMode:
        graph = build_graph(instance, mode)
        picked = random_maximal(graph, salt + mode.value)
        for selection in (
            solvers._greedy_selection(graph, None),
            picked,
            solvers.repair_selection(instance, graph, picked),
        ):
            yield repr(sorted(selection))
            yield from checks(instance, graph.to_activity_set(selection))
    timed = [(solvers.GMT, mode, "pls") for mode in AmMode]
    timed += [(solvers.GMT, mode, "exact") for mode in AmMode] + [(solvers.krmt(2), AmMode.AM1, "exact")]
    clock = solvers.time
    try:
        for problem, mode, algorithm in timed:
            solvers.time = TickClock()  # a fresh clock per solve
            if algorithm == "pls":
                result = solvers.solve_pls(instance, problem, mode)
            else:
                result = solvers.solve_exact(instance, problem, mode, time_limit=1.1)
            yield from result_items(result)
    finally:
        solvers.time = clock


def inputs(count: int):
    """(instance, salt) pairs: scenarios 0..count-1 raw and after the 1 s
    minimum activity, then the benchmark's corpora of seeds 0 and 91."""
    for seed in range(count):
        raw = extract_instance(synthesize_scenario(seed))
        for salt, instance in enumerate((raw, apply_min_activity(raw, 1.0))):
            yield instance, 4 * seed + 2 * salt
    for corpus_seed in CORPUS_SEEDS:
        for seed, instance in workloads.nav_corpus(corpus_seed, workloads.HEURISTIC_PREFIX):
            yield instance, 4 * seed + 3


def main(argv) -> None:
    count = int(argv[0]) if argv else 60
    digest = hashlib.sha256()
    n = 0
    for instance, salt in inputs(count):
        for item in items(instance, salt):
            digest.update(item.encode())
            digest.update(b"\0")
            n += 1
    print(n, digest.hexdigest())


if __name__ == "__main__":
    main(sys.argv[1:])
