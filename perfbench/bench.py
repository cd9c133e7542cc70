"""Closed loop, correctness gate and metrics of the benchmark (see run.py)."""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from chronolabel.model import complexity, load_solution
from chronolabel.solvers import Status

import calibrate
import workloads
from tracing import Tracer

RUN_PY = Path(__file__).resolve().parent / "run.py"
OUT_DIR = RUN_PY.parent / "out"
SETUP_REPEATS = 3
CALIBRATE_EVERY_S = 0.5
REL_TOL = 1e-9


def parse_args(argv):
    parser = argparse.ArgumentParser(description="chronolabel benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# closed loop and correctness gate


class Loop:
    """Work times and outcomes of the requests run so far."""

    def __init__(self, requests):
        self.requests = requests
        self.samples = [[] for _ in requests]  # work seconds per submission
        self.outcomes = []  # (pass number, request index, Outcome)
        self.errors = []  # (pass number, request index, message)
        self.host = []  # (work seconds, host seconds) per submission
        self.passes = 0
        self.wall = 0.0

    @property
    def attempted(self) -> int:
        return len(self.outcomes) + sum(self.requests[i].solves for _, i, _ in self.errors)


class HostSampler:
    """Times ``calibrate.host_seconds()`` every CALIBRATE_EVERY_S of wall
    time, from a timer signal, so that samples also fall inside long
    requests."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0  # seconds the samples took

    def _sample(self, *_) -> None:
        t0 = time.perf_counter()
        self.samples.append(calibrate.host_seconds())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY_S, CALIBRATE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _submit(loop: Loop, index: int, tracer=None, sampler=None) -> None:
    """Run request ``index`` once and record its work time and outcomes.

    The work time is the request's latency minus the fixed wall-clock
    budgets its solves waited out (``Outcome.budget_s``), time that no
    change to the program can shorten, and minus the share of the host
    samples taken during it that fell outside those budgets."""
    first_solve = len(tracer.solve_ids) if tracer else 0
    taken, spent = (len(sampler.samples), sampler.spent) if sampler else (0, 0.0)
    t0 = time.perf_counter()
    try:
        outcomes = loop.requests[index].call()
    except Exception as exc:  # counted as failed solves; the run goes on
        outcomes = []
        loop.errors.append((loop.passes, index, f"{type(exc).__name__}: {exc}"))
    elapsed = time.perf_counter() - t0
    budget = sum(o.budget_s for o in outcomes)
    work = elapsed - budget
    if sampler:
        # The samples fall evenly in time, so those inside the budgets are
        # already gone with them.
        work *= 1.0 - (sampler.spent - spent) / elapsed
        during = sampler.samples[taken:] or sampler.samples[-1:]
        loop.host.append((work, statistics.mean(during)))
    loop.samples[index].append(work)
    for n, outcome in enumerate(outcomes):
        if tracer:
            outcome.solve_id = first_solve + n
        loop.outcomes.append((loop.passes, index, outcome))


def run_loop(requests, seconds: float) -> Loop:
    """Submit the requests in order, cyclically, until at least one full
    pass is done and ``seconds`` have elapsed."""
    loop = Loop(requests)
    started = time.perf_counter()
    index = 0
    with HostSampler() as sampler:
        while True:
            _submit(loop, index, sampler=sampler)
            index += 1
            if index == len(requests):
                index = 0
                loop.passes += 1
            if loop.passes and time.perf_counter() - started >= seconds:
                break
    loop.wall = time.perf_counter() - started
    return loop


def run_paired(requests, tracer: Tracer):
    """One pass in which every request runs untraced and traced back to back,
    alternating which goes first, so that both timings of a request see the
    same machine state.  Returns the untraced and the traced Loop."""
    plain, traced = Loop(requests), Loop(requests)

    def submit_traced(index: int) -> None:
        tracer.install()
        try:
            _submit(traced, index, tracer)
        finally:
            tracer.uninstall()

    for index in range(len(requests)):
        if index % 2:
            submit_traced(index)
            _submit(plain, index)
        else:
            _submit(plain, index)
            submit_traced(index)
    for loop in (plain, traced):
        loop.passes = 1
        loop.wall = sum(s[0] for s in loop.samples)
    return plain, traced


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def gate(loop: Loop) -> list:
    """One (pass number, request index, message) per failed solve.

    A solve fails when it raises, returns SIZE_ABORT or UNSUPPORTED, fails
    ``check_model`` under its AM and k, reports an objective above its upper
    bound, emits a solution that does not read back, or (for deterministic
    results) changes its objective between passes.  Proven GMT optima of one
    instance must not decrease from AM1 to AM2 to AM3.
    """
    failures = [
        (pass_no, i, msg) for pass_no, i, msg in loop.errors for _ in range(loop.requests[i].solves)
    ]
    failed = {}  # id(outcome) -> (pass number, request index, message)
    first = {}
    optima = {}
    for pass_no, index, o in loop.outcomes:
        res = o.result
        message = None
        if res.status in (Status.SIZE_ABORT, Status.UNSUPPORTED):
            message = f"status {res.status.value}"
        elif not o.report.valid:
            message = f"check_model: {o.report.violations[0]}"
        elif res.upper_bound is not None and res.objective > res.upper_bound and not _close(
            res.objective, res.upper_bound
        ):
            message = f"objective {res.objective} above upper bound {res.upper_bound}"
        elif o.emitted is not None and load_solution(o.emitted).activities != res.phi.activities:
            message = "emitted solution does not read back"
        if o.algorithm in ("greedy", "intgraph") or res.status is Status.OPTIMAL:
            slot = (index, o.problem, o.mode, o.algorithm)
            if slot in first and not _close(first[slot], res.objective):
                message = f"objective {res.objective} differs from {first[slot]} in pass 0"
            first.setdefault(slot, res.objective)
        if message:
            failed[id(o)] = (pass_no, index, message)
        if o.algorithm == "exact" and o.problem.k is None and res.status is Status.OPTIMAL:
            optima.setdefault((pass_no, o.unit), {})[o.mode.value] = (o, index)
    for (pass_no, _), per_mode in optima.items():
        for lower, higher in ((1, 2), (2, 3)):
            if lower in per_mode and higher in per_mode:
                low = per_mode[lower][0].result.objective
                o, index = per_mode[higher]
                high = o.result.objective
                if high < low and not _close(high, low):
                    message = f"AM{higher} optimum {high} below AM{lower} optimum {low}"
                    failed[id(o)] = (pass_no, index, message)
    return failures + list(failed.values())


# ---------------------------------------------------------------------------
# metrics


def presence_weight_seconds(instance) -> float:
    """Objective of showing every label whenever it is present: a GMT upper bound."""
    return sum(
        instance.labels[lid].weight * sum(iv.length for iv in ivs)
        for lid, ivs in instance.presences.items()
    )


def _ms_percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0] * 1000.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1000.0


def _work(loop: Loop) -> list:
    # A request's work time is its fastest sample: other load on the
    # machine only ever adds time, and it comes in bursts that a pass can
    # straddle.
    return [min(s) for s in loop.samples]


def host_factor(loop: Loop) -> float:
    """Mean host sample, weighted by the work done while it was current,
    over the loop's nominal time: how much slower than nominal the host ran
    the work."""
    work = sum(w for w, _ in loop.host)
    return sum(w * h for w, h in loop.host) / work / calibrate.NOMINAL_S


def end_to_end(loop: Loop, failures: list, setup_s: float) -> dict:
    """The gated metrics every workload reports, as name -> (value, unit)."""
    failed_first = sum(1 for pass_no, _, _ in failures if pass_no == 0)
    validated = sum(r.solves for r in loop.requests) - failed_first
    first = [o for pass_no, _, o in loop.outcomes if pass_no == 0]
    bound = sum(presence_weight_seconds(o.instance) for o in first)
    shown = sum(o.result.objective for o in first)
    return {
        "setup_s": (setup_s, "s"),
        "solves_per_s": (validated / sum(_work(loop)) * host_factor(loop), "1/s"),
        "objective_share": (shown / bound if bound else 0.0, "fraction"),
    }


def host_figures(loop: Loop, solves_per_s: float) -> dict:
    """The speed figure before scaling, and the host factor it was scaled by."""
    factor = host_factor(loop)
    return {"solves_per_s_raw": (solves_per_s / factor, "1/s"), "host_factor": (factor, "ratio")}


def unsteady_figures(loop: Loop) -> dict:
    """Reported but not gated: across seeds they spread wider than any bound
    (see README.md)."""
    return {
        "latency_p50_ms": (_ms_percentile(_work(loop), 50), "ms"),
        "latency_p95_ms": (_ms_percentile(_work(loop), 95), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def workload_figures(loop: Loop, failed: int, attempted: int) -> dict:
    """Figures that apply to some workloads only; 0 where a workload runs no such solve."""
    first = [o for pass_no, _, o in loop.outcomes if pass_no == 0]
    out = {}
    for algo in ("greedy", "intgraph", "pls", "exact"):
        total = sum(o.result.objective for o in first if o.algorithm == algo)
        out[f"objective_{algo}"] = (total, "label-s")
    exact = [o for o in first if o.algorithm == "exact"]
    proven = sum(o.result.status is Status.OPTIMAL for o in exact)
    out["proven_frac"] = (proven / len(exact) if exact else 0.0, "fraction")
    for kind in ("GMT", "KRMT"):
        runs = [o.result for o in exact if o.problem.kind == kind]
        total = sum(r.objective for r in runs)
        slack = sum(r.upper_bound - r.objective for r in runs if r.upper_bound is not None)
        out[f"gap_{kind.lower()}"] = (slack / total if total else 0.0, "fraction")
    limit = workloads.EXACT_TIME_LIMIT
    out["overrun_max_s"] = (max((o.result.runtime - limit for o in exact), default=0.0), "s")
    out["failed_frac"] = (failed / attempted if attempted else 0.0, "fraction")
    return out


def layer_figures(tracer: Tracer, traced: Loop, overhead_s: float) -> dict:
    layers = tracer.layer_metrics()
    layers["model.complexity"] = statistics.median(
        complexity(o.instance) for _, _, o in traced.outcomes
    )
    exact = [o.result for _, _, o in traced.outcomes if o.algorithm == "exact"]
    layers["solvers.exact.proven"] = sum(r.status is Status.OPTIMAL for r in exact)
    layers["solvers.exact.timeouts"] = sum(r.status is Status.FEASIBLE for r in exact)
    layers["trace.overhead_s"] = overhead_s
    units = {"model.instance_bytes": "bytes", "conflict_graph.builds_per_graph": "ratio"}
    return {
        name: (value, units.get(name, "s" if "_s" in name else "count"))
        for name, value in layers.items()
    }


def describe(loop: Loop, workload: str) -> str:
    units = {o.unit: o.instance for _, _, o in loop.outcomes}
    sizes = [complexity(i) for i in units.values()]
    exact = [o.result for pass_no, _, o in loop.outcomes if pass_no == 0 and o.algorithm == "exact"]
    proven = sum(r.status is Status.OPTIMAL for r in exact)
    return (
        f"{workload}: {len(loop.requests)} requests per pass over {len(units)} instances "
        f"(median complexity {statistics.median(sizes) if sizes else 0}), "
        f"{loop.passes} pass(es) in {loop.wall:.1f} s; latency percentiles over "
        f"{len(loop.requests)} requests" + (f"; {proven}/{len(exact)} exact solves proven" if exact else "")
    )


def write_trace(tracer: Tracer, loop: Loop, workload: str, seed: int) -> None:
    """Spans, and one row per solve of the traced pass, as JSON lines."""
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{workload}-seed{seed}"
    with open(f"{stem}-spans.jsonl", "w") as f:
        for span in tracer.spans:
            f.write(json.dumps(span) + "\n")
    build_s = tracer.solve_build_s()
    with open(f"{stem}-solves.jsonl", "w") as f:
        for _, _, o in loop.outcomes:
            res = o.result
            row = {
                "seed": o.seed,
                "problem": o.problem.kind,
                "k": o.problem.k,
                "mode": o.mode.name,
                "algorithm": o.algorithm,
                "status": res.status.value,
                "objective": res.objective,
                "upper_bound": res.upper_bound,
                "build_s": build_s[o.solve_id],
                "budget_s": o.budget_s,
                "runtime_s": res.runtime,
            }
            f.write(json.dumps(row) + "\n")
    print(f"spans and per-solve rows written to {stem}-*.jsonl")


# ---------------------------------------------------------------------------
# main


def timed_setup(workload: str, seed: int, import_s: float):
    """Generate the inputs SETUP_REPEATS times.  Returns the inputs, the set-up
    time (import plus the median generation) on the nominal host's scale,
    and the same time as measured."""
    timings = []
    with HostSampler() as sampler:
        for _ in range(SETUP_REPEATS):
            t0, spent = time.perf_counter(), sampler.spent
            inputs = workloads.setup(workload, seed)
            timings.append(time.perf_counter() - t0 - (sampler.spent - spent))
    measured = import_s + statistics.median(timings)
    factor = statistics.mean(sampler.samples) / calibrate.NOMINAL_S
    return inputs, measured / factor, measured


def run_all(args) -> int:
    """Run every workload in a process of its own, one after another."""
    status = 0
    for workload in workloads.WORKLOADS:
        argv = ["--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
        argv += ["--trace", str(args.trace)]
        sys.stdout.flush()
        status |= subprocess.run([sys.executable, str(RUN_PY)] + argv).returncode
    return status


def main(argv, started: float) -> int:
    args = parse_args(argv)
    import_s = time.perf_counter() - started
    if args.workload == "all":
        return run_all(args)
    if not args.trace:
        inputs, setup_s, setup_raw = timed_setup(args.workload, args.seed, import_s)
        loop = run_loop(workloads.requests(args.workload, inputs), args.seconds)
        failures = gate(loop)
        attempted = loop.attempted
        metrics = end_to_end(loop, failures, setup_s)
        extra = {
            "setup_s_raw": (setup_raw, "s"),
            **host_figures(loop, metrics["solves_per_s"][0]),
            **unsteady_figures(loop),
            **workload_figures(loop, len(failures), attempted),
        }
        print(describe(loop, args.workload))
    else:
        tracer = Tracer()
        tracer.install()
        try:  # traced only for the spans of the layers that setup runs
            inputs = workloads.setup(args.workload, args.seed)
        finally:
            tracer.uninstall()
        plain, loop = run_paired(workloads.requests(args.workload, inputs), tracer)
        failures = gate(plain) + gate(loop)
        attempted = plain.attempted + loop.attempted
        metrics = layer_figures(tracer, loop, loop.wall - plain.wall)
        metrics.update(unsteady_figures(plain))
        metrics.update(workload_figures(plain, len(failures), attempted))
        extra = {}
        print(describe(loop, args.workload) + "; traced pass")
        write_trace(tracer, loop, args.workload, args.seed)

    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"  {name:34s} {value:.6g} {unit}")
    for _, _, message in failures:
        print(f"FAILED: {message}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0
