"""Solution algorithms for the two optimization problems.

GeneralMaxTotal (GMT) maximizes total weighted activity time; the
k-restricted variant (KRMT) additionally caps the number of simultaneously
active labels.  Four approaches are provided:

* ``solve_exact``    branch-and-bound over candidate clusters (optimal)
* ``solve_greedy``   repeated max-weight candidate selection
* ``solve_pls``      phased local search on the candidate graph
* ``solve_intgraph`` iterated max-weight independent sets on the interval
                     graph of (shortened) presence intervals
"""

from __future__ import annotations

import bisect
import enum
import json
import random
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .conflict_graph import Candidate, ConflictGraph, SizeLimitExceeded, build_graph
from .model import ActivitySet, Instance, TimeInterval, make_activity_set, objective
from .validation import AmMode, is_justified, saturate, saturate_excluding


class Status(enum.Enum):
    OPTIMAL = "OPTIMAL"
    FEASIBLE = "FEASIBLE"
    UNSUPPORTED = "UNSUPPORTED"
    SIZE_ABORT = "SIZE_ABORT"


@dataclass(frozen=True)
class Problem:
    """GMT or KRMT(k)."""

    kind: str  # "GMT" | "KRMT"
    k: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in ("GMT", "KRMT"):
            raise ValueError(f"unknown problem kind {self.kind!r}")
        if self.kind == "KRMT" and (self.k is None or self.k < 1):
            raise ValueError("KRMT requires k >= 1")
        if self.kind == "GMT" and self.k is not None:
            raise ValueError("GMT takes no k")


GMT = Problem("GMT")


def krmt(k: int) -> Problem:
    return Problem("KRMT", k)


@dataclass(frozen=True)
class PlsParams:
    wall_clock_budget: float = 0.1


@dataclass(frozen=True)
class SolveRequest:
    problem: Problem
    mode: AmMode
    algorithm: str  # EXACT | GREEDY | PLS | INTGRAPH
    time_limit: float = 600.0
    seed: int = 0
    pls_params: PlsParams = field(default_factory=PlsParams)


@dataclass(frozen=True)
class SolveResult:
    phi: ActivitySet
    objective: float
    status: Status
    runtime: float
    upper_bound: Optional[float] = None

    def sidecar(self, request: SolveRequest) -> str:
        return json.dumps(
            {
                "objective": self.objective,
                "status": self.status.value,
                "upper_bound": self.upper_bound,
                "runtime_s": self.runtime,
                "algorithm": request.algorithm,
                "mode": request.mode.name,
                "problem": request.problem.kind,
                "k": request.problem.k,
                "seed": request.seed,
            },
            indent=2,
        )


def solve(instance: Instance, request: SolveRequest) -> SolveResult:
    algo = request.algorithm.upper()
    if algo == "EXACT":
        return solve_exact(instance, request.problem, request.mode, time_limit=request.time_limit)
    if algo == "GREEDY":
        return solve_greedy(instance, request.problem, request.mode)
    if algo == "PLS":
        return solve_pls(
            instance, request.problem, request.mode, seed=request.seed, params=request.pls_params
        )
    if algo == "INTGRAPH":
        return solve_intgraph(instance, request.problem, request.mode)
    raise ValueError(f"unknown algorithm {request.algorithm!r}")


def _result(instance, phi, status, started, upper_bound=None) -> SolveResult:
    return SolveResult(
        phi=phi,
        objective=objective(instance, phi),
        status=status,
        runtime=time.perf_counter() - started,
        upper_bound=upper_bound,
    )


def _empty_phi() -> ActivitySet:
    return make_activity_set({})


# ---------------------------------------------------------------------------
# Elementary-interval coverage bookkeeping (for the k bound)


class _Coverage:
    """Counts, per elementary time slice, how many selected candidates are open."""

    def __init__(self, candidates: Sequence[Candidate], k: int):
        points = sorted({p for c in candidates for p in (c.interval.start, c.interval.end)})
        self.points = points
        self.k = k
        self.counts = [0] * max(len(points) - 1, 0)
        self._slices = {}
        for c in candidates:
            lo = bisect.bisect_left(points, c.interval.start)
            hi = bisect.bisect_left(points, c.interval.end)
            self._slices[c.id] = (lo, hi)

    def can_add(self, cid: int) -> bool:
        lo, hi = self._slices[cid]
        counts = self.counts
        return all(counts[i] < self.k for i in range(lo, hi))

    def add(self, cid: int) -> None:
        lo, hi = self._slices[cid]
        for i in range(lo, hi):
            self.counts[i] += 1

    def remove(self, cid: int) -> None:
        lo, hi = self._slices[cid]
        for i in range(lo, hi):
            self.counts[i] -= 1


# ---------------------------------------------------------------------------
# Justification repair
#
# A saturated independent set is *not* always model-valid: a candidate may
# start at a conflict end whose witness already turned inactive, while every
# longer cluster-mate collides with the selection.  Heuristic selections are
# therefore post-processed: unjustified candidates are banned and dropped
# (one per round, lightest first) and the rest is re-saturated, ignoring the
# banned candidates, until the activity set passes the model check.


def _unjustified_candidates(
    instance: Instance, graph: ConflictGraph, selection: set, mode: AmMode
) -> List[int]:
    phi = graph.to_activity_set(selection)
    bad = []
    for v in selection:
        c = graph.candidates[v]
        presence = instance.presences_of(c.label_id)[c.presence_index]
        start_ok, end_ok = is_justified(instance, phi, c.label_id, c.interval)
        if mode is AmMode.AM2:
            start_ok = c.interval.start == presence.start
        if not (start_ok and end_ok):
            bad.append(v)
    return bad


def repair_selection(
    instance: Instance, graph: ConflictGraph, selection: set, mode: AmMode
) -> set:
    """Saturate, then drop unjustified candidates until the set is model-valid."""
    banned: set = set()
    selected = set(selection)
    while True:
        selected = saturate_excluding(instance, graph, selected, banned)
        if mode is AmMode.AM1:
            return selected
        bad = _unjustified_candidates(instance, graph, selected, mode)
        if not bad:
            return selected
        drop = min(bad, key=lambda v: (graph.weight(v), v))
        banned.add(drop)
        selected.discard(drop)


# ---------------------------------------------------------------------------
# Exact branch-and-bound


class _Deadline:
    def __init__(self, seconds: float):
        self.at = time.perf_counter() + seconds
        self.hit = seconds <= 0
        self._ticks = 0

    def check(self, every: int = 256) -> bool:
        if self.hit:
            return True
        self._ticks += 1
        if self._ticks % every == 0 and time.perf_counter() >= self.at:
            self.hit = True
        return self.hit


def _witness_requirements(
    instance: Instance, graph: ConflictGraph, part: set, mode: AmMode
) -> Tuple[Dict[int, List[frozenset]], set]:
    """Justification as set constraints: ``(requirements, usable candidates)``.

    For AM2/AM3, an endpoint not on the presence boundary is justified iff a
    witness candidate from a fixed, precomputable set is selected: any
    candidate of a conflict partner whose conflict ends (starts) exactly at
    the endpoint and whose interval covers it.  A candidate with an empty
    witness set can never appear in a valid solution and is removed; removal
    shrinks other witness sets, so this iterates to a fixpoint.
    """
    if mode is AmMode.AM1:
        return {v: [] for v in part}, set(part)
    # conflict endpoint lookup: label -> endpoint time -> partner labels
    ends_at: Dict[str, Dict[float, List[str]]] = {}
    starts_at: Dict[str, Dict[float, List[str]]] = {}
    for entry in instance.conflicts:
        for lid, other in ((entry.a, entry.b), (entry.b, entry.a)):
            ends_at.setdefault(lid, {}).setdefault(entry.interval.end, []).append(other)
            starts_at.setdefault(lid, {}).setdefault(entry.interval.start, []).append(other)

    alive = set(part)
    while True:
        by_label: Dict[str, List[int]] = {}
        for v in alive:
            by_label.setdefault(graph.candidates[v].label_id, []).append(v)

        def witnesses(v: int, partners: List[str], t: float) -> frozenset:
            # a witness must cover the endpoint AND be co-selectable with v
            adj_v = graph._adj_sets[v]
            return frozenset(
                u
                for other in partners
                for u in by_label.get(other, ())
                if u not in adj_v
                and graph.candidates[u].interval.start <= t <= graph.candidates[u].interval.end
            )

        requirements: Dict[int, List[frozenset]] = {}
        dead = []
        for v in alive:
            c = graph.candidates[v]
            presence = instance.presences_of(c.label_id)[c.presence_index]
            reqs = []
            usable = True
            if mode is AmMode.AM3 and c.interval.start != presence.start:
                wit = witnesses(
                    v, ends_at.get(c.label_id, {}).get(c.interval.start, []), c.interval.start
                )
                if wit:
                    reqs.append(wit)
                else:
                    usable = False
            if usable and c.interval.end != presence.end:
                wit = witnesses(
                    v, starts_at.get(c.label_id, {}).get(c.interval.end, []), c.interval.end
                )
                if wit:
                    reqs.append(wit)
                else:
                    usable = False
            if usable:
                requirements[v] = reqs
            else:
                dead.append(v)
        if not dead:
            return requirements, alive
        alive.difference_update(dead)


class _ClusterBnB:
    """Branch-and-bound choosing at most one candidate per cluster.

    Clusters are decided in time order; the bound is the current weight plus
    the per-cluster maxima of the undecided clusters.  Justification (AM2/
    AM3) is tracked as pending witness requirements: every chosen candidate
    with an inner endpoint must eventually see one of its witness candidates
    selected, and a branch dies as soon as the last cluster that could still
    provide a witness has been passed.
    """

    def __init__(
        self,
        instance: Instance,
        graph: ConflictGraph,
        clusters: List[List[int]],
        mode: AmMode,
        k: Optional[int],
        deadline: _Deadline,
    ):
        self.graph = graph
        self.deadline = deadline
        part = {v for m in clusters for v in m}
        self.requirements, alive = _witness_requirements(instance, graph, part, mode)
        kept = [[v for v in m if v in alive] for m in clusters]
        # time order, heaviest candidate first within each cluster
        self.clusters = [
            sorted(m, key=lambda v: (-graph.weight(v), v))
            for m in sorted(
                (m for m in kept if m),
                key=lambda m: (
                    min(graph.candidates[v].interval.start for v in m),
                    graph.candidates[m[0]].cluster_key,
                ),
            )
        ]
        pos_of: Dict[int, int] = {}
        for i, m in enumerate(self.clusters):
            for v in m:
                pos_of[v] = i
        self.last_chance = {
            v: [max((pos_of[u] for u in wit if u in pos_of), default=-1) for wit in reqs]
            for v, reqs in self.requirements.items()
            if v in pos_of
        }
        self.suffix_bound = [0.0] * (len(self.clusters) + 1)
        for i in range(len(self.clusters) - 1, -1, -1):
            self.suffix_bound[i] = self.suffix_bound[i + 1] + graph.weight(self.clusters[i][0])
        all_cands = [graph.candidates[v] for m in self.clusters for v in m]
        self.coverage = _Coverage(all_cands, k) if k is not None else None
        self.best_weight = 0.0
        self.best: set = set()
        # pending witness requirements: [witness set, last chance, hits]
        self.pending: List[list] = []
        self.selected: List[int] = []
        self._undo: List[tuple] = []

    @property
    def root_bound(self) -> float:
        return self.suffix_bound[0]

    def run(self) -> None:
        self._dfs(0, 0.0)

    def _record(self, weight: float) -> None:
        if weight > self.best_weight and all(p[2] > 0 for p in self.pending):
            self.best_weight = weight
            self.best = set(self.selected)

    def _dfs(self, i: int, weight: float) -> None:
        if self.deadline.check():
            return
        if weight + self.suffix_bound[i] <= self.best_weight:
            return
        for wit, last, hits in self.pending:
            if hits == 0 and last < i:
                return  # an unsatisfied requirement ran out of witnesses
        self._record(weight)
        if i == len(self.clusters):
            return
        graph = self.graph
        for v in self.clusters[i]:
            w = graph.weight(v)
            if weight + w + self.suffix_bound[i + 1] <= self.best_weight:
                break  # candidates sorted by weight: the rest is no better
            if any(graph.adjacent(v, u) for u in self.selected):
                continue
            if self.coverage is not None:
                if not self.coverage.can_add(v):
                    continue
            if not self._push(v, i):
                continue
            if self.coverage is not None:
                self.coverage.add(v)
            self._dfs(i + 1, weight + w)
            if self.coverage is not None:
                self.coverage.remove(v)
            self._pop()
            if self.deadline.hit:
                return
        self._dfs(i + 1, weight)  # skip this cluster

    def _push(self, v: int, i: int) -> bool:
        """Select v at cluster position i; False if justification is already dead."""
        new_entries = []
        for wit, last in zip(self.requirements[v], self.last_chance[v]):
            hits = sum(1 for u in self.selected if u in wit)
            if hits == 0 and last < i:
                return False
            new_entries.append([wit, last, hits])
        bumped = []
        for p in self.pending:
            if v in p[0]:
                p[2] += 1
                bumped.append(p)
        self._undo.append((len(new_entries), bumped))
        self.pending.extend(new_entries)
        self.selected.append(v)
        return True

    def _pop(self) -> None:
        added, bumped = self._undo.pop()
        if added:
            del self.pending[-added:]
        for p in bumped:
            p[2] -= 1
        self.selected.pop()


def _label_groups(instance: Instance, graph: ConflictGraph) -> List[List[List[int]]]:
    """Partition the clusters by connected components of the *label* conflict
    graph (labels as nodes, one edge per conflicting pair).

    Candidate edges only exist between conflicting labels, so this refines
    nothing away; unlike candidate-graph components it also keeps every
    possible justification witness of a label in the same part, which makes
    per-part justification checks exact.
    """
    parent = {lid: lid for lid in instance.labels}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for entry in instance.conflicts:
        ra, rb = find(entry.a), find(entry.b)
        if ra != rb:
            parent[ra] = rb

    out: Dict[str, List[List[int]]] = {}
    for key, members in graph.clusters.items():
        if members:
            out.setdefault(find(key[0]), []).append(members)
    return [out[root] for root in sorted(out)]


class _GroupTimeout(Exception):
    pass


def _slice_cliques(instance: Instance, graph: ConflictGraph, clusters: List[List[int]]) -> List[tuple]:
    """Clique family for the Lagrangian bound.

    Two sources: per conflict entry, the candidates of the two labels
    covering an elementary slice of the conflict interval (they pairwise
    conflict); and per global elementary slice, greedily grown maximal
    cliques over all candidates covering it.  Both exploit that conflicts
    are intervals in time, so co-covering candidates collide wholesale.
    """
    part = [v for m in clusters for v in m]
    part_set = set(part)
    labels_in = {graph.candidates[m[0]].label_id for m in clusters}
    by_label: Dict[str, List[int]] = {}
    for v in part:
        by_label.setdefault(graph.candidates[v].label_id, []).append(v)
    events = sorted(
        {p for v in part for p in (graph.candidates[v].interval.start, graph.candidates[v].interval.end)}
    )
    cliques: List[tuple] = []
    seen = set()

    def emit(cols) -> None:
        if len(cols) >= 2:
            key = tuple(sorted(cols))
            if key not in seen:
                seen.add(key)
                cliques.append(key)

    for entry in instance.conflicts:
        if entry.a not in labels_in or entry.b not in labels_in:
            continue
        lo, hi = entry.interval.start, entry.interval.end
        cand_ab = by_label.get(entry.a, []) + by_label.get(entry.b, [])
        if lo == hi:
            slices = [(lo, hi)]
        else:
            points = [lo] + [e for e in events if lo < e < hi] + [hi]
            slices = list(zip(points, points[1:]))
        for p, q in slices:
            if p == q:  # degenerate conflict: only strict containment collides
                emit(
                    [
                        v
                        for v in cand_ab
                        if graph.candidates[v].interval.start < p < graph.candidates[v].interval.end
                    ]
                )
            else:
                emit(
                    [
                        v
                        for v in cand_ab
                        if graph.candidates[v].interval.start <= p
                        and graph.candidates[v].interval.end >= q
                    ]
                )

    adj = graph._adj_sets
    for p, q in zip(events, events[1:]):
        cover = sorted(
            (
                v
                for v in part_set
                if graph.candidates[v].interval.start <= p and graph.candidates[v].interval.end >= q
            ),
            key=lambda v: -graph.weight(v),
        )
        while len(cover) >= 2:
            members = [cover[0]]
            rest = []
            for u in cover[1:]:
                if all(u in adj[m] for m in members):
                    members.append(u)
                else:
                    rest.append(u)
            if len(members) < 2:
                break
            emit(members)
            cover = rest
    return cliques


class _GroupSolver:
    """Exact GMT solver for one label group via decomposing branch-and-bound.

    Conflict graphs of navigation instances are sparse: conflicts are local
    in time, so removing one cluster usually splits the rest into independent
    pieces.  The solver branches on the most-connected cluster, then solves
    the connected components of what remains separately and sums them, which
    keeps the search shallow even when the label group is large.

    Justification (AM2/AM3) travels as "musts": witness sets of already
    selected candidates, at least one member of which still has to be picked.
    A must's witnesses link the clusters containing them into one component,
    so the decomposition never separates a requirement from its witnesses.
    """

    LAGRANGIAN_MIN_SIZE = 60  # candidates; below this the cluster bound suffices
    SUBGRADIENT_ITERATIONS = 250

    def __init__(
        self,
        instance: Instance,
        graph: ConflictGraph,
        requirements: Dict[int, List[frozenset]],
        clusters: List[List[int]],
        deadline: _Deadline,
        warm_weight: float = 0.0,
    ):
        self.graph = graph
        self.requirements = requirements
        self.deadline = deadline
        self.chosen: set = set()
        self.clusters = clusters
        self.cluster_of = {v: i for i, m in enumerate(clusters) for v in m}
        # cluster-level adjacency (any candidate edge); coarser than the live
        # candidate adjacency but cheap to intersect per node
        self.cluster_adj: List[set] = [set() for _ in clusters]
        for i, m in enumerate(clusters):
            for v in m:
                for u in graph.neighbors(v):
                    j = self.cluster_of.get(u)
                    if j is not None and j != i:
                        self.cluster_adj[i].add(j)
        # clusters holding potential witnesses, per candidate with inner endpoints
        self.witness_clusters: Dict[int, set] = {}
        for v, reqs in requirements.items():
            if reqs and v in self.cluster_of:
                self.witness_clusters[v] = {
                    self.cluster_of[u] for wit in reqs for u in wit if u in self.cluster_of
                }
        # who can witness whom: used to trim memo keys to the part of the
        # chosen set that can still influence a subproblem
        self.witnessed_by: Dict[int, set] = {}
        for v, reqs in requirements.items():
            for wit in reqs:
                for u in wit:
                    self.witnessed_by.setdefault(u, set()).add(v)
        self.memo: Dict[tuple, tuple] = {}
        # Lagrangian bound state: reduced candidate weights and the constant
        # multiplier mass (see _fit_multipliers)
        self.reduced = {v: graph.weight(v) for v in self.cluster_of}
        self.lam_total = 0.0
        if len(self.cluster_of) >= self.LAGRANGIAN_MIN_SIZE:
            self._fit_multipliers(instance, warm_weight)

    def _fit_multipliers(self, instance: Instance, lower_bound: float) -> None:
        """Subgradient ascent on a Lagrangian relaxation of the clique
        constraints (keeping the one-per-cluster constraints exact).

        For multipliers lam >= 0 on any clique family, any independent set S
        satisfies  w(S) <= sum(lam) + sum over clusters of max(0, max reduced
        weight), where reduced(v) = w(v) - sum of lam over cliques containing
        v.  The inequality survives restriction to a candidate subset, so the
        multipliers fitted once at the root bound every subproblem.
        """
        graph = self.graph
        cliques = _slice_cliques(instance, graph, self.clusters)
        if not cliques:
            return
        membership: Dict[int, List[int]] = {v: [] for v in self.cluster_of}
        for qi, cols in enumerate(cliques):
            for v in cols:
                membership[v].append(qi)
        lam = [0.0] * len(cliques)
        weights = {v: graph.weight(v) for v in self.cluster_of}
        best_bound = float("inf")
        best_lam = lam
        mu = 2.0
        stall = 0
        for _ in range(self.SUBGRADIENT_ITERATIONS):
            if self.deadline.check(every=1):
                break
            reduced = dict(weights)
            for qi, cols in enumerate(cliques):
                l = lam[qi]
                if l:
                    for v in cols:
                        reduced[v] -= l
            bound = sum(lam)
            x = set()
            for m in self.clusters:
                pick = max(m, key=lambda v: reduced[v])
                if reduced[pick] > 0:
                    x.add(pick)
                    bound += reduced[pick]
            if bound < best_bound - 1e-9:
                best_bound = bound
                best_lam = list(lam)
                stall = 0
            else:
                stall += 1
                if stall >= 20:
                    mu *= 0.5
                    stall = 0
            grad = [sum(1 for v in cols if v in x) - 1 for cols in cliques]
            norm = sum(g * g for g in grad)
            if norm == 0:
                break
            step = mu * max(bound - lower_bound, 0.1) / norm
            lam = [max(0.0, l + step * g) for l, g in zip(lam, grad)]
        self.lam_total = sum(best_lam)
        self.reduced = dict(weights)
        for qi, cols in enumerate(cliques):
            l = best_lam[qi]
            if l:
                for v in cols:
                    self.reduced[v] -= l

    MEMO_LIMIT = 200_000  # entries; keeps worst-case memory in the hundreds of MB

    def _bound(self, avail) -> float:
        """Min of the cluster-maxima bound and the Lagrangian bound."""
        weight = self.graph.weight
        reduced = self.reduced
        cluster_bound = 0.0
        lagr = self.lam_total
        for m in avail.values():
            cluster_bound += weight(m[0])  # sorted by descending weight
            best = 0.0
            for v in m:
                r = reduced[v]
                if r > best:
                    best = r
            lagr += best
        return min(cluster_bound, lagr)

    def solve(self, avail: Dict[int, List[int]], musts: List[frozenset], alpha: float):
        """Best (selection, weight) with weight > ``alpha``, else None.

        None therefore means "no selection satisfying all musts beats alpha"
        (which covers plain infeasibility); a returned selection is the exact
        subproblem optimum.  ``avail`` maps cluster index to its still
        selectable candidates (sorted by descending weight); ``musts`` are
        witness sets of already selected candidates, restricted to available
        candidates.
        """
        if self.deadline.check():
            raise _GroupTimeout
        if not avail:
            return (set(), 0.0) if not musts and 0.0 > alpha else None
        parts = self._components(avail, musts)
        bounds = [self._bound(pa) for pa, _ in parts]
        selection: set = set()
        weight = 0.0
        empty: set = set()
        for i, (part_avail, part_musts) in enumerate(parts):
            # the other components contribute at most their bounds, so this
            # one must beat the rest of the threshold on its own
            part_alpha = alpha - weight - sum(bounds[i + 1 :])
            part_cands = {v for m in part_avail.values() for v in m}
            chosen_key = frozenset(
                u
                for u in self.chosen
                if not self.witnessed_by.get(u, empty).isdisjoint(part_cands)
            )
            key = (
                frozenset((ci, tuple(m)) for ci, m in part_avail.items()),
                frozenset(part_musts),
                chosen_key,
            )
            entry = self.memo.get(key)
            if entry is not None and entry[0] == "exact":
                res = entry[1] if entry[1] is not None and entry[1][1] > part_alpha else None
            elif entry is not None and entry[1] <= part_alpha:
                res = None  # known upper bound already below the threshold
            else:
                res = self._branch(part_avail, part_musts, part_alpha)
                if len(self.memo) < self.MEMO_LIMIT:
                    if res is not None:
                        self.memo[key] = ("exact", (frozenset(res[0]), res[1]))
                    else:
                        prev = entry[1] if entry is not None else float("inf")
                        self.memo[key] = ("ub", min(prev, part_alpha))
                elif entry is not None and res is None:
                    self.memo[key] = ("ub", min(entry[1], part_alpha))
            if res is None:
                return None
            selection |= res[0]
            weight += res[1]
        return selection, weight

    def _components(self, avail, musts):
        parent = {ci: ci for ci in avail}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(a, b):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb

        cluster_of = self.cluster_of
        for ci in avail:
            for cj in self.cluster_adj[ci]:
                if cj > ci and cj in avail:
                    union(ci, cj)
        # a selectable candidate must stay with its potential witnesses, and
        # an open must with the candidates that can still satisfy it
        for ci, members in avail.items():
            for v in members:
                for cj in self.witness_clusters.get(v, ()):
                    if cj in avail:
                        union(ci, cj)
        for wit in musts:
            it = iter(wit)
            first = cluster_of[next(it)]
            for u in it:
                union(first, cluster_of[u])
        by_root: Dict[int, list] = {}
        for ci in avail:
            by_root.setdefault(find(ci), [{}, []])[0][ci] = avail[ci]
        for wit in musts:
            by_root[find(cluster_of[next(iter(wit))])][1].append(wit)
        return [by_root[r] for r in sorted(by_root)]

    def _branch(self, avail, musts, alpha: float):
        graph = self.graph
        cluster_of = self.cluster_of
        # branch on the most-connected cluster: removing it decomposes the
        # rest as much as possible
        keys = avail.keys()
        bi = max(keys, key=lambda ci: (len(self.cluster_adj[ci] & keys), -ci))
        rest = {ci: m for ci, m in avail.items() if ci != bi}
        bound_rest = self._bound(rest)
        best = None  # (selection, weight)
        best_w = alpha  # floor: only strictly better solutions count

        for v in avail[bi]:
            w = graph.weight(v)
            if w + bound_rest <= best_w:
                break  # candidates sorted by weight: the rest is no better
            nb = graph._adj_sets[v]
            # only clusters adjacent to the branching cluster can lose
            # candidates; the rest share their (immutable) lists
            new_avail = dict(rest)
            for ci in self.cluster_adj[bi]:
                m = rest.get(ci)
                if m is None:
                    continue
                nm = [u for u in m if u not in nb]
                if nm:
                    new_avail[ci] = nm
                else:
                    del new_avail[ci]
            if w + self._bound(new_avail) <= best_w:
                continue  # even with v, the filtered remainder cannot catch up
            new_musts = []
            ok = True
            for wit in musts:
                if v in wit:
                    continue  # satisfied
                cut = frozenset(
                    u for u in wit if cluster_of[u] != bi and u not in nb
                )
                if not cut:
                    ok = False
                    break
                new_musts.append(cut)
            if ok:
                for wit in self.requirements[v]:
                    if wit & self.chosen:
                        continue  # already witnessed upstream
                    cut = frozenset(
                        u
                        for u in wit
                        if u in new_avail.get(cluster_of.get(u), ())
                    )
                    if not cut:
                        ok = False
                        break
                    new_musts.append(cut)
            if not ok:
                continue
            self.chosen.add(v)
            res = self.solve(new_avail, new_musts, best_w - w)
            self.chosen.discard(v)
            if res is not None:
                best = (res[0] | {v}, res[1] + w)
                best_w = best[1]

        if bound_rest > best_w:  # skip this cluster entirely
            new_musts = []
            ok = True
            for wit in musts:
                cut = frozenset(u for u in wit if cluster_of[u] != bi)
                if not cut:
                    ok = False
                    break
                new_musts.append(cut)
            if ok:
                res = self.solve(rest, new_musts, best_w)
                if res is not None:
                    best = res
        return best


def _solve_group(
    instance: Instance,
    graph: ConflictGraph,
    clusters: List[List[int]],
    mode: AmMode,
    deadline: _Deadline,
) -> Tuple[set, bool, float]:
    """Optimal selection for one label group: (selection, proven optimal, upper bound).

    Candidates that can never be justified are removed up front (see
    :func:`_witness_requirements`); the rest is handed to the decomposing
    branch-and-bound.  On timeout the repaired greedy selection is returned
    with the sum-of-cluster-maxima upper bound.
    """
    part = {v for m in clusters for v in m}
    warm = repair_selection(
        instance, graph, _greedy_selection(instance, graph, None, within=part), mode
    )
    requirements, alive = _witness_requirements(instance, graph, part, mode)
    kept = [
        sorted((v for v in m if v in alive), key=lambda v: (-graph.weight(v), v))
        for m in clusters
    ]
    kept = [m for m in kept if m]
    root_bound = sum(graph.weight(m[0]) for m in kept)
    depth_needed = 8 * len(kept) + 200
    if sys.getrecursionlimit() < depth_needed:
        sys.setrecursionlimit(depth_needed)
    warm_weight = graph.selection_weight(warm)
    solver = _GroupSolver(instance, graph, requirements, kept, deadline, warm_weight)
    try:
        res = solver.solve({i: m for i, m in enumerate(kept)}, [], warm_weight)
    except _GroupTimeout:
        return warm, False, root_bound
    if res is None:  # nothing beats the warm start, so it is optimal
        return warm, True, warm_weight
    return set(res[0]), True, res[1]


def solve_exact(
    instance: Instance,
    problem: Problem,
    mode: AmMode,
    time_limit: float = 600.0,
) -> SolveResult:
    """Optimal activity set via branch-and-bound on the candidate graph."""
    started = time.perf_counter()
    try:
        graph = build_graph(instance, mode)
    except SizeLimitExceeded:
        return _result(instance, _empty_phi(), Status.SIZE_ABORT, started)
    deadline = _Deadline(time_limit)

    if problem.kind == "GMT":
        # Without a k bound the problem decomposes over the label conflict
        # components; each part is solved independently.
        selection: set = set()
        upper = 0.0
        optimal = True
        for clusters in _label_groups(instance, graph):
            sel, is_opt, part_upper = _solve_group(instance, graph, clusters, mode, deadline)
            selection |= sel
            upper += part_upper
            optimal = optimal and is_opt
        phi = graph.to_activity_set(selection)
        if optimal:
            res = _result(instance, phi, Status.OPTIMAL, started)
            return SolveResult(res.phi, res.objective, res.status, res.runtime, res.objective)
        return _result(instance, phi, Status.FEASIBLE, started, upper_bound=upper)

    clusters = [m for m in graph.clusters.values() if m]
    if not clusters:
        return _result(instance, _empty_phi(), Status.OPTIMAL, started, upper_bound=0.0)
    bnb = _ClusterBnB(instance, graph, clusters, mode, problem.k, deadline)
    # Warm start: greedy over the full-presence candidates is valid for every
    # activity model and respects the k bound.
    full = {
        c.id
        for c in graph.candidates
        if c.interval == instance.presences_of(c.label_id)[c.presence_index]
    }
    warm = _greedy_selection(instance, graph, problem.k, within=full)
    bnb.best = set(warm)
    bnb.best_weight = graph.selection_weight(warm)
    bnb.run()
    phi = graph.to_activity_set(bnb.best)
    if deadline.hit:
        return _result(instance, phi, Status.FEASIBLE, started, upper_bound=bnb.root_bound)
    res = _result(instance, phi, Status.OPTIMAL, started)
    return SolveResult(res.phi, res.objective, res.status, res.runtime, res.objective)


# ---------------------------------------------------------------------------
# Greedy


def _greedy_selection(
    instance: Instance,
    graph: ConflictGraph,
    k: Optional[int],
    within: Optional[set] = None,
) -> set:
    alive = set(range(len(graph))) if within is None else set(within)
    coverage = _Coverage(graph.candidates, k) if k is not None else None
    selected: set = set()
    while alive:
        # max weight, ties by smallest candidate id
        pick = min(alive, key=lambda v: (-graph.weight(v), v))
        selected.add(pick)
        alive.discard(pick)
        alive.difference_update(graph.neighbors(pick))
        if coverage is not None:
            coverage.add(pick)
            alive = {v for v in alive if coverage.can_add(v)}
    return selected


def solve_greedy(
    instance: Instance,
    problem: Problem,
    mode: AmMode,
) -> SolveResult:
    """Repeatedly take the heaviest remaining candidate.

    The result is saturated by construction; for AM2/AM3 a justification
    repair pass follows (see :func:`repair_selection`).  For KRMT the
    procedure runs on the AM1 graph regardless of the requested mode (an AM1
    solution trivially satisfies AM2/AM3); after each pick, candidates that
    can no longer be added without exceeding k simultaneous activities are
    dropped as well.
    """
    started = time.perf_counter()
    build_mode = AmMode.AM1 if problem.kind == "KRMT" else mode
    try:
        graph = build_graph(instance, build_mode)
    except SizeLimitExceeded:
        return _result(instance, _empty_phi(), Status.SIZE_ABORT, started)
    selected = _greedy_selection(instance, graph, problem.k)
    if problem.kind == "GMT":
        selected = repair_selection(instance, graph, selected, mode)
    phi = graph.to_activity_set(selected)
    return _result(instance, phi, Status.FEASIBLE, started)


# ---------------------------------------------------------------------------
# Phased local search


class _PlsState:
    """Independent set with incremental neighbor counts and C0/C1 tracking."""

    def __init__(self, graph: ConflictGraph):
        self.graph = graph
        self.in_set = [False] * len(graph)
        self.neighbors_in = [0] * len(graph)
        self.selected: set = set()
        self.weight = 0.0

    def add(self, v: int) -> None:
        self.in_set[v] = True
        self.selected.add(v)
        self.weight += self.graph.weight(v)
        for u in self.graph.neighbors(v):
            self.neighbors_in[u] += 1

    def remove(self, v: int) -> None:
        self.in_set[v] = False
        self.selected.discard(v)
        self.weight -= self.graph.weight(v)
        for u in self.graph.neighbors(v):
            self.neighbors_in[u] -= 1

    def c0(self) -> List[int]:
        return [
            v
            for v in range(len(self.graph))
            if not self.in_set[v] and self.neighbors_in[v] == 0
        ]

    def c1(self) -> List[int]:
        return [
            v
            for v in range(len(self.graph))
            if not self.in_set[v] and self.neighbors_in[v] == 1
        ]

    def sole_selected_neighbor(self, v: int) -> int:
        for u in self.graph.neighbors(v):
            if self.in_set[u]:
                return u
        raise AssertionError("vertex has no selected neighbor")


# One PLS cycle, repeated until the budget runs out: (phase, iterations).
PLS_SCHEDULE = (("greedy", 50), ("penalty", 100), ("greedy", 50))
# Initial iteration count between penalty decrements; adapted during search.
PLS_PENALTY_DELAY = 2


def _pls_select(pool: List[int], phase: str, penalties: List[int], graph, rng) -> int:
    if phase == "penalty":
        best = min(penalties[v] for v in pool)
        pool = [v for v in pool if penalties[v] == best]
        return pool[rng.randrange(len(pool))]
    # greedy: heaviest candidates (weighted-IS adaptation)
    best_w = max(graph.weight(v) for v in pool)
    pool = [v for v in pool if graph.weight(v) == best_w]
    return pool[rng.randrange(len(pool))]


def solve_pls(
    instance: Instance,
    problem: Problem,
    mode: AmMode,
    seed: int = 0,
    params: PlsParams = PlsParams(),
) -> SolveResult:
    """Phased local search for GMT; KRMT is not supported by this algorithm."""
    started = time.perf_counter()
    if problem.kind != "GMT":
        return _result(instance, _empty_phi(), Status.UNSUPPORTED, started)
    try:
        graph = build_graph(instance, mode)
    except SizeLimitExceeded:
        return _result(instance, _empty_phi(), Status.SIZE_ABORT, started)
    n = len(graph)
    if n == 0:
        return _result(instance, _empty_phi(), Status.FEASIBLE, started)

    rng = random.Random(seed)
    # the wall-clock budget covers the local search itself, not graph setup
    stop_at = time.perf_counter() + params.wall_clock_budget
    state = _PlsState(graph)
    penalties = [0] * n
    penalty_delay = PLS_PENALTY_DELAY
    best: set = set()
    best_weight = 0.0
    iteration = 0

    def out_of_time() -> bool:
        return time.perf_counter() >= stop_at

    done = False
    while not done:
        for phase, count in PLS_SCHEDULE:
            for _ in range(count):
                if out_of_time():
                    done = True
                    break
                swapped_out: set = set()
                while True:
                    pool = [v for v in state.c0() if v not in swapped_out]
                    while pool:
                        v = _pls_select(pool, phase, penalties, graph, rng)
                        state.add(v)
                        swapped_out.clear()
                        if state.weight > best_weight:
                            best_weight = state.weight
                            best = set(state.selected)
                        pool = [u for u in state.c0() if u not in swapped_out]
                        if out_of_time():
                            break
                    if out_of_time():
                        break
                    plateau = [v for v in state.c1() if v not in swapped_out]
                    if not plateau:
                        break
                    v = _pls_select(plateau, phase, penalties, graph, rng)
                    u = state.sole_selected_neighbor(v)
                    state.remove(u)
                    state.add(v)
                    swapped_out.add(u)
                    if state.weight > best_weight:
                        best_weight = state.weight
                        best = set(state.selected)
                # penalize the vertices held at the end of the iteration
                for v in state.selected:
                    penalties[v] += 1
                iteration += 1
                if iteration % penalty_delay == 0:
                    for v in range(n):
                        if penalties[v] > 0:
                            penalties[v] -= 1
                penalized = sum(1 for p in penalties if p > 0)
                if penalized > 0.75 * n:
                    penalty_delay += 1
                else:
                    penalty_delay = max(1, penalty_delay - 1)
                # perturbation: force one random vertex into the set
                v = rng.randrange(n)
                if not state.in_set[v]:
                    for u in list(state.selected):
                        if graph.adjacent(u, v):
                            state.remove(u)
                    state.add(v)
            if done:
                break

    selection = repair_selection(instance, graph, saturate(instance, graph, best), mode)
    phi = graph.to_activity_set(selection)
    return _result(instance, phi, Status.FEASIBLE, started)


# ---------------------------------------------------------------------------
# Max-weight independent set on interval graphs


def mwis_intervals(items: Sequence[Tuple[TimeInterval, float]]) -> List[int]:
    """Indices of a maximum-weight set of pairwise non-intersecting intervals.

    Closed intervals that merely share an endpoint count as intersecting.
    Deterministic: among equal-weight optima the backtrack prefers
    earlier-ending intervals (ties by input position).
    """
    order = sorted(range(len(items)), key=lambda i: (items[i][0].end, items[i][0].start, i))
    ends = [items[i][0].end for i in order]
    # p[j]: number of intervals (in end order) finishing strictly before start of j
    opt = [0.0] * (len(order) + 1)
    p = [0] * len(order)
    for j, idx in enumerate(order):
        p[j] = bisect.bisect_left(ends, items[idx][0].start)
        opt[j + 1] = max(opt[j], items[idx][1] + opt[p[j]])
    chosen: List[int] = []
    j = len(order)
    while j > 0:
        idx = order[j - 1]
        take = items[idx][1] + opt[p[j - 1]]
        if take > opt[j - 1]:
            chosen.append(idx)
            j = p[j - 1]
        else:
            j -= 1
    chosen.reverse()
    return chosen


# ---------------------------------------------------------------------------
# IntGraph


@dataclass
class _IgVertex:
    label_id: str
    presence_index: int
    interval: TimeInterval


def _conflict_blocks(
    instance: Instance,
    vertex: _IgVertex,
    chosen: List[Tuple[str, TimeInterval]],
) -> List[Tuple[float, float]]:
    """Time windows the vertex interval's interior must avoid.

    One window per (chosen activity, conflict interval) pair whose open
    overlap with the vertex could be in conflict.
    """
    blocks = []
    for other_id, chosen_iv in chosen:
        if other_id == vertex.label_id:
            continue
        for conflict in instance.conflicts_between(vertex.label_id, other_id):
            lo = max(chosen_iv.start, conflict.start)
            hi = min(chosen_iv.end, conflict.end)
            if conflict.start < chosen_iv.end and conflict.end > chosen_iv.start:
                blocks.append((lo, hi))
    return blocks


def _justified_cut_points(
    instance: Instance, label_id: str, chosen: List[Tuple[str, TimeInterval]]
) -> Tuple[List[float], List[float]]:
    """(valid activity starts, valid activity ends) backed by active witnesses."""
    starts, ends = [], []
    for other_id, conflict in instance.conflicts_of(label_id):
        for chosen_id, chosen_iv in chosen:
            if chosen_id != other_id:
                continue
            if chosen_iv.start <= conflict.end <= chosen_iv.end:
                starts.append(conflict.end)
            if chosen_iv.start <= conflict.start <= chosen_iv.end:
                ends.append(conflict.start)
    return starts, ends


def _shorten(
    instance: Instance,
    vertex: _IgVertex,
    iteration_chosen: List[Tuple[str, TimeInterval]],
    all_chosen: List[Tuple[str, TimeInterval]],
    mode: AmMode,
) -> Optional[_IgVertex]:
    """Shorten a neighbor's interval so it no longer conflicts with the
    chosen activities, keeping its endpoints justified.

    AM1 keeps the whole interval or nothing; AM2 the longest prefix; AM3 the
    longest conflict-free prefix, infix or suffix (ties: earliest).  Returns
    None when nothing justified and positive-length remains.
    """
    a, b = vertex.interval.start, vertex.interval.end
    blocks = [
        (max(lo, a), min(hi, b))
        for lo, hi in _conflict_blocks(instance, vertex, iteration_chosen)
        if hi > a and lo < b
    ]
    if not blocks:
        return vertex
    blocks.sort()
    merged: List[Tuple[float, float]] = []
    for lo, hi in blocks:
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))

    # maximal sub-intervals of [a, b] whose interior avoids every block
    pieces: List[Tuple[float, float]] = []
    cursor = a
    for lo, hi in merged:
        if lo > cursor:
            pieces.append((cursor, lo))
        cursor = max(cursor, hi)
    if cursor < b:
        pieces.append((cursor, b))

    if mode is AmMode.AM1:
        pieces = [(s, t) for s, t in pieces if s == a and t == b]
    elif mode is AmMode.AM2:
        pieces = [(s, t) for s, t in pieces if s == a]

    if not pieces:
        return None

    just_starts, just_ends = _justified_cut_points(instance, vertex.label_id, all_chosen)
    adjusted: List[Tuple[float, float]] = []
    for s, t in pieces:
        if s > a:
            ok = [p for p in just_starts if s <= p < t]
            if not ok:
                continue
            s = min(ok)
        if t < b:
            ok = [p for p in just_ends if s < p <= t]
            if not ok:
                continue
            t = max(ok)
        if s < t:
            adjusted.append((s, t))
    if not adjusted:
        return None
    best = max(adjusted, key=lambda p: (p[1] - p[0], -p[0]))
    return _IgVertex(vertex.label_id, vertex.presence_index, TimeInterval(best[0], best[1]))


def solve_intgraph(
    instance: Instance,
    problem: Problem,
    mode: AmMode,
) -> SolveResult:
    """Iterated max-weight independent sets on the interval graph of presences.

    Each round selects a max-weight set of pairwise time-disjoint intervals
    and shortens every remaining interval, as the activity model allows, so
    that it no longer conflicts with the chosen ones (see :func:`_shorten`).
    Intervals that overlap a chosen one in time without a conflict stay.
    """
    started = time.perf_counter()
    vertices: List[_IgVertex] = []
    for lid in sorted(instance.presences):
        for pi, presence in enumerate(instance.presences_of(lid)):
            if presence.length > 0:
                vertices.append(_IgVertex(lid, pi, presence))

    phi_raw: Dict[str, list] = {}
    all_chosen: List[Tuple[str, TimeInterval]] = []
    rounds = 0
    while vertices:
        if problem.kind == "KRMT" and rounds >= problem.k:
            break
        rounds += 1
        weights = [
            (v.interval, v.interval.length * instance.labels[v.label_id].weight)
            for v in vertices
        ]
        picked = set(mwis_intervals(weights))
        iteration_chosen = []
        for i in picked:
            v = vertices[i]
            phi_raw.setdefault(v.label_id, []).append(v.interval)
            iteration_chosen.append((v.label_id, v.interval))
        all_chosen.extend(iteration_chosen)

        remaining = []
        for i, v in enumerate(vertices):
            if i in picked:
                continue
            shortened = _shorten(instance, v, iteration_chosen, all_chosen, mode)
            if shortened is not None and shortened.interval.length > 0:
                remaining.append(shortened)
        vertices = remaining

    phi = make_activity_set(phi_raw)
    return _result(instance, phi, Status.FEASIBLE, started)
