"""Solution algorithms for the two optimization problems.

GeneralMaxTotal (GMT) maximizes total weighted activity time; the
k-restricted variant (KRMT) additionally caps the number of simultaneously
active labels.  Four approaches are provided:

* ``solve_exact``    optimal: branch-and-bound over candidate clusters (GMT),
                     a dynamic program sweeping the endpoint times (KRMT)
* ``solve_greedy``   one heaviest-first pass over the candidates
* ``solve_pls``      phased local search on the candidate graph
* ``solve_intgraph`` iterated max-weight independent sets on the interval
                     graph of (shortened) presence intervals

The activity models are nested: an AM1 solution is AM2-valid and an AM2
solution AM3-valid.  ``solve_exact`` therefore builds the asked model's graph
once and, under one deadline, solves growing candidate sets of it: the
full-presence candidates (the AM1 model), those starting at their presence
start (the AM2 model), then all, each only if larger than the last.  A
finished stage's optimum seeds the next, so a timed-out solve reports at
least the last finished optimum and values keep AM1 <= AM2 <= AM3.
"""

from __future__ import annotations

import bisect
import enum
import itertools
import json
import math
import random
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .conflict_graph import ConflictGraph, SizeLimitExceeded, build_graph
from .model import ActivitySet, Instance, TimeInterval, make_activity_set, objective
from .validation import AmMode, Saturation, endpoints_justified
# perfbench's traced run wraps these by name in this module too
from .validation import is_justified, saturate_excluding  # noqa: F401


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

    def __post_init__(self) -> None:
        if not math.isfinite(self.wall_clock_budget):
            raise ValueError("PLS budget must be finite")


@dataclass(frozen=True)
class SolveRequest:
    problem: Problem
    mode: AmMode
    algorithm: str  # EXACT | GREEDY | PLS | INTGRAPH
    time_limit: float = 600.0
    seed: int = 0


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
        return solve_pls(instance, request.problem, request.mode, seed=request.seed)
    if algo == "INTGRAPH":
        return solve_intgraph(instance, request.problem, request.mode)
    raise ValueError(f"unknown algorithm {request.algorithm!r}")


def _result(instance, phi, status, started, upper_bound=None) -> SolveResult:
    """Result of a solve started at ``started``; an optimum is its own upper bound."""
    value = objective(instance, phi)
    return SolveResult(
        phi=phi,
        objective=value,
        status=status,
        runtime=time.perf_counter() - started,
        upper_bound=value if status is Status.OPTIMAL else upper_bound,
    )


def _empty_phi() -> ActivitySet:
    return make_activity_set({})


# ---------------------------------------------------------------------------
# Justification repair
#
# A saturated independent set is *not* always model-valid: a candidate may
# start at a conflict end whose witness already turned inactive, while every
# longer cluster-mate collides with the selection.  Heuristic selections are
# therefore post-processed: unjustified candidates are dropped (one per
# round, lightest first) and the rest is re-saturated until the activity set
# passes the model check.  Saturation only swaps within occupied clusters, so
# a dropped candidate's cluster stays empty and the candidate never returns.


def _presence(instance: Instance, graph: ConflictGraph, v: int) -> TimeInterval:
    """The presence interval that candidate v lies in."""
    return instance.presences_of(graph.label_ids[v])[graph.presence_indices[v]]


def repair_selection(instance: Instance, graph: ConflictGraph, selection: set) -> set:
    """Saturate, then drop unjustified candidates until the set is model-valid.

    One :class:`~chronolabel.validation.Saturation` serves the whole repair:
    its neighbour counts are built once and each swap and drop updates them.
    Each round tests the endpoints of the candidates that do not span their
    presence against the selected candidates of each witness label, with
    the rule of :func:`~chronolabel.validation.endpoints_justified`.
    """
    state = Saturation(graph, selection)
    label_ids, starts, ends, weights = graph.label_ids, graph.starts, graph.ends, graph.weights
    presences, presence_indices = instance.presences, graph.presence_indices
    while True:
        selected = state.saturate()
        spans: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
        inner = []  # (candidate, presence) of those not spanning their presence
        for v in selected:
            lid = label_ids[v]
            spans[lid].append((starts[v], ends[v]))
            p = presences[lid][presence_indices[v]]
            if starts[v] != p.start or ends[v] != p.end:
                inner.append((v, p))

        def spans_of(label_id: str) -> Sequence:
            return spans.get(label_id, ())

        bad = [
            v
            for v, p in inner
            if not all(endpoints_justified(instance, label_ids[v], starts[v], ends[v], p, spans_of))
        ]
        if not bad:
            return selected
        state.drop(min(bad, key=lambda v: (weights[v], v)))


# ---------------------------------------------------------------------------
# Exact search: branch-and-bound (GMT) and endpoint sweep (KRMT)


class _Deadline:
    def __init__(self, seconds: float):
        if math.isnan(seconds):
            raise ValueError("time limit is NaN")
        self.at = time.perf_counter() + seconds
        self.hit = seconds <= 0

    def check(self) -> bool:
        """Whether the limit has passed; reads the clock on every call, so a
        search stops within one node of the limit."""
        if not self.hit:
            self.hit = time.perf_counter() >= self.at
        return self.hit


def _witness_requirements(
    instance: Instance, graph: ConflictGraph, part: set
) -> Dict[int, List[Tuple[float, frozenset]]]:
    """Justification as set constraints, keyed by the usable candidates of ``part``.

    An endpoint not on the presence boundary is justified iff a witness
    candidate from a fixed, precomputable set is selected: any candidate of
    a conflict partner whose conflict ends (starts) exactly at the endpoint
    and whose interval covers it.  Each requirement is an ``(endpoint,
    witness set)`` pair.  A candidate with an empty witness set can never
    appear in a valid solution and is removed; removal shrinks other witness
    sets, so this iterates to a fixpoint.
    """
    alive = set(part)
    while True:
        by_label: Dict[str, List[int]] = {}
        for v in alive:
            by_label.setdefault(graph.label_ids[v], []).append(v)

        def witnesses(v: int, partners: Sequence[str], t: float) -> frozenset:
            # a witness must cover the endpoint AND be co-selectable with v
            adj_v = graph.neighbors(v)
            return frozenset(
                u
                for other in partners
                for u in by_label.get(other, ())
                if u not in adj_v and graph.starts[u] <= t <= graph.ends[u]
            )

        requirements: Dict[int, List[Tuple[float, frozenset]]] = {}
        dead = []
        for v in alive:
            presence = _presence(instance, graph, v)
            lid, start, end = graph.label_ids[v], graph.starts[v], graph.ends[v]
            ending, starting = instance.witness_partners(lid, start, end)
            inner = []  # (endpoint, partners whose conflict ends or starts there)
            if start != presence.start:
                inner.append((start, ending))
            if end != presence.end:
                inner.append((end, starting))
            reqs = [(t, witnesses(v, partners, t)) for t, partners in inner]
            if all(wit for _, wit in reqs):
                requirements[v] = reqs
            else:
                dead.append(v)
        if not dead:
            return requirements
        alive.difference_update(dead)


def _k_sweep(
    graph: ConflictGraph,
    requirements: Dict[int, List[Tuple[float, frozenset]]],
    k: int,
    deadline: _Deadline,
) -> Optional[set]:
    """Heaviest selection from the keys of ``requirements`` (see
    :func:`_witness_requirements`) with at most ``k`` candidates open at once.

    A dynamic program over the endpoint times, as in k-track interval
    scheduling (Arkin & Silverberg 1987).  A state is the set of selected
    candidates open now plus the used clusters that still have candidates
    starting later; per state only the heaviest selection is kept, as a
    back-pointer chain.  Each time t opens the candidates starting at t (not
    adjacent to an open one, at most k open once those ending at t close,
    cluster unused), drops the states where an inner endpoint at t has no
    witness open (every witness covers t), then closes those ending at t.
    The deadline is read before each opening candidate and before each
    close step; returns None when it strikes first.
    """
    # time -> (starting, ending, (candidate, witnesses) checks, expiring clusters)
    events: Dict[float, tuple] = defaultdict(lambda: ([], [], [], []))
    cluster = {v: graph.cluster_of[v].start for v in requirements}  # keyed by first id
    last_start: Dict[int, float] = {}
    for v in sorted(requirements):
        start = graph.starts[v]
        events[start][0].append(v)
        events[graph.ends[v]][1].append(v)
        for t, wit in requirements[v]:
            events[t][2].append((v, wit))
        last_start[cluster[v]] = max(last_start.get(cluster[v], start), start)
    for key, t in last_start.items():
        events[t][3].append(key)

    # states by number of open candidates: (open, used) -> (weight, chain).
    # Levels are made in the order 0, 1, ..., and ``born`` numbers a state
    # when its level's dict takes it in, so hits sorted by (level, born) come
    # in the order of a scan over all states.
    levels: Dict[int, Dict[tuple, tuple]] = {}
    born: Dict[tuple, int] = {}
    holders: Dict[int, set] = defaultdict(set)  # open candidate v, used cluster ~c -> states
    clock = itertools.count()

    def enter(key: tuple, value: tuple) -> None:
        level = levels.setdefault(len(key[0]), {})
        if key not in level:
            born[key] = next(clock)
            for member in (*key[0], *(~c for c in key[1])):
                holders[member].add(key)
        elif value[0] <= level[key][0]:
            return
        level[key] = value

    enter((frozenset(), frozenset()), (0.0, None))
    for t in sorted(events):
        starting, ending, checks, expiring = events[t]
        for v in starting:
            if deadline.check():
                return None
            adj, mine, w = graph.neighbors(v), cluster[v], graph.weights[v]
            grown = []
            for n, level in levels.items():
                if n - len(ending) >= k:
                    continue  # full even once the candidates ending at t close
                for (open_, used), (weight, chain) in level.items():
                    if mine in used or not adj.isdisjoint(open_):
                        continue
                    if not ending or len(open_.difference(ending)) < k:
                        grown.append(((open_ | {v}, used), (weight + w, (v, chain))))
            for key, value in grown:  # all new: v is in no open set yet
                enter(key, value)
        if deadline.check():
            return None
        members = (*ending, *(v for v, _ in checks), *(~c for c in expiring))
        moved = []
        for key in sorted(
            {key for member in members for key in holders.get(member, ())},
            key=lambda key: (len(key[0]), born[key]),
        ):
            moved.append((key, levels[len(key[0])].pop(key)))
            del born[key]
            for member in (*key[0], *(~c for c in key[1])):
                holders[member].discard(key)
        for (open_, used), value in moved:
            if any(v in open_ and wit.isdisjoint(open_) for v, wit in checks):
                continue
            used = used.difference(expiring).union(
                cluster[u] for u in open_ if u in ending and last_start[cluster[u]] > t
            )
            enter((open_.difference(ending), used), value)

    ((_, chain),) = levels[0].values()
    selection = set()
    while chain is not None:
        v, chain = chain
        selection.add(v)
    return selection


def _slice_bound(instance: Instance, k: int) -> float:
    """KRMT upper bound valid in every activity model.

    Between consecutive presence endpoints at most the ``k`` heaviest labels
    present can be active, so the bound sums slice length times their weights.
    """
    opens, closes = defaultdict(list), defaultdict(list)  # time -> weights opening, closing
    for lid, ivs in instance.presences.items():
        for iv in ivs:
            opens[iv.start].append(instance.labels[lid].weight)
            closes[iv.end].append(instance.labels[lid].weight)
    points = sorted(opens.keys() | closes.keys())
    present: List[float] = []  # weights of the presences over the slice
    total = 0.0
    for lo, hi in zip(points, points[1:]):
        present += opens.get(lo, ())
        for w in closes.get(lo, ()):
            present.remove(w)
        total += (hi - lo) * sum(sorted(present, reverse=True)[:k])
    return total


def _label_groups(instance: Instance, graph: ConflictGraph) -> List[set]:
    """Partition the candidates by connected components of the *label*
    conflict graph (labels as nodes, one edge per conflicting pair).

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

    out: Dict[str, set] = {}
    for key, members in graph.clusters.items():
        if members:
            out.setdefault(find(key[0]), set()).update(members)
    return [out[root] for root in sorted(out)]


class _GroupTimeout(Exception):
    pass


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

    Components are memoized by their remaining candidates, their musts and
    the requirements of their candidates that the chosen set above already
    satisfies (:meth:`_memo_key`); each node reads the deadline once.
    """

    def __init__(
        self,
        graph: ConflictGraph,
        requirements: Dict[int, List[Tuple[float, frozenset]]],
        clusters: List[Tuple[int, ...]],
        deadline: _Deadline,
    ):
        self.graph = graph
        self.weights = graph.weights
        self.requirements = requirements
        self.deadline = deadline
        self.chosen: set = set()
        self.cluster_of = {v: i for i, m in enumerate(clusters) for v in m}
        # cluster-level adjacency (any candidate edge); coarser than the live
        # candidate adjacency but cheap to intersect per node.  A cluster's
        # full-presence candidate (earliest start, latest end) contains every
        # cluster-mate, so it meets every cluster that any of them meets.
        starts, ends = graph.starts, graph.ends
        full = [min(m, key=lambda v: (starts[v], -ends[v])) for m in clusters]
        self.cluster_adj: List[set] = [
            {self.cluster_of.get(u) for u in graph.neighbor_ids(f)} - {i, None}
            for i, f in enumerate(full)
        ]
        self.adj_up = [tuple(cj for cj in adj if cj > ci) for ci, adj in enumerate(self.cluster_adj)]
        self.clusters = clusters
        self.rank = {v: i for m in clusters for i, v in enumerate(m)}
        self.pair_best: Dict[Tuple[int, int], float] = {}  # see _pair_best
        # clusters kept in one component: linked ones, and a candidate's with
        # those of its potential witnesses.  Requirements are numbered in
        # order (``owner`` maps the number to its candidate); ``meets`` maps a
        # witness to the numbers of the requirements it satisfies, which memo
        # keys are made of.
        self.links: List[set] = [set(a) for a in self.cluster_adj]
        self.owner: List[int] = []
        self.meets: Dict[int, List[int]] = {}
        for v, reqs in requirements.items():
            ci = self.cluster_of.get(v)
            for _, wit in reqs:
                rid = len(self.owner)
                self.owner.append(v)
                for u in wit:
                    self.meets.setdefault(u, []).append(rid)
                    cj = self.cluster_of.get(u)
                    if None not in (ci, cj) and ci != cj:
                        self.links[ci].add(cj)
                        self.links[cj].add(ci)
        self.memo: Dict[tuple, tuple] = {}

    MEMO_LIMIT = 200_000  # entries; keeps worst-case memory in the hundreds of MB

    def _pair_best(self, heads: Tuple[int, int]) -> float:
        """Heaviest pick from two linked clusters with these heads: a
        co-selectable pair, or one candidate alone.  What is left of a
        cluster is a subsequence of its candidates from its head on, so the
        pick from those tails bounds the pair whatever else was filtered."""
        weights, neighbors = self.weights, self.graph.neighbors
        a, b = (self.clusters[self.cluster_of[h]][self.rank[h] :] for h in heads)
        best = max(weights[a[0]], weights[b[0]])
        for u in a:
            if weights[u] + weights[b[0]] <= best:
                break
            nb = neighbors(u)
            for v in b:
                if weights[u] + weights[v] <= best:
                    break
                if v not in nb:
                    best = weights[u] + weights[v]
                    break
        self.pair_best[heads] = best
        return best

    def _shares(self, avail) -> Dict[int, float]:
        """Each cluster's share of an upper bound of any selection from
        ``avail``: the sum of the cluster maxima (tuples are sorted by
        descending weight), less what disjoint pairs of linked clusters lose
        against their heaviest co-selectable pick (:meth:`_pair_best`).  The
        pairs are matched greedily, heaviest loss first; a pair's loss is
        charged to its first cluster.  Linked clusters share a component, so
        the shares of a component's clusters bound that component."""
        weights, pair_best, adj_up = self.weights, self.pair_best, self.adj_up
        shares = {ci: weights[m[0]] for ci, m in avail.items()}
        losses = []
        for ci, head in shares.items():
            for cj in adj_up[ci]:
                if cj in shares:
                    heads = (avail[ci][0], avail[cj][0])
                    best = pair_best.get(heads)
                    if best is None:
                        best = self._pair_best(heads)
                    loss = head + shares[cj] - best
                    if loss > 0:
                        losses.append((loss, ci, cj))
        matched = set()
        for loss, ci, cj in sorted(losses, reverse=True):
            if ci not in matched and cj not in matched:
                matched.update((ci, cj))
                shares[ci] -= loss
        return shares

    def solve(
        self,
        avail: Dict[int, List[int]],
        musts: List[frozenset],
        alpha: float,
        shares: Optional[Dict[int, float]] = None,
    ):
        """Best (selection, weight) with weight > ``alpha``, else None.

        None therefore means "no selection satisfying all musts beats alpha"
        (which covers plain infeasibility); a returned selection is the exact
        subproblem optimum.  ``avail`` maps cluster index to its still
        selectable candidates (sorted by descending weight); ``musts`` are
        witness sets of already selected candidates, restricted to available
        candidates; ``shares`` are ``_shares(avail)`` when the caller has them.
        """
        if self.deadline.check():
            raise _GroupTimeout
        if not avail:
            return (set(), 0.0) if not musts and 0.0 > alpha else None
        if shares is None:
            shares = self._shares(avail)
        if sum(shares.values()) <= alpha:
            return None
        parts = []  # (avail, musts, memo key, memo entry, upper bound)
        for part_avail, part_musts in self._components(avail, musts):
            key = self._memo_key(part_avail, part_musts)
            entry = self.memo.get(key)
            bound = sum([shares[ci] for ci in part_avail])
            if entry is not None:
                # a known optimum or upper bound of the part is tighter
                bound = entry[1][1] if entry[0] == "exact" else min(bound, entry[1])
            parts.append((part_avail, part_musts, key, entry, bound))
        if sum(part[4] for part in parts) <= alpha:
            return None
        # the largest part last, where the threshold is tightest
        parts.sort(key=lambda part: len(part[0]))
        selection: set = set()
        weight = 0.0
        for i, (part_avail, part_musts, key, entry, _) in enumerate(parts):
            # the other components contribute at most their bounds, so this
            # one must beat the rest of the threshold on its own
            part_alpha = alpha - weight - sum(part[4] for part in parts[i + 1 :])
            if entry is not None and entry[0] == "exact":
                res = entry[1] if entry[1][1] > part_alpha else None
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

    def _memo_key(self, avail, musts) -> tuple:
        """What the optimum of the part ``avail`` with ``musts`` depends on.

        The chosen set above the part reaches its search only through the
        requirements of the part's candidates that it already satisfies
        (``_branch`` skips those), so the key holds their ids rather than
        the chosen candidates: chosen sets that satisfy the same
        requirements share one entry."""
        cluster_of, owner = self.cluster_of, self.owner
        met = frozenset(
            rid
            for u in self.chosen
            for rid in self.meets.get(u, ())
            if owner[rid] in avail.get(cluster_of[owner[rid]], ())
        )
        return frozenset(avail.items()), frozenset(musts), met

    def _components(self, avail, musts):
        """The parts of ``avail`` connected by cluster links, each with the
        musts it holds, as ``[avail, musts]`` pairs; an open must stays with
        the clusters that can still satisfy it."""
        links, cluster_of = self.links, self.cluster_of
        must_clusters = [{cluster_of[u] for u in wit} for wit in musts]
        musts_of: Dict[int, List[int]] = {}
        for i, clusters in enumerate(must_clusters):
            for ci in clusters:
                musts_of.setdefault(ci, []).append(i)
        seen, taken = set(), set()
        parts = []
        for root in avail:
            if root in seen:
                continue
            seen.add(root)
            part_avail, part_musts = {}, []
            stack = [root]
            while stack:
                ci = stack.pop()
                part_avail[ci] = avail[ci]
                reach = [cj for cj in links[ci] if cj in avail]
                for i in musts_of.get(ci, ()):
                    if i not in taken:
                        taken.add(i)
                        part_musts.append(musts[i])
                        reach += must_clusters[i]
                for cj in reach:
                    if cj not in seen:
                        seen.add(cj)
                        stack.append(cj)
            parts.append([part_avail, part_musts])
        return parts

    def _branch(self, avail, musts, alpha: float):
        graph = self.graph
        weights = self.weights
        cluster_of = self.cluster_of
        # branch on the most-connected cluster: removing it decomposes the
        # rest as much as possible
        keys = avail.keys()
        bi = max(keys, key=lambda ci: (len(self.cluster_adj[ci] & keys), -ci))
        rest = {ci: m for ci, m in avail.items() if ci != bi}
        shares_rest = self._shares(rest)
        bound_rest = sum(shares_rest.values())
        sum_rest = sum([weights[m[0]] for m in rest.values()])
        best = None  # (selection, weight)
        best_w = alpha  # floor: only strictly better solutions count

        for v in avail[bi]:
            w = weights[v]
            if w + bound_rest <= best_w:
                break  # candidates sorted by weight: the rest is no better
            nb = graph.neighbors(v)
            # only clusters adjacent to the branching cluster can lose
            # candidates; the rest share their (immutable) tuples
            new_avail = dict(rest)
            bound = w + sum_rest  # the cluster maxima, updated as they drop
            for ci in self.cluster_adj[bi]:
                m = rest.get(ci)
                if m is None:
                    continue
                nm = tuple([u for u in m if u not in nb])
                if nm:
                    new_avail[ci] = nm
                    bound -= weights[m[0]] - weights[nm[0]]
                else:
                    del new_avail[ci]
                    bound -= weights[m[0]]
            if bound <= best_w:
                continue  # even with v, the filtered remainder cannot catch up
            # v's cluster mates are among its neighbours, so this cut drops
            # the whole branching cluster
            new_musts = []
            ok = True
            for wit in musts:
                if v in wit:
                    continue  # satisfied
                cut = wit - nb
                if not cut:
                    ok = False
                    break
                new_musts.append(cut)
            if ok:
                for _, wit in self.requirements[v]:
                    if not wit.isdisjoint(self.chosen):
                        continue  # already witnessed upstream
                    cut = frozenset(
                        u for u in wit if u in new_avail.get(cluster_of.get(u), ())
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
                res = self.solve(rest, new_musts, best_w, shares_rest)
                if res is not None:
                    best = res
        return best


def _solve_group(
    instance: Instance,
    graph: ConflictGraph,
    part: set,
    deadline: _Deadline,
    seed: Iterable[int] = (),
) -> Tuple[set, bool, float]:
    """Optimal selection from ``part``, candidates of one label group:
    (selection, proven optimal, upper bound).

    The warm start is the heavier of ``seed``, a model-valid selection such
    as the optimum of a smaller part, and the repaired greedy selection.
    Candidates that can never be justified are removed up front (see
    :func:`_witness_requirements`); the rest is handed to the decomposing
    branch-and-bound.  On timeout the warm start is returned with the
    pair-matching upper bound of the root (:meth:`_GroupSolver._shares`),
    computed before the search; a part reached after the deadline skips the
    witness fixpoint and is bounded over all its candidates.
    """
    greedy = repair_selection(instance, graph, _greedy_selection(graph, None, within=part))
    warm = max(greedy, set(seed), key=graph.selection_weight)
    warm_weight = graph.selection_weight(warm)
    # past the deadline: no fixpoint, and the search below times out at once
    requirements = {} if deadline.hit else _witness_requirements(instance, graph, part)
    clusters: Dict[int, List[int]] = {}  # by first id, heaviest candidate first
    for v in sorted(part if deadline.hit else requirements, key=lambda v: (-graph.weights[v], v)):
        clusters.setdefault(graph.cluster_of[v].start, []).append(v)
    kept = [tuple(clusters[first]) for first in sorted(clusters)]
    depth_needed = 8 * len(kept) + 200
    if sys.getrecursionlimit() < depth_needed:
        sys.setrecursionlimit(depth_needed)
    solver = _GroupSolver(graph, requirements, kept, deadline)
    avail = dict(enumerate(kept))
    shares = solver._shares(avail)  # the root bound, reported on a timeout
    try:
        res = solver.solve(avail, [], warm_weight, shares)
    except _GroupTimeout:
        return warm, False, sum(shares.values())
    if res is None:  # nothing beats the warm start, so it is optimal
        return warm, True, warm_weight
    return set(res[0]), True, res[1]


def solve_exact(
    instance: Instance,
    problem: Problem,
    mode: AmMode,
    time_limit: float = 600.0,
) -> SolveResult:
    """Optimal activity set: branch-and-bound (GMT) or a time sweep (KRMT),
    over the model chain described in the module docstring."""
    started = time.perf_counter()
    deadline = _Deadline(time_limit)  # the graph build counts against it
    try:
        graph = build_graph(instance, mode)
    except SizeLimitExceeded:
        return _result(instance, _empty_phi(), Status.SIZE_ABORT, started)
    deadline.check()
    presences = [_presence(instance, graph, v) for v in range(len(graph))]
    stages: List[set] = []
    for subset in (
        {v for v, p in enumerate(presences) if graph.interval(v) == p},
        {v for v, p in enumerate(presences) if graph.starts[v] == p.start},
        set(range(len(graph))),
    ):
        if not stages or len(subset) > len(stages[-1]):
            stages.append(subset)

    if problem.kind == "GMT":
        # Without a k bound the problem decomposes over the label conflict
        # components; each stage solves every component whose part grew or
        # is unproven, before the next stage starts.
        groups = _label_groups(instance, graph)
        sizes = [0] * len(groups)  # of the part each group was last solved on
        found = [(set(), False, 0.0)] * len(groups)  # (selection, proven, bound)
        for g, group in enumerate(groups):
            if not deadline.hit and not instance.conflicts_of(graph.label_ids[min(group)]):
                # a label without conflicts has no witness for an inner
                # endpoint, so its optimum is its full-presence candidates,
                # its only ones (past the deadline, groups get their warm
                # start unproven)
                best = group & stages[0]
                found[g], sizes[g] = (best, True, graph.selection_weight(best)), len(group)
        for subset in stages:
            for g, group in enumerate(groups):
                if deadline.hit and subset is not stages[-1]:
                    break
                part = group & subset
                if found[g][1] and len(part) == sizes[g]:
                    continue
                sizes[g] = len(part)
                found[g] = _solve_group(instance, graph, part, deadline, seed=found[g][0])
        selection = set().union(*(sel for sel, _, _ in found))
        optimal = all(ok for _, ok, _ in found)
        upper = sum(bound for _, _, bound in found)
    else:
        upper = _slice_bound(instance, problem.k)

        def reaches_bound(chosen: set) -> bool:
            # equal sums may round differently
            return graph.selection_weight(chosen) >= upper * (1 - 1e-9)

        selection, optimal = None, False
        for subset in stages:
            if deadline.hit:
                break
            requirements = _witness_requirements(instance, graph, subset)
            swept = _k_sweep(graph, requirements, problem.k, deadline)
            if swept is None:
                break
            selection = swept
            optimal = subset is stages[-1] or reaches_bound(swept)
            if optimal:
                break
        if selection is None:
            selection = _greedy_selection(graph, problem.k, within=stages[0])
            optimal = reaches_bound(selection)
    phi = graph.to_activity_set(selection)
    status = Status.OPTIMAL if optimal else Status.FEASIBLE
    return _result(instance, phi, status, started, upper_bound=upper)


# ---------------------------------------------------------------------------
# Greedy


def _greedy_selection(graph: ConflictGraph, k: Optional[int], within: Optional[set] = None) -> set:
    """Heaviest candidates first (ties: smallest id), each taken unless an
    earlier pick blocks it or, with ``k``, it would exceed k open at once.

    The order is the graph's kept one (:meth:`ConflictGraph.heaviest_first`);
    a part ``within`` is sorted by its rank there."""
    blocked = bytearray(len(graph))
    order, rank = graph.heaviest_first()
    if within is not None:
        order = sorted(within, key=rank.__getitem__)
    if k is not None:
        slices, count = graph.slice_spans()
        counts = [0] * count  # open picks per elementary slice
    selected: set = set()
    for v in order:
        if blocked[v]:
            continue
        if k is not None:
            lo, hi = slices[v]
            if max(counts[lo:hi]) >= k:
                continue
            counts[lo:hi] = [c + 1 for c in counts[lo:hi]]
        selected.add(v)
        for u in graph.neighbor_ids(v):
            blocked[u] = 1
    return selected


def solve_greedy(
    instance: Instance,
    problem: Problem,
    mode: AmMode,
) -> SolveResult:
    """One pass over the candidates, heaviest first (see :func:`_greedy_selection`).

    The result is saturated by construction; for GMT a justification
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
    selected = _greedy_selection(graph, problem.k)
    if problem.kind == "GMT":
        selected = repair_selection(instance, graph, selected)
    phi = graph.to_activity_set(selected)
    return _result(instance, phi, Status.FEASIBLE, started)


# ---------------------------------------------------------------------------
# Phased local search


class _PlsState:
    """Independent set with incremental tightness and C0/C1 sets.

    ``tight[v]`` counts v's selected neighbours; C0 and C1 hold the
    unselected vertices of tightness 0 and 1.  A move reads the neighbour
    ids of the vertex it moves (``ConflictGraph.neighbor_ids``), which the
    graph derives from its block rows the first time and keeps.
    """

    def __init__(self, graph: ConflictGraph):
        n = len(graph)
        self.graph = graph
        self.weights = graph.weights
        self.of_weight: Dict[float, List[int]] = {}  # weight -> its ids, ascending
        for v, w in enumerate(self.weights):
            self.of_weight.setdefault(w, []).append(v)
        self.tight = [0] * n
        self.selected: set = set()
        self.weight = 0.0
        self.pools = (set(range(n)), set())  # (C0, C1)

    def _shift(self, v: int, step: int) -> None:
        # v's neighbours are never selected: the set stays independent
        tight, pools = self.tight, self.pools
        for u in self.graph.neighbor_ids(v):
            t = tight[u]
            tight[u] = t + step
            if t < 2:
                pools[t].discard(u)
            if t + step < 2:
                pools[t + step].add(u)

    def add(self, v: int) -> None:
        self.selected.add(v)
        self.weight += self.weights[v]
        self.pools[0].discard(v)
        self.pools[1].discard(v)
        self._shift(v, 1)

    def remove(self, v: int) -> None:
        self.selected.discard(v)
        self.weight -= self.weights[v]
        self._shift(v, -1)
        if self.tight[v] < 2:
            self.pools[self.tight[v]].add(v)

    def force(self, v: int) -> List[int]:
        """Add v after dropping its selected neighbours; returns those."""
        dropped = [u for u in self.graph.neighbor_ids(v) if u in self.selected]
        for u in dropped:
            self.remove(u)
        self.add(v)
        return dropped


# One PLS cycle, repeated until the budget runs out: (phase, iterations).
PLS_SCHEDULE = (("greedy", 50), ("penalty", 100), ("greedy", 50))
# Initial iteration count between penalty decrements; adapted during search.
PLS_PENALTY_DELAY = 2


def _pls_select(state: _PlsState, pool: int, skip: set, phase: str, penalties: List[int], rng):
    """A random best vertex of C0 or C1 outside ``skip``, or None if there is
    none.  Ties are drawn in ascending id order, so the seed decides."""
    free = state.pools[pool] - skip
    if not free:
        return None
    if phase == "penalty":
        best = min(map(penalties.__getitem__, free))
        ties = sorted(v for v in free if penalties[v] == best)
    else:  # greedy: the heaviest candidates (weighted-IS adaptation)
        best = max(map(state.weights.__getitem__, free))
        ties = [v for v in state.of_weight[best] if v in free]
    return ties[rng.randrange(len(ties))]


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
    # the wall-clock budget covers the local search, with the neighbour ids
    # it derives from the graph's blocks (kept with the shared graph for
    # later solves), but not the graph build
    stop_at = time.perf_counter() + params.wall_clock_budget
    state = _PlsState(graph)
    penalties = [0] * n
    penalized: set = set()  # the vertices with a positive penalty
    penalty_delay = PLS_PENALTY_DELAY
    best: set = set()
    best_weight = 0.0
    phases = [phase for phase, count in PLS_SCHEDULE for _ in range(count)]
    for iteration, phase in enumerate(itertools.cycle(phases), 1):
        if time.perf_counter() >= stop_at:
            break
        swapped_out: set = set()
        while time.perf_counter() < stop_at:
            v = _pls_select(state, 0, swapped_out, phase, penalties, rng)
            if v is not None:
                state.add(v)
                swapped_out.clear()
            else:  # plateau: swap in a vertex with one selected neighbour
                v = _pls_select(state, 1, swapped_out, phase, penalties, rng)
                if v is None:
                    break
                swapped_out.update(state.force(v))
            if state.weight > best_weight:
                best_weight = state.weight
                best = set(state.selected)
        else:
            break  # the budget ran out: the rest of the iteration cannot change best
        # penalize the vertices held at the end of the iteration
        for v in state.selected:
            penalties[v] += 1
        penalized |= state.selected
        if iteration % penalty_delay == 0:
            for v in list(penalized):
                penalties[v] -= 1
                if not penalties[v]:
                    penalized.discard(v)
        if len(penalized) > 0.75 * n:
            penalty_delay += 1
        else:
            penalty_delay = max(1, penalty_delay - 1)
        # perturbation: force one random vertex into the set
        v = rng.randrange(n)
        if v not in state.selected:
            state.force(v)

    selection = repair_selection(instance, graph, best)
    phi = graph.to_activity_set(selection)
    return _result(instance, phi, Status.FEASIBLE, started)


# ---------------------------------------------------------------------------
# Max-weight independent set on interval graphs


def _mwis_sorted(ends: Sequence[float], starts: Sequence[float], weights: Sequence[float]) -> List[int]:
    """Positions, last first, of a maximum-weight set of pairwise
    non-intersecting closed intervals given as columns in end order.

    Among equal-weight optima the backtrack prefers earlier positions: an
    interval is taken only if taking it is strictly heavier than the best
    set of the positions before it.
    """
    # p[j]: number of intervals (in end order) finishing strictly before start of j
    p = list(map(bisect.bisect_left, itertools.repeat(ends), starts))
    opt, last = [0.0], [0]  # last[j]: 1 + the last position taken among the first j
    best, at = 0.0, 0
    for j, w, before in zip(itertools.count(1), weights, p):
        take = w + opt[before]
        if take > best:
            best, at = take, j
        opt.append(best)
        last.append(at)
    chosen: List[int] = []
    j = at
    while j > 0:
        chosen.append(j - 1)
        j = last[p[j - 1]]
    return chosen


def mwis_intervals(items: Sequence[Tuple[TimeInterval, float]]) -> List[int]:
    """Indices of a maximum-weight set of pairwise non-intersecting intervals.

    Closed intervals that merely share an endpoint count as intersecting.
    Deterministic: among equal-weight optima the backtrack prefers
    earlier-ending intervals (ties by input position).
    """
    keyed = sorted([(iv.end, iv.start, i, w) for i, (iv, w) in enumerate(items)])
    ends, starts, index, weight = zip(*keyed) if keyed else ((), (), (), ())
    return [index[j] for j in reversed(_mwis_sorted(ends, starts, weight))]


# ---------------------------------------------------------------------------
# IntGraph


def _shorten(
    a: float,
    b: float,
    blocks: Sequence[Tuple[float, float]],
    starts: Sequence[float],
    ends: Sequence[float],
    mode: AmMode,
) -> Optional[Tuple[float, float]]:
    """Cut a vertex [a, b] whose open interior meets some of ``blocks``, the
    (lo, hi) windows it must avoid, keeping its endpoints justified.

    Returns the longest [s, t] inside [a, b] whose open interior meets no
    block, ties to the earliest s, or None.  s is a or one of ``starts``, t
    is b or one of ``ends`` inside (a, b).  Under AM1 the vertex is dropped.
    """
    if mode is AmMode.AM1:
        return None
    # (time, kind) with kinds 0 an end, 1 a block opens, 2 it closes, 3 a
    # start: at equal times an end still reaches the start before a block
    events = [(a, 3), (b, 0)]
    for lo, hi in blocks:
        events += ((lo, 1), (hi, 2))
    events += [(x, 0) for x in ends if a < x < b]
    events += [(x, 3) for x in starts if a < x < b]
    events.sort()
    spans = []  # (length, -s, t): the earliest start since the last block, per end
    s, depth = None, 0
    for x, kind in events:
        if kind == 0 and s is not None:
            spans.append((x - s, -s, x))
        elif kind == 1:
            depth, s = depth + 1, None
        elif kind == 2:
            depth -= 1
        elif kind == 3 and not depth and s is None:
            s = x
    if not spans:
        return None
    _, s, t = max(spans)  # ties: the earliest start, then the latest end
    return -s, t


def _intgraph_start(instance: Instance) -> tuple:
    """IntGraph's first-round vertices, kept on the instance (it is
    immutable) for its later solves: each vertex's label and (start, end) by
    vertex number, each label's vertex numbers, each label's conflicts as
    (start, end) pairs grouped by a partner label that has vertices, and the
    columns (key, end, start, weight) in key order, a vertex's key being
    (end, start, number): the order :func:`mwis_intervals` sorts into."""
    cached = instance.__dict__.get("_intgraph_start")
    if cached is not None:
        return cached
    label_of: List[str] = []
    spans: List[Tuple[float, float]] = []
    numbers_of: Dict[str, range] = {}
    for lid in sorted(instance.presences):
        first = len(spans)
        for presence in instance.presences_of(lid):
            if presence.length > 0:
                label_of.append(lid)
                spans.append((presence.start, presence.end))
        if len(spans) > first:
            numbers_of[lid] = range(first, len(spans))
    partners: Dict[str, list] = {}
    for lid in numbers_of:
        by_partner: Dict[str, list] = {}
        for other_id, c in instance.conflicts_of(lid):
            if other_id in numbers_of:
                by_partner.setdefault(other_id, []).append((c.start, c.end))
        partners[lid] = list(by_partner.items())
    keys = sorted((b, a, n) for n, (a, b) in enumerate(spans))
    weights = [(b - a) * instance.labels[label_of[n]].weight for b, a, n in keys]
    cached = instance.__dict__["_intgraph_start"] = (
        tuple(label_of),
        tuple(spans),
        numbers_of,
        partners,
        (keys, [key[0] for key in keys], [key[1] for key in keys], weights),
    )
    return cached


def solve_intgraph(
    instance: Instance,
    problem: Problem,
    mode: AmMode,
) -> SolveResult:
    """Iterated max-weight independent sets on the interval graph of presences.

    Each round selects a max-weight set of pairwise time-disjoint intervals
    and shortens the remaining intervals of the labels in conflict with a
    chosen one, as the activity model allows, so that they no longer
    conflict with the chosen ones (see :func:`_shorten`).  Intervals that
    overlap a chosen one in time without a conflict stay.

    The remaining vertices stay in columns ordered by their (end, start,
    number) keys.  A round removes its picks, builds their blocks (a pick's
    overlaps with the conflicts of its label) once, and cuts only the
    vertices whose open interior meets one, putting each back by bisection.
    """
    started = time.perf_counter()
    label_of, first, numbers_of, partners, columns = _intgraph_start(instance)
    spans: List[Optional[Tuple[float, float]]] = list(first)  # None once picked or dropped
    keys, ends, starts, weights = map(list, columns)
    chosen: Dict[str, list] = {}  # label -> its chosen (start, end) activities so far
    rounds = 0
    while keys:
        if problem.kind == "KRMT" and rounds >= problem.k:
            break
        rounds += 1
        picked = _mwis_sorted(ends, starts, weights)
        round_chosen: Dict[str, list] = {}
        for j in picked:
            t, s, n = keys[j]
            spans[n] = None
            chosen.setdefault(label_of[n], []).append((s, t))
            round_chosen.setdefault(label_of[n], []).append((s, t))
        blocks_of: Dict[int, list] = {}  # blocked vertex -> the blocks meeting its interior
        for lid, picks in round_chosen.items():
            for other_id, conflicts in partners[lid]:
                blocks = None  # built at the partner's first remaining vertex
                for n in numbers_of[other_id]:
                    if spans[n] is None:
                        continue
                    if blocks is None:
                        blocks = [
                            (max(s, cs), min(t, ce))
                            for cs, ce in conflicts
                            for s, t in picks
                            if cs < t and ce > s
                        ]
                        if not blocks:
                            break
                    a, b = spans[n]
                    for lo, hi in blocks:
                        if hi > a and lo < b:
                            blocks_of.setdefault(n, []).append((lo, hi))
        at = [bisect.bisect_left(keys, (spans[n][1], spans[n][0], n)) for n in blocks_of]
        for j in sorted(picked + at, reverse=True):
            del keys[j], ends[j], starts[j], weights[j]
        for n, blocks in blocks_of.items():
            lid = label_of[n]
            cut_starts, cut_ends = [], []  # conflict ends and starts a chosen partner covers
            for other_id, conflicts in partners[lid] if mode is not AmMode.AM1 else ():
                for s, t in chosen.get(other_id, ()):
                    for cs, ce in conflicts:
                        if s <= cs <= t:
                            cut_ends.append(cs)
                        if s <= ce <= t and mode is AmMode.AM3:
                            cut_starts.append(ce)
            cut = spans[n] = _shorten(*spans[n], blocks, cut_starts, cut_ends, mode)
            if cut is not None:
                s, t = cut
                j = bisect.bisect_left(keys, (t, s, n))
                keys.insert(j, (t, s, n))
                ends.insert(j, t)
                starts.insert(j, s)
                weights.insert(j, (t - s) * instance.labels[lid].weight)

    phi = make_activity_set({lid: [TimeInterval(*iv) for iv in chosen[lid]] for lid in sorted(chosen)})
    return _result(instance, phi, Status.FEASIBLE, started)
