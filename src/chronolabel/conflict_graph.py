"""Weighted conflict graphs over activity candidates.

For each presence interval, the admissible activity start times are the
presence start plus the ends of conflicts inside the presence, and the
admissible end times are the presence end plus the starts of those
conflicts.  Each (start, end) combination with positive length is a
candidate vertex.  Candidates of the same presence interval form a clique
(cluster); candidates of different presence intervals are adjacent iff the
two labels are in conflict somewhere in the open overlap of the candidates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .model import ActivitySet, Instance, TimeInterval, make_activity_set
from .validation import AmMode

DEFAULT_SIZE_LIMIT = 10**7


class SizeLimitExceeded(RuntimeError):
    """Graph would exceed the configured vertex/edge cap."""


@dataclass(frozen=True)
class Candidate:
    id: int
    label_id: str
    presence_index: int
    interval: TimeInterval
    weight: float

    @property
    def cluster_key(self) -> tuple:
        return (self.label_id, self.presence_index)


class ConflictGraph:
    """Immutable candidate graph for one instance and activity model."""

    def __init__(
        self,
        mode: AmMode,
        candidates: List[Candidate],
        clusters: Dict[tuple, List[int]],
        adjacency: List[List[int]],
    ):
        self.mode = mode
        self.candidates = candidates
        self.clusters = clusters
        self.adjacency = adjacency  # sorted neighbor ids, cluster mates included
        self._adj_sets = [set(neigh) for neigh in adjacency]

    def __len__(self) -> int:
        return len(self.candidates)

    @property
    def edge_count(self) -> int:
        return sum(len(n) for n in self.adjacency) // 2

    def adjacent(self, u: int, v: int) -> bool:
        return v in self._adj_sets[u]

    def neighbors(self, v: int) -> List[int]:
        return self.adjacency[v]

    def weight(self, v: int) -> float:
        return self.candidates[v].weight

    def selection_weight(self, selection) -> float:
        return sum(self.candidates[v].weight for v in selection)

    def to_activity_set(self, selection) -> ActivitySet:
        raw: Dict[str, list] = {}
        for v in selection:
            c = self.candidates[v]
            raw.setdefault(c.label_id, []).append(c.interval)
        return make_activity_set(raw)


def candidate_conflict(instance: Instance, c1: Candidate, c2: Candidate) -> bool:
    """True iff a conflict of the two labels meets the open overlap of the candidates."""
    lo = max(c1.interval.start, c2.interval.start)
    hi = min(c1.interval.end, c2.interval.end)
    if lo >= hi:
        return False
    for conflict in instance.conflicts_between(c1.label_id, c2.label_id):
        if conflict.start < hi and conflict.end > lo:
            return True
    return False


def _candidate_intervals(
    presence: TimeInterval, conflicts_inside: List[TimeInterval], mode: AmMode
) -> List[TimeInterval]:
    if mode is AmMode.AM1:
        return [presence] if presence.length > 0 else []
    starts = {presence.start}
    if mode is AmMode.AM3:
        starts.update(c.end for c in conflicts_inside)
    ends = {presence.end}
    ends.update(c.start for c in conflicts_inside)
    return sorted(
        TimeInterval(s, t) for s in starts for t in ends if s < t
    )


def build_graph(
    instance: Instance, mode: AmMode, size_limit: int = DEFAULT_SIZE_LIMIT
) -> ConflictGraph:
    """Construct the candidate conflict graph for the given activity model.

    Raises SizeLimitExceeded once the vertex or edge count would pass
    ``size_limit``; the edge count is established before adjacency lists are
    materialized so the guard aborts cheaply.
    """
    candidates: List[Candidate] = []
    clusters: Dict[tuple, List[int]] = {}
    for lid in sorted(instance.presences):
        label = instance.labels[lid]
        label_conflicts = instance.conflicts_of(lid)
        for pi, presence in enumerate(instance.presences_of(lid)):
            inside = [
                iv for _, iv in label_conflicts if presence.contains(iv)
            ]
            key = (lid, pi)
            clusters[key] = []
            for interval in _candidate_intervals(presence, inside, mode):
                cid = len(candidates)
                candidates.append(
                    Candidate(cid, lid, pi, interval, interval.length * label.weight)
                )
                clusters[key].append(cid)
                if len(candidates) > size_limit:
                    raise SizeLimitExceeded(f"more than {size_limit} candidates")

    by_pair: Dict[tuple, list] = {}
    conflict_pairs = {e.pair for e in instance.conflicts}
    for c in candidates:
        by_pair.setdefault(c.label_id, []).append(c)

    # Count edges before materializing adjacency.
    edge_count = sum(len(m) * (len(m) - 1) // 2 for m in clusters.values())
    cross: List[Tuple[int, int]] = []
    for a, b in sorted(conflict_pairs):
        for ca in by_pair.get(a, ()):
            for cb in by_pair.get(b, ()):
                if candidate_conflict(instance, ca, cb):
                    cross.append((ca.id, cb.id))
                    edge_count += 1
                    if edge_count > size_limit:
                        raise SizeLimitExceeded(f"more than {size_limit} edges")
    if edge_count > size_limit:
        raise SizeLimitExceeded(f"more than {size_limit} edges")

    adjacency: List[List[int]] = [[] for _ in candidates]
    for members in clusters.values():
        for i, u in enumerate(members):
            for v in members[i + 1 :]:
                adjacency[u].append(v)
                adjacency[v].append(u)
    for u, v in cross:
        adjacency[u].append(v)
        adjacency[v].append(u)
    for neigh in adjacency:
        neigh.sort()
    return ConflictGraph(mode, candidates, clusters, adjacency)
