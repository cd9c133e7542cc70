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
from typing import Dict, List, Set

import numpy as np

from .model import ActivitySet, Instance, TimeInterval, make_activity_set
from .validation import AmMode

SIZE_LIMIT = 10**7


class SizeLimitExceeded(RuntimeError):
    """Graph would exceed the ``SIZE_LIMIT`` vertex/edge cap."""


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
        adjacency: List[Set[int]],
    ):
        self.mode = mode
        self.candidates = candidates
        self.clusters = clusters
        self.adjacency = adjacency  # neighbor id sets, cluster mates included

    def __len__(self) -> int:
        return len(self.candidates)

    @property
    def edge_count(self) -> int:
        return sum(len(n) for n in self.adjacency) // 2

    def adjacent(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]

    def neighbors(self, v: int) -> Set[int]:
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


def build_graph(instance: Instance, mode: AmMode) -> ConflictGraph:
    """Construct the candidate conflict graph for the given activity model.

    Raises SizeLimitExceeded once the vertex or edge count would pass
    ``SIZE_LIMIT``; the edge count is established before the adjacency sets
    are filled so the guard aborts cheaply.
    """
    candidates: List[Candidate] = []
    clusters: Dict[tuple, List[int]] = {}
    span: Dict[str, slice] = {}  # label -> its candidate ids, if it has any
    for lid in sorted(instance.presences):
        label = instance.labels[lid]
        label_conflicts = instance.conflicts_of(lid)
        first = len(candidates)
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
                if len(candidates) > SIZE_LIMIT:
                    raise SizeLimitExceeded(f"more than {SIZE_LIMIT} candidates")
        if len(candidates) > first:
            span[lid] = slice(first, len(candidates))

    # Cross edges, one boolean matrix per conflicting label pair: a pair of
    # candidates is adjacent iff their open overlap (lo, hi) is non-empty and
    # meets a conflict of the two labels.  Count edges before filling sets.
    starts = np.array([c.interval.start for c in candidates])
    ends = np.array([c.interval.end for c in candidates])
    edge_count = sum(len(m) * (len(m) - 1) // 2 for m in clusters.values())
    cross = []
    for a, b in sorted({e.pair for e in instance.conflicts}):
        if a not in span or b not in span:
            continue
        sa, sb = span[a], span[b]
        lo = np.maximum.outer(starts[sa], starts[sb])
        hi = np.minimum.outer(ends[sa], ends[sb])
        meets = np.zeros(lo.shape, dtype=bool)
        for conflict in instance.conflicts_between(a, b):
            meets |= (conflict.start < hi) & (conflict.end > lo)
        rows, cols = np.nonzero(meets & (lo < hi))
        edge_count += len(rows)
        if edge_count > SIZE_LIMIT:
            raise SizeLimitExceeded(f"more than {SIZE_LIMIT} edges")
        cross.append(((rows + sa.start).tolist(), (cols + sb.start).tolist()))
    if edge_count > SIZE_LIMIT:
        raise SizeLimitExceeded(f"more than {SIZE_LIMIT} edges")

    adjacency: List[Set[int]] = [set() for _ in candidates]
    for members in clusters.values():
        for v in members:
            adjacency[v].update(members)
            adjacency[v].discard(v)
    for us, vs in cross:
        for u, v in zip(us, vs):
            adjacency[u].add(v)
            adjacency[v].add(u)
    return ConflictGraph(mode, candidates, clusters, adjacency)
