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
from typing import Dict, List, Optional, Set, Tuple

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
    """Immutable candidate graph for one instance and activity model.

    No edge list is kept.  A cluster is a contiguous id range, and
    ``cluster_of[v]`` is the range of v's cluster: cluster mates are
    adjacent implicitly.  Cross edges are one boolean block per conflicting
    label pair, reachable from both labels: row i of a label's block holds
    the edges of its i-th candidate to the other label's candidates.
    """

    def __init__(
        self,
        mode: AmMode,
        candidates: List[Candidate],
        clusters: Dict[tuple, List[int]],
        blocks: Dict[Tuple[str, str], np.ndarray],
        edge_count: int,
    ):
        self.mode = mode
        self.candidates = candidates
        self.clusters = clusters
        self.edge_count = edge_count
        self.cluster_of: List[range] = [range(0)] * len(candidates)
        self._first: Dict[str, int] = {}  # label -> its first candidate id
        for members in clusters.values():
            if members:
                ids = range(members[0], members[-1] + 1)
                self.cluster_of[ids.start : ids.stop] = [ids] * len(ids)
                self._first.setdefault(candidates[ids.start].label_id, ids.start)
        self._rows: Dict[str, List[Tuple[int, np.ndarray]]] = {}
        for (a, b), block in blocks.items():
            self._rows.setdefault(a, []).append((self._first[b], block))
            self._rows.setdefault(b, []).append((self._first[a], block.T))
        self._ids: List[Optional[List[int]]] = [None] * len(candidates)
        self._neighbors: List[Optional[Set[int]]] = [None] * len(candidates)

    def __len__(self) -> int:
        return len(self.candidates)

    def rows(self, v: int) -> List[Tuple[int, np.ndarray]]:
        """v's block rows: (first, row) means v ~ first + j iff row[j]."""
        lid = self.candidates[v].label_id
        i = v - self._first[lid]
        return [(first, block[i]) for first, block in self._rows.get(lid, ())]

    def adjacent(self, u: int, v: int) -> bool:
        if self.cluster_of[u] is self.cluster_of[v]:
            return u != v
        return any(first <= v < first + len(row) and row[v - first] for first, row in self.rows(u))

    def neighbor_ids(self, v: int) -> List[int]:
        """v's cluster mates, then its cross neighbours; derived once."""
        ids = self._ids[v]
        if ids is None:
            mates = self.cluster_of[v]
            ids = self._ids[v] = [*range(mates.start, v), *range(v + 1, mates.stop)]
            for first, row in self.rows(v):
                ids += (row.nonzero()[0] + first).tolist()
        return ids

    def neighbors(self, v: int) -> Set[int]:
        """v's neighbours as a set; derived once, apart from ``neighbor_ids``."""
        out = self._neighbors[v]
        if out is None:
            out = self._neighbors[v] = set(self.cluster_of[v])
            out.discard(v)
            for first, row in self.rows(v):
                out.update((row.nonzero()[0] + first).tolist())
        return out

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
    return [TimeInterval(s, t) for s, t in sorted((s, t) for s in starts for t in ends if s < t)]


def build_graph(instance: Instance, mode: AmMode) -> ConflictGraph:
    """Construct the candidate conflict graph for the given activity model.

    Raises SizeLimitExceeded once the vertex or edge count would pass
    ``SIZE_LIMIT``.
    """
    candidates: List[Candidate] = []
    clusters: Dict[tuple, List[int]] = {}
    span: Dict[str, slice] = {}  # label -> its candidate ids, if it has any
    for lid in sorted(instance.presences):
        label = instance.labels[lid]
        first = len(candidates)
        for pi, presence in enumerate(instance.presences_of(lid)):
            inside = [iv for _, iv in instance.conflicts_of(lid) if presence.contains(iv)]
            members = clusters[lid, pi] = []
            for interval in _candidate_intervals(presence, inside, mode):
                members.append(len(candidates))
                candidates.append(
                    Candidate(len(candidates), lid, pi, interval, interval.length * label.weight)
                )
                if len(candidates) > SIZE_LIMIT:
                    raise SizeLimitExceeded(f"more than {SIZE_LIMIT} candidates")
        if len(candidates) > first:
            span[lid] = slice(first, len(candidates))

    # Cross edges, one boolean block per conflicting label pair: a pair of
    # candidates is adjacent iff their open overlap (lo, hi) is non-empty and
    # meets a conflict of the two labels.  Edges are counted as blocks are
    # made, so the guard aborts before a large graph is kept.
    starts = np.array([c.interval.start for c in candidates])
    ends = np.array([c.interval.end for c in candidates])
    edge_count = sum(len(m) * (len(m) - 1) // 2 for m in clusters.values())
    blocks: Dict[Tuple[str, str], np.ndarray] = {}
    for a, b in sorted({e.pair for e in instance.conflicts}):
        if a not in span or b not in span:
            continue
        sa, sb = span[a], span[b]
        lo = np.maximum.outer(starts[sa], starts[sb])
        hi = np.minimum.outer(ends[sa], ends[sb])
        meets = np.zeros(lo.shape, dtype=bool)
        for conflict in instance.conflicts_between(a, b):
            meets |= (conflict.start < hi) & (conflict.end > lo)
        meets &= lo < hi
        count = int(np.count_nonzero(meets))
        edge_count += count
        if edge_count > SIZE_LIMIT:
            raise SizeLimitExceeded(f"more than {SIZE_LIMIT} edges")
        if count:
            blocks[a, b] = meets
    if edge_count > SIZE_LIMIT:
        raise SizeLimitExceeded(f"more than {SIZE_LIMIT} edges")
    return ConflictGraph(mode, candidates, clusters, blocks, edge_count)
