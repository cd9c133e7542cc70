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

from functools import reduce
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from .model import ActivitySet, Instance, TimeInterval, make_activity_set
from .validation import AmMode

SIZE_LIMIT = 10**7


class SizeLimitExceeded(RuntimeError):
    """Graph would exceed the ``SIZE_LIMIT`` vertex/edge cap."""


class ConflictGraph:
    """Immutable candidate graph for one instance and activity model.

    Candidates are columns indexed by id: ``starts``, ``ends``, ``weights``,
    ``label_ids``, ``presence_indices``.  The activity model is in which
    candidates exist; the graph keeps no mode.  No edge list is kept.  A
    cluster is a contiguous id range, and ``cluster_of[v]`` is the range of
    v's cluster: cluster mates are adjacent implicitly.  Cross edges are one
    boolean block per conflicting label pair, reachable from both labels:
    row i of a label's block holds the edges of its i-th candidate to the
    other label's candidates.
    """

    def __init__(
        self,
        columns: Tuple[List[float], List[float], List[float], List[str], List[int]],
        clusters: Dict[tuple, List[int]],
        blocks: Dict[Tuple[str, str], np.ndarray],
        edge_count: int,
    ):
        self.starts, self.ends, self.weights, self.label_ids, self.presence_indices = columns
        self.clusters = clusters
        self.edge_count = edge_count
        self.cluster_of: List[range] = [range(0)] * len(self.starts)
        self._first: Dict[str, int] = {}  # label -> its first candidate id
        for members in clusters.values():
            if members:
                ids = range(members[0], members[-1] + 1)
                self.cluster_of[ids.start : ids.stop] = [ids] * len(ids)
                self._first.setdefault(self.label_ids[ids.start], ids.start)
        self._rows: Dict[str, List[Tuple[int, np.ndarray]]] = {}
        for (a, b), block in blocks.items():
            self._rows.setdefault(a, []).append((self._first[b], block))
            self._rows.setdefault(b, []).append((self._first[a], block.T))
        self._ids: List[Optional[List[int]]] = [None] * len(self.starts)
        self._neighbors: List[Optional[Set[int]]] = [None] * len(self.starts)
        self._intervals: List[Optional[TimeInterval]] = [None] * len(self.starts)  # on request

    def __len__(self) -> int:
        return len(self.starts)

    def rows(self, v: int) -> List[Tuple[int, np.ndarray]]:
        """v's block rows: (first, row) means v ~ first + j iff row[j]."""
        lid = self.label_ids[v]
        i = v - self._first[lid]
        return [(first, block[i]) for first, block in self._rows.get(lid, ())]

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

    def interval(self, v: int) -> TimeInterval:
        iv = self._intervals[v]
        if iv is None:
            iv = self._intervals[v] = TimeInterval(self.starts[v], self.ends[v])
        return iv

    def selection_weight(self, selection) -> float:
        return sum(self.weights[v] for v in selection)

    def to_activity_set(self, selection) -> ActivitySet:
        raw: Dict[str, list] = {}
        for v in selection:
            raw.setdefault(self.label_ids[v], []).append(self.interval(v))
        return make_activity_set(raw)


def build_graph(instance: Instance, mode: AmMode) -> ConflictGraph:
    """Construct the candidate conflict graph for the given activity model.

    Raises SizeLimitExceeded once the vertex or edge count would pass
    ``SIZE_LIMIT``.
    """
    rows: List[tuple] = []  # (start, end, weight, label id, presence index) per id
    clusters: Dict[tuple, List[int]] = {}
    span: Dict[str, slice] = {}  # label -> its candidate ids, if it has any
    for lid in sorted(instance.presences):
        weight = instance.labels[lid].weight
        first = len(rows)
        for pi, presence in enumerate(instance.presences_of(lid)):
            opens, closes = {presence.start}, {presence.end}
            if mode is not AmMode.AM1:
                for _, iv in instance.conflicts_of(lid):
                    if presence.contains(iv):
                        closes.add(iv.start)
                        if mode is AmMode.AM3:
                            opens.add(iv.end)
            pairs = sorted((s, t) for s in opens for t in closes if s < t)
            clusters[lid, pi] = list(range(len(rows), len(rows) + len(pairs)))
            rows += [(s, t, (t - s) * weight, lid, pi) for s, t in pairs]
            if len(rows) > SIZE_LIMIT:
                raise SizeLimitExceeded(f"more than {SIZE_LIMIT} candidates")
        if len(rows) > first:
            span[lid] = slice(first, len(rows))
    columns = tuple(map(list, zip(*rows))) or ([], [], [], [], [])

    # Cross edges, one boolean block per conflicting label pair: a pair of
    # candidates is adjacent iff their open overlap (lo, hi) is non-empty and
    # meets a conflict of the two labels.  Edges are counted as blocks are
    # made, so the guard aborts before a large graph is kept.
    start_at, end_at = np.array(columns[0]), np.array(columns[1])
    edge_count = sum(len(m) * (len(m) - 1) // 2 for m in clusters.values())
    blocks: Dict[Tuple[str, str], np.ndarray] = {}
    for a, b in sorted({e.pair for e in instance.conflicts}):
        if a not in span or b not in span:
            continue
        sa, sb = span[a], span[b]
        lo = np.maximum.outer(start_at[sa], start_at[sb])
        hi = np.minimum.outer(end_at[sa], end_at[sb])
        hits = [(c.start < hi) & (c.end > lo) for c in instance.conflicts_between(a, b)]
        meets = reduce(np.logical_or, hits) & (lo < hi)
        count = int(np.count_nonzero(meets))
        edge_count += count
        if edge_count > SIZE_LIMIT:
            raise SizeLimitExceeded(f"more than {SIZE_LIMIT} edges")
        if count:
            blocks[a, b] = meets
    if edge_count > SIZE_LIMIT:
        raise SizeLimitExceeded(f"more than {SIZE_LIMIT} edges")
    return ConflictGraph(columns, clusters, blocks, edge_count)
