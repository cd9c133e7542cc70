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

from collections import defaultdict
from itertools import accumulate, chain
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from .model import ActivitySet, Instance, TimeInterval
from .validation import AmMode

SIZE_LIMIT = 10**7
# A cross-edge block of at most this many cells is computed with other such
# blocks in one flat pass, since its own numpy calls would cost more than
# its cells; a flat pass takes at most this many blocks, which bounds its
# temporaries.  Larger blocks are outer comparisons.
SMALL_BLOCK = 1024


class SizeLimitExceeded(RuntimeError):
    """Graph would exceed the ``SIZE_LIMIT`` vertex/edge cap."""


class ConflictGraph:
    """Immutable candidate graph for one instance and activity model.

    Candidates are columns indexed by id: ``starts``, ``ends``, ``weights``,
    ``label_ids``, ``presence_indices``.  The activity model is in which
    candidates exist; the graph keeps no mode.  No edge list is kept.
    ``clusters`` tiles the ids with contiguous ranges, in id order, and
    ``cluster_of[v]`` is the range of v's cluster: cluster mates are
    adjacent implicitly.  Cross edges are one boolean block per conflicting
    label pair, reachable from both labels: row i of a label's block holds
    the edges of its i-th candidate to the other label's candidates.  Only
    ``neighbor_ids`` reads those rows; ``neighbors`` is the set of its list.

    ``build_graph`` keeps one graph per instance and model and hands it to
    every solver, so the neighbour lists, orders and intervals it derives on
    request are shared too: no caller may change a column or what
    ``interval``, ``neighbor_ids``, ``neighbors``, ``by_weight``,
    ``heaviest_first`` or ``slice_spans`` return.
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
        stops = list(accumulate(map(len, clusters.values())))
        ranges = list(map(range, [0, *stops], stops))
        self.cluster_of: List[range] = [ids for ids in ranges for _ in ids]
        # label -> its first candidate id
        self._first = {self.label_ids[ids.start]: ids.start for ids in reversed(ranges) if ids}
        self._rows: Dict[str, List[Tuple[int, np.ndarray]]] = defaultdict(list)
        for (a, b), block in blocks.items():
            self._rows[a].append((self._first[b], block))
            self._rows[b].append((self._first[a], block.T))
        self._ids: List[Optional[List[int]]] = [None] * len(self.starts)
        self._neighbors: List[Optional[Set[int]]] = [None] * len(self.starts)
        self._by_weight: List[Optional[List[int]]] = [None] * len(self.starts)
        self._intervals: List[Optional[TimeInterval]] = [None] * len(self.starts)  # on request
        self._order: Optional[Tuple[List[int], List[int]]] = None
        self._slices: Optional[Tuple[List[Tuple[int, int]], int]] = None

    def __len__(self) -> int:
        return len(self.starts)

    def neighbor_ids(self, v: int) -> List[int]:
        """v's cluster mates in ascending order, then its cross neighbours,
        read from its block rows; derived once."""
        ids = self._ids[v]
        if ids is None:
            mates = self.cluster_of[v]
            ids = self._ids[v] = [*range(mates.start, v), *range(v + 1, mates.stop)]
            lid = self.label_ids[v]
            i = v - self._first[lid]
            for first, block in self._rows.get(lid, ()):
                ids += (block[i].nonzero()[0] + first).tolist()
        return ids

    def neighbors(self, v: int) -> Set[int]:
        """The set of ``neighbor_ids(v)``, sharing its ints; derived once."""
        out = self._neighbors[v]
        if out is None:
            out = self._neighbors[v] = set(self.neighbor_ids(v))
        return out

    def by_weight(self, v: int) -> List[int]:
        """v's cluster, heaviest first (ties: smallest id); derived once per cluster."""
        order = self._by_weight[v]
        if order is None:
            mates = self.cluster_of[v]
            # a stable sort: equal weights keep ascending ids
            order = sorted(mates, key=self.weights.__getitem__, reverse=True)
            self._by_weight[mates.start : mates.stop] = [order] * len(mates)
        return order

    def heaviest_first(self) -> Tuple[List[int], List[int]]:
        """All ids heaviest first (ties: smallest id), and each id's position
        in that order; derived once."""
        if self._order is None:
            # a stable sort: equal weights keep ascending ids
            order = sorted(range(len(self)), key=self.weights.__getitem__, reverse=True)
            self._order = (order, sorted(range(len(order)), key=order.__getitem__))
        return self._order

    def slice_spans(self) -> Tuple[List[Tuple[int, int]], int]:
        """Per candidate, the (first, stop) range of the elementary slices
        between candidate endpoints that it covers, and the slice count;
        derived once."""
        if self._slices is None:
            starts, ends = np.array(self.starts), np.array(self.ends)
            points = _unique(np.concatenate([starts, ends]))
            spans = zip(points.searchsorted(starts).tolist(), points.searchsorted(ends).tolist())
            self._slices = (list(spans), len(points))
        return self._slices

    def interval(self, v: int) -> TimeInterval:
        iv = self._intervals[v]
        if iv is None:
            iv = self._intervals[v] = TimeInterval(self.starts[v], self.ends[v])
        return iv

    def selection_weight(self, selection) -> float:
        return sum(self.weights[v] for v in selection)

    def to_activity_set(self, selection) -> ActivitySet:
        """The selection's activities, labels and intervals in id order.

        A label's ids are contiguous, in presence order and, within a
        presence, in (start, end) order, so grouping the sorted ids gives
        each label's intervals sorted, and labels in sorted order whatever
        order the selection was built in.
        """
        raw: Dict[str, list] = {}
        label_ids, interval = self.label_ids, self.interval
        for v in sorted(selection):
            raw.setdefault(label_ids[v], []).append(interval(v))
        return ActivitySet({lid: tuple(ivs) for lid, ivs in raw.items()})


def _runs(first: np.ndarray, count: np.ndarray) -> np.ndarray:
    """first[i], first[i] + 1, ..., first[i] + count[i] - 1, for each i in turn."""
    out = (first - count.cumsum() + count).repeat(count)
    out += np.arange(len(out))
    return out


def _firsts(keys: np.ndarray) -> np.ndarray:
    """Whether each key starts a run of equal keys."""
    return np.concatenate([[True], keys[1:] != keys[:-1]])[: len(keys)]


def _unique(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct keys; np.unique would import numpy.ma on its first call."""
    keys = np.sort(keys)
    return keys[_firsts(keys)]


def _candidates(count: int) -> None:
    if count > SIZE_LIMIT:
        raise SizeLimitExceeded(f"more than {SIZE_LIMIT} candidates")


def _edges(count: int) -> int:
    if count > SIZE_LIMIT:
        raise SizeLimitExceeded(f"more than {SIZE_LIMIT} edges")
    return count


def _columns(instance: Instance) -> tuple:
    """The instance as numpy columns, kept on it (it is immutable) for its
    later builds.  A time is its rank in ``times``, so a (group, time) pair
    is one integer key.  Conflicts are in (label pair, start) order."""
    cached = instance.__dict__.get("_graph_columns")
    if cached is not None:
        return cached
    lids = sorted(instance.presences)
    rank_of = {lid: r for r, lid in enumerate(lids)}
    where = [(lid, pi) for lid in lids for pi in range(len(instance.presences[lid]))]
    flat = [p for lid in lids for p in instance.presences[lid]]
    conflicts = [(rank_of[e.a], rank_of[e.b], e.interval.start, e.interval.end) for e in instance.conflicts]
    conflicts = np.fromiter(chain.from_iterable(sorted(conflicts)), float, 4 * len(conflicts))
    c_a, c_b, c_start, c_end = conflicts.reshape(-1, 4).T
    points = np.concatenate([[p.start for p in flat], [p.end for p in flat], c_start, c_end])
    times = _unique(points)
    rank = times.searchsorted(points)
    n_p, n_c, n_times = len(flat), len(c_a), len(times)
    p_label = np.array([rank_of[lid] for lid, _ in where], dtype=np.int64)
    side = np.concatenate([c_a, c_b]).astype(np.int64)  # label per side: the a sides, then the b sides
    c_rank = rank[2 * n_p :].reshape(2, n_c)
    side_start, side_end = np.concatenate([c_rank, c_rank], axis=1)
    held = (p_label * n_times + rank[:n_p]).searchsorted(side * n_times + side_start, "right") - 1
    new_pair = _firsts(c_a) | _firsts(c_b)
    pair_first = np.flatnonzero(new_pair)
    # per presence its label, index and open and close keys; per conflict side
    # its close and open keys; per pair its labels and where its conflicts stop
    cached = instance.__dict__["_graph_columns"] = (
        *(lids, where, times, np.array([instance.labels[lid].weight for lid in lids])),
        *(p_label, np.array([pi for _, pi in where], dtype=np.int64)),
        *(np.arange(n_p) * n_times + rank[:n_p], np.arange(n_p) * n_times + rank[n_p : 2 * n_p]),
        *(held * n_times + side_start, held * n_times + side_end),
        *(side[pair_first], side[n_c + pair_first], np.append(pair_first[1:], n_c)),
        *((np.cumsum(new_pair) - 1) * n_times + rank[2 * n_p + n_c :], np.append(c_start, np.inf)),
    )
    return cached


def build_graph(instance: Instance, mode: AmMode) -> ConflictGraph:
    """The candidate conflict graph of the instance under the activity model.

    The graph is built on the first request (see :func:`_build`) and kept on
    the instance, which is immutable, so every later request for the same
    model, by any solver, returns that same graph (threads asking at once
    may each build it; the graphs are equal).  A failed build keeps
    nothing.  ``SIZE_LIMIT`` holds for a kept graph too: one with more
    candidates or edges than the limit raises SizeLimitExceeded as its
    build would have.
    """
    graphs = instance.__dict__.setdefault("_graphs", {})
    if mode not in graphs:
        graphs[mode] = _build(instance, mode)
    graph = graphs[mode]
    _candidates(len(graph))
    _edges(graph.edge_count)
    return graph


def _build(instance: Instance, mode: AmMode) -> ConflictGraph:
    """Construct the candidate conflict graph for the given activity model.

    Both halves are numpy passes over the whole instance.  The (presence,
    time) keys of all opens and closes are sorted at once, and each open is
    paired with the later closes of its presence.  Candidates i and j of a
    conflicting label pair are adjacent iff their open overlap meets U, the
    union of the pair's disjoint closed conflicts.  With theta(x) = x inside
    a conflict ending later, else the next conflict start (inf if none),
    (x, y) meets U iff y > theta(x); theta is monotone, so i and j are
    adjacent iff e_j > theta(s_i) and e_i > theta(s_j) and each meets U
    (theta = inf if not).  A block is these two comparisons; blocks of at
    most ``SMALL_BLOCK`` cells are made together in flat chunks.

    Raises SizeLimitExceeded once the vertex or edge count would pass
    ``SIZE_LIMIT``; edges are counted as blocks are made.
    """
    (lids, where, times, weight, p_label, p_index, opens, closes, c_close, c_open, pa, pb,
     pair_stop, end_key, next_start) = _columns(instance)
    n_times = len(times)
    if mode is not AmMode.AM1:
        closes = _unique(np.concatenate([closes, c_close]))
    if mode is AmMode.AM3:
        opens = _unique(np.concatenate([opens, c_open]))
    later = closes.searchsorted(opens, "right")
    count = closes.searchsorted(opens - opens % n_times + n_times) - later
    _candidates(int(count.sum()))
    presence, start_rank = np.divmod(opens.repeat(count), n_times)
    starts, ends = times[start_rank], times[closes[_runs(later, count)] % n_times]
    label = p_label[presence]
    columns = (starts.tolist(), ends.tolist(), ((ends - starts) * weight[label]).tolist())
    columns += (list(map(lids.__getitem__, label.tolist())), p_index[presence].tolist())
    sizes = np.bincount(presence, minlength=len(where))
    stops = sizes.cumsum()
    clusters = dict(zip(where, map(list, map(range, (stops - sizes).tolist(), stops.tolist()))))
    edge_count = int(sizes @ (sizes - 1)) // 2

    # theta per (label pair, candidate of either label)
    label_count = np.bincount(label, minlength=len(lids))
    kept = ((label_count[pa] > 0) & (label_count[pb] > 0)).nonzero()[0]
    side_label = np.concatenate([pa[kept], pb[kept]])
    side_count = label_count[side_label]
    v = _runs(label_count.cumsum()[side_label] - side_count, side_count)
    of_pair = np.concatenate([kept, kept]).repeat(side_count)
    k = end_key.searchsorted(of_pair * n_times + start_rank[v], "right")  # first ending after
    theta, end = np.maximum(starts[v], next_start[k]), ends[v]
    theta[(k >= pair_stop[of_pair]) | (end <= theta)] = np.inf

    # block q: rows at[q] + range(size[q]), columns at[n + q] + range(size[n + q])
    n, first = len(kept), side_count.cumsum() - side_count
    at, size = first.tolist(), side_count.tolist()
    cells = side_count[:n] * side_count[n:]
    found: List[Optional[np.ndarray]] = [None] * n
    small = (cells <= SMALL_BLOCK).nonzero()[0]
    for q in (small[i : i + SMALL_BLOCK] for i in range(0, len(small), SMALL_BLOCK)):
        height = side_count[q]
        width = side_count[n + q].repeat(height)
        rows = _runs(first[q], height).repeat(width)
        cols = _runs(first[n + q].repeat(height), width)
        meets = (theta[rows] < end[cols]) & (end[rows] > theta[cols])
        cell_at = cells[q].cumsum() - cells[q]
        counts = np.add.reduceat(meets, cell_at, dtype=np.int64)
        edge_count = _edges(edge_count + int(counts.sum()))
        hit = counts.nonzero()[0]
        for p, o in zip(q[hit].tolist(), cell_at[hit].tolist()):
            found[p] = meets[o : o + size[p] * size[n + p]].reshape(size[p], size[n + p])
    for p in (cells > SMALL_BLOCK).nonzero()[0].tolist():
        rows, cols = slice(at[p], at[p] + size[p]), slice(at[n + p], at[n + p] + size[n + p])
        meets = np.less.outer(theta[rows], end[cols])
        meets &= np.greater.outer(end[rows], theta[cols])
        count = int(np.count_nonzero(meets))
        edge_count = _edges(edge_count + count)
        found[p] = meets if count else None
    pairs = zip(pa[kept].tolist(), pb[kept].tolist(), found)
    blocks = {(lids[a], lids[b]): block for a, b, block in pairs if block is not None}
    return ConflictGraph(columns, clusters, blocks, _edges(edge_count))
