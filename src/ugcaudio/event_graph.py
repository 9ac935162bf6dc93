"""Offset-weighted match graph and connected-component event clustering.

Matching lists become a graph whose nodes are clips and whose edge weights
are start-time differences in seconds; every edge is stored in both
directions with opposite signs. Connected components are the events; clips
with no surviving matches stay behind as singleton clusters.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .fingerprint import FpConfig, MatchEntry, MatchingList


@dataclass
class MatchEdge:
    from_id: str
    to_id: str
    weight: float  # start(to) - start(from), seconds
    source_entry: MatchEntry


@dataclass
class MatchGraph:
    nodes: set[str] = field(default_factory=set)
    edges: dict[tuple[str, str], MatchEdge] = field(default_factory=dict)

    def neighbors(self, node: str) -> list[str]:
        return sorted(to for (frm, to) in self.edges if frm == node)

    def weight(self, from_id: str, to_id: str) -> float:
        return self.edges[(from_id, to_id)].weight

    def degree(self, node: str) -> int:
        return sum(1 for (frm, _to) in self.edges if frm == node)


@dataclass
class Cluster:
    members: list[str]  # sorted clip ids

    @property
    def id(self) -> str:
        return self.members[0]


def split_repetitions(
    matching_list: MatchingList,
) -> tuple[list[MatchEntry], list[MatchEntry]]:
    """Separate each matched clip's best-offset entry from its repetitions.

    Per matched clip the entry with the most matching landmarks is the
    primary; everything else for that clip is a repetition. Ties go to the
    smaller absolute offset_frames, then the smaller signed one, so the
    split is a total order.
    """
    by_clip: dict[str, list[MatchEntry]] = {}
    for entry in matching_list.entries:
        by_clip.setdefault(entry.clip_id, []).append(entry)

    primaries: list[MatchEntry] = []
    repetitions: list[MatchEntry] = []
    for clip_id in sorted(by_clip):
        entries = sorted(
            by_clip[clip_id],
            key=lambda e: (-e.ml, abs(e.offset_frames), e.offset_frames),
        )
        primaries.append(entries[0])
        repetitions.extend(entries[1:])
    return primaries, repetitions


def build_graph(
    lists: Iterable[MatchingList],
    cfg: FpConfig,
    filter_fn: Callable[[list[MatchEntry]], Sequence[int]] | None = None,
) -> MatchGraph:
    """Assemble the match graph from all clips' matching lists.

    Repetitions are dropped first; if a classifier is supplied, it is called
    once on every list's primaries together, and those it predicts as false
    matches (class 0) are dropped too, before any edge is inserted. Each
    surviving primary q->i contributes the edge pair (q, i, -offset) and
    (i, q, +offset), the offset in seconds: offset_frames * hop / rate.
    When both directions survive independently, the pair from the
    higher-landmark-count entry wins.
    """
    lists = list(lists)
    graph = MatchGraph()
    for ml in lists:
        graph.nodes.add(ml.query_id)

    # Best surviving primary per unordered pair; (ml, query_id) decides which
    # direction's offset defines the edge pair.
    chosen: dict[tuple[str, str], MatchEntry] = {}
    primaries = [entry for ml in lists for entry in split_repetitions(ml)[0]]
    if filter_fn is not None:
        keep = filter_fn(primaries)
        primaries = [entry for entry, cls in zip(primaries, keep) if cls != 0]
    for entry in primaries:
        graph.nodes.add(entry.clip_id)
        pair = tuple(sorted((entry.query_id, entry.clip_id)))
        other = chosen.get(pair)
        if other is None or (entry.ml, other.query_id) > (other.ml, entry.query_id):
            chosen[pair] = entry

    for entry in chosen.values():
        w = -entry.offset_frames * cfg.hop / cfg.rate  # start(clip) - start(query)
        graph.edges[(entry.query_id, entry.clip_id)] = MatchEdge(
            from_id=entry.query_id,
            to_id=entry.clip_id,
            weight=w,
            source_entry=entry,
        )
        graph.edges[(entry.clip_id, entry.query_id)] = MatchEdge(
            from_id=entry.clip_id,
            to_id=entry.query_id,
            weight=-w,
            source_entry=entry,
        )
    return graph


def connected_components(graph: MatchGraph) -> list[Cluster]:
    """Undirected connectivity over the edge pairs; deterministic order.

    Isolated nodes come out as singleton clusters. Clusters are sorted by
    their id (smallest member).
    """
    adjacency: dict[str, list[str]] = {node: [] for node in graph.nodes}
    for frm, to in graph.edges:
        adjacency[frm].append(to)

    visited: set[str] = set()
    clusters: list[Cluster] = []
    for node in sorted(graph.nodes):
        if node in visited:
            continue
        component = []
        queue = deque([node])
        visited.add(node)
        while queue:
            current = queue.popleft()
            component.append(current)
            for neighbor in sorted(adjacency[current]):
                if neighbor not in visited:
                    visited.add(neighbor)
                    queue.append(neighbor)
        clusters.append(Cluster(members=sorted(component)))
    clusters.sort(key=lambda c: c.id)
    return clusters


def cluster_edges(cluster: Cluster, graph: MatchGraph) -> list[MatchEdge]:
    """All stored edges between members of the cluster, one per direction."""
    members = set(cluster.members)
    return [
        edge
        for (frm, to), edge in sorted(graph.edges.items())
        if frm in members and to in members
    ]
