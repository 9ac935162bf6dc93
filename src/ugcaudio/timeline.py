"""Cluster alignment, overlap segmentation, and relative quality ranking.

Positions come from summing edge weights along breadth-first paths out of a
representative clip, then shifting so the earliest clip sits at zero. Segment
boundaries are exactly the clip start/end positions; each segment carries the
cut of every clip fully active across it, and members of a segment are ranked
by how many near-zero-offset landmark votes their cut shares with the others.
A cut's landmarks come from its clip's peak candidates (one STFT per clip):
the frames whose window lies inside the cut, thinned at the quality density
(density_multiplier x peak_density).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from .audio_io import AudioClip
from .event_graph import Cluster, MatchGraph
from .fingerprint import FpConfig, hash_landmarks, offset_zero_votes, pair_landmarks, thin_peaks

# Boundaries closer than this collapse into one; guards against float dust
# from position arithmetic, far below the frame quantum (~23 ms).
_BOUNDARY_EPS = 1e-9

# A cut counts as aligned with another when their vote offset is within this
# many frames of zero. Positions chain offsets from bins merged over
# +/- offset_merge frames, and noise moves peaks by a frame, hence the slack.
QUALITY_OFFSET_TOL_FRAMES = 2


@dataclass
class RawOffsets:
    """Path-cost offsets of every cluster member relative to the representative."""

    cluster_id: str
    representative: str
    offsets: dict[str, float]


@dataclass
class PositionMap:
    """Normalized timeline: seconds from the earliest-starting clip."""

    cluster_id: str
    representative: str
    earliest: str
    positions: dict[str, float]


@dataclass
class ClipCut:
    clip_id: str
    local_start: float  # seconds within the source clip
    local_end: float


@dataclass
class Segment:
    t_start: float
    t_end: float
    members: list[ClipCut]


@dataclass
class EdgeResidual:
    from_id: str
    to_id: str
    residual: float
    flagged: bool


@dataclass
class QualityRanking:
    """Per-segment ranking plus the pairwise vote counts behind it."""

    ranking: list[tuple[str, int]]  # (clip_id, score), score non-increasing
    pair_votes: dict[tuple[str, str], int] = field(default_factory=dict)


def assign_offsets(cluster: Cluster, graph: MatchGraph) -> RawOffsets:
    """Offsets by path cost from a representative clip.

    The representative is the member with the highest degree (ties to the
    smallest id): short tree paths bound accumulated offset error. Offsets
    follow the breadth-first tree, neighbors visited in sorted id order, so
    the result is deterministic.
    """
    rep = min(cluster.members, key=lambda m: (-graph.degree(m), m))
    offsets: dict[str, float] = {rep: 0.0}
    queue = deque([rep])
    members = set(cluster.members)
    while queue:
        current = queue.popleft()
        for neighbor in graph.neighbors(current):
            if neighbor in members and neighbor not in offsets:
                offsets[neighbor] = offsets[current] + graph.weight(current, neighbor)
                queue.append(neighbor)
    if set(offsets) != members:
        missing = sorted(members - set(offsets))
        raise ValueError(f"cluster not connected: unreachable members {missing}")
    return RawOffsets(cluster_id=cluster.id, representative=rep, offsets=offsets)


def normalize_positions(raw: RawOffsets) -> PositionMap:
    """Shift offsets so the earliest-starting clip sits at position 0."""
    if not raw.offsets:
        raise ValueError("no offsets to normalize")
    earliest = min(raw.offsets, key=lambda cid: (raw.offsets[cid], cid))
    base = raw.offsets[earliest]
    positions = {cid: off - base for cid, off in raw.offsets.items()}
    return PositionMap(
        cluster_id=raw.cluster_id,
        representative=raw.representative,
        earliest=earliest,
        positions=positions,
    )


def consistency_report(
    cluster: Cluster,
    graph: MatchGraph,
    pm: PositionMap,
    eps: float = 0.1,
) -> list[EdgeResidual]:
    """Cycle-consistency check the path-cost method silently assumes.

    Every edge weight should equal the position difference of its endpoints;
    edges off by more than eps seconds are flagged. Tree edges always come
    out at zero because they defined the positions.
    """
    members = set(cluster.members)
    report: list[EdgeResidual] = []
    for (frm, to), edge in sorted(graph.edges.items()):
        if frm not in members or to not in members or frm > to:
            continue
        residual = abs((pm.positions[to] - pm.positions[frm]) - edge.weight)
        report.append(
            EdgeResidual(from_id=frm, to_id=to, residual=residual, flagged=residual > eps)
        )
    return report


def build_segments(pm: PositionMap, durations: dict[str, float]) -> list[Segment]:
    """Cut the cluster timeline at every clip start and end.

    Between consecutive boundaries a segment is emitted when at least one
    clip spans the whole interval; its members carry the matching cut of
    each such clip in local clip time. Intervals covered by nobody (possible
    only under flagged inconsistency) are skipped.
    """
    for cid in pm.positions:
        if durations[cid] <= 0:
            raise ValueError(f"clip {cid!r} has non-positive duration")

    intervals = {
        cid: (pm.positions[cid], pm.positions[cid] + durations[cid])
        for cid in sorted(pm.positions)
    }
    boundaries: list[float] = []
    for start, end in intervals.values():
        boundaries.extend((start, end))
    boundaries.sort()
    merged: list[float] = []
    for b in boundaries:
        if not merged or b - merged[-1] > _BOUNDARY_EPS:
            merged.append(b)

    segments: list[Segment] = []
    for left, right in zip(merged, merged[1:]):
        cuts = [
            ClipCut(
                clip_id=cid,
                local_start=max(left - start, 0.0),
                local_end=min(right - start, end - start),
            )
            for cid, (start, end) in intervals.items()
            if start <= left + _BOUNDARY_EPS and right <= end + _BOUNDARY_EPS
        ]
        if cuts:
            segments.append(Segment(t_start=left, t_end=right, members=cuts))
    return segments


def cut_audio(clip: AudioClip, cut: ClipCut) -> AudioClip:
    """The portion of a clip a segment covers, as its own clip."""
    i0 = int(round(cut.local_start * clip.rate))
    i1 = int(round(cut.local_end * clip.rate))
    return AudioClip(
        id=f"{clip.id}__{int(round(cut.local_start * 1000))}_{int(round(cut.local_end * 1000))}",
        samples=clip.samples[i0:i1],
        rate=clip.rate,
    )


def cut_landmarks(candidates: np.ndarray, cut: ClipCut, cfg: FpConfig) -> np.ndarray:
    """Hashed landmarks of a cut, anchors counted from the cut's first frame.

    Uses the clip's peak candidates in the frames whose whole window lies
    inside the cut's samples, thinned to cfg.peak_density per second.
    """
    i0 = int(round(cut.local_start * cfg.rate))
    i1 = int(round(cut.local_end * cfg.rate))
    f0 = -(-i0 // cfg.hop)  # first frame starting at or after i0
    f1 = (i1 - cfg.window) // cfg.hop + 1  # past the last frame ending by i1
    peaks = thin_peaks(candidates, f0, f1, cfg)
    peaks[:, 0] -= f0
    return hash_landmarks(pair_landmarks(peaks, cfg))


def segment_quality(
    segment: Segment,
    candidates: dict[str, np.ndarray],
    cfg: FpConfig,
) -> QualityRanking:
    """Rank a segment's members by shared near-zero-offset landmark votes.

    Each member's cut gets landmarks from its clip's peak candidates (see
    peak_candidates) at density_multiplier x peak_density; for every pair
    the landmark votes within QUALITY_OFFSET_TOL_FRAMES of offset zero are
    counted (all members are time-aligned here, so other offsets are noise
    and ignored). A member's score sums its votes against all others. Cuts
    that hold no whole window score zero.
    """
    dense = replace(cfg, peak_density=cfg.peak_density * cfg.density_multiplier)
    hashed = {cut.clip_id: cut_landmarks(candidates[cut.clip_id], cut, dense) for cut in segment.members}

    ids = sorted(hashed)
    pair_votes: dict[tuple[str, str], int] = {}
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            v = offset_zero_votes(hashed[a], hashed[b], QUALITY_OFFSET_TOL_FRAMES)
            pair_votes[(a, b)] = v
            pair_votes[(b, a)] = v

    scores = {a: sum(pair_votes.get((a, b), 0) for b in ids if b != a) for a in ids}
    ranking = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return QualityRanking(ranking=ranking, pair_votes=pair_votes)
