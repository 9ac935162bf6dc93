"""Cluster alignment, overlap segmentation, and relative quality ranking.

Positions come from summing edge weights along breadth-first paths out of a
representative clip, then shifting so the earliest clip sits at zero. Segment
boundaries are exactly the clip start/end positions; each segment carries the
cut of every clip fully active across it, and members of a segment are ranked
by how many near-zero-offset landmark votes their cut shares with the others.
A cut's landmarks come from its clip's peak candidates (one STFT per clip):
the frames whose window lies inside the cut, thinned at the quality density
(density_multiplier x peak_density). Quality scoring runs over batches of
consecutive segments of up to QUALITY_BATCH_PEAKS peaks: one pair/hash pass
per batch of cuts, then one vote pass per segment.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from .audio_io import AudioClip
from .event_graph import Cluster, MatchGraph
from .fingerprint import (
    FpConfig,
    hash_landmarks,
    offset_zero_votes,
    pair_landmarks,
    peak_budget,
    thin_peaks,
)

# Boundaries closer than this collapse into one; guards against float dust
# from position arithmetic, far below the frame quantum (~23 ms).
_BOUNDARY_EPS = 1e-9

# A cut counts as aligned with another when their vote offset is within this
# many frames of zero. Positions chain offsets from bins merged over
# +/- offset_merge frames, and noise moves peaks by a frame, hence the slack.
QUALITY_OFFSET_TOL_FRAMES = 2

# Quality scoring pairs and votes the cuts of consecutive segments together
# until their peak budgets would pass this many; it bounds the batch's arrays.
QUALITY_BATCH_PEAKS = 4096


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


def _cut_frames(cut: ClipCut, cfg: FpConfig) -> tuple[int, int]:
    """The frames [f0, f1) whose whole window lies inside the cut's samples."""
    i0 = int(round(cut.local_start * cfg.rate))
    i1 = int(round(cut.local_end * cfg.rate))
    f0 = -(-i0 // cfg.hop)  # first frame starting at or after i0
    f1 = (i1 - cfg.window) // cfg.hop + 1  # past the last frame ending by i1
    return f0, f1


def cut_landmarks(
    candidates: dict[str, np.ndarray], cuts: list[ClipCut], cfg: FpConfig
) -> list[np.ndarray]:
    """Hashed landmarks of each cut, anchors counted from the cut's first frame.

    A cut uses its clip's peak candidates in the frames whose whole window
    lies inside the cut's samples, thinned to cfg.peak_density per second.
    All cuts are paired and hashed in one pass: cut i's frames move up by
    i strides, a stride more than the longest cut plus dt_max frames, so no
    forward scan reaches another cut's peaks. Each result equals
    hash_landmarks(pair_landmarks(peaks, cfg)) of that cut's peaks alone.
    """
    if not cuts:
        return []
    frames = [_cut_frames(cut, cfg) for cut in cuts]
    stride = max(0, max(f1 - f0 for f0, f1 in frames)) + cfg.dt_max + 1
    peaks = []
    for i, (cut, (f0, f1)) in enumerate(zip(cuts, frames)):
        p = thin_peaks(candidates[cut.clip_id], f0, f1, cfg)
        p[:, 0] += i * stride - f0
        peaks.append(p)
    hashed = hash_landmarks(pair_landmarks(np.concatenate(peaks), cfg))
    owner = hashed[:, 1] // stride  # rows come grouped by cut, in cut order
    hashed[:, 1] -= owner * stride
    return np.split(hashed, np.searchsorted(owner, np.arange(1, len(cuts))))


def segment_quality(
    segments: list[Segment],
    candidates: dict[str, np.ndarray],
    cfg: FpConfig,
) -> list[QualityRanking]:
    """Rank each segment's members by shared near-zero-offset landmark votes.

    Each member's cut gets landmarks from its clip's peak candidates (see
    peak_candidates) at density_multiplier x peak_density; for every pair
    the landmark votes within QUALITY_OFFSET_TOL_FRAMES of offset zero are
    counted (all members are time-aligned here, so other offsets are noise
    and ignored). A member's score sums its votes against all others. Cuts
    that hold no whole window score zero.

    Consecutive segments are scored in batches whose cuts' peak budgets
    (see peak_budget) sum to at most QUALITY_BATCH_PEAKS, or one segment
    that alone exceeds it: cut_landmarks pairs a batch's cuts in one pass
    and offset_zero_votes counts each segment's votes in one. A segment's
    ranking does not depend on the others in its list.
    """
    dense = replace(cfg, peak_density=cfg.peak_density * cfg.density_multiplier)
    rankings: list[QualityRanking] = []
    batch: list[list[ClipCut]] = []
    batch_peaks = 0
    for seg in segments:
        by_id = {cut.clip_id: cut for cut in seg.members}  # one cut per clip, ranked in id order
        cuts = [by_id[cid] for cid in sorted(by_id)]
        peaks = sum(peak_budget(*_cut_frames(cut, dense), dense) for cut in cuts)
        if batch and batch_peaks + peaks > QUALITY_BATCH_PEAKS:
            rankings.extend(_rank_batch(batch, candidates, dense))
            batch, batch_peaks = [], 0
        batch.append(cuts)
        batch_peaks += peaks
    rankings.extend(_rank_batch(batch, candidates, dense))
    return rankings


def _rank_batch(
    batch: list[list[ClipCut]], candidates: dict[str, np.ndarray], dense: FpConfig
) -> list[QualityRanking]:
    """QualityRanking of each segment's cuts (one per clip, in id order)."""
    hashed = iter(cut_landmarks(candidates, [cut for cuts in batch for cut in cuts], dense))
    rankings = []
    for cuts in batch:
        votes = offset_zero_votes([next(hashed) for _ in cuts], QUALITY_OFFSET_TOL_FRAMES).tolist()
        ids = [cut.clip_id for cut in cuts]
        pair_votes: dict[tuple[str, str], int] = {}
        for i, a in enumerate(ids):
            for j in range(i + 1, len(ids)):
                pair_votes[(a, ids[j])] = pair_votes[(ids[j], a)] = votes[i][j]
        scores = {a: sum(row) for a, row in zip(ids, votes)}
        ranking = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
        rankings.append(QualityRanking(ranking=ranking, pair_votes=pair_votes))
    return rankings
