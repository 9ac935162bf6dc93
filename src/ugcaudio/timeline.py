"""Cluster alignment, overlap segmentation, and relative quality ranking.

Positions come from summing edge weights along breadth-first paths out of a
representative clip, then shifting so the earliest clip sits at zero. Segment
boundaries are exactly the clip start/end positions; each segment carries the
cut of every clip fully active across it, and members of a segment are ranked
by how many near-zero-offset landmark votes their cut shares with the others.
A cut's landmarks come from its clip's peak candidates (one STFT per clip):
the frames whose window lies inside the cut, thinned at the quality density
(density_multiplier x peak_density). cut_landmarks yields one (key, t1)
array per cut from passes of at most QUALITY_BATCH_PEAKS (4,096) thinned
peaks, split at any cut; votes are then counted once per segment.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, replace

import numpy as np

from .audio_io import AudioClip
from .event_graph import Cluster, MatchGraph, cluster_edges
from .fingerprint import (
    FpConfig,
    hash_landmarks,
    offset_zero_votes,
    pair_landmarks,
    thin_peaks,
)

# Boundaries closer than this collapse into one; guards against float dust
# from position arithmetic, far below the frame quantum (~23 ms).
_BOUNDARY_EPS = 1e-9

# A cut counts as aligned with another when their vote offset is within this
# many frames of zero. Positions chain offsets from bins merged over
# +/- offset_merge frames, and noise moves peaks by a frame, hence the slack.
QUALITY_OFFSET_TOL_FRAMES = 2

# Quality scoring pairs and hashes consecutive cuts in one pass until their
# thinned peaks would pass this many; it bounds the pass's arrays.
QUALITY_BATCH_PEAKS = 4096


@dataclass
class RawOffsets:
    """Path-cost offsets of every cluster member relative to the representative."""

    representative: str
    offsets: dict[str, float]


@dataclass
class PositionMap:
    """Normalized timeline: seconds from the earliest-starting clip."""

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
    adjacency = graph.adjacency()
    rep = min(cluster.members, key=lambda m: (-len(adjacency.get(m, ())), m))
    offsets: dict[str, float] = {rep: 0.0}
    queue = deque([rep])
    members = set(cluster.members)
    while queue:
        current = queue.popleft()
        for neighbor in adjacency.get(current, ()):
            if neighbor in members and neighbor not in offsets:
                offsets[neighbor] = offsets[current] + graph.weight(current, neighbor)
                queue.append(neighbor)
    if set(offsets) != members:
        missing = sorted(members - set(offsets))
        raise ValueError(f"cluster not connected: unreachable members {missing}")
    return RawOffsets(representative=rep, offsets=offsets)


def normalize_positions(raw: RawOffsets) -> PositionMap:
    """Shift offsets so the earliest-starting clip sits at position 0."""
    if not raw.offsets:
        raise ValueError("no offsets to normalize")
    earliest = min(raw.offsets, key=lambda cid: (raw.offsets[cid], cid))
    base = raw.offsets[earliest]
    positions = {cid: off - base for cid, off in raw.offsets.items()}
    return PositionMap(representative=raw.representative, earliest=earliest, positions=positions)


def consistency_report(
    cluster: Cluster,
    graph: MatchGraph,
    pm: PositionMap,
    eps: float,
) -> list[EdgeResidual]:
    """Cycle-consistency check the path-cost method silently assumes.

    Every edge weight should equal the position difference of its endpoints;
    edges off by more than eps seconds are flagged. Tree edges always come
    out at zero because they defined the positions.
    """
    report: list[EdgeResidual] = []
    for edge in cluster_edges(cluster, graph):
        frm, to = edge.from_id, edge.to_id
        if frm <= to:
            residual = abs((pm.positions[to] - pm.positions[frm]) - edge.weight)
            report.append(EdgeResidual(from_id=frm, to_id=to, residual=residual, flagged=residual > eps))
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


def _cut_samples(cut: ClipCut, rate: int) -> tuple[int, int]:
    """The samples [i0, i1) a cut spans at `rate`, its ends rounded to the nearest sample."""
    return int(round(cut.local_start * rate)), int(round(cut.local_end * rate))


def cut_audio(clip: AudioClip, cut: ClipCut) -> AudioClip:
    """The portion of a clip a segment covers, as its own clip."""
    i0, i1 = _cut_samples(cut, clip.rate)
    ms0, ms1 = _cut_samples(cut, 1000)
    return AudioClip(id=f"{clip.id}__{ms0}_{ms1}", samples=clip.samples[i0:i1], rate=clip.rate)


def _cut_frames(cut: ClipCut, cfg: FpConfig) -> tuple[int, int]:
    """The frames [f0, f1) whose whole window lies inside the cut's samples."""
    i0, i1 = _cut_samples(cut, cfg.rate)
    f0 = -(-i0 // cfg.hop)  # first frame starting at or after i0
    f1 = (i1 - cfg.window) // cfg.hop + 1  # past the last frame ending by i1
    return f0, f1


def cut_landmarks(
    candidates: dict[str, np.ndarray], cuts: Iterable[ClipCut], cfg: FpConfig
) -> Iterator[np.ndarray]:
    """Hashed landmarks of each cut, in cut order, anchors from the cut's first frame.

    A cut uses its clip's peak candidates in the frames whose whole window
    lies inside the cut's samples, thinned to cfg.peak_density per second.
    Consecutive cuts are paired and hashed in one pass until the next cut's
    thinned peaks would take it past QUALITY_BATCH_PEAKS; a cut over that
    alone is a pass of its own. Passes run lazily, as results are asked for.
    Each result equals hash_landmarks(pair_landmarks(peaks, cfg)) of that
    cut's peaks alone.
    """
    batch: list[np.ndarray] = []
    n_peaks = 0
    for cut in cuts:
        f0, f1 = _cut_frames(cut, cfg)
        peaks = thin_peaks(candidates[cut.clip_id], f0, f1, cfg)
        peaks[:, 0] -= f0
        if batch and n_peaks + len(peaks) > QUALITY_BATCH_PEAKS:
            yield from _pair_pass(batch, cfg)
            batch, n_peaks = [], 0
        batch.append(peaks)
        n_peaks += len(peaks)
    if batch:
        yield from _pair_pass(batch, cfg)


def _pair_pass(batch: list[np.ndarray], cfg: FpConfig) -> list[np.ndarray]:
    """Hashed landmarks of each cut's rebased peaks, paired in one pass.

    Cut i's frames move up by i strides, a stride more than the pass's last
    peak frame plus dt_max, so no forward scan reaches another cut's peaks.
    """
    stride = max((int(p[-1, 0]) for p in batch if len(p)), default=0) + cfg.dt_max + 1
    shifted = np.concatenate([p + [i * stride, 0] for i, p in enumerate(batch)])
    hashed = hash_landmarks(pair_landmarks(shifted, cfg))
    owner = hashed[:, 1] // stride  # rows come grouped by cut, in cut order
    hashed[:, 1] -= owner * stride
    return np.split(hashed, np.searchsorted(owner, np.arange(1, len(batch))))


def segment_quality(
    segments: list[Segment],
    candidates: dict[str, np.ndarray],
    cfg: FpConfig,
) -> list[QualityRanking]:
    """Rank each segment's members by shared near-zero-offset landmark votes.

    Each member's cut gets landmarks from its clip's peak candidates, as
    clip_fingerprint returns them, at density_multiplier x peak_density;
    for every pair the landmark votes within QUALITY_OFFSET_TOL_FRAMES of
    offset zero are counted (all members are time-aligned here, so other
    offsets are noise and ignored). A member's score sums its votes against
    all others. Cuts that hold no whole window score zero.

    One cut_landmarks generator reads every segment's cuts in turn, and
    offset_zero_votes counts each segment's votes in one call. A segment's
    ranking does not depend on the others in its list.
    """
    dense = replace(cfg, peak_density=cfg.peak_density * cfg.density_multiplier)
    # One cut per clip, ranked in id order.
    members = [sorted({cut.clip_id: cut for cut in seg.members}.items()) for seg in segments]
    hashed = cut_landmarks(candidates, (cut for cuts in members for _, cut in cuts), dense)
    rankings = []
    for cuts in members:
        ids = [cid for cid, _ in cuts]
        votes = offset_zero_votes([next(hashed) for _ in ids], QUALITY_OFFSET_TOL_FRAMES).tolist()
        pair_votes = {(a, b): votes[i][j] for i, a in enumerate(ids) for j, b in enumerate(ids) if i != j}
        scores = {a: sum(row) for a, row in zip(ids, votes)}
        ranking = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
        rankings.append(QualityRanking(ranking=ranking, pair_votes=pair_votes))
    return rankings
