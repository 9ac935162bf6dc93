"""End-to-end run: decode, fingerprint, match, cluster, align, segment.

Clips stream through the run: each is fingerprinted as it arrives and only
its duration, hashed landmarks and peak candidates are kept, so a corpus
read with `load_corpus` holds one clip's audio in memory at a time.

One `FpConfig` drives the run: its landmark parameters fingerprint and
match the clips, its `density_multiplier` sets the density segment quality
thins at, and its `consistency_eps` flags timeline residuals in the report.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .audio_io import AudioClip, read_clip
from .event_graph import Cluster, MatchGraph, build_graph, connected_components
from .fingerprint import (
    FingerprintIndex,
    FpConfig,
    MatchingList,
    clip_fingerprint,
    query,
)
from .match_classifier import MatchFilter
from .timeline import (
    PositionMap,
    QualityRanking,
    Segment,
    assign_offsets,
    build_segments,
    consistency_report,
    normalize_positions,
    segment_quality,
)


def load_corpus(directory: str, rate: int) -> Iterator[AudioClip]:
    """All WAV files in a directory, decoded and resampled, sorted by id.

    Lazy: each file is decoded only when the next clip is asked for.
    """
    for path in sorted(Path(directory).glob("*.wav")):
        yield read_clip(path, rate)


@dataclass
class EventResult:
    """One recovered event with everything the report needs about it."""

    cluster: Cluster
    positions: PositionMap
    segments: list[Segment]
    qualities: list[QualityRanking]


@dataclass
class PipelineResult:
    durations: dict[str, float]  # seconds, every input clip
    lists: list[MatchingList]
    graph: MatchGraph
    events: list[EventResult]
    unmatched: list[str]  # clips that produced no landmarks
    report: dict = field(default_factory=dict)


def run_pipeline(
    clips: Iterable[AudioClip],
    cfg: FpConfig,
    match_filter: MatchFilter | None = None,
    classifier_meta: dict | None = None,
) -> PipelineResult:
    """Cluster clips into events and lay each event out on its own timeline.

    `clips` is any iterable, read once. Each clip is fingerprinted as it
    arrives and dropped before the next is asked for, so the run holds one
    clip's audio at a time unless the caller keeps the others. The result
    holds no audio, only each clip's duration; `cut_audio` on a clip read
    again gives a segment's cut.
    """
    index = FingerprintIndex(cfg)
    durations: dict[str, float] = {}
    hashed: dict[str, np.ndarray] = {}
    # Peak candidates serve quality scoring too: its higher density acts
    # only after candidate picking.
    candidates: dict[str, np.ndarray] = {}
    unmatched: list[str] = []
    for clip in clips:
        durations[clip.id] = clip.duration
        h, candidates[clip.id] = clip_fingerprint(clip, cfg)
        if len(h) == 0:
            unmatched.append(clip.id)
        else:
            hashed[clip.id] = h
            index.add_hashed(clip.id, h, clip.duration)
        del clip  # free its samples before the next clip is decoded

    lists = [query(index, cid, hashed[cid], cfg) for cid in index.clip_ids]
    graph = build_graph(lists, filter_fn=match_filter.predict if match_filter else None)

    events: list[EventResult] = []
    for cluster in connected_components(graph):
        pm = normalize_positions(assign_offsets(cluster, graph))
        segments = build_segments(pm, durations)
        qualities = segment_quality(segments, candidates, cfg)
        events.append(
            EventResult(cluster=cluster, positions=pm, segments=segments, qualities=qualities)
        )

    result = PipelineResult(
        durations=durations,
        lists=lists,
        graph=graph,
        events=events,
        unmatched=sorted(unmatched),
    )
    result.report = _build_report(result, cfg, graph, classifier_meta)
    return result


def _build_report(
    result: PipelineResult,
    cfg: FpConfig,
    graph: MatchGraph,
    classifier_meta: dict | None,
) -> dict:
    events = []
    residuals = []
    for ev in result.events:
        pm = ev.positions
        events.append(
            {
                "id": ev.cluster.id,
                "representative": pm.representative,
                "earliest": pm.earliest,
                "clips": [
                    {
                        "id": cid,
                        "position": pm.positions[cid],
                        "duration": result.durations[cid],
                    }
                    for cid in ev.cluster.members
                ],
                "segments": [
                    {
                        "start": seg.t_start,
                        "end": seg.t_end,
                        "members": [
                            {
                                "clip": cut.clip_id,
                                "local_start": cut.local_start,
                                "local_end": cut.local_end,
                            }
                            for cut in seg.members
                        ],
                        "quality": [
                            {"clip": cid, "score": score} for cid, score in q.ranking
                        ],
                    }
                    for seg, q in zip(ev.segments, ev.qualities)
                ],
            }
        )
        for res in consistency_report(ev.cluster, graph, pm, cfg.consistency_eps):
            residuals.append(
                {
                    "event": ev.cluster.id,
                    "from": res.from_id,
                    "to": res.to_id,
                    "residual": res.residual,
                    "flagged": res.flagged,
                }
            )

    return {
        "events": events,
        "unmatched": result.unmatched,
        "residuals": residuals,
        "classifier": classifier_meta,
    }
