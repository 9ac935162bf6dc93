"""End-to-end run: decode, fingerprint, match, cluster, align, segment.

Clips stream through the run: `fingerprint_clips` fingerprints them on
`WORKERS` threads, one per available CPU (at most 2) and the only threads
the package starts, taking the next clip only while fewer than that many
are in flight, and only each clip's duration, hashed landmarks and peak
candidates are kept. A corpus read with `load_corpus` holds at most one
clip's audio per worker in memory at a time.

One `FpConfig` drives the run: its landmark parameters fingerprint and
match the clips, its `density_multiplier` sets the density segment quality
thins at, and its `consistency_eps` flags timeline residuals in the report.
"""

from __future__ import annotations

import os
from collections import deque
from collections.abc import Iterable, Iterator
from concurrent.futures import ThreadPoolExecutor
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


def available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has it
        return os.cpu_count() or 1


# Fingerprint worker threads: one per CPU this process may run on, at most
# 2. The STFT and peak picking run in numpy calls that release the
# interpreter lock. Each worker holds one more clip and its working set: on
# the perfbench organise workload, peak RSS is 90 MB with 2 workers and
# 103 MB with 4.
WORKERS = min(2, available_cpus())


def _fingerprint_taken(box: list[AudioClip], cfg: FpConfig) -> tuple[np.ndarray, np.ndarray]:
    # The clip leaves its box here, so its samples are freed as soon as its
    # fingerprint is done, not when the executor drops the work item.
    return clip_fingerprint(box.pop(), cfg)


def fingerprint_clips(
    clips: Iterable[AudioClip], cfg: FpConfig
) -> Iterator[tuple[str, float, np.ndarray, np.ndarray]]:
    """(id, duration, hashed landmarks, peak candidates) per clip, in input order.

    `clip_fingerprint` runs on a pool of `WORKERS` threads, read from the
    module global on each call. The next clip is taken from `clips` only
    while fewer than that many are in flight (taken and not yet yielded), so
    at most that many clips' audio is held at a time. Failures surface in input order too: an error raised by
    `clips` for clip k is raised after clips 0..k-1 are yielded, and a
    worker's error on an earlier clip wins over it.
    """
    n_workers = WORKERS
    with ThreadPoolExecutor(n_workers) as pool:
        in_flight: deque = deque()
        source = iter(clips)
        failure: Exception | None = None
        exhausted = False
        while True:
            while not exhausted and len(in_flight) < n_workers:
                try:
                    clip = next(source)
                except StopIteration:
                    exhausted = True
                    break
                except Exception as exc:  # raised below, after every clip before it
                    failure, exhausted = exc, True
                    break
                in_flight.append((clip.id, clip.duration, pool.submit(_fingerprint_taken, [clip], cfg)))
                del clip
            if not in_flight:
                if failure is not None:
                    raise failure
                return
            clip_id, duration, future = in_flight.popleft()
            yield (clip_id, duration, *future.result())


def load_corpus(directory: str, rate: int) -> Iterator[AudioClip]:
    """All WAV files in a directory, decoded and resampled, sorted by id.

    Lazy: each file is decoded only when the next clip is asked for. A
    clip's id is its file's stem, so the files are sorted by stem: "a.wav"
    comes before "a-b.wav".
    """
    for path in sorted(Path(directory).glob("*.wav"), key=lambda p: p.stem):
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

    `clips` is any iterable, read once. Clips are fingerprinted through
    `fingerprint_clips`, on one worker per available CPU (at most 2), and
    each is dropped once fingerprinted, so the run holds at most one clip's
    audio per worker unless the caller keeps the others; on one CPU that is
    one clip at a time. The result does not depend on the number of workers
    and holds no audio, only each clip's duration; `cut_audio` on a clip
    read again gives a segment's cut.
    """
    index = FingerprintIndex(cfg)
    durations: dict[str, float] = {}
    hashed: dict[str, np.ndarray] = {}
    # Peak candidates serve quality scoring too: its higher density acts
    # only after candidate picking.
    candidates: dict[str, np.ndarray] = {}
    unmatched: list[str] = []
    for clip_id, duration, h, clip_candidates in fingerprint_clips(clips, cfg):
        durations[clip_id] = duration
        candidates[clip_id] = clip_candidates
        if len(h) == 0:
            unmatched.append(clip_id)
        else:
            hashed[clip_id] = h
            index.add_hashed(clip_id, h, duration)

    lists = [query(index, cid, hashed[cid], cfg) for cid in index.clip_ids]
    graph = build_graph(lists, cfg, filter_fn=match_filter.predict if match_filter else None)

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
