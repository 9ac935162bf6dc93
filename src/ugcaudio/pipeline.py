"""End-to-end run: decode, fingerprint, match, cluster, align, segment.

Clips stream through the run: each is fingerprinted as it arrives and only
its duration, hashed landmarks and peak candidates are kept, so a corpus
read with `load_corpus` holds one clip's audio in memory at a time.

Also owns the run configuration: a flat `key = value` file mirroring every
fingerprint parameter plus the alignment and classifier knobs. Unknown keys
are rejected so a typo cannot silently fall back to a default.
"""

from __future__ import annotations

import dataclasses
import os
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
    with_quality_params,
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

ENV_SEED = "UGC_SEED"


@dataclass
class PipelineConfig:
    """Every tunable of a run, loadable from a `key = value` file."""

    rate: int = 11025
    window: int = 512
    hop: int = 256
    peak_density: float = 20.0
    fanout: int = 3
    dt_min: int = 1
    dt_max: int = 63
    df_min: int = -63
    df_max: int = 63
    match_threshold: int = 5
    offset_merge: int = 1
    log_floor: float = -10.0
    density_multiplier: float = 3.0
    consistency_eps: float = 0.1
    family: str = "logreg"
    subset: str = "S4"
    seed: int = 0
    input: str = ""
    output: str = ""

    def fp_config(self) -> FpConfig:
        return FpConfig(
            rate=self.rate,
            window=self.window,
            hop=self.hop,
            peak_density=self.peak_density,
            fanout=self.fanout,
            dt_range=(self.dt_min, self.dt_max),
            df_range=(self.df_min, self.df_max),
            match_threshold=self.match_threshold,
            offset_merge=self.offset_merge,
            log_floor=self.log_floor,
        )

    def hi_config(self) -> FpConfig:
        return with_quality_params(self.fp_config(), self.density_multiplier)


def parse_config(text: str, base: PipelineConfig | None = None) -> PipelineConfig:
    """`key = value` lines; blank lines and # comments ignored."""
    cfg = dataclasses.replace(base) if base else PipelineConfig()
    types = {f.name: f.type for f in dataclasses.fields(PipelineConfig)}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in types:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        kind = types[key]
        try:
            if kind == "int":
                parsed = int(value)
            elif kind == "float":
                parsed = float(value)
            else:
                parsed = value
        except ValueError:
            raise ValueError(
                f"config line {lineno}: {key} expects {kind}, got {value!r}"
            ) from None
        setattr(cfg, key, parsed)
    return cfg


def load_config(path: str, base: PipelineConfig | None = None) -> PipelineConfig:
    with open(path, "r", encoding="utf-8") as f:
        return parse_config(f.read(), base)


def seed_override(default: int) -> int:
    """UGC_SEED in the environment beats any configured seed."""
    raw = os.environ.get(ENV_SEED)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{ENV_SEED} must be an integer, got {raw!r}") from None


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
    cfg: PipelineConfig,
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
    fp_cfg = cfg.fp_config()
    hi_cfg = cfg.hi_config()

    index = FingerprintIndex(fp_cfg)
    durations: dict[str, float] = {}
    hashed: dict[str, np.ndarray] = {}
    # Peak candidates serve quality scoring too: the quality config differs
    # only in density and threshold, which act after candidate picking.
    candidates: dict[str, np.ndarray] = {}
    unmatched: list[str] = []
    for clip in clips:
        durations[clip.id] = clip.duration
        h, candidates[clip.id] = clip_fingerprint(clip, fp_cfg)
        if len(h) == 0:
            unmatched.append(clip.id)
        else:
            hashed[clip.id] = h
            index.add_hashed(clip.id, h, clip.duration)
        del clip  # free its samples before the next clip is decoded

    lists = [query(index, cid, hashed[cid], fp_cfg) for cid in index.clip_ids]
    graph = build_graph(lists, filter_fn=match_filter)

    events: list[EventResult] = []
    for cluster in connected_components(graph):
        pm = normalize_positions(assign_offsets(cluster, graph))
        segments = build_segments(pm, durations)
        qualities = [segment_quality(seg, candidates, hi_cfg) for seg in segments]
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
    cfg: PipelineConfig,
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
