"""Spans around calls into ugcaudio's layers, made by wrapping from outside.

`install` replaces each listed public function with a wrapper in every
ugcaudio module that holds a reference to it, so calls between modules are
seen as well as calls from the benchmark. The program itself carries no
tracing code. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field

# Public functions per layer (module). "Class.method" wraps a method.
LAYER_FUNCTIONS = {
    "audio_io": ["decode_wav", "encode_wav", "resample_mono"],
    "fingerprint": [
        "spectrogram",
        "extract_peaks",
        "pair_landmarks",
        "hash_landmarks",
        "fingerprint_clip",
        "FingerprintIndex.add_hashed",
        "query",
        "offset_zero_votes",
    ],
    "event_graph": ["split_repetitions", "build_graph", "connected_components"],
    "timeline": [
        "assign_offsets",
        "normalize_positions",
        "build_segments",
        "consistency_report",
        "cut_audio",
        "segment_quality",
    ],
    "pipeline": ["load_corpus", "run_pipeline"],
    "storage": [
        "index_to_bytes",
        "index_from_bytes",
        "save_index",
        "load_index",
        "model_to_text",
        "model_from_text",
        "save_model",
        "load_model",
        "save_json",
        "load_json",
    ],
    "match_classifier": [
        "autolabel",
        "balance",
        "double_cv",
        "select_model",
        "fit_filter",
        "train_logreg",
        "train_logreg_grid",
        "train_knn",
    ],
    "cli": ["main", "cmd_pipeline", "cmd_index", "cmd_match", "cmd_train"],
}


@dataclass
class Recorder:
    """Spans as parallel lists; parent -1 marks a root span."""

    names: list[str] = field(default_factory=list)
    starts: list[float] = field(default_factory=list)
    ends: list[float] = field(default_factory=list)
    parents: list[int] = field(default_factory=list)
    # Per span, the size of its result where one is counted (see COUNTED).
    sizes: list[float] = field(default_factory=list)
    # Calls made while inactive (set-up, output checks) record nothing.
    active: bool = False
    _stack: list[int] = field(default_factory=list)

    def wrap(self, name: str, fn):
        size_of = COUNTED.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ends.append(0.0)
            self.sizes.append(0.0)
            self._stack.append(idx)
            self.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[idx] = time.perf_counter()
                self._stack.pop()
            if size_of is not None:
                self.sizes[idx] = size_of(args, result)
            return result

        return wrapper

    def to_json(self) -> dict:
        return {
            "names": self.names,
            "start": self.starts,
            "end": self.ends,
            "parent": self.parents,
            "size": self.sizes,
        }


# What a span counts, from its arguments and result.
COUNTED = {
    "fingerprint.hash_landmarks": lambda args, r: len(r),
    "fingerprint.add_hashed": lambda args, r: len(args[2]),
    "fingerprint.query": lambda args, r: len(r.entries),
    "event_graph.build_graph": lambda args, r: len(r.edges) // 2,
    "event_graph.connected_components": lambda args, r: len(r),
    "timeline.build_segments": lambda args, r: len(r),
    "storage.index_to_bytes": lambda args, r: len(r),
    "match_classifier.autolabel": lambda args, r: len(r),
    "match_classifier.select_model": lambda args, r: r.test_accuracy,
}


def install(recorder: Recorder) -> None:
    """Wrap every listed function wherever an ugcaudio module refers to it."""
    homes = {layer: importlib.import_module(f"ugcaudio.{layer}") for layer in LAYER_FUNCTIONS}
    modules = [m for n, m in sys.modules.items() if n == "ugcaudio" or n.startswith("ugcaudio.")]
    for layer, names in LAYER_FUNCTIONS.items():
        home = homes[layer]
        for dotted in names:
            if "." in dotted:
                cls_name, meth = dotted.split(".")
                cls = getattr(home, cls_name)
                setattr(cls, meth, recorder.wrap(f"{layer}.{meth}", getattr(cls, meth)))
                continue
            span = f"{layer}.{dotted}"
            original = getattr(home, dotted)
            wrapped = recorder.wrap(span, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)


def self_times(rec: Recorder) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [e - s for s, e in zip(rec.starts, rec.ends)]
    for idx, parent in enumerate(rec.parents):
        if parent >= 0:
            out[parent] -= rec.ends[idx] - rec.starts[idx]
    return out


def under(rec: Recorder, ancestor: str) -> list[bool]:
    """Per span: does `ancestor` appear among its enclosing spans?"""
    flags = [False] * len(rec.names)
    for idx, parent in enumerate(rec.parents):
        # Parents precede children, so the parent's flag is already final.
        if parent >= 0:
            flags[idx] = flags[parent] or rec.names[parent] == ancestor
    return flags


# Per-layer metric -> span whose summed duration it reports.
INCLUSIVE = {
    "audio_io.decode_wav_s": "audio_io.decode_wav",
    "audio_io.resample_mono_s": "audio_io.resample_mono",
    "fingerprint.spectrogram_s": "fingerprint.spectrogram",
    "fingerprint.extract_peaks_s": "fingerprint.extract_peaks",
    "fingerprint.pair_landmarks_s": "fingerprint.pair_landmarks",
    "fingerprint.hash_landmarks_s": "fingerprint.hash_landmarks",
    "fingerprint.add_hashed_s": "fingerprint.add_hashed",
    "fingerprint.query_s": "fingerprint.query",
    "event_graph.build_graph_s": "event_graph.build_graph",
    "event_graph.connected_components_s": "event_graph.connected_components",
    "timeline.assign_offsets_s": "timeline.assign_offsets",
    "timeline.build_segments_s": "timeline.build_segments",
    "timeline.consistency_report_s": "timeline.consistency_report",
    "timeline.segment_quality_s": "timeline.segment_quality",
    # Defined in fingerprint, called only by timeline.segment_quality.
    "timeline.offset_zero_votes_s": "fingerprint.offset_zero_votes",
    "pipeline.load_corpus_s": "pipeline.load_corpus",
    "storage.index_to_bytes_s": "storage.index_to_bytes",
    "storage.index_from_bytes_s": "storage.index_from_bytes",
    "storage.save_json_s": "storage.save_json",
    "match_classifier.autolabel_s": "match_classifier.autolabel",
    "match_classifier.fit_filter_s": "match_classifier.fit_filter",
    # The write and the read path of index-match, each a whole command.
    "cli.cmd_index_s": "cli.cmd_index",
    "cli.cmd_match_s": "cli.cmd_match",
}
# Per-layer metric -> span whose summed self time it reports.
SELF = {
    "timeline.segment_quality_self_s": "timeline.segment_quality",
    "pipeline.run_pipeline_s": "pipeline.run_pipeline",
    "match_classifier.double_cv_s": "match_classifier.double_cv",
}
# Per-layer metric -> span whose counted size (see COUNTED) it sums.
COUNTS = {
    "fingerprint.postings": "fingerprint.add_hashed",
    "fingerprint.entries": "fingerprint.query",
    "event_graph.edges": "event_graph.build_graph",
    "event_graph.clusters": "event_graph.connected_components",
    "timeline.segments": "timeline.build_segments",
    "storage.index_bytes": "storage.index_to_bytes",
    "match_classifier.samples": "match_classifier.autolabel",
}

PER_LAYER = {
    **{name: "s" for name in INCLUSIVE},
    **{name: "s" for name in SELF},
    "fingerprint.under_quality_s": "s",
    "cli.self_s": "s",
    **{name: "count" for name in COUNTS},
    "fingerprint.landmarks": "count",
    "storage.index_bytes": "bytes",
    "match_classifier.chosen_accuracy": "ratio",
    "timeline.quality_snr_concordance": "ratio",
    "timeline.quality_snr_pairs": "count",
}


def aggregate(rec: Recorder, rounds: int) -> dict[str, float]:
    """Per-layer metrics as means per round (chosen_accuracy: mean per call)."""
    selfs = self_times(rec)
    in_quality = under(rec, "timeline.segment_quality")
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    size: dict[str, float] = {}
    calls: dict[str, int] = {}
    landmarks = under_quality = 0.0
    for idx, name in enumerate(rec.names):
        duration = rec.ends[idx] - rec.starts[idx]
        total[name] = total.get(name, 0.0) + duration
        own[name] = own.get(name, 0.0) + selfs[idx]
        size[name] = size.get(name, 0.0) + rec.sizes[idx]
        calls[name] = calls.get(name, 0) + 1
        if in_quality[idx] and name in ("fingerprint.fingerprint_clip", "fingerprint.hash_landmarks"):
            under_quality += duration
        if name == "fingerprint.hash_landmarks" and not in_quality[idx]:
            landmarks += rec.sizes[idx]

    out = {metric: total.get(span, 0.0) / rounds for metric, span in INCLUSIVE.items()}
    out.update({metric: own.get(span, 0.0) / rounds for metric, span in SELF.items()})
    out["fingerprint.under_quality_s"] = under_quality / rounds
    out["cli.self_s"] = sum(v for k, v in own.items() if k.startswith("cli.")) / rounds
    out.update({metric: size.get(span, 0.0) / rounds for metric, span in COUNTS.items()})
    out["fingerprint.landmarks"] = landmarks / rounds
    picks = calls.get("match_classifier.select_model", 0)
    out["match_classifier.chosen_accuracy"] = size.get("match_classifier.select_model", 0.0) / picks if picks else 0.0
    return out


def span_cost_s(calls: int = 20000) -> float:
    """Time one recorded span adds to a call, measured on an empty function."""
    recorder = Recorder(active=True)

    def empty():
        return None

    wrapped = recorder.wrap("calibration", empty)
    start = time.perf_counter()
    for _ in range(calls):
        empty()
    middle = time.perf_counter()
    for _ in range(calls):
        wrapped()
    return ((time.perf_counter() - middle) - (middle - start)) / calls
