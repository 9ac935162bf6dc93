import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from ugcaudio import (
    PROCESS_RATE,
    AudioClip,
    DecodeError,
    FpConfig,
    SynthSpec,
    clip_fingerprint,
    encode_wav,
    run_pipeline,
    synth_corpus,
)
import ugcaudio
from ugcaudio import pipeline
from ugcaudio.pipeline import fingerprint_clips, load_corpus

from _helpers import burst_clip


def small_corpus():
    clips, _ = synth_corpus(
        SynthSpec(
            n_events=2,
            clips_per_event=3,
            event_duration=30.0,
            clip_duration_range=(8.0, 12.0),
            min_overlap=4.0,
            snr_range_db=(18.0, 25.0),
            seed=5,
        )
    )
    return clips


def alive_when_each_clip_is_made(clips):
    """Run the pipeline on a stream of copies of `clips`.

    Returns the result and, for each clip, the ids of the clips yielded
    before it that were still alive when it was made.
    """
    yielded: list[weakref.ref] = []
    alive_at_next: list[list[str]] = []

    def stream():
        for clip in clips:
            alive_at_next.append([ref().id for ref in yielded if ref() is not None])
            fresh = AudioClip(id=clip.id, samples=clip.samples.copy(), rate=clip.rate)
            yielded.append(weakref.ref(fresh))
            yield fresh
            del fresh

    result = run_pipeline(stream(), FpConfig())
    assert len(yielded) == len(clips)
    return result, alive_at_next


def test_run_pipeline_holds_one_clip_at_a_time(monkeypatch):
    clips = small_corpus()
    listed = run_pipeline(clips, FpConfig())

    # Before each clip is made, at most one clip per other worker is still
    # alive, in flight.
    streamed, alive = alive_when_each_clip_is_made(clips)
    assert max(map(len, alive)) <= pipeline.WORKERS - 1
    assert streamed.report == listed.report
    assert streamed.durations == {c.id: c.duration for c in clips}

    # With one worker, every clip yielded before it is gone.
    monkeypatch.setattr(pipeline, "WORKERS", 1)
    streamed, alive = alive_when_each_clip_is_made(clips)
    assert alive == [[] for _ in clips]
    assert streamed.report == listed.report


def test_workers_follow_the_cpus_the_process_may_use(monkeypatch):
    monkeypatch.setattr(pipeline.os, "sched_getaffinity", lambda pid: {3}, raising=False)
    assert pipeline.available_cpus() == 1
    monkeypatch.delattr(pipeline.os, "sched_getaffinity")
    monkeypatch.setattr(pipeline.os, "cpu_count", lambda: None)
    assert pipeline.available_cpus() == 1


def run_summary(result):
    votes = [q.pair_votes for ev in result.events for q in ev.qualities]
    return result.report, result.durations, votes


@pytest.mark.parametrize("workers", [1, 4])
def test_run_is_the_same_on_any_number_of_workers(monkeypatch, workers):
    clips = small_corpus()
    default = run_summary(run_pipeline(clips, FpConfig()))
    monkeypatch.setattr(pipeline, "WORKERS", workers)
    # Short thread switches, so that in-flight clips interleave often.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        assert run_summary(run_pipeline(clips, FpConfig())) == default
    finally:
        sys.setswitchinterval(interval)


class TestFingerprintClips:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_yields_in_input_order(self, monkeypatch, workers):
        monkeypatch.setattr(pipeline, "WORKERS", workers)
        cfg = FpConfig()
        clips = [burst_clip(f"c{i}", duration=2.0 + (5 - i), seed=i) for i in range(6)]
        got = list(fingerprint_clips(iter(clips), cfg))
        assert [(cid, d) for cid, d, _, _ in got] == [(c.id, c.duration) for c in clips]
        for (_, _, hashed, candidates), clip in zip(got, clips):
            want_hashed, want_candidates = clip_fingerprint(clip, cfg)
            assert np.array_equal(hashed, want_hashed)
            assert np.array_equal(candidates, want_candidates)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_earlier_worker_error_wins_over_a_later_decode_error(self, monkeypatch, workers):
        monkeypatch.setattr(pipeline, "WORKERS", workers)

        def clips():
            yield burst_clip("good", duration=2.0)
            yield burst_clip("wrong_rate", duration=2.0, rate=22050)  # the worker raises
            raise DecodeError("third.wav: file too short", 0)

        yielded = []
        with pytest.raises(ValueError, match="clip rate 22050"):
            for clip_id, *_ in fingerprint_clips(clips(), FpConfig()):
                yielded.append(clip_id)
        assert yielded == ["good"]

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_decode_error_surfaces_after_the_clips_before_it(self, monkeypatch, workers):
        monkeypatch.setattr(pipeline, "WORKERS", workers)

        def clips():
            yield burst_clip("a", duration=2.0, seed=1)
            yield burst_clip("b", duration=2.0, seed=2)
            raise DecodeError("c.wav: file too short", 0)

        yielded = []
        with pytest.raises(DecodeError, match="c.wav: file too short"):
            for clip_id, *_ in fingerprint_clips(clips(), FpConfig()):
                yielded.append(clip_id)
        assert yielded == ["a", "b"]


def test_load_corpus_decodes_each_file_when_asked(tmp_path):
    for cid in ("b", "a-b", "a", "c"):
        clip = AudioClip(id=cid, samples=np.full(600, 0.25), rate=PROCESS_RATE)
        (tmp_path / f"{cid}.wav").write_bytes(encode_wav(clip))
    corpus = load_corpus(str(tmp_path), PROCESS_RATE)
    # In id order: "a" < "a-b", although "a-b.wav" < "a.wav".
    assert next(corpus).id == "a"
    assert next(corpus).id == "a-b"
    (tmp_path / "b.wav").write_bytes(b"RIFF")  # spoilt after "a" and "a-b" were read
    with pytest.raises(DecodeError, match="b.wav: file too short"):
        next(corpus)


# A child interpreter in which every scipy module is unimportable.
_WITHOUT_SCIPY = """
import sys
from importlib.abc import MetaPathFinder


class RefuseScipy(MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None


sys.meta_path.insert(0, RefuseScipy())

import numpy as np

from ugcaudio import FpConfig, SynthSpec, run_pipeline, synth_corpus, train_logreg

rng = np.random.default_rng(0)
x = rng.normal(size=(60, 3))
y = (x @ [1.0, -2.0, 0.5] + rng.normal(size=60) > 0).astype(np.float64)
model = train_logreg(x, y, c=4.0)
assert np.all(np.isfinite(model.weights)), model
assert (model.predict(x) == y).mean() > 0.8, model

spec = SynthSpec(
    n_events=2,
    clips_per_event=3,
    event_duration=30.0,
    clip_duration_range=(8.0, 12.0),
    min_overlap=4.0,
    snr_range_db=(18.0, 25.0),
    seed=5,
)
clips, _ = synth_corpus(spec)
result = run_pipeline(clips, FpConfig())
assert sorted(len(e.cluster.members) for e in result.events) == [3, 3], result.report
print("ran without scipy")
"""


def test_runs_on_numpy_alone():
    """numpy is the only runtime dependency: the library imports, fits a
    logistic regression and runs the pipeline with scipy unimportable."""
    src = str(Path(ugcaudio.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ran without scipy"
