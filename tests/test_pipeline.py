import weakref

import numpy as np
import pytest

from ugcaudio import (
    PROCESS_RATE,
    AudioClip,
    DecodeError,
    FpConfig,
    SynthSpec,
    encode_wav,
    run_pipeline,
    synth_corpus,
)
from ugcaudio.pipeline import load_corpus


def test_run_pipeline_holds_one_clip_at_a_time():
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
    yielded: list[weakref.ref] = []
    alive_at_next: list[list[str]] = []

    def stream():
        for clip in clips:
            alive_at_next.append([ref().id for ref in yielded if ref() is not None])
            fresh = AudioClip(id=clip.id, samples=clip.samples.copy(), rate=clip.rate)
            yielded.append(weakref.ref(fresh))
            yield fresh
            del fresh

    streamed = run_pipeline(stream(), FpConfig())
    # Before each clip is made, every clip yielded before it is gone.
    assert alive_at_next == [[] for _ in clips]
    assert len(yielded) == len(clips)

    listed = run_pipeline(clips, FpConfig())
    assert streamed.report == listed.report
    assert streamed.durations == {c.id: c.duration for c in clips}


def test_load_corpus_decodes_each_file_when_asked(tmp_path):
    for cid in ("b", "a", "c"):
        clip = AudioClip(id=cid, samples=np.full(600, 0.25), rate=PROCESS_RATE)
        (tmp_path / f"{cid}.wav").write_bytes(encode_wav(clip))
    corpus = load_corpus(str(tmp_path), PROCESS_RATE)
    assert next(corpus).id == "a"
    (tmp_path / "b.wav").write_bytes(b"RIFF")  # spoilt after "a" was read
    with pytest.raises(DecodeError, match="b.wav: file too short"):
        next(corpus)
