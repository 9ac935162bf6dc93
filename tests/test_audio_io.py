import json
import re
import struct

import numpy as np
import pytest

from ugcaudio import (
    AudioClip,
    DecodeError,
    GroundTruth,
    LayoutError,
    PROCESS_RATE,
    SynthSpec,
    decode_wav,
    encode_wav,
    read_clip,
    resample_mono,
    synth_corpus,
)

from _helpers import burst_clip


class TestWavCodec:
    def test_pcm16_round_trip(self):
        clip = burst_clip("rt", duration=1.0, seed=1)
        back = decode_wav(encode_wav(clip), clip_id="rt")
        assert back.rate == clip.rate
        assert len(back.samples) == len(clip.samples)
        # half-step quantization error only
        assert np.max(np.abs(back.samples - clip.samples)) <= 0.5 / 32768 + 1e-9

    def test_encode_clamps_overrange(self):
        clip = AudioClip(id="hot", samples=np.array([0.0, 1.5, -1.5]), rate=8000)
        back = decode_wav(encode_wav(clip))
        assert np.all(back.samples <= 1.0)
        assert np.all(back.samples >= -1.0)

    def test_stereo_downmix_is_channel_mean(self):
        rate = 8000
        left = np.full(100, 0.5)
        right = np.full(100, -0.1)
        frames = np.empty(200)
        frames[0::2] = left
        frames[1::2] = right
        ints = np.round(frames * 32767.0).astype("<i2")
        body = ints.tobytes()
        header = b"RIFF" + struct.pack("<I", 36 + len(body)) + b"WAVE"
        fmt = b"fmt " + struct.pack("<IHHIIHH", 16, 1, 2, rate, rate * 4, 4, 16)
        data = b"data" + struct.pack("<I", len(body)) + body
        clip = decode_wav(header + fmt + data)
        expected = (np.round(0.5 * 32767) + np.round(-0.1 * 32767)) / 2 / 32768.0
        assert clip.samples.shape == (100,)
        assert np.allclose(clip.samples, expected, atol=1e-9)

    @staticmethod
    def pcm16_wav(codes: np.ndarray, channels: int, rate: int = 44100) -> bytes:
        body = codes.astype("<i2").tobytes()
        header = b"RIFF" + struct.pack("<I", 36 + len(body)) + b"WAVE"
        fmt = b"fmt " + struct.pack("<IHHIIHH", 16, 1, channels, rate, rate * 2 * channels, 2 * channels, 16)
        return header + fmt + b"data" + struct.pack("<I", len(body)) + body

    def test_pcm16_every_code_mono(self):
        codes = np.arange(-32768, 32768, dtype=np.int16)
        clip = decode_wav(self.pcm16_wav(codes, 1))
        expect = codes.astype(np.float64) / 32768
        assert np.array_equal(clip.samples, expect)
        assert clip.samples.tobytes() == expect.tobytes()  # signs of zero too

    def test_pcm16_every_code_stereo(self):
        codes = np.arange(-32768, 32768, dtype=np.int16)
        frames = np.empty(2 * len(codes), dtype=np.int16)
        frames[0::2] = codes
        frames[1::2] = np.random.default_rng(0).permutation(codes)
        clip = decode_wav(self.pcm16_wav(frames, 2))
        expect = (frames.astype(np.float64) / 32768).reshape(-1, 2).mean(axis=1)
        assert np.array_equal(clip.samples, expect)
        assert clip.samples.tobytes() == expect.tobytes()

    def test_float32_format_decodes(self):
        rate = 11025
        x = np.linspace(-0.5, 0.5, 64).astype("<f4")
        x[:3] = [1.5, -2.0, 1.0]  # over-range float samples are clipped
        body = x.tobytes()
        header = b"RIFF" + struct.pack("<I", 36 + len(body)) + b"WAVE"
        fmt = b"fmt " + struct.pack("<IHHIIHH", 16, 3, 1, rate, rate * 4, 4, 32)
        data = b"data" + struct.pack("<I", len(body)) + body
        clip = decode_wav(header + fmt + data)
        assert np.allclose(clip.samples, np.clip(x.astype(np.float64), -1.0, 1.0), atol=1e-7)
        assert clip.samples[:3].tolist() == [1.0, -1.0, 1.0]

    @staticmethod
    def float32_wav(samples: np.ndarray, channels: int, rate: int = 11025) -> bytes:
        """A float-32 WAV with a 6-byte LIST chunk before its data chunk."""
        body = samples.astype("<f4").tobytes()
        header = b"RIFF" + struct.pack("<I", 50 + len(body)) + b"WAVE"
        fmt = b"fmt " + struct.pack("<IHHIIHH", 16, 3, channels, rate, rate * 4 * channels, 4 * channels, 32)
        extra = b"LIST" + struct.pack("<I", 6) + b"INFO\0\0"
        return header + fmt + extra + b"data" + struct.pack("<I", len(body)) + body

    def test_float32_infinities_clip_like_over_range_samples(self):
        x = np.array([np.inf, -np.inf, 0.25, 3.0], dtype="<f4")
        assert decode_wav(self.float32_wav(x, 1)).samples.tolist() == [1.0, -1.0, 0.25, 1.0]

    def test_float32_stereo_clips_each_sample_before_the_downmix(self):
        x = np.array([np.inf, -np.inf, 3.0, -1.0, 0.5, 0.25], dtype="<f4")
        assert decode_wav(self.float32_wav(x, 2)).samples.tolist() == [0.0, 0.0, 0.375]

    def test_short_fmt_chunk_is_located_at_its_size(self):
        good = encode_wav(burst_clip("t", duration=0.2, seed=2))
        # A 14-byte fmt chunk: its body ends before bits per sample, and data follows.
        bad = good[:16] + struct.pack("<I", 14) + good[20:34] + good[36:]
        with pytest.raises(DecodeError) as exc:
            decode_wav(bad)
        assert (exc.value.message, exc.value.offset) == ("short fmt chunk (14 bytes, need 16)", 16)

    @pytest.mark.parametrize("channels, index", [(1, 0), (1, 37), (2, 1), (2, 40), (2, 63)])
    def test_float32_nan_refused_at_its_offset(self, channels, index, tmp_path):
        x = np.linspace(-0.5, 0.5, 64)
        x[index] = np.nan
        wav = self.float32_wav(x, channels)
        with pytest.raises(DecodeError) as exc:
            decode_wav(wav)
        body = 12 + 24 + 14 + 8  # RIFF header, fmt chunk, LIST chunk, data chunk header
        assert (exc.value.message, exc.value.offset) == ("NaN sample in float data", body + 4 * index)
        path = tmp_path / "nan.wav"
        path.write_bytes(wav)
        with pytest.raises(DecodeError) as exc:
            read_clip(path, PROCESS_RATE)
        assert str(exc.value) == f"{path}: NaN sample in float data (byte offset {body + 4 * index})"

    def test_bad_magic_reports_offset_zero(self):
        with pytest.raises(DecodeError) as exc:
            decode_wav(b"JUNK" + bytes(40))
        assert exc.value.offset == 0

    def test_truncated_file_raises(self):
        good = encode_wav(burst_clip("t", duration=0.2, seed=2))
        with pytest.raises(DecodeError):
            decode_wav(good[:30])

    def test_decode_error_carries_offset(self):
        good = encode_wav(burst_clip("t", duration=0.2, seed=2))
        bad = bytearray(good)
        bad[8:12] = b"NOPE"  # WAVE tag
        with pytest.raises(DecodeError) as exc:
            decode_wav(bytes(bad))
        assert exc.value.offset == 8

    def test_zero_sample_rate_is_located(self, tmp_path):
        bad = bytearray(encode_wav(burst_clip("t", duration=0.2, seed=2)))
        bad[24:28] = bytes(4)  # fmt sample rate
        with pytest.raises(DecodeError) as exc:
            decode_wav(bytes(bad))
        assert (exc.value.message, exc.value.offset) == ("sample rate 0 in fmt chunk", 24)
        path = tmp_path / "zero.wav"
        path.write_bytes(bytes(bad))
        with pytest.raises(DecodeError) as exc:
            read_clip(path, PROCESS_RATE)
        assert str(exc.value) == f"{path}: sample rate 0 in fmt chunk (byte offset 24)"

    @pytest.mark.parametrize(
        "field, value, message, offset",
        [
            (slice(22, 24), (3).to_bytes(2, "little"), "unsupported channel count 3", 22),
            (slice(20, 22), (2).to_bytes(2, "little"), "unsupported codec (format 2, 16-bit)", 20),
            # A supported tag with a refused depth is located at the bits field.
            (slice(34, 36), (8).to_bytes(2, "little"), "unsupported codec (format 1, 8-bit)", 34),
            (slice(20, 22), (3).to_bytes(2, "little"), "unsupported codec (format 3, 16-bit)", 34),
        ],
    )
    def test_fmt_faults_are_located_at_their_field(self, field, value, message, offset):
        bad = bytearray(encode_wav(burst_clip("t", duration=0.2, seed=2)))
        bad[field] = value
        with pytest.raises(DecodeError) as exc:
            decode_wav(bytes(bad))
        assert (exc.value.message, exc.value.offset) == (message, offset)


class TestResample:
    def test_same_rate_is_copy(self):
        clip = burst_clip("r", duration=0.3, seed=3)
        out = resample_mono(clip, clip.rate)
        assert out.rate == clip.rate
        assert np.array_equal(out.samples, clip.samples)
        assert out.samples is not clip.samples

    def test_length_scales_with_rate(self):
        clip = burst_clip("r", duration=1.0, seed=4, rate=22050)
        out = resample_mono(clip, 11025)
        assert out.rate == 11025
        assert len(out.samples) == round(len(clip.samples) * 11025 / 22050)

    @pytest.mark.parametrize("rate", [22050, 44100, 48000, 88200])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 4411, 22051, 48001])
    def test_matches_integer_time_axes(self, rate, n):
        # The time axes were once int aranges divided into new arrays. The
        # lengths take every residue mod each integer ratio, whose output
        # slices every n-th sample: the same bits, signed zeros included.
        samples = np.random.default_rng(n).uniform(-1.0, 1.0, size=n)
        samples[::3] = -0.0
        out = resample_mono(AudioClip(id="r", samples=samples, rate=rate), 11025)
        n_out = int(round(n * 11025 / rate))
        expect = np.interp(np.arange(n_out) / 11025, np.arange(n) / rate, samples)
        assert np.array_equal(out.samples, expect)
        assert out.samples.tobytes() == expect.tobytes()
        assert out.samples.flags.c_contiguous

    def test_linear_ramp_preserved(self):
        ramp = AudioClip(id="ramp", samples=np.linspace(0.0, 1.0, 1001), rate=1000)
        out = resample_mono(ramp, 500)
        expect = np.linspace(0.0, 1.0, len(out.samples))
        assert np.allclose(out.samples, expect, atol=2e-3)


class TestSynthCorpus:
    SPEC = dict(
        n_events=2,
        clips_per_event=3,
        event_duration=30.0,
        clip_duration_range=(8.0, 12.0),
        min_overlap=4.0,
        snr_range_db=(15.0, 25.0),
        seed=5,
    )

    def test_deterministic(self):
        a, truth_a = synth_corpus(SynthSpec(**self.SPEC))
        b, truth_b = synth_corpus(SynthSpec(**self.SPEC))
        assert [c.id for c in a] == [c.id for c in b]
        for ca, cb in zip(a, b):
            assert np.array_equal(ca.samples, cb.samples)
        assert truth_a.to_doc() == truth_b.to_doc()

    def test_shape_and_ids(self):
        clips, truth = synth_corpus(SynthSpec(**self.SPEC))
        assert len(clips) == 6
        assert sorted(truth.clips) == sorted(c.id for c in clips)
        assert len({truth.event_of(c.id) for c in clips}) == 2

    def test_starts_on_hop_grid(self):
        _, truth = synth_corpus(SynthSpec(**self.SPEC))
        for t in truth.clips.values():
            samples = t.start * PROCESS_RATE
            assert abs(samples - round(samples)) < 1e-6
            assert round(samples) % 256 == 0

    def test_chain_overlap_holds(self):
        clips, truth = synth_corpus(SynthSpec(**self.SPEC))
        by_event: dict[str, list] = {}
        for cid, t in truth.clips.items():
            by_event.setdefault(t.event_id, []).append(t)
        for members in by_event.values():
            members.sort(key=lambda t: t.start)
            for a, b in zip(members, members[1:]):
                overlap = (a.start + a.duration) - b.start
                assert overlap >= self.SPEC["min_overlap"] - 1e-9
            for t in members:
                assert t.start + t.duration <= self.SPEC["event_duration"] + 1e-9

    def test_durations_within_range(self):
        clips, truth = synth_corpus(SynthSpec(**self.SPEC))
        lo, hi = self.SPEC["clip_duration_range"]
        for clip in clips:
            t = truth.clips[clip.id]
            assert lo - 0.05 <= t.duration <= hi + 0.05
            assert abs(clip.duration - t.duration) < 0.05

    def test_infeasible_layout_raises(self):
        bad = dict(self.SPEC)
        bad["event_duration"] = 5.0  # shorter than any clip
        with pytest.raises(LayoutError):
            synth_corpus(SynthSpec(**bad))

    def test_overlap_wider_than_clip_rejected(self):
        bad = dict(self.SPEC)
        bad["min_overlap"] = 9.0  # >= shortest clip
        with pytest.raises(ValueError):
            SynthSpec(**bad)

    def test_repeat_fraction_bounds(self):
        bad = dict(self.SPEC)
        bad["repeat_fraction"] = 0.5
        with pytest.raises(ValueError):
            SynthSpec(**bad)

    def test_peak_below_full_scale(self):
        clips, _ = synth_corpus(SynthSpec(**self.SPEC))
        for clip in clips:
            assert np.max(np.abs(clip.samples)) <= 0.9900001


GOOD_TRUTH = {"event_id": "e", "start": 0, "duration": 9.0, "snr_db": 20.0}


class TestGroundTruthJson:
    def test_round_trip(self):
        _, truth = synth_corpus(SynthSpec(**TestSynthCorpus.SPEC))
        again = GroundTruth.from_doc(json.loads(json.dumps(truth.to_doc())))
        assert again.to_doc() == truth.to_doc()

    @pytest.mark.parametrize(
        "doc, message",
        [
            ([], "manifest: expected an object whose 'clips' is an object"),
            ({"clips": []}, "manifest: expected an object whose 'clips' is an object"),
            ({"clips": {"x": 3}}, "manifest clip 'x': not an object"),
            (
                {"clips": {"x": {"start": 0.0, "duration": 9.0, "snr_db": 20.0}}},
                "manifest clip 'x': missing field 'event_id'",
            ),
            (
                {"clips": {"x": {"event_id": 7, "start": "soon", "duration": -1, "snr_db": None}}},
                "manifest clip 'x': event_id must be a string, got 7",
            ),
            *(
                ({"clips": {"x": {**GOOD_TRUTH, **fault}}}, f"manifest clip 'x': {message}")
                for fault, message in [
                    ({"start": "soon"}, "start must be a finite number, got 'soon'"),
                    ({"snr_db": None}, "snr_db must be a finite number, got None"),
                    ({"duration": True}, "duration must be a finite number, got True"),
                    ({"snr_db": float("nan")}, "snr_db must be a finite number, got nan"),
                    ({"start": float("inf")}, "start must be a finite number, got inf"),
                    ({"start": -0.5}, "start must be at least 0, got -0.5"),
                    ({"duration": -1}, "duration must be above 0, got -1"),
                    ({"duration": 0}, "duration must be above 0, got 0"),
                ]
            ),
            ({"clips": {"x": {**GOOD_TRUTH, "snr": 9}}}, "manifest clip 'x': unknown key 'snr'"),
            ({"clips": {"x": GOOD_TRUTH}, "extra": 1}, "manifest: unknown key 'extra'"),
            # Integers past the float range: "duration": 1 followed by 400 zeros.
            *(
                pytest.param(
                    {"clips": {"x": {**GOOD_TRUTH, key: value}}},
                    f"manifest clip 'x': {key} must be a finite number, got {value}",
                    id=f"{key}-{name}",
                )
                for key, value, name in [("duration", 10**400, "10**400"), ("snr_db", -(10**400), "-10**400")]
            ),
        ],
    )
    def test_malformed_refused_naming_clip_and_field(self, doc, message):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            GroundTruth.from_doc(doc)

    def test_schema_values_load(self):
        doc = {"clips": {"x": GOOD_TRUTH, "y": {**GOOD_TRUTH, "start": 2.5, "duration": 1, "snr_db": -3}}}
        truth = GroundTruth.from_doc(doc)
        assert truth.clips["y"].start == 2.5 and truth.clips["x"].event_id == "e"

    def test_matches_schema(self):
        import jsonschema

        _, truth = synth_corpus(SynthSpec(**TestSynthCorpus.SPEC))
        with open("docs/manifest.schema.json") as f:
            schema = json.load(f)
        jsonschema.validate(json.loads(json.dumps(truth.to_doc())), schema)
