"""WAV decoding, resampling, and synthetic test-corpus generation.

All processing downstream happens at a fixed rate (PROCESS_RATE); decoding
accepts PCM-16 and float-32 RIFF/WAVE files and produces normalized mono
clips. The synthesizer builds events out of amplitude-modulated tonal bursts
so spectrogram peaks are plentiful and reproducible, then cuts overlapping
noisy clips out of each event master and records the exact layout as ground
truth.
"""

from __future__ import annotations

import json
import math
import struct
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

# Fixed processing rate for fingerprinting: small spectrograms, and music
# energy below 5.5 kHz is enough for landmarks.
PROCESS_RATE = 11025


class DecodeError(Exception):
    """Malformed or unsupported WAV input; carries the byte offset of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.message = message
        self.offset = offset


class LayoutError(Exception):
    """Synthetic corpus layout constraints cannot be satisfied."""


@dataclass
class AudioClip:
    """Mono audio: float samples in [-1, 1] at a known sample rate."""

    id: str
    samples: np.ndarray
    rate: int

    @property
    def duration(self) -> float:
        return len(self.samples) / self.rate

    def __post_init__(self):
        if self.rate <= 0:
            raise ValueError(f"rate must be positive, got {self.rate}")
        self.samples = np.asarray(self.samples, dtype=np.float64)


@dataclass
class SynthSpec:
    """Parameters for a synthetic ground-truth corpus.

    ``repeat_fraction`` > 0 appends an exact content repeat (that fraction of
    the event duration, re-using the same burst pattern) inside each event, so
    same-event clip pairs can match at more than one offset.
    ``cross_snippet_seconds`` > 0 copies a short section between pairs of
    events, so cross-event matches (with no true common recording) exist.
    Both default to 0 for a clean corpus.
    """

    n_events: int
    clips_per_event: int
    event_duration: float
    clip_duration_range: tuple[float, float]
    min_overlap: float
    snr_range_db: tuple[float, float]
    seed: int
    repeat_fraction: float = 0.0
    cross_snippet_seconds: float = 0.0

    def __post_init__(self):
        lo, hi = self.clip_duration_range
        if not (0 < lo <= hi):
            raise ValueError("clip_duration_range must be positive and ordered")
        if self.event_duration <= 0:
            raise ValueError("event_duration must be positive")
        if self.min_overlap >= lo:
            raise ValueError("min_overlap must be smaller than the shortest clip")
        if self.snr_range_db[0] > self.snr_range_db[1]:
            raise ValueError("snr_range_db must be ordered (lo, hi)")
        if self.n_events < 1 or self.clips_per_event < 1:
            raise ValueError("need at least one event and one clip per event")
        if not (0.0 <= self.repeat_fraction < 0.5):
            raise ValueError("repeat_fraction must be in [0, 0.5)")


def read_text(path: str) -> str:
    """The UTF-8 text of the file at path; a ValueError names the file when its bytes do not decode."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None


def refuse_unknown_keys(doc: dict, known, where: str) -> None:
    """Refuse the first key of a JSON object that known lacks, naming it and where."""
    for key in doc:
        if key not in known:
            raise ValueError(f"{where}: unknown key {key!r}")


@dataclass
class ClipTruth:
    event_id: str
    start: float  # seconds in the event timeline
    duration: float
    snr_db: float


@dataclass
class GroundTruth:
    """Per-clip layout of a synthetic corpus: event, true start, duration, SNR."""

    clips: dict[str, ClipTruth] = field(default_factory=dict)

    def event_of(self, clip_id: str) -> str:
        return self.clips[clip_id].event_id

    def to_json(self) -> str:
        doc = {cid: asdict(t) for cid, t in sorted(self.clips.items())}
        return json.dumps({"clips": doc}, indent=2, sort_keys=True)

    @classmethod
    def from_doc(cls, doc) -> "GroundTruth":
        """Read to_json's form, parsed; a ValueError names the clip and field at fault.

        Each clip's fields hold what docs/manifest.schema.json states: a
        string event_id and finite numbers start >= 0, duration > 0 and
        snr_db, where an integer past the float range is not finite. A key the schema lacks is refused, at the top or in a clip.
        """
        clips = doc.get("clips") if isinstance(doc, dict) else None
        if not isinstance(clips, dict):
            raise ValueError("manifest: expected an object whose 'clips' is an object")
        refuse_unknown_keys(doc, ("clips",), "manifest")
        truth = cls()
        spec = fields(ClipTruth)
        for cid, t in clips.items():
            if not isinstance(t, dict):
                raise ValueError(f"manifest clip {cid!r}: not an object")
            refuse_unknown_keys(t, [f.name for f in spec], f"manifest clip {cid!r}")
            for f in spec:
                if f.name not in t:
                    raise ValueError(f"manifest clip {cid!r}: missing field {f.name!r}")
            for f in spec:
                value = t[f.name]
                if f.type == "str":  # event_id; annotations are strings in this module
                    if not isinstance(value, str):
                        raise ValueError(f"manifest clip {cid!r}: {f.name} must be a string, got {value!r}")
                elif isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
                    raise ValueError(f"manifest clip {cid!r}: {f.name} must be a finite number, got {value!r}")
            if t["start"] < 0:
                raise ValueError(f"manifest clip {cid!r}: start must be at least 0, got {t['start']!r}")
            if t["duration"] <= 0:
                raise ValueError(f"manifest clip {cid!r}: duration must be above 0, got {t['duration']!r}")
            truth.clips[cid] = ClipTruth(**{f.name: t[f.name] for f in spec})
        return truth


# ----------------------------------------------------------------------------
# WAV decode / encode
# ----------------------------------------------------------------------------

_WAVE_FORMAT_PCM = 1
_WAVE_FORMAT_IEEE_FLOAT = 3


def decode_wav(data: bytes, clip_id: str = "") -> AudioClip:
    """Decode a RIFF/WAVE container into a normalized mono clip.

    Supports PCM 16-bit and IEEE float-32, 1 or 2 channels. Stereo is
    downmixed by channel mean. Raises DecodeError (with the byte offset of
    the problem) on malformed headers, unsupported codecs, or truncated data.
    """
    if len(data) < 12:
        raise DecodeError("file too short for RIFF header", 0)
    if data[0:4] != b"RIFF":
        raise DecodeError("missing RIFF magic", 0)
    if data[8:12] != b"WAVE":
        raise DecodeError("missing WAVE form type", 8)

    fmt = None
    fmt_body = 0
    pos = 12
    while pos + 8 <= len(data):
        chunk_id = data[pos : pos + 4]
        (chunk_size,) = struct.unpack_from("<I", data, pos + 4)
        body = pos + 8
        if chunk_id == b"fmt ":
            if chunk_size < 16:
                raise DecodeError(f"short fmt chunk ({chunk_size} bytes, need 16)", pos + 4)
            if body + 16 > len(data):
                raise DecodeError("truncated fmt chunk", body)
            fmt = struct.unpack_from("<HHIIHH", data, body)
            fmt_body = body
        elif chunk_id == b"data":
            if fmt is None:
                raise DecodeError("data chunk before fmt chunk", pos)
            if body + chunk_size > len(data):
                raise DecodeError("truncated data chunk", body)
            raw = memoryview(data)[body : body + chunk_size]
            return _decode_data(raw, body, fmt, fmt_body, clip_id)
        pos = body + chunk_size + (chunk_size & 1)

    if fmt is None:
        raise DecodeError("no fmt chunk found", pos)
    raise DecodeError("no data chunk found", pos)


def _decode_data(
    raw: memoryview, raw_offset: int, fmt, fmt_offset: int, clip_id: str
) -> AudioClip:
    """The data chunk's samples, whose body starts at byte `raw_offset`, as
    a mono float64 clip in [-1, 1].

    A fault in the fmt chunk, whose body starts at byte `fmt_offset`, is
    located at its field: format tag at +0, channel count at +2, rate at +4,
    and bits per sample at +14 when the tag is supported but its depth is not.

    PCM-16 is converted and scaled in one pass: multiplying by 2**-15 is
    exact, so it gives the bits of astype(float64) / 32768. Its values, and
    a stereo pair's mean, lie in [-1, 32767/32768] and are never -0.0, so
    it is not clipped. Float-32 input is widened and clipped in place
    before any downmix, so +-inf becomes +-1 like any other over-range
    sample and a stereo pair's mean is that of its clipped samples; a NaN
    sample is refused at its byte offset, the body's start plus 4 times its
    index among the interleaved samples.
    """
    audio_format, channels, rate, _, block_align, bits = fmt
    if channels not in (1, 2):
        raise DecodeError(f"unsupported channel count {channels}", fmt_offset + 2)
    if rate == 0:
        raise DecodeError("sample rate 0 in fmt chunk", fmt_offset + 4)
    if audio_format == _WAVE_FORMAT_PCM and bits == 16:
        codes = np.frombuffer(raw[: len(raw) - len(raw) % 2], dtype="<i2")
        samples = np.multiply(codes, 2.0**-15, dtype=np.float64)
    elif audio_format == _WAVE_FORMAT_IEEE_FLOAT and bits == 32:
        samples = np.frombuffer(raw[: len(raw) - len(raw) % 4], dtype="<f4")
        nan = np.flatnonzero(np.isnan(samples))
        if len(nan):
            raise DecodeError("NaN sample in float data", raw_offset + 4 * int(nan[0]))
        samples = samples.astype(np.float64)
        np.clip(samples, -1.0, 1.0, out=samples)
    else:
        field = 14 if audio_format in (_WAVE_FORMAT_PCM, _WAVE_FORMAT_IEEE_FLOAT) else 0
        raise DecodeError(
            f"unsupported codec (format {audio_format}, {bits}-bit)", fmt_offset + field
        )
    if channels == 2:
        samples = samples[: len(samples) - len(samples) % 2]
        samples = samples.reshape(-1, 2).mean(axis=1)
    return AudioClip(id=clip_id, samples=samples, rate=rate)


def encode_wav(clip: AudioClip) -> bytes:
    """Encode a clip as mono 16-bit PCM WAV.

    Scale matches the decoder (1/32768) so a round trip costs only the
    half-step rounding error.
    """
    quantized = np.clip(np.round(clip.samples * 32768.0), -32768, 32767).astype("<i2")
    raw = quantized.tobytes()
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF",
        36 + len(raw),
        b"WAVE",
        b"fmt ",
        16,
        _WAVE_FORMAT_PCM,
        1,
        clip.rate,
        clip.rate * 2,
        2,
        16,
        b"data",
        len(raw),
    )
    return header + raw


# ----------------------------------------------------------------------------
# Resampling
# ----------------------------------------------------------------------------


def resample_mono(clip: AudioClip, target_rate: int) -> AudioClip:
    """Resample by linear interpolation.

    Peak positions, not waveform fidelity, drive matching downstream, so a
    linear interpolator is a documented, deliberate approximation. Identity
    when the rates already agree.

    When the rate is an integer multiple of the target (44.1 -> 11.025 kHz),
    every output time falls on an input sample: k / target and
    step * k / rate are the same real number, so the same double, and
    np.interp returns fp[j] exactly at x == xp[j]. That case takes every
    step-th sample, bit-identical to the interpolation and without its
    time axes.
    """
    if target_rate <= 0:
        raise ValueError(f"target_rate must be positive, got {target_rate}")
    if clip.rate == target_rate:
        return AudioClip(id=clip.id, samples=clip.samples.copy(), rate=clip.rate)
    n_out = int(round(len(clip.samples) * target_rate / clip.rate))
    if clip.rate % target_rate == 0:
        # n_out <= ceil(n / step), so the slice has every wanted sample.
        samples = clip.samples[:: clip.rate // target_rate][:n_out].copy()
        return AudioClip(id=clip.id, samples=samples, rate=target_rate)
    # float64 aranges divided in place: the same values as int aranges
    # divided into new arrays (int -> float64 is exact below 2**53), with
    # one input-length array fewer.
    t_out = np.arange(n_out, dtype=np.float64)
    t_out /= target_rate
    t_in = np.arange(len(clip.samples), dtype=np.float64)
    t_in /= clip.rate
    samples = np.interp(t_out, t_in, clip.samples)
    return AudioClip(id=clip.id, samples=samples, rate=target_rate)


def read_clip(path: Path, rate: int) -> AudioClip:
    """Decode a WAV file, named by its stem, and resample it to `rate`.

    A DecodeError names the file as well as the byte offset of the fault.
    """
    try:
        clip = decode_wav(path.read_bytes(), clip_id=path.stem)
    except DecodeError as exc:
        raise DecodeError(f"{path}: {exc.message}", exc.offset) from None
    if clip.rate != rate:
        clip = resample_mono(clip, rate)
    return clip


# ----------------------------------------------------------------------------
# Synthetic corpus
# ----------------------------------------------------------------------------

# Master-signal texture: bursts/minute range, burst frequency range (Hz),
# burst duration range (s), and the noise floor under everything (dBFS).
_BURSTS_PER_MINUTE = (40, 200)
_BURST_FREQ_HZ = (200.0, 4000.0)
_BURST_DURATION_S = (0.1, 1.0)
_NOISE_FLOOR_DB = -40.0

# STFT hop used downstream; clip starts are snapped to this grid so that true
# offsets are exact frame multiples.
_LAYOUT_HOP = 256


def _synth_master(rng: np.random.Generator, duration: float, rate: int) -> np.ndarray:
    """One event master: amplitude-modulated tonal bursts over a noise floor.

    The slow amplitude modulation gives each burst several temporal maxima,
    which keeps the spectrogram landmark-rich even at modest burst rates.
    """
    n = int(round(duration * rate))
    floor_amp = 10.0 ** (_NOISE_FLOOR_DB / 20.0)
    signal = rng.normal(0.0, floor_amp, size=n)

    per_minute = rng.uniform(*_BURSTS_PER_MINUTE)
    n_bursts = max(1, int(round(per_minute * duration / 60.0)))
    for _ in range(n_bursts):
        freq = rng.uniform(*_BURST_FREQ_HZ)
        b_dur = rng.uniform(*_BURST_DURATION_S)
        amp = rng.uniform(0.1, 0.5)
        start = rng.uniform(0.0, max(duration - b_dur, 0.0))
        i0 = int(start * rate)
        m = min(int(b_dur * rate), n - i0)
        if m <= 0:
            continue
        t = np.arange(m) / rate
        envelope = np.hanning(m) if m > 1 else np.ones(1)
        # 3-6 Hz tremolo: several local maxima per burst.
        tremolo = 1.0 + 0.6 * np.sin(2 * np.pi * rng.uniform(3.0, 6.0) * t + rng.uniform(0, 2 * np.pi))
        tone = amp * np.sin(2 * np.pi * freq * t + rng.uniform(0, 2 * np.pi))
        signal[i0 : i0 + m] += tone * envelope * tremolo
    return signal


def _layout_event(
    rng: np.random.Generator, spec: SynthSpec, rate: int
) -> list[tuple[int, int]]:
    """Pick (start, length) in samples for each clip of one event.

    Starts are sorted, snapped to the analysis hop, and consecutive clips
    overlap by at least ``min_overlap``. Raises LayoutError when a clip
    cannot fit inside the event under those constraints.
    """
    n_event = int(round(spec.event_duration * rate))
    lo, hi = spec.clip_duration_range
    min_ov = int(math.ceil(spec.min_overlap * rate))

    placements: list[tuple[int, int]] = []
    prev_start = 0
    prev_len = 0
    for k in range(spec.clips_per_event):
        length = int(round(rng.uniform(lo, hi) * rate))
        if k == 0:
            start = 0
        else:
            upper = min(prev_start + prev_len - min_ov, n_event - length)
            if upper < prev_start:
                raise LayoutError(
                    f"clip {k} (length {length / rate:.1f}s) cannot overlap its "
                    f"predecessor by {spec.min_overlap}s inside a "
                    f"{spec.event_duration}s event"
                )
            start = int(rng.uniform(prev_start, upper + 1))
            start = (start // _LAYOUT_HOP) * _LAYOUT_HOP
        if start + length > n_event:
            raise LayoutError(
                f"clip {k} (length {length / rate:.1f}s) does not fit in a "
                f"{spec.event_duration}s event"
            )
        placements.append((start, length))
        prev_start, prev_len = start, length
    return placements


def synth_corpus(spec: SynthSpec, rate: int = PROCESS_RATE) -> tuple[list[AudioClip], GroundTruth]:
    """Generate overlapping noisy clips with exact ground truth.

    Deterministic for a fixed seed: same spec + same seed gives byte-identical
    clips and ground truth.
    """
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    masters = [
        _synth_master(rng, spec.event_duration, rate) for _ in range(spec.n_events)
    ]

    if spec.repeat_fraction > 0.0:
        for master in masters:
            n = len(master)
            w = int(n * spec.repeat_fraction)
            src = int(rng.uniform(0, n // 2 - w)) if n // 2 - w > 0 else 0
            # Overwrite the second half with a copy of an earlier section.
            dst = n - w
            master[dst : dst + w] = master[src : src + w]

    if spec.cross_snippet_seconds > 0.0 and spec.n_events >= 2:
        w = int(spec.cross_snippet_seconds * rate)
        for a in range(0, spec.n_events - 1, 2):
            src_master, dst_master = masters[a], masters[a + 1]
            m = min(len(src_master), len(dst_master))
            if w >= m // 2:
                raise LayoutError("cross_snippet_seconds too long for event duration")
            at = m // 2  # middle of the event, where clip coverage is likely
            dst_master[at : at + w] = src_master[at : at + w]

    clips: list[AudioClip] = []
    truth = GroundTruth()
    for e, master in enumerate(masters):
        event_id = f"event{e:02d}"
        placements = _layout_event(rng, spec, rate)
        for c, (start, length) in enumerate(placements):
            snr_db = float(rng.uniform(*spec.snr_range_db))
            cut = master[start : start + length].copy()
            sig_power = float(np.mean(cut**2))
            noise_power = sig_power / (10.0 ** (snr_db / 10.0))
            cut += rng.normal(0.0, math.sqrt(noise_power), size=length)
            peak = float(np.max(np.abs(cut)))
            if peak > 0.99:
                cut *= 0.99 / peak  # rescaling keeps the SNR intact
            clip_id = f"{event_id}_c{c:02d}"
            clips.append(AudioClip(id=clip_id, samples=cut, rate=rate))
            truth.clips[clip_id] = ClipTruth(
                event_id=event_id,
                start=start / rate,
                duration=length / rate,
                snr_db=snr_db,
            )
    return clips, truth
