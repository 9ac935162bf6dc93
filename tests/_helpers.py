"""Shared test utilities: tone clips, tiny corpora, partition comparison."""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from ugcaudio import AudioClip, FpConfig, PROCESS_RATE, clip_fingerprint, thin_peaks
from ugcaudio.fingerprint import _pick_candidates


def burst_clip(
    clip_id: str,
    duration: float = 5.0,
    seed: int = 0,
    rate: int = PROCESS_RATE,
    noise_db: float = -35.0,
) -> AudioClip:
    """Random tonal bursts over a light noise floor; fingerprints well."""
    rng = np.random.default_rng(seed)
    n = int(round(duration * rate))
    t = np.arange(n) / rate
    x = 10.0 ** (noise_db / 20.0) * rng.standard_normal(n)
    for _ in range(max(3, int(duration * 2.5))):
        f = rng.uniform(300.0, 3500.0)
        start = rng.uniform(0.0, max(duration - 0.4, 0.01))
        length = int(rng.uniform(0.15, 0.4) * rate)
        i0 = int(start * rate)
        i1 = min(i0 + length, n)
        seg = np.arange(i1 - i0) / rate
        env = np.hanning(i1 - i0)
        trem = 1.0 + 0.5 * np.sin(2 * np.pi * rng.uniform(3.0, 6.0) * seg)
        x[i0:i1] += 0.5 * env * trem * np.sin(2 * np.pi * f * seg)
    peak = np.max(np.abs(x))
    if peak > 0:
        x = 0.9 * x / peak
    return AudioClip(id=clip_id, samples=x, rate=rate)


def melody_clip(
    clip_id: str,
    duration: float = 8.0,
    seed: int = 0,
    rate: int = PROCESS_RATE,
    floor_db: float = -110.0,
) -> AudioClip:
    """Gapless polyphonic note sequence over a near-silent floor.

    Every note leaves one magnitude peak per voice at its envelope maximum,
    so the clean clip's peak count stays well under the density cap and no
    genuine peak is rationed away. That makes shared-landmark counts between
    noisy copies reflect peak survival rather than which peaks made the cap.
    """
    rng = np.random.default_rng(seed)
    n = int(round(duration * rate))
    x = 10.0 ** (floor_db / 20.0) * rng.standard_normal(n)
    pos = 0
    while pos < n:
        length = int(rng.uniform(0.08, 0.2) * rate)
        i1 = min(pos + length, n)
        m = i1 - pos
        t = np.arange(m) / rate
        env = np.sin(np.pi * np.arange(m) / m) ** 0.5
        note = np.zeros(m)
        for _ in range(int(rng.integers(3, 7))):
            f = rng.uniform(250.0, 4000.0)
            note += rng.uniform(0.4, 1.0) * np.sin(2 * np.pi * f * t + rng.uniform(0.0, 6.0))
        x[pos:i1] += env * note
        pos = i1
    return AudioClip(id=clip_id, samples=0.9 * x / np.max(np.abs(x)), rate=rate)


def snip(clip: AudioClip, start_s: float, dur_s: float, new_id: str) -> AudioClip:
    i0 = int(round(start_s * clip.rate))
    i1 = i0 + int(round(dur_s * clip.rate))
    return AudioClip(id=new_id, samples=clip.samples[i0:i1].copy(), rate=clip.rate)


def add_noise(clip: AudioClip, snr_db: float, seed: int) -> AudioClip:
    """Additive white noise at the requested SNR, peak kept below 1."""
    rng = np.random.default_rng(seed)
    sig_pow = float(np.mean(clip.samples**2))
    noise = rng.standard_normal(len(clip.samples))
    noise *= np.sqrt(sig_pow / 10.0 ** (snr_db / 10.0) / np.mean(noise**2))
    x = clip.samples + noise
    peak = np.max(np.abs(x))
    if peak > 0.999:
        x = 0.999 * x / peak
    return AudioClip(id=clip.id, samples=x, rate=clip.rate)


def candidates_of(clips: dict[str, AudioClip], cfg: FpConfig) -> dict[str, np.ndarray]:
    """Per-clip peak candidates, the input segment_quality ranks from."""
    return {cid: clip_fingerprint(clip, cfg)[1] for cid, clip in clips.items()}


def spectrum_candidates(spec: np.ndarray, cfg: FpConfig) -> np.ndarray:
    """The picker's candidates of an arbitrary spectrogram, fed to it row block by row block."""
    return _pick_candidates(lambda lo, hi, out: np.copyto(out, spec[lo:hi]), spec.shape, cfg)


def spectrum_peaks(spec: np.ndarray, cfg: FpConfig) -> np.ndarray:
    """spectrum_candidates thinned over the whole spectrogram, as extract_peaks thins a clip's."""
    return thin_peaks(spectrum_candidates(spec, cfg), 0, spec.shape[0], cfg)


def reference_peaks(spec, cfg, f0=0, f1=None):
    """Peak-picking oracle: holed 7x7 maximum filter, floor, top-N in frames [f0, f1)."""
    f1 = spec.shape[0] if f1 is None else f1
    if f1 <= f0:
        return []
    footprint = np.ones((7, 7), dtype=bool)
    footprint[3, 3] = False
    neighborhood_max = ndimage.maximum_filter(
        spec, footprint=footprint, mode="constant", cval=-np.inf
    )
    mask = (spec > neighborhood_max) & (spec > cfg.log_floor + 1.0)
    mask[:f0] = False
    mask[f1:] = False
    frames_idx, bins_idx = np.nonzero(mask)
    duration = ((f1 - f0 - 1) * cfg.hop + cfg.window) / cfg.rate
    limit = max(1, int(round(cfg.peak_density * duration)))
    mags = spec[frames_idx, bins_idx]
    order = np.lexsort((bins_idx, frames_idx, -mags))[:limit]
    return sorted((int(frames_idx[i]), int(bins_idx[i])) for i in order)


def small_cfg() -> FpConfig:
    return FpConfig()


def rand_index(labels_a: dict[str, str], labels_b: dict[str, str]) -> float:
    """Pairwise agreement of two partitions over the same id set."""
    ids = sorted(labels_a)
    assert sorted(labels_b) == ids
    agree = 0
    total = 0
    for i, x in enumerate(ids):
        for y in ids[i + 1 :]:
            same_a = labels_a[x] == labels_a[y]
            same_b = labels_b[x] == labels_b[y]
            agree += same_a == same_b
            total += 1
    return agree / total if total else 1.0


def pm_of(positions: dict[str, float]):
    """PositionMap over already-normalized positions, for segmentation tests."""
    from ugcaudio import PositionMap

    rep = sorted(positions)[0]
    return PositionMap(
        representative=rep,
        earliest=min(positions, key=lambda c: (positions[c], c)),
        positions=dict(positions),
    )


def sweep_oracle_ms(pos_ms: dict[str, int], dur_ms: dict[str, int]):
    """Literal 1 ms sweep: active set per millisecond cell, runs -> segments.

    Independent of build_segments: walks every cell of an integer-millisecond
    layout and groups identical consecutive active sets.
    """
    ids = sorted(pos_ms)
    hi = max(pos_ms[c] + dur_ms[c] for c in ids)
    t = np.arange(0, hi + 1)
    active = np.stack(
        [(pos_ms[c] <= t) & (t + 1 <= pos_ms[c] + dur_ms[c]) for c in ids]
    )  # (clips, cells)
    segments = []
    start = None
    prev = None
    for cell in range(hi + 1):
        col = tuple(active[:, cell])
        if col != prev:
            if prev is not None and any(prev):
                segments.append((start, cell, [c for c, on in zip(ids, prev) if on]))
            start = cell
            prev = col
    if prev is not None and any(prev):
        segments.append((start, hi + 1, [c for c, on in zip(ids, prev) if on]))
    # drop the trailing all-off run ending at hi+1
    return [s for s in segments if s[0] < hi]


def random_layout(rng: np.random.Generator, max_clips: int = 10):
    """Integer-millisecond clip layout: ({id: start_ms}, {id: duration_ms})."""
    n = int(rng.integers(1, max_clips + 1))
    ids = [f"c{i:02d}" for i in range(n)]
    pos_ms = {c: int(rng.integers(0, 15000)) for c in ids}
    dur_ms = {c: int(rng.integers(1, 12000)) for c in ids}
    return pos_ms, dur_ms


def check_layout_against_oracle(pos_ms: dict[str, int], dur_ms: dict[str, int]) -> None:
    """Assert build_segments agrees with the millisecond sweep boundary-for-boundary."""
    from ugcaudio import build_segments

    pm = pm_of({c: pos_ms[c] / 1000.0 for c in pos_ms})
    got = build_segments(pm, {c: dur_ms[c] / 1000.0 for c in dur_ms})
    want = sweep_oracle_ms(pos_ms, dur_ms)
    assert len(got) == len(want), (pos_ms, dur_ms)
    for seg, (t0, t1, members) in zip(got, want):
        assert abs(seg.t_start - t0 / 1000.0) < 1e-9
        assert abs(seg.t_end - t1 / 1000.0) < 1e-9
        assert [cut.clip_id for cut in seg.members] == members
        for cut in seg.members:
            assert abs(cut.local_start - (t0 - pos_ms[cut.clip_id]) / 1000.0) < 1e-9
            assert abs(cut.local_end - (t1 - pos_ms[cut.clip_id]) / 1000.0) < 1e-9
