import math
import re
import tracemalloc
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy import ndimage
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from ugcaudio import (
    LANDMARK_KEYS,
    AudioClip,
    FingerprintIndex,
    FpConfig,
    clip_fingerprint,
    extract_peaks,
    fingerprint_clip,
    hash_landmarks,
    load_config,
    offset_zero_votes,
    pair_landmarks,
    parse_config,
    peak_candidates,
    query,
    spectrogram,
    thin_peaks,
)
from ugcaudio import fingerprint
from ugcaudio.fingerprint import _merge_offset_bins

from _helpers import burst_clip, reference_peaks, snip

# Few distinct levels make ties everywhere; sides under 7 clip the window.
TIE_HEAVY_SPECS = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=24),
    elements=st.sampled_from([-10.0, -9.0, -8.5, -4.0, -4.0, 0.0]),
)


class TestConfig:
    def test_defaults_valid(self):
        cfg = FpConfig()
        assert cfg.rate == 11025 and cfg.window == 512 and cfg.hop == 256

    @pytest.mark.parametrize(
        "kw",
        [
            {"window": 500},
            {"hop": 0},
            {"hop": 1024},
            {"match_threshold": 0},
            {"fanout": 0},
            {"peak_density": 0.0},
            {"offset_merge": -1},
            {"density_multiplier": 0.0},
            {"rate": 0},
            {"rate": -11025},
            {"consistency_eps": -1.0},
            {"offset_merge": 2**32},
            {"offset_merge": 2**63 - 1},
            {"offset_merge": 10**30},
        ],
    )
    def test_invalid_rejected(self, kw):
        with pytest.raises(ValueError):
            FpConfig(**kw)

    def test_largest_offset_merge_and_zero_eps_accepted(self):
        FpConfig(offset_merge=2**32 - 1, consistency_eps=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("key", ["log_floor", "peak_density", "density_multiplier", "consistency_eps"])
    def test_non_finite_floats_rejected(self, key, value):
        message = re.escape(f"{key} must be finite, got {value!r}")
        with pytest.raises(ValueError, match=message):
            FpConfig(**{key: value})
        with pytest.raises(ValueError, match=message):
            parse_config(f"{key} = {value!r}\n")

    @pytest.mark.parametrize(
        "kw, message",
        [
            ({"dt_min": 0}, "dt_min must be in [1, 63], got 0"),
            ({"dt_max": 100}, "dt_max must be in [1, 63], got 100"),
            ({"dt_min": 10, "dt_max": 5}, "dt_min = 10 exceeds dt_max = 5"),
            ({"df_min": -64}, "df_min must be in [-63, 63], got -64"),
            ({"df_max": 120}, "df_max must be in [-63, 63], got 120"),
            ({"df_min": 4, "df_max": -4}, "df_min = 4 exceeds df_max = -4"),
        ],
    )
    def test_deltas_outside_key_budget_rejected(self, kw, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            FpConfig(**kw)

    def test_compatibility_ignores_matching_params(self):
        a = FpConfig()
        a.compatible_with(FpConfig(match_threshold=9, offset_merge=0, density_multiplier=2.0))
        with pytest.raises(ValueError, match="fanout = 5 differs .* fanout = 3"):
            FpConfig(fanout=5).compatible_with(a)
        with pytest.raises(ValueError, match="hop = 128 differs .* hop = 256"):
            FpConfig(hop=128).compatible_with(a)

    @pytest.mark.parametrize("key", LANDMARK_KEYS)
    def test_every_landmark_key_must_match(self, key):
        # Doubling would take the delta bounds outside the key budget.
        halved = {"dt_max": 31, "df_min": -31, "df_max": 31}
        other = replace(FpConfig(), **{key: halved.get(key, getattr(FpConfig(), key) * 2)})
        with pytest.raises(ValueError, match=f"^{key} = "):
            other.compatible_with(FpConfig())

    def test_file_sets_every_field(self, tmp_path):
        want = FpConfig(
            rate=22050, window=1024, hop=512, log_floor=-8.5, peak_density=12.5,
            fanout=4, dt_min=2, dt_max=40, df_min=-30, df_max=31, match_threshold=7,
            offset_merge=2, density_multiplier=2.5, consistency_eps=0.25,
        )
        assert len(fields(FpConfig)) == 14
        assert all(getattr(want, f.name) != f.default for f in fields(FpConfig))
        path = tmp_path / "run.cfg"
        path.write_text(
            "# every key\n\n" + "".join(f"{f.name} = {getattr(want, f.name)}\n" for f in fields(FpConfig))
        )
        assert load_config(str(path)) == want

    def test_unset_keys_keep_defaults(self):
        assert parse_config("hop = 128\n# fanout = 9\n") == FpConfig(hop=128)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("hop = 256\nfanout = three\n", "config line 2: fanout expects int, got 'three'"),
            ("\n# c\npeak_density = dense\n", "config line 3: peak_density expects float"),
            ("window = 512.0", "config line 1: window expects int"),
            ("hop 256", "config line 1: expected 'key = value'"),
            ("seed = 3", "config line 1: unknown key 'seed'"),
            ("fanout = 3\n\nfanout = 5\n", "config line 3: fanout already set on line 1"),
        ],
    )
    def test_bad_line_is_named(self, text, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_config(text)


class TestSpectrogram:
    def test_frame_count(self):
        cfg = FpConfig()
        clip = burst_clip("s", duration=2.0, seed=0)
        spec = spectrogram(clip, cfg)
        expected = (len(clip.samples) - cfg.window) // cfg.hop + 1
        assert spec.shape == (expected, cfg.window // 2 + 1)

    def test_blocks_match_one_batch_stft(self):
        cfg = FpConfig()
        clip = burst_clip("s", duration=8.0, seed=4)  # 343 frames, 11 FFT calls of _STFT_ROWS frames
        strided = np.lib.stride_tricks.sliding_window_view(clip.samples, cfg.window)[:: cfg.hop]
        with np.errstate(divide="ignore"):
            whole = np.log(np.abs(np.fft.rfft(strided * np.hanning(cfg.window), axis=1)))
        assert np.array_equal(spectrogram(clip, cfg), np.maximum(whole, cfg.log_floor))

    def test_log_floor_applied(self):
        cfg = FpConfig()
        silent = AudioClip(id="z", samples=np.zeros(4096), rate=cfg.rate)
        spec = spectrogram(silent, cfg)
        assert np.all(spec == cfg.log_floor)

    def test_rate_mismatch_raises(self):
        clip = burst_clip("s", duration=1.0, seed=0, rate=22050)
        with pytest.raises(ValueError):
            spectrogram(clip, FpConfig())

    def test_too_short_raises(self):
        cfg = FpConfig()
        clip = AudioClip(id="tiny", samples=np.zeros(cfg.window - 1), rate=cfg.rate)
        with pytest.raises(ValueError):
            spectrogram(clip, cfg)


class TestPeaks:
    def test_strict_local_maxima(self):
        cfg = FpConfig()
        clip = burst_clip("p", duration=3.0, seed=1)
        spec = spectrogram(clip, cfg)
        peaks = extract_peaks(spec, cfg)
        assert len(peaks) > 0
        for frame, b in peaks.tolist():
            lo_f, hi_f = max(0, frame - 3), min(spec.shape[0], frame + 4)
            lo_b, hi_b = max(0, b - 3), min(spec.shape[1], b + 4)
            patch = spec[lo_f:hi_f, lo_b:hi_b]
            assert spec[frame, b] == patch.max()
            assert (patch == patch.max()).sum() == 1

    def test_density_cap(self):
        cfg = FpConfig()
        clip = burst_clip("p", duration=4.0, seed=2)
        spec = spectrogram(clip, cfg)
        duration = ((spec.shape[0] - 1) * cfg.hop + cfg.window) / cfg.rate
        peaks = extract_peaks(spec, cfg)
        assert len(peaks) <= round(cfg.peak_density * duration)

    def test_planted_deltas_found(self):
        cfg = FpConfig()
        spec = np.full((40, 257), cfg.log_floor)
        planted = [(5, 30), (5, 100), (20, 60), (35, 200)]
        for f, b in planted:
            spec[f, b] = 0.0
        peaks = extract_peaks(spec, cfg)
        assert [tuple(p) for p in peaks.tolist()] == sorted(planted)

    def test_keeps_strongest_when_over_budget(self):
        cfg = FpConfig(peak_density=20.0)
        spec = np.full((40, 257), cfg.log_floor)
        # ~1.0 s of frames -> budget 20; plant 30 with known magnitudes
        mags = np.linspace(-5.0, -1.0, 30)
        spots = [(4 * (i % 10) + 2, 8 * (i // 10) + 30) for i in range(30)]
        for (f, b), m in zip(spots, mags):
            spec[f, b] = m
        peaks = extract_peaks(spec, cfg)
        duration = ((40 - 1) * cfg.hop + cfg.window) / cfg.rate
        budget = round(cfg.peak_density * duration)
        got = {tuple(p) for p in peaks.tolist()}
        expect = {s for s, m in zip(spots, mags) if m >= mags[30 - budget]}
        assert got == expect

    @given(
        spec=TIE_HEAVY_SPECS,
        density=st.sampled_from([2.0, 20.0, 200.0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_maximum_filter_definition(self, spec, density):
        cfg = FpConfig(peak_density=density)
        got = [tuple(p) for p in extract_peaks(spec, cfg).tolist()]
        assert got == reference_peaks(spec, cfg)

    @given(
        spec=TIE_HEAVY_SPECS,
        density=st.sampled_from([2.0, 20.0, 200.0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_whole_range_thinning_is_extract_peaks(self, spec, density):
        cfg = FpConfig(peak_density=density)
        candidates = peak_candidates(spec, cfg)
        assert candidates.dtype == np.int32
        whole = thin_peaks(candidates, 0, spec.shape[0], cfg)
        assert whole.tolist() == extract_peaks(spec, cfg).tolist()
        assert [tuple(p) for p in whole.tolist()] == reference_peaks(spec, cfg)

    @given(
        spec=TIE_HEAVY_SPECS,
        density=st.sampled_from([2.0, 5.0, 20.0, 200.0]),
        f0=st.integers(0, 30),
        f1=st.integers(0, 30),
    )
    # Candidates at frames 0, 4 and 8, strongest first; the window leaves out
    # frame 0 and its 11 frames budget one peak (12 frames would budget two).
    @example(
        spec=np.array([[0.0], [-9.5], [-9.5], [-9.5], [-1.0], [-9.5], [-9.5], [-9.5], [-2.0], [-9.5], [-9.5]]),
        density=5.0,
        f0=4,
        f1=15,
    )
    @settings(max_examples=200, deadline=None)
    def test_window_thinning_matches_oracle(self, spec, density, f0, f1):
        # Peaks are picked on the whole spectrogram, then restricted to the window.
        cfg = FpConfig(peak_density=density)
        got = thin_peaks(peak_candidates(spec, cfg), f0, f1, cfg)
        assert [tuple(p) for p in got.tolist()] == reference_peaks(spec, cfg, f0, f1)


# Frames per peak-picking block.
BLOCK = fingerprint._FRAME_BLOCK


class TestBlockedPeaks:
    """Peak candidates over several frame blocks against the whole-spectrogram oracle."""

    @staticmethod
    def oracle_candidates(spec, cfg):
        footprint = np.ones((7, 7), dtype=bool)
        footprint[3, 3] = False
        holed = ndimage.maximum_filter(spec, footprint=footprint, mode="constant", cval=-np.inf)
        frames_idx, bins_idx = np.nonzero((spec > holed) & (spec > cfg.log_floor + 1.0))
        order = np.lexsort((bins_idx, frames_idx, -spec[frames_idx, bins_idx]))
        return [(int(frames_idx[i]), int(bins_idx[i])) for i in order]

    @pytest.mark.parametrize("n_frames", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_tie_heavy_matches_oracle(self, n_frames, seed):
        cfg = FpConfig()
        levels = np.array([-10.0, -9.0, -8.5, -4.0, -4.0, 0.0])
        spec = np.random.default_rng(seed).choice(levels, size=(n_frames, 40))
        got = [tuple(p) for p in peak_candidates(spec, cfg).tolist()]
        assert got == self.oracle_candidates(spec, cfg)

    # (frames, frames loud from the start). With a loud start, the rows past
    # the end of the short last block must not keep an earlier block's frames.
    @pytest.mark.parametrize(
        "n_frames, loud",
        [pytest.param(n, 0, id=str(n)) for n in (BLOCK + 2, BLOCK + 4, 2 * BLOCK + 3)]
        + [pytest.param(BLOCK + 2, BLOCK - 4, id=f"{BLOCK + 2}-loud-start")],
    )
    def test_peaks_planted_at_block_edges(self, n_frames, loud):
        cfg = FpConfig()
        spec = np.full((n_frames, 60), cfg.log_floor)
        spec[:loud] = 1.0  # level everywhere, so no candidate of its own
        # Strict peaks on the frames either side of the boundary, and a pair
        # tied across it, which neither may win.
        for frame, b, level in [
            (BLOCK - 1, 5, -2.0), (BLOCK, 20, -1.0), (BLOCK + 1, 35, -3.0),
            (BLOCK - 1, 50, 0.0), (BLOCK, 52, 0.0),
        ]:
            spec[frame, b] = level
        # A peak whose only rival sits in the next block's halo.
        spec[BLOCK - 3, 10] = -5.0
        spec[BLOCK, 12] = -4.0
        got = [tuple(p) for p in peak_candidates(spec, cfg).tolist()]
        assert got == self.oracle_candidates(spec, cfg)
        assert {(BLOCK - 1, 5), (BLOCK, 20), (BLOCK + 1, 35)} <= set(got)
        assert (BLOCK - 1, 50) not in got and (BLOCK, 52) not in got
        assert (BLOCK - 3, 10) not in got and (BLOCK, 12) in got


def piecewise_clip(n_frames, kinds, extra, seed, cfg):
    """A clip of n_frames frames (plus `extra` samples) in equal pieces.

    A "silent" piece floors every bin; a "periodic" one repeats a 128-sample
    pattern, which divides the hop, so its frames are identical and tie in
    time; a "noise" piece draws from a few levels.
    """
    n = (n_frames - 1) * cfg.hop + cfg.window + extra
    rng = np.random.default_rng(seed)
    x = np.zeros(n)
    for idx, kind in zip(np.array_split(np.arange(n), len(kinds)), kinds):
        if kind == "periodic":
            x[idx] = np.resize(rng.choice([-0.5, 0.0, 0.5], size=cfg.hop // 2), len(idx))
        elif kind == "noise":
            x[idx] = rng.choice([-0.5, 0.0, 0.25, 0.5], size=len(idx))
    return AudioClip(id="piecewise", samples=x, rate=cfg.rate)


class TestStreamedFingerprint:
    """clip_fingerprint streams the STFT into the picker; the result is the whole-spectrogram one."""

    @given(
        n_frames=st.sampled_from([1, 3, *range(BLOCK - 1, BLOCK + 7), *range(2 * BLOCK - 1, 2 * BLOCK + 7)]),
        kinds=st.lists(st.sampled_from(["silent", "periodic", "noise"]), min_size=1, max_size=5),
        extra=st.integers(0, 255),
        seed=st.integers(0, 2**16),
    )
    @example(n_frames=BLOCK + 3, kinds=["noise", "periodic", "silent", "noise"], extra=0, seed=0)
    # A short last block ending on noise, after a block that began with noise.
    @example(n_frames=BLOCK + 2, kinds=["noise", "silent", "silent", "noise"], extra=0, seed=0)
    @settings(max_examples=80, deadline=None)
    def test_equals_picking_the_whole_spectrogram(self, n_frames, kinds, extra, seed):
        cfg = FpConfig()
        clip = piecewise_clip(n_frames, kinds, extra, seed, cfg)
        hashed, candidates = clip_fingerprint(clip, cfg)
        spec = spectrogram(clip, cfg)
        want = peak_candidates(spec, cfg)
        assert candidates.dtype == want.dtype and np.array_equal(candidates, want)
        assert [tuple(p) for p in candidates.tolist()] == TestBlockedPeaks.oracle_candidates(spec, cfg)
        assert np.array_equal(hashed, hash_landmarks(fingerprint_clip(clip, cfg)))

    @pytest.mark.parametrize("n_frames", [1, 3, BLOCK + 2, 2 * BLOCK + 6])
    def test_silent_clip_has_no_candidate(self, n_frames):
        cfg = FpConfig()
        hashed, candidates = clip_fingerprint(piecewise_clip(n_frames, ["silent"], 0, 0, cfg), cfg)
        assert candidates.shape == (0, 2) and hashed.shape == (0, 2)

    def test_shorter_than_one_window_gives_two_empty_arrays(self):
        cfg = FpConfig()
        clip = AudioClip(id="tiny", samples=np.ones(cfg.window - 1), rate=cfg.rate)
        hashed, candidates = clip_fingerprint(clip, cfg)
        assert hashed.shape == (0, 2) and hashed.dtype == np.int64
        assert candidates.shape == (0, 2) and candidates.dtype == np.int32

    def test_holds_less_than_one_whole_spectrogram(self):
        cfg = FpConfig()
        clip = burst_clip("long", duration=40.0, seed=3)
        frames = (len(clip.samples) - cfg.window) // cfg.hop + 1
        whole = frames * (cfg.window // 2 + 1) * 8  # 3.5 MB of float64
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            clip_fingerprint(clip, cfg)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < whole


def _brute_force_pairs(peaks, cfg):
    """Independent landmark oracle: all pairs in window, fanout nearest."""
    out = []
    ordered = sorted(tuple(p) for p in peaks.tolist())
    for i, (a_frame, a_bin) in enumerate(ordered):
        if a_bin > 255:
            continue
        partners = []
        for b_frame, b_bin in ordered[i + 1 :]:
            dt = b_frame - a_frame
            df = b_bin - a_bin
            if cfg.dt_min <= dt <= cfg.dt_max and cfg.df_min <= df <= cfg.df_max and b_bin <= 255:
                partners.append((a_frame, a_bin, b_bin, dt))
            if len(partners) == cfg.fanout:
                break
        out.extend(partners)
    return out


def _window(lo, hi):
    """An ordered (low, high) pair of bounds, drawn from [lo, hi]."""
    return st.tuples(st.integers(lo, hi), st.integers(lo, hi)).map(sorted)


class TestLandmarks:
    @given(
        st.lists(
            st.tuples(st.integers(0, 120), st.integers(0, 256)),
            min_size=0,
            max_size=60,
            unique=True,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_pairing_matches_brute_force(self, spots):
        cfg = FpConfig()
        peaks = np.array(sorted(spots), dtype=np.int64).reshape(-1, 2)
        got = [tuple(lm) for lm in pair_landmarks(peaks, cfg).tolist()]
        assert got == _brute_force_pairs(peaks, cfg)

    @given(
        n_peaks=st.integers(0, 400),
        n_frames=st.integers(1, 160),
        seed=st.integers(0, 2**16),
        fanout=st.integers(1, 6),
        dt=_window(1, 63),
        df=_window(-63, 63),
    )
    # Dense peaks and a narrow bin window: anchors scan far past 16 partners.
    @example(n_peaks=400, n_frames=40, seed=0, fanout=6, dt=[1, 63], df=[-3, 3])
    @example(n_peaks=400, n_frames=100, seed=1, fanout=2, dt=[5, 20], df=[10, 20])
    @settings(max_examples=80, deadline=None)
    def test_pairing_matches_brute_force_under_any_windows(self, n_peaks, n_frames, seed, fanout, dt, df):
        """Up to 400 peaks, several to a frame, under any fan-out and dt/df windows."""
        cfg = FpConfig(fanout=fanout, dt_min=dt[0], dt_max=dt[1], df_min=df[0], df_max=df[1])
        n_bins = 270  # bins past 255 are neither anchors nor partners
        cells = np.random.default_rng(seed).choice(n_frames * n_bins, min(n_peaks, n_frames * n_bins), replace=False)
        peaks = np.stack(np.divmod(np.sort(cells), n_bins), axis=1)  # sorted by (frame, bin)
        got = [tuple(lm) for lm in pair_landmarks(peaks, cfg).tolist()]
        assert got == _brute_force_pairs(peaks, cfg)

    @pytest.mark.parametrize("density", [20.0, 60.0])
    def test_thinned_clip_peaks_match_brute_force(self, density):
        """A 40 s clip's thinned peaks, at the matching and at the quality density."""
        cfg = FpConfig(peak_density=density)
        clip = burst_clip("long", duration=40.0, seed=3)
        spec = spectrogram(clip, cfg)
        peaks = thin_peaks(peak_candidates(spec, cfg), 0, len(spec), cfg)
        assert len(peaks) >= 0.9 * density * 40
        got = [tuple(lm) for lm in pair_landmarks(peaks, cfg).tolist()]
        assert got == _brute_force_pairs(peaks, cfg)

    def test_windows_and_fanout_respected(self):
        cfg = FpConfig(fanout=2)
        clip = burst_clip("l", duration=3.0, seed=3)
        lms = fingerprint_clip(clip, cfg)
        assert len(lms) > 0
        anchors = {}
        for t1, f1, f2, dt in lms.tolist():
            assert cfg.dt_min <= dt <= cfg.dt_max
            assert cfg.df_min <= f2 - f1 <= cfg.df_max
            assert 0 <= f1 <= 255 and 0 <= f2 <= 255
            anchors[(t1, f1)] = anchors.get((t1, f1), 0) + 1
        assert max(anchors.values()) <= 2


class TestKeys:
    def test_corner_values(self):
        assert hash_landmarks(np.array([[0, 0, -63 + 0, 1]]))[0, 0] == 1
        assert hash_landmarks(np.array([[0, 255, 255 + 63, 63]]))[0, 0] == 2_097_087

    @given(
        f1=st.integers(0, 255),
        df=st.integers(-63, 63),
        dt=st.integers(1, 63),
    )
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, f1, df, dt):
        key, t1 = hash_landmarks(np.array([[7, f1, f1 + df, dt]]))[0].tolist()
        assert t1 == 7
        # f1 in bits 13-20, df + 63 in bits 6-12, dt in bits 0-5: one-to-one.
        assert (key >> 13, ((key >> 6) & 0x7F) - 63, key & 0x3F) == (f1, df, dt)
        assert 0 <= key < 2**21

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            hash_landmarks(np.array([[0, 256, 200, 5]]))
        with pytest.raises(ValueError):
            hash_landmarks(np.array([[0, 10, 10 + 64, 5]]))
        with pytest.raises(ValueError):
            hash_landmarks(np.array([[0, 10, 12, 0]]))

    def test_wide_bin_delta_rejected_at_hashing(self):
        # The config refuses deltas outside the key budget; hashing still
        # checks each raw landmark row.
        with pytest.raises(ValueError, match="df_min must be in"):
            FpConfig(df_min=-120, df_max=120)
        with pytest.raises(ValueError, match="bin delta 120 outside"):
            hash_landmarks(np.array([[3, 10, 130, 5], [0, 10, 20, 5]]))
        with pytest.raises(ValueError, match="dt 64 outside"):
            hash_landmarks(np.array([[0, 10, 20, 64]]))


class TestMergeBins:
    def test_neighbors_absorbed(self):
        assert _merge_offset_bins({0: 5, 1: 3, -1: 2}, 1) == [(0, 10)]

    def test_disjoint_groups(self):
        got = _merge_offset_bins({0: 5, 10: 4, 11: 2}, 1)
        assert got == [(0, 5), (10, 6)]

    def test_strength_tie_goes_to_smaller_offset(self):
        got = _merge_offset_bins({3: 4, 7: 4}, 1)
        assert got == [(3, 4), (7, 4)]

    def test_greedy_max_first(self):
        # 5 at offset 2 wins first, absorbing 1 and 3; 4 at 0 keeps only itself
        got = _merge_offset_bins({0: 4, 1: 2, 2: 5, 3: 1}, 1)
        assert got == [(2, 8), (0, 4)]

    def test_merge_zero_keeps_bins(self):
        assert _merge_offset_bins({0: 3, 1: 2}, 0) == [(0, 3), (1, 2)]

    def test_widest_merge_takes_every_offset_in_reach(self):
        # The largest offset_merge a config allows; the window is bisected,
        # not walked frame by frame.
        assert _merge_offset_bins({0: 3, 2**32 - 1: 2, -5: 1}, 2**32 - 1) == [(0, 6)]


class TestIndexAndQuery:
    def test_duplicate_and_empty_rejected(self):
        cfg = FpConfig()
        index = FingerprintIndex(cfg)
        index.add_hashed("a", [(1, 0)], 1.0)
        with pytest.raises(ValueError):
            index.add_hashed("a", [(2, 0)], 1.0)
        with pytest.raises(ValueError):
            index.add_hashed("b", [], 1.0)

    def test_hashed_landmarks_round_trip(self):
        cfg = FpConfig()
        clip = burst_clip("h", duration=2.0, seed=4)
        hashed = hash_landmarks(fingerprint_clip(clip, cfg))
        index = FingerprintIndex(cfg)
        index.add_hashed("h", hashed, clip.duration)
        assert index.landmark_counts["h"] == len(hashed)
        postings = index.postings()
        assert postings.dtype == np.uint32
        assert (postings[:, 1] == 0).all()
        stored = sorted(zip(postings[:, 0].tolist(), postings[:, 2].tolist()))
        assert stored == sorted(tuple(kt) for kt in hashed.tolist())

    @pytest.mark.parametrize("build", [FingerprintIndex.postings, lambda index: query(index, "x", [(1, 0)], FpConfig())])
    def test_add_after_build_raises_naming_the_clip(self, build):
        index = FingerprintIndex(FpConfig())
        index.add_hashed("a", [(1, 0)], 1.0)
        build(index)
        with pytest.raises(ValueError, match="cannot add clip 'b': the index is frozen"):
            index.add_hashed("b", [(2, 0)], 1.0)
        assert index.clip_ids == ["a"]
        assert index.postings().tolist() == [[1, 0, 0]]

    def test_self_match_identity(self):
        cfg = FpConfig()
        clip = burst_clip("self", duration=4.0, seed=5)
        hashed = hash_landmarks(fingerprint_clip(clip, cfg))
        index = FingerprintIndex(cfg)
        index.add_hashed("self", hashed, clip.duration)
        index.add_hashed(
            "other",
            hash_landmarks(fingerprint_clip(burst_clip("other", 4.0, seed=6), cfg)),
            4.0,
        )
        result = query(index, "probe", hashed, cfg)
        entry = next(e for e in result.entries if e.clip_id == "self")
        assert entry.offset_frames == 0
        assert entry.ml == len(hashed)
        assert entry.lq == len(hashed)
        assert entry.li == len(hashed)

    def test_query_excludes_self(self):
        cfg = FpConfig()
        clip = burst_clip("q", duration=3.0, seed=7)
        hashed = hash_landmarks(fingerprint_clip(clip, cfg))
        index = FingerprintIndex(cfg)
        index.add_hashed("q", hashed, clip.duration)
        result = query(index, "q", hashed, cfg)
        assert result.entries == []

    def test_known_offset_recovered(self):
        cfg = FpConfig()
        master = burst_clip("m", duration=12.0, seed=8)
        # 2.0 s = 86.1 hops; snap to the hop grid for an exact frame offset
        shift_samples = 86 * cfg.hop
        a = snip(master, 0.0, 8.0, "a")
        b = AudioClip(
            id="b",
            samples=master.samples[shift_samples : shift_samples + 8 * cfg.rate],
            rate=cfg.rate,
        )
        ha = hash_landmarks(fingerprint_clip(a, cfg))
        hb = hash_landmarks(fingerprint_clip(b, cfg))
        index = FingerprintIndex(cfg)
        index.add_hashed("a", ha, a.duration)
        result = query(index, "b", hb, cfg)
        entry = max((e for e in result.entries if e.clip_id == "a"), key=lambda e: e.ml)
        # b starts 86 frames into a: shared landmark appears at t1 in a, t1-86 in b
        assert entry.offset_frames == 86

    def test_threshold_filters_entries(self):
        cfg = FpConfig()
        index = FingerprintIndex(cfg)
        index.add_hashed("a", [(k, t) for t, k in enumerate([5, 6, 7, 8])], 1.0)
        hashed = [(5, 0), (6, 1), (7, 2), (8, 3)]
        assert query(index, "x", hashed, cfg).entries == []  # 4 votes < 5
        relaxed = FpConfig(match_threshold=4)
        assert len(query(index, "x", hashed, relaxed).entries) == 1

    def test_incompatible_config_rejected(self):
        index = FingerprintIndex(FpConfig())
        with pytest.raises(ValueError, match="hop = 128"):
            query(index, "x", [(1, 0)], FpConfig(hop=128))

    @given(
        clips=st.lists(
            st.lists(st.tuples(st.integers(0, 3), st.integers(0, 12)), min_size=1, max_size=25),
            min_size=1,
            max_size=4,
        ),
        hashed=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 12)), max_size=25),
        query_id=st.sampled_from(["c0", "c1", "probe"]),
        merge=st.integers(0, 2),
        threshold=st.integers(1, 6),
    )
    # Votes {-2: 1, 0: 3, 2: 1}: only the full +/-2 window around the mode
    # reaches 5, so pruning on a one-sided window would lose the entry.
    @example(
        clips=[[(1, 0), (1, 2), (1, 2), (1, 2), (1, 4)]],
        hashed=[(1, 2)],
        query_id="probe",
        merge=2,
        threshold=5,
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force_votes(self, clips, hashed, query_id, merge, threshold):
        cfg = FpConfig(offset_merge=merge, match_threshold=threshold)
        index = FingerprintIndex(cfg)
        db = {f"c{i}": rows for i, rows in enumerate(clips)}
        for cid, rows in db.items():
            index.add_hashed(cid, rows, 1.0)
        got = [
            (e.clip_id, e.offset_frames, e.ml, e.tml, e.lq, e.li)
            for e in query(index, query_id, hashed, cfg).entries
        ]
        assert got == _brute_force_query(db, query_id, hashed, cfg)
        for e in query(index, query_id, hashed, cfg).entries:
            assert all(type(v) is int for v in (e.offset_frames, e.ml, e.tml, e.lq, e.li))

    def test_keys_outside_key_range_match_nothing(self):
        cfg = FpConfig(match_threshold=1)
        index = FingerprintIndex(cfg)
        index.add_hashed("a", [(0, 0), (5, 1), ((1 << 21) - 1, 2)], 1.0)
        assert len(query(index, "x", [(5, 1), ((1 << 21) - 1, 2)], cfg).entries) == 1
        # Each of these wraps onto an indexed key if cast to u32 unchecked.
        wrapping = (-(1 << 32), -(1 << 32) + 5, 1 << 32, (1 << 32) + 5, (1 << 33) + (1 << 21) - 1)
        assert query(index, "x", [(k, 1) for k in wrapping], cfg).entries == []
        assert query(index, "x", [(-1, 0), (1 << 21, 0), ((1 << 21) + 5, 1)], cfg).entries == []

    def test_tml_sums_all_offsets(self):
        cfg = FpConfig(match_threshold=1, offset_merge=0)
        index = FingerprintIndex(cfg)
        index.add_hashed("a", [(9, 0), (9, 50)], 1.0)
        result = query(index, "x", [(9, 10)], cfg)
        assert sorted(e.offset_frames for e in result.entries) == [-10, 40]
        assert all(e.tml == 2 and e.ml == 1 for e in result.entries)


def _brute_force_query(db, query_id, hashed, cfg):
    """Query oracle: per-clip Counter of offsets, then merged-bin thresholding."""
    entries = []
    for clip_id, rows in db.items():
        if clip_id == query_id:
            continue
        votes = Counter(t_db - t_q for key, t_q in hashed for k_db, t_db in rows if k_db == key)
        tml = sum(votes.values())
        for offset, count in _merge_offset_bins(votes, cfg.offset_merge):
            if count >= cfg.match_threshold:
                entries.append((clip_id, offset, count, tml, len(hashed), len(rows)))
    return sorted(entries, key=lambda e: (e[0], -e[2], e[1]))


class TestQualityHelpers:
    def test_offset_zero_votes_symmetric_and_tolerant(self):
        a = [(1, 0), (2, 10), (3, 20)]
        b = [(1, 2), (2, 13), (3, 20)]
        assert offset_zero_votes([a, b], 2).tolist() == offset_zero_votes([b, a], 2).tolist() == [[0, 2], [2, 0]]

    @given(
        a=st.lists(st.tuples(st.sampled_from([0, 1, 2, 2**21 - 1]), st.sampled_from([0, 1, 2, 3, 5, 2**32 - 1])), max_size=30),
        b=st.lists(st.tuples(st.sampled_from([0, 1, 2, 2**21 - 1]), st.sampled_from([0, 1, 2, 3, 5, 2**32 - 1])), max_size=30),
        tol=st.integers(0, 3),
    )
    @settings(max_examples=200, deadline=None)
    def test_offset_zero_votes_matches_brute_force(self, a, b, tol):
        # Repeated keys and anchor frames: every (a, b) pair counts once.
        expect = sum(1 for ka, ta in a for kb, tb in b if ka == kb and abs(ta - tb) <= tol)
        assert offset_zero_votes([np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)], tol)[0, 1] == expect

    @given(
        members=st.lists(
            st.lists(st.tuples(st.sampled_from([0, 1, 2, 2**21 - 1]), st.sampled_from([0, 1, 2, 3, 5, 2**32 - 1])), max_size=20),
            max_size=4,
        ),
        tol=st.integers(0, 3),
    )
    @settings(max_examples=200, deadline=None)
    def test_vote_matrix_matches_brute_force(self, members, tol):
        got = offset_zero_votes([np.array(m, dtype=np.int64).reshape(-1, 2) for m in members], tol)
        expect = [
            [0 if i == j else sum(1 for ka, ta in a for kb, tb in b if ka == kb and abs(ta - tb) <= tol) for j, b in enumerate(members)]
            for i, a in enumerate(members)
        ]
        assert got.tolist() == expect

