"""Landmark fingerprints, the inverted index, and offset-voting matches.

A fingerprint is a set of landmarks: pairs of spectrogram peaks, each packed
into a 21-bit key of (first-peak bin, bin delta, frame delta). Everything is
carried as int arrays, one row per item:

    candidates      N x 2  (frame, bin) int32, strongest first
    extract_peaks   N x 2  (frame, bin), sorted by (frame, bin)
    pair_landmarks  N x 4  (t1, f1, f2, dt), t1 the anchor frame
    hash_landmarks  N x 2  (key, t1)

Candidates are picked from a clip's STFT as it is computed, in blocks of
frames with their halo in one padded buffer; each STFT row is computed once.

Every tunable is a field of FpConfig. A config file is a JSON object over its
fields, read by load_config through audio_io.read_json and read_record, each
field's kind taken from its type (_CONFIG_KINDS); keys left out keep their
defaults. An index file's header holds the LANDMARK_KEYS through the same
read_config.

The index is one key-sorted (key, clip ordinal, t1) posting array, built
once from the clips' (key, t1) arrays and frozen from then on. Querying votes
anchor-frame differences per candidate clip and reports every merged offset
bin whose vote count clears the matching threshold.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .audio_io import AudioClip, PROCESS_RATE, read_json, read_record, read_text

# Key layout: f1 in bits 13-20, (df + 63) in bits 6-12, dt in bits 0-5.
_F1_SHIFT = 13
_DF_SHIFT = 6
_F1_MAX = 255
_DF_BIAS = 63
_DT_MAX = 63
_KEY_LIMIT = 1 << 21  # every key is below this
_FRAME_MAX = (1 << 32) - 1  # largest anchor frame; postings store t1 as u32

# Frames per peak-picking block. A block is written with a 3-frame halo on
# either side into the picker's padded buffer, so that buffer and its two
# scratch buffers are block-sized whatever the clip's length.
_FRAME_BLOCK = 256
# Frames per FFT call: bounds the windowed and complex temporaries.
_STFT_ROWS = 32
# Peaks each pairing sweep tests per anchor, below 128 since the running
# count is int8. Of 8, 16 and 32, 16 paired organise clips fastest; 32
# doubles the block temporaries of a quality batch.
_PAIR_BLOCK = 16


# The parameters that shape stored postings, in FpConfig's field order. An
# index answers only queries fingerprinted under its values of these.
LANDMARK_KEYS = (
    "rate",
    "window",
    "hop",
    "log_floor",
    "peak_density",
    "fanout",
    "dt_min",
    "dt_max",
    "df_min",
    "df_max",
)


@dataclass(frozen=True)
class FpConfig:
    """Every tunable of a run, loadable from a JSON config file (load_config).

    The cited landmark tooling leaves window, hop, density, fan-out, and the
    peak-picking rule unspecified; these defaults are this library's own and
    are all surfaced here. LANDMARK_KEYS shape the fingerprints; the rest act
    at query time, in quality scoring, or in the timeline report.
    """

    rate: int = PROCESS_RATE
    window: int = 512
    hop: int = 256
    log_floor: float = -10.0
    peak_density: float = 20.0  # target peaks per second
    fanout: int = 3  # max pairs per anchor peak
    dt_min: int = 1  # frames
    dt_max: int = 63
    df_min: int = -63  # bins
    df_max: int = 63
    match_threshold: int = 5  # min matching landmarks in one offset bin
    offset_merge: int = 1  # merge vote-histogram bins within +/- this
    density_multiplier: float = 3.0  # peak-density boost for quality scoring
    consistency_eps: float = 0.1  # seconds; larger timeline residuals are flagged

    def __post_init__(self):
        for f in fields(self):
            if f.type == "float":
                # Held as a float however it was spelt, so 40 and 40.0 store the same index.
                object.__setattr__(self, f.name, float(getattr(self, f.name)))
                if not np.isfinite(getattr(self, f.name)):
                    raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)!r}")
        if self.rate <= 0:
            raise ValueError(f"rate must be positive, got {self.rate}")
        if self.window <= 0 or self.window & (self.window - 1):
            raise ValueError(f"window must be a power of two, got {self.window}")
        if not (0 < self.hop <= self.window):
            raise ValueError("hop must be in (0, window]")
        if self.match_threshold < 1:
            raise ValueError("match_threshold must be >= 1")
        if self.fanout < 1:
            raise ValueError("fanout must be >= 1")
        if self.peak_density <= 0:
            raise ValueError("peak_density must be positive")
        # Offsets lie within +/- _FRAME_MAX, and query's int64 vote codes
        # have room for a window of that width, not more.
        if not 0 <= self.offset_merge <= _FRAME_MAX:
            raise ValueError(f"offset_merge must be in [0, {_FRAME_MAX}], got {self.offset_merge}")
        if self.density_multiplier <= 0:
            raise ValueError("density_multiplier must be positive")
        if self.consistency_eps < 0:
            raise ValueError(f"consistency_eps must be >= 0, got {self.consistency_eps}")
        # Every admissible pair must fit the landmark key.
        for delta, lo, hi in (("dt", 1, _DT_MAX), ("df", -_DF_BIAS, _DF_BIAS)):
            low, high = getattr(self, f"{delta}_min"), getattr(self, f"{delta}_max")
            for key, value in ((f"{delta}_min", low), (f"{delta}_max", high)):
                if not lo <= value <= hi:
                    raise ValueError(f"{key} must be in [{lo}, {hi}], got {value}")
            if low > high:
                raise ValueError(f"{delta}_min = {low} exceeds {delta}_max = {high}")

    def compatible_with(self, other: "FpConfig") -> None:
        """Raise ValueError unless this config may query postings built under `other`.

        They must agree on every LANDMARK_KEYS parameter; the error names the
        first that differs and both values.
        """
        for key in LANDMARK_KEYS:
            mine, theirs = getattr(self, key), getattr(other, key)
            if mine != theirs:
                raise ValueError(
                    f"{key} = {mine!r} differs from the index's {key} = {theirs!r};"
                    " landmark parameters must match the index"
                )


# Each FpConfig field's kind of JSON value, as read_record names it.
_CONFIG_KINDS = {f.name: "an integer" if f.type == "int" else "a finite number" for f in fields(FpConfig)}


def read_config(doc, kinds: dict[str, str], where: str) -> FpConfig:
    """FpConfig from doc, a JSON object with exactly the fields of kinds; a ValueError starts with where."""
    values = read_record(doc, kinds, where)
    try:
        return FpConfig(**values)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def load_config(path: str) -> FpConfig:
    """The config file at path: a JSON object over FpConfig's fields, keys left out keeping their defaults.

    A ValueError starts with path. It names an unknown, repeated or mistyped key
    (`hop` 1.5, `peak_density` NaN) or a value FpConfig refuses. A file that is no
    JSON object, such as the `key = value` lines of earlier versions, is refused as such.
    """
    text = read_text(path)
    if not text.lstrip().startswith("{"):
        raise ValueError(f'{path}: not a JSON object; config files are JSON objects such as {{"hop": 128}}')
    return read_config(asdict(FpConfig()) | read_json(text, path), _CONFIG_KINDS, path)


@dataclass
class MatchEntry:
    """One (query, candidate, offset) match with its landmark counts."""

    query_id: str
    clip_id: str
    offset_frames: int  # anchor frame in candidate minus anchor frame in query
    ml: int  # matching landmarks in this merged offset bin
    tml: int  # total matching landmarks over all offsets for this clip pair
    lq: int  # landmarks of the query clip
    li: int  # landmarks of the candidate clip


@dataclass
class MatchingList:
    query_id: str
    entries: list[MatchEntry] = field(default_factory=list)


def _frame_windows(clip: AudioClip, cfg: FpConfig) -> np.ndarray:
    """Each frame's cfg.window samples, frames x window, as a view of the clip.

    Frames advance by cfg.hop, with no padding.
    """
    if clip.rate != cfg.rate:
        raise ValueError(f"clip rate {clip.rate} != configured rate {cfg.rate}")
    n = len(clip.samples)
    if n < cfg.window:
        raise ValueError(f"clip has {n} samples, shorter than one {cfg.window}-sample window")
    return np.lib.stride_tricks.sliding_window_view(clip.samples, cfg.window)[:: cfg.hop]


def _stft_rows(windows: np.ndarray, out: np.ndarray, cfg: FpConfig) -> None:
    """Write the spectrogram rows of the frames in `windows` into `out`.

    The FFT runs over _STFT_ROWS frames at a time; each frame's FFT, log and
    floor are independent of the others, so the values do not depend on
    which frames are computed together.
    """
    hann = np.hanning(cfg.window)
    with np.errstate(divide="ignore"):
        for i in range(0, len(out), _STFT_ROWS):
            rows = out[i : i + _STFT_ROWS]
            np.abs(np.fft.rfft(windows[i : i + _STFT_ROWS] * hann, axis=1), out=rows)
            np.log(rows, out=rows)
            np.maximum(rows, cfg.log_floor, out=rows)


# spectrogram, extract_peaks and fingerprint_clip stay public only because the
# benchmark in perfbench/ wraps them by name and times fingerprint_clip.
def spectrogram(clip: AudioClip, cfg: FpConfig) -> np.ndarray:
    """Log-magnitude STFT, frames x bins, floored at cfg.log_floor.

    Frames advance by cfg.hop; a Hann window is applied; no padding, so
    frame count = floor((N - window) / hop) + 1.
    """
    windows = _frame_windows(clip, cfg)
    spec = np.empty((len(windows), cfg.window // 2 + 1))
    _stft_rows(windows, spec, cfg)
    return spec


def _pick_candidates(rows, shape: tuple[int, int], cfg: FpConfig) -> np.ndarray:
    """Strict local maxima over a +/-3 frame, +/-3 bin neighborhood.

    Every cell above all its neighbors that clears log_floor + 1, as an
    N x 2 int32 array of (frame, bin) rows in thinning order: magnitude
    descending, then frame, then bin. rows(lo, hi, out) writes frames [lo,
    hi) of the spectrogram of `shape` to the contiguous `out`; it is asked
    for each frame once, in order. Blocks of _FRAME_BLOCK frames are picked
    in one -inf-padded buffer with a 3-frame halo either side: the 6 rows
    that end a block move to the top of the next, later frames are copied
    in from contiguous scratch, and rows past the last frame are reset to
    -inf, so every cell sees its neighbors in the whole spectrogram. A
    block's candidates come from one flat scan of its mask, (frame, bin)
    recovered by divmod.
    """
    n_frames, n_bins = shape
    block = min(_FRAME_BLOCK, n_frames)
    # The 3 columns either side stay -inf, as do the rows before frame 0,
    # which only the first block has.
    padded = np.full((block + 6, n_bins + 6), -np.inf)
    inner = padded[:, 3 : n_bins + 3]
    # New rows land in `full`, which _holed_max overwrites only after the copy.
    sides, full = np.empty((2, block + 6, n_bins))
    found_frames, found_bins, found_mags = [], [], []
    for f0 in range(0, n_frames, block):
        m = min(block, n_frames - f0)
        # Frames [lo, hi) are new; inner row r - f0 + 3 holds frame r.
        lo, hi = min(f0 + 3, n_frames) if f0 else 0, min(f0 + m + 3, n_frames)
        if f0:
            inner[:6] = inner[block:]  # frames f0 - 3 .. f0 + 2, which end the last block
        rows(lo, hi, full[: hi - lo])
        inner[lo - f0 + 3 : hi - f0 + 3] = full[: hi - lo]
        inner[hi - f0 + 3 : m + 6] = -np.inf  # rows past the last frame
        values = inner[3 : m + 3]
        # Above the neighborhood max and the floor: above the larger of them.
        bar = _holed_max(padded[: m + 6], sides[: m + 6], full[: m + 6])
        np.maximum(bar, cfg.log_floor + 1.0, out=bar)
        # The mask is C-ordered, so its flat indices come sorted by (frame, bin).
        frames_idx, bins_idx = np.divmod(np.flatnonzero(values > bar), n_bins)
        found_frames.append(frames_idx + f0)
        found_bins.append(bins_idx)
        found_mags.append(values[frames_idx, bins_idx])
    frames_idx, bins_idx = np.concatenate(found_frames), np.concatenate(found_bins)
    # Already in (frame, bin) order, so a stable sort keeps it among equals.
    order = np.argsort(-np.concatenate(found_mags), kind="stable")
    return np.stack([frames_idx[order], bins_idx[order]], axis=1).astype(np.int32)


def _clip_candidates(clip: AudioClip, cfg: FpConfig) -> tuple[np.ndarray, int]:
    """The clip's peak candidates (see _pick_candidates), its STFT streamed in, and its frame count."""
    windows = _frame_windows(clip, cfg)
    shape = (len(windows), cfg.window // 2 + 1)
    return _pick_candidates(lambda lo, hi, out: _stft_rows(windows[lo:hi], out, cfg), shape, cfg), len(windows)


def thin_peaks(candidates: np.ndarray, f0: int, f1: int, cfg: FpConfig) -> np.ndarray:
    """The strongest peak_density-per-second candidates in frames [f0, f1).

    The budget counts the seconds those frames' windows span. Returns an
    N x 2 int array of (frame, bin) rows sorted by (frame, bin).
    """
    if f1 <= f0:
        return np.empty((0, 2), dtype=np.int64)
    duration = ((f1 - f0 - 1) * cfg.hop + cfg.window) / cfg.rate
    budget = max(1, int(round(cfg.peak_density * duration)))
    frames = candidates[:, 0]
    kept = candidates[(frames >= f0) & (frames < f1)][:budget].astype(np.int64)
    return kept[np.lexsort((kept[:, 1], kept[:, 0]))]


def extract_peaks(clip: AudioClip, cfg: FpConfig) -> np.ndarray:
    """The clip's candidates thinned to the top peak_density per second, as thin_peaks sorts them."""
    candidates, n_frames = _clip_candidates(clip, cfg)
    return thin_peaks(candidates, 0, n_frames, cfg)


def _holed_max(padded: np.ndarray, sides: np.ndarray, full: np.ndarray) -> np.ndarray:
    """Max over each cell's 7 x 7 neighborhood, the cell itself excluded.

    `padded` is a filled block: m frames with 3 halo rows and 3 columns of
    -inf on each side; `sides` and `full` are scratch of its rows by the
    inner columns. Equal there to scipy.ndimage.maximum_filter of the whole
    spectrogram with a holed 7 x 7 footprint and cval=-inf: the neighborhood
    splits into the same frame at bins +/-1..3 and frames +/-1..3 at bins
    within +/-3, each a max of shifted slices. `padded` is only read; the
    result, for the m block frames, is a view of `sides`.
    """
    m, n_bins = len(padded) - 6, sides.shape[1]
    np.maximum(padded[:, 0:n_bins], padded[:, 1 : n_bins + 1], out=sides)
    for shift in (2, 4, 5, 6):
        np.maximum(sides, padded[:, shift : shift + n_bins], out=sides)
    np.maximum(padded[:, 3 : n_bins + 3], sides, out=full)  # full +/-3 bins, per frame
    out = sides[3 : m + 3]
    for shift in (0, 1, 2, 4, 5, 6):
        np.maximum(out, full[shift : shift + m], out=out)
    return out


def pair_landmarks(peaks: np.ndarray, cfg: FpConfig) -> np.ndarray:
    """Pair each anchor peak with up to cfg.fanout later peaks.

    Admissible partners have a frame delta in [dt_min, dt_max], a bin delta in
    [df_min, df_max], and both bins within the 8-bit key budget. The (frame, bin)
    peak rows are ordered, so scanning forward takes partners nearest in time
    first. Returns an N x 4 int array of (t1, f1, f2, dt) rows, grouped by
    anchor in peak order and by partner in peak order within an anchor.

    The scans run in blocked sweeps. Each anchor's scan covers the peaks
    dt_min to dt_max frames after it, a range of rows found once by
    searchsorted. Each sweep tests the next _PAIR_BLOCK peaks of every anchor
    still scanning, as one anchors x _PAIR_BLOCK block, and a running count
    along each row keeps the admissible partners the anchor still needs. An
    anchor stops once it has cfg.fanout partners or its range is used up.
    """
    peaks = np.asarray(peaks, dtype=np.int64).reshape(-1, 2)
    frames, bins = peaks[:, 0], peaks[:, 1]
    # Anchor i scans peaks [start[i], end[i]): dt_min <= dt <= dt_max.
    start = np.searchsorted(frames, frames + cfg.dt_min, "left")
    end = np.searchsorted(frames, frames + cfg.dt_max, "right")
    # A partner's bin lies in [low, high]: the bin window, within the key.
    low, high = bins + cfg.df_min, np.minimum(bins + cfg.df_max, _F1_MAX)
    # Row j: the bins of peaks j .. j + _PAIR_BLOCK - 1, padded past the last
    # peak, which no scan reaches.
    runs = np.lib.stride_tricks.sliding_window_view(
        np.concatenate([bins, np.zeros(_PAIR_BLOCK, bins.dtype)]), _PAIR_BLOCK
    )
    firsts = [np.empty(0, dtype=np.int64)]
    seconds = [np.empty(0, dtype=np.int64)]
    columns = np.arange(_PAIR_BLOCK)
    active = np.flatnonzero((bins <= _F1_MAX) & (start < end))
    wanted = np.full(len(active), cfg.fanout)  # partners each active anchor still takes
    done = 0  # peaks each active anchor has scanned
    while len(active):
        pos = start[active] + done
        block = runs[pos]
        ok = (block >= low[active, None]) & (block <= high[active, None])
        ok &= columns < (end[active] - pos)[:, None]
        taken = np.cumsum(ok, axis=1, dtype=np.int8)
        ok &= taken <= wanted[:, None]
        row, col = np.divmod(np.flatnonzero(ok), _PAIR_BLOCK)
        firsts.append(active[row])
        seconds.append(pos[row] + col)
        wanted -= np.minimum(taken[:, -1], wanted)
        done += _PAIR_BLOCK
        scanning = (wanted > 0) & (pos + _PAIR_BLOCK < end[active])
        active, wanted = active[scanning], wanted[scanning]
    first = np.concatenate(firsts)
    order = np.argsort(first, kind="stable")
    first, second = first[order], np.concatenate(seconds)[order]
    return np.stack(
        [frames[first], bins[first], bins[second], frames[second] - frames[first]], axis=1
    )


def hash_landmarks(landmarks: np.ndarray) -> np.ndarray:
    """(key, anchor frame) rows, the form the index stores and queries.

    Each (t1, f1, f2, dt) row packs (f1, f2 - f1, dt) into a 21-bit key,
    bijective on the valid domain; a row outside it raises ValueError.
    """
    t1, f1, f2, dt = np.asarray(landmarks, dtype=np.int64).reshape(-1, 4).T
    df = f2 - f1
    bad_f1 = (f1 < 0) | (f1 > _F1_MAX)
    bad_df = (df < -_DF_BIAS) | (df > _DF_BIAS)
    bad_dt = (dt < 1) | (dt > _DT_MAX)
    bad = bad_f1 | bad_df | bad_dt
    if bad.any():
        i = int(np.argmax(bad))
        if bad_f1[i]:
            raise ValueError(f"f1 {f1[i]} outside [0, {_F1_MAX}]")
        if bad_df[i]:
            raise ValueError(f"bin delta {df[i]} outside [-{_DF_BIAS}, {_DF_BIAS}]")
        raise ValueError(f"dt {dt[i]} outside [1, {_DT_MAX}]")
    keys = (f1 << _F1_SHIFT) | ((df + _DF_BIAS) << _DF_SHIFT) | dt
    return np.stack([keys, t1], axis=1)


def fingerprint_clip(clip: AudioClip, cfg: FpConfig) -> np.ndarray:
    """The clip's landmarks: extract_peaks, paired."""
    return pair_landmarks(extract_peaks(clip, cfg), cfg)


def clip_fingerprint(clip: AudioClip, cfg: FpConfig) -> tuple[np.ndarray, np.ndarray]:
    """A clip's hashed landmarks and its peak candidates, from one streamed STFT.

    The landmarks are hash_landmarks(fingerprint_clip(clip, cfg)), and the
    candidates are those extract_peaks thins. A clip shorter than one window
    has neither.
    """
    if len(clip.samples) < cfg.window:
        return np.empty((0, 2), dtype=np.int64), np.empty((0, 2), dtype=np.int32)
    candidates, n_frames = _clip_candidates(clip, cfg)
    return hash_landmarks(pair_landmarks(thin_peaks(candidates, 0, n_frames, cfg), cfg)), candidates


def _as_hashed(hashed) -> np.ndarray:
    return np.asarray(hashed, dtype=np.int64).reshape(-1, 2)


class FingerprintIndex:
    """Inverted landmark index, held as one (key, clip ordinal, t1) u32 array.

    The postings are sorted by all three columns, ordinals in sorted clip-id
    order: the block the index file stores. add_hashed keeps a clip's rows
    only until the first postings() builds that block. Single-writer until
    then; frozen after, when add_hashed raises and queries may run at once.
    Every indexed clip must contribute at least one landmark.
    """

    def __init__(self, cfg: FpConfig):
        self.cfg = cfg
        self.landmark_counts: dict[str, int] = {}
        self.durations: dict[str, float] = {}
        self._pending: dict[str, np.ndarray] = {}
        self._postings: np.ndarray | None = None

    def add_hashed(self, clip_id: str, hashed, duration: float = 0.0) -> None:
        if self._postings is not None:
            raise ValueError(f"cannot add clip {clip_id!r}: the index is frozen once its postings are built")
        if clip_id in self.landmark_counts:
            raise ValueError(f"clip {clip_id!r} already indexed")
        hashed = _as_hashed(hashed)
        if len(hashed) == 0:
            raise ValueError(f"clip {clip_id!r} has no landmarks")
        if hashed.min() < 0 or hashed[:, 0].max() >= _KEY_LIMIT or hashed[:, 1].max() > _FRAME_MAX:
            raise ValueError(f"clip {clip_id!r}: key or anchor frame out of range")
        self._pending[clip_id] = hashed
        self.landmark_counts[clip_id] = len(hashed)
        self.durations[clip_id] = float(duration)

    def postings(self) -> np.ndarray:
        """The sorted (key, clip ordinal, t1) u32 posting array; builds it on first use."""
        if self._postings is None:
            parts = [np.empty((0, 3), dtype=np.uint32)]
            for ordinal, cid in enumerate(self.clip_ids):
                h = self._pending[cid]
                parts.append(np.stack([h[:, 0], np.full(len(h), ordinal), h[:, 1]], axis=1).astype(np.uint32))
            block = np.concatenate(parts)
            self.freeze(block[np.lexsort((block[:, 2], block[:, 1], block[:, 0]))])
        return self._postings

    def freeze(self, block: np.ndarray) -> None:
        """Make `block`, sorted as postings() sorts it, the frozen posting array."""
        self._pending = {}
        self._keys = np.ascontiguousarray(block[:, 0])
        self._ids = self.clip_ids
        # _postings last: a reader that sees it set sees the rest too.
        self._postings = block

    @property
    def clip_ids(self) -> list[str]:
        return sorted(self.landmark_counts)


def _merge_offset_bins(
    votes: dict[int, int], merge: int
) -> list[tuple[int, int]]:
    """Greedy histogram merging: (mode offset, merged count), disjoint groups.

    Repeatedly takes the strongest remaining offset (ties to the smaller
    offset) and absorbs its neighbors within +/- merge frames. STFT
    quantization jitters votes across adjacent bins, hence the merging.
    Each window is found by bisecting the sorted offsets, so the cost does
    not grow with `merge`.
    """
    present = sorted(votes)
    remaining = dict(votes)
    bins: list[tuple[int, int]] = []
    for offset in sorted(votes, key=lambda o: (-votes[o], o)):
        if offset not in remaining:
            continue
        lo = bisect_left(present, offset - merge)
        hi = bisect_right(present, offset + merge)
        bins.append((offset, sum(remaining.pop(o, 0) for o in present[lo:hi])))
    return bins


def _window_join(keys: np.ndarray, low: np.ndarray, high: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every (i, j) with low[i] <= keys[j] <= high[i] of sorted keys, as (i, j) arrays in (i, j) order."""
    lo = np.searchsorted(keys, low, "left")
    hits = np.searchsorted(keys, high, "right") - lo
    rows = np.repeat(np.arange(len(low)), hits)
    return rows, np.repeat(lo - (np.cumsum(hits) - hits), hits) + np.arange(len(rows))


# (clip ordinal, offset) vote codes: ordinal above bit 33, offset + 2**32 below.
_OFFSET_BITS = 33
_OFFSET_BIAS = 1 << 32


def query(
    index: FingerprintIndex,
    query_id: str,
    hashed,
    cfg: FpConfig,
) -> MatchingList:
    """Match hashed query landmarks against the index.

    Votes (candidate anchor frame - query anchor frame) per candidate clip,
    merges adjacent offset bins, and emits one entry per merged bin whose
    count reaches the matching threshold. The query clip itself never
    appears in its own matching list.
    """
    cfg.compatible_with(index.cfg)
    hashed = _as_hashed(hashed)
    postings = index.postings()

    # Every posting under each query key, as (query row, posting row). Keys
    # are searched as u32, the postings' own type; a key outside the key
    # range becomes _KEY_LIMIT, which no posting holds, rather than wrapping.
    # The query rows are searched in key order, which the votes do not
    # depend on and which keeps the searches' reads of the keys local.
    hashed = hashed[np.argsort(hashed[:, 0])]
    keys = hashed[:, 0]
    keys = np.where((keys >= 0) & (keys < _KEY_LIMIT), keys, _KEY_LIMIT).astype(np.uint32)
    rows, post = _window_join(index._keys, keys, keys)
    ordinals = postings[post, 1].astype(np.int64)
    offsets = postings[post, 2].astype(np.int64) - hashed[rows, 1]
    if query_id in index.landmark_counts:
        own = ordinals != index._ids.index(query_id)
        ordinals, offsets = ordinals[own], offsets[own]
    codes, counts = np.unique(
        (ordinals << _OFFSET_BITS) + offsets + _OFFSET_BIAS, return_counts=True
    )
    clip_of = codes >> _OFFSET_BITS
    cum = np.concatenate([[0], np.cumsum(counts)])

    # A merged bin never exceeds the votes within +/- offset_merge of its
    # mode, so a clip whose every such window falls short has no entry.
    merge = cfg.offset_merge
    window = cum[np.searchsorted(codes, codes + merge, "right")] - cum[
        np.searchsorted(codes, codes - merge, "left")
    ]
    lq = len(hashed)
    entries: list[MatchEntry] = []
    for ordinal in np.unique(clip_of[window >= cfg.match_threshold]).tolist():
        first, last = np.searchsorted(clip_of, [ordinal, ordinal + 1])
        clip_id = index._ids[ordinal]
        clip_offsets = (codes[first:last] - (ordinal << _OFFSET_BITS) - _OFFSET_BIAS).tolist()
        votes = dict(zip(clip_offsets, counts[first:last].tolist()))
        tml = int(cum[last] - cum[first])
        for offset, count in _merge_offset_bins(votes, merge):
            if count >= cfg.match_threshold:
                entries.append(
                    MatchEntry(
                        query_id=query_id,
                        clip_id=clip_id,
                        offset_frames=offset,
                        ml=count,
                        tml=tml,
                        lq=lq,
                        li=index.landmark_counts[clip_id],
                    )
                )
    entries.sort(key=lambda e: (e.clip_id, -e.ml, e.offset_frames))
    return MatchingList(query_id=query_id, entries=entries)


def offset_zero_votes(hashed: list, tol_frames: int) -> np.ndarray:
    """Matching-landmark votes near offset 0 between every two of m fingerprints.

    Entry (a, b) of the symmetric m x m int64 result counts the (a, b)
    landmark pairs with equal keys whose anchor frames differ by at most
    tol_frames; the diagonal is zero. One sort of every member's (key, t1)
    codes and one windowed search over it find all such pairs at once.
    """
    parts = [_as_hashed(h) for h in hashed]
    m = len(parts)
    member = np.repeat(np.arange(m), [len(p) for p in parts])
    # Anchor frames are below 2**32, so codes of different keys stay apart.
    codes = np.concatenate([(p[:, 0] << _OFFSET_BITS) + p[:, 1] for p in parts] + [np.empty(0, np.int64)])
    order = np.argsort(codes)
    codes, member = codes[order], member[order]
    # Every code within the window of each code, as (row, partner) positions.
    rows, partners = _window_join(codes, codes - tol_frames, codes + tol_frames)
    votes = np.bincount(member[rows] * m + member[partners], minlength=m * m).reshape(m, m)
    np.fill_diagonal(votes, 0)
    return votes
