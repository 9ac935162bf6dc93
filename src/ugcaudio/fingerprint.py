"""Landmark fingerprints, the inverted index, and offset-voting matches.

A fingerprint is a set of landmarks: pairs of spectrogram peaks, each packed
into a 21-bit key of (first-peak bin, bin delta, frame delta). Everything is
carried as int arrays, one row per item:

    peak_candidates N x 2  (frame, bin) int32, strongest first
    extract_peaks   N x 2  (frame, bin), sorted by (frame, bin)
    pair_landmarks  N x 4  (t1, f1, f2, dt), t1 the anchor frame
    hash_landmarks  N x 2  (key, t1)

The index is one key-sorted (key, clip ordinal, t1) posting array, built
once from the clips' (key, t1) arrays and frozen from then on. Querying votes
anchor-frame differences per candidate clip and reports every merged offset
bin whose vote count clears the matching threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .audio_io import AudioClip, PROCESS_RATE

# Key layout: f1 in bits 13-20, (df + 63) in bits 6-12, dt in bits 0-5.
_F1_SHIFT = 13
_DF_SHIFT = 6
_F1_MAX = 255
_DF_BIAS = 63
_DT_MAX = 63
_KEY_LIMIT = 1 << 21  # every key is below this

# Frames per block: per FFT call in spectrogram, and per holed-maximum
# pass in peak_candidates.
_FRAME_BLOCK = 256


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
    """Every tunable of a run, loadable from a `key = value` file.

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
            if f.type == "float" and not np.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)!r}")
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
        if self.offset_merge < 0:
            raise ValueError("offset_merge must be >= 0")
        if self.density_multiplier <= 0:
            raise ValueError("density_multiplier must be positive")
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


def parse_config(text: str) -> FpConfig:
    """`key = value` lines over FpConfig's fields; blank lines and # comments ignored.

    Keys left out keep their defaults. An unknown key or a badly typed value
    names its line, and a repeated key names both of its lines; an invalid
    value raises FpConfig's own ValueError.
    """
    kinds = {f.name: int if f.type == "int" else float for f in fields(FpConfig)}
    values = {}
    line_of: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in kinds:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        if key in line_of:
            raise ValueError(f"config line {lineno}: {key} already set on line {line_of[key]}")
        line_of[key] = lineno
        try:
            values[key] = kinds[key](value)
        except ValueError:
            raise ValueError(
                f"config line {lineno}: {key} expects {kinds[key].__name__}, got {value!r}"
            ) from None
    return FpConfig(**values)


def load_config(path: str) -> FpConfig:
    with open(path, "r", encoding="utf-8") as f:
        return parse_config(f.read())


@dataclass
class MatchEntry:
    """One (query, candidate, offset) match with its landmark counts."""

    query_id: str
    clip_id: str
    offset_frames: int  # anchor frame in candidate minus anchor frame in query
    offset_seconds: float
    ml: int  # matching landmarks in this merged offset bin
    tml: int  # total matching landmarks over all offsets for this clip pair
    lq: int  # landmarks of the query clip
    li: int  # landmarks of the candidate clip


@dataclass
class MatchingList:
    query_id: str
    entries: list[MatchEntry] = field(default_factory=list)


def spectrogram(clip: AudioClip, cfg: FpConfig) -> np.ndarray:
    """Log-magnitude STFT, frames x bins, floored at cfg.log_floor.

    Frames advance by cfg.hop; a Hann window is applied; no padding, so
    frame count = floor((N - window) / hop) + 1.
    """
    if clip.rate != cfg.rate:
        raise ValueError(f"clip rate {clip.rate} != configured rate {cfg.rate}")
    n = len(clip.samples)
    if n < cfg.window:
        raise ValueError(f"clip has {n} samples, shorter than one {cfg.window}-sample window")
    frames = (n - cfg.window) // cfg.hop + 1
    strided = np.lib.stride_tricks.sliding_window_view(clip.samples, cfg.window)
    strided = strided[:: cfg.hop][:frames]
    hann = np.hanning(cfg.window)
    mag = np.empty((frames, cfg.window // 2 + 1))
    # Blocks of frames bound the windowed and complex temporaries; each
    # frame's FFT is independent, so the values do not depend on the block.
    for i in range(0, frames, _FRAME_BLOCK):
        mag[i : i + _FRAME_BLOCK] = np.abs(np.fft.rfft(strided[i : i + _FRAME_BLOCK] * hann, axis=1))
    with np.errstate(divide="ignore"):
        np.log(mag, out=mag)
    return np.maximum(mag, cfg.log_floor, out=mag)


def peak_candidates(spec: np.ndarray, cfg: FpConfig) -> np.ndarray:
    """Strict local maxima over a +/-3 frame, +/-3 bin neighborhood.

    Every cell above all its neighbors that clears log_floor + 1, as an
    N x 2 int32 array of (frame, bin) rows in thinning order: magnitude
    descending, then frame, then bin. The mask is built over blocks of
    _FRAME_BLOCK frames, each with its 3-frame halo, so the temporaries are
    block-sized; every cell sees the same neighbors, so the result does not
    depend on the block.
    """
    if spec.size == 0:
        raise ValueError("empty spectrogram")
    n_frames, n_bins = spec.shape
    block = min(_FRAME_BLOCK, n_frames)
    padded = np.full((block + 6, n_bins + 6), -np.inf)
    scratch = np.empty((block + 6, n_bins))
    found_frames, found_bins = [], []
    for f0 in range(0, n_frames, block):
        # Above the neighborhood max and the floor: above the larger of them.
        bar = _holed_max(spec, f0, padded, scratch)
        np.maximum(bar, cfg.log_floor + 1.0, out=bar)
        frames_idx, bins_idx = np.nonzero(spec[f0 : f0 + block] > bar)  # sorted by (frame, bin)
        found_frames.append(frames_idx + f0)
        found_bins.append(bins_idx)
    frames_idx, bins_idx = np.concatenate(found_frames), np.concatenate(found_bins)
    # Already in (frame, bin) order, so a stable sort keeps it among equals.
    order = np.argsort(-spec[frames_idx, bins_idx], kind="stable")
    return np.stack([frames_idx[order], bins_idx[order]], axis=1).astype(np.int32)


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


def extract_peaks(spec: np.ndarray, cfg: FpConfig) -> np.ndarray:
    """Peak candidates thinned globally to the top peak_density-per-second.

    Returns an N x 2 int array of (frame, bin) rows sorted by (frame, bin).
    """
    return thin_peaks(peak_candidates(spec, cfg), 0, spec.shape[0], cfg)


def _holed_max(
    spec: np.ndarray, f0: int, padded: np.ndarray, scratch: np.ndarray
) -> np.ndarray:
    """Max over each cell's 7 x 7 neighborhood, the cell itself excluded.

    Covers the frames [f0, f0 + m), m = len(padded) - 6 or fewer at the end
    of spec. Equal there to scipy.ndimage.maximum_filter of the whole spec
    with a holed 7 x 7 footprint and cval=-inf: the neighborhood splits into
    the same frame at bins +/-1..3 and frames +/-1..3 at bins within +/-3,
    each a max of shifted slices. `padded` holds the block and its 3-frame
    halo between 3 columns of -inf on each side, which this never writes;
    the result is a view of `scratch`.
    """
    n_frames, n_bins = spec.shape
    m = min(len(padded) - 6, n_frames - f0)
    lo, hi = max(f0 - 3, 0), min(f0 + m + 3, n_frames)
    padded = padded[: m + 6]
    inner = padded[:, 3 : n_bins + 3]  # full +/-3 bins, per padded frame
    inner[: lo - f0 + 3] = -np.inf  # halo rows beyond the spectrogram
    inner[lo - f0 + 3 : hi - f0 + 3] = spec[lo:hi]
    inner[hi - f0 + 3 :] = -np.inf
    sides = scratch[: m + 6]
    np.maximum(padded[:, 0:n_bins], padded[:, 1 : n_bins + 1], out=sides)
    for shift in (2, 4, 5, 6):
        np.maximum(sides, padded[:, shift : shift + n_bins], out=sides)
    np.maximum(inner, sides, out=inner)
    out = sides[3 : m + 3]
    for shift in (0, 1, 2, 4, 5, 6):
        np.maximum(out, inner[shift : shift + m], out=out)
    return out


def pair_landmarks(peaks: np.ndarray, cfg: FpConfig) -> np.ndarray:
    """Pair each anchor peak with up to cfg.fanout later peaks.

    Admissible partners have a frame delta in [dt_min, dt_max], a bin delta in
    [df_min, df_max], and both bins within the 8-bit key budget. The (frame, bin)
    peak rows are ordered, so scanning forward takes partners nearest in time
    first. Returns an N x 4 int array of (t1, f1, f2, dt) rows, grouped by
    anchor in peak order and by partner in peak order within an anchor.
    """
    peaks = np.asarray(peaks, dtype=np.int64).reshape(-1, 2)
    frames, bins = peaks[:, 0], peaks[:, 1]
    n = len(peaks)
    taken = np.zeros(n, dtype=np.int64)
    firsts = [np.empty(0, dtype=np.int64)]
    seconds = [np.empty(0, dtype=np.int64)]
    # Column sweep: step k visits partner i + k of every anchor i still
    # scanning, which is the k-th step of the per-anchor forward scan.
    active = np.flatnonzero(bins <= _F1_MAX)
    k = 1
    while len(active):
        active = active[active + k < n]
        partner = active + k
        dt = frames[partner] - frames[active]
        in_reach = dt <= cfg.dt_max  # the scan stops at the first peak past dt_max
        active, partner, dt = active[in_reach], partner[in_reach], dt[in_reach]
        df = bins[partner] - bins[active]
        ok = (dt >= cfg.dt_min) & (bins[partner] <= _F1_MAX) & (df >= cfg.df_min) & (df <= cfg.df_max)
        firsts.append(active[ok])
        seconds.append(partner[ok])
        taken[active[ok]] += 1
        active = active[taken[active] < cfg.fanout]
        k += 1
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
    """Full extraction pipeline: spectrogram -> peaks -> landmark pairs."""
    return pair_landmarks(extract_peaks(spectrogram(clip, cfg), cfg), cfg)


def clip_fingerprint(clip: AudioClip, cfg: FpConfig) -> tuple[np.ndarray, np.ndarray]:
    """A clip's hashed landmarks and its peak candidates, from one STFT.

    The landmarks are those of hash_landmarks(fingerprint_clip(clip, cfg)).
    A clip shorter than one window has neither.
    """
    if len(clip.samples) < cfg.window:
        return np.empty((0, 2), dtype=np.int64), np.empty((0, 2), dtype=np.int32)
    spec = spectrogram(clip, cfg)
    candidates = peak_candidates(spec, cfg)
    peaks = thin_peaks(candidates, 0, spec.shape[0], cfg)
    return hash_landmarks(pair_landmarks(peaks, cfg)), candidates


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
        if hashed.min() < 0 or hashed[:, 0].max() >= _KEY_LIMIT or hashed[:, 1].max() > 0xFFFFFFFF:
            raise ValueError(f"clip {clip_id!r}: key or anchor frame out of range")
        self._pending[clip_id] = hashed
        self.landmark_counts[clip_id] = len(hashed)
        self.durations[clip_id] = duration

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
    """
    remaining = dict(votes)
    bins: list[tuple[int, int]] = []
    for offset in sorted(votes, key=lambda o: (-votes[o], o)):
        if offset not in remaining:
            continue
        total = 0
        for o in range(offset - merge, offset + merge + 1):
            total += remaining.pop(o, 0)
        bins.append((offset, total))
    return bins


# (clip ordinal, offset) vote codes: ordinal above bit 33, offset + 2**32 below.
_OFFSET_BITS = 33
_OFFSET_BIAS = 1 << 32


def query(
    index: FingerprintIndex,
    query_id: str,
    hashed,
    cfg: FpConfig | None = None,
) -> MatchingList:
    """Match hashed query landmarks against the index.

    Votes (candidate anchor frame - query anchor frame) per candidate clip,
    merges adjacent offset bins, and emits one entry per merged bin whose
    count reaches the matching threshold. The query clip itself never
    appears in its own matching list.
    """
    cfg = cfg or index.cfg
    cfg.compatible_with(index.cfg)
    hashed = _as_hashed(hashed)
    postings = index.postings()

    # Every posting under each query key, as (query row, posting row). Keys
    # are searched as u32, the postings' own type; a key outside the key
    # range becomes _KEY_LIMIT, which no posting holds, rather than wrapping.
    keys = hashed[:, 0]
    keys = np.where((keys >= 0) & (keys < _KEY_LIMIT), keys, _KEY_LIMIT).astype(np.uint32)
    lo = np.searchsorted(index._keys, keys, "left")
    hits = np.searchsorted(index._keys, keys, "right") - lo
    rows = np.repeat(np.arange(len(hashed)), hits)
    starts = np.cumsum(hits) - hits
    post = np.repeat(lo - starts, hits) + np.arange(len(rows))
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
                        offset_seconds=offset * cfg.hop / cfg.rate,
                        ml=count,
                        tml=tml,
                        lq=lq,
                        li=index.landmark_counts[clip_id],
                    )
                )
    entries.sort(key=lambda e: (e.clip_id, -e.ml, e.offset_frames))
    return MatchingList(query_id=query_id, entries=entries)


def offset_zero_votes(hashed: list, tol_frames: int = 2) -> np.ndarray:
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
    lo = np.searchsorted(codes, codes - tol_frames, "left")
    hits = np.searchsorted(codes, codes + tol_frames, "right") - lo
    # Every code within the window of each code, as (row, partner) positions.
    rows = np.repeat(np.arange(len(codes)), hits)
    partners = np.repeat(lo - (np.cumsum(hits) - hits), hits) + np.arange(len(rows))
    votes = np.bincount(member[rows] * m + member[partners], minlength=m * m).reshape(m, m)
    np.fill_diagonal(votes, 0)
    return votes
