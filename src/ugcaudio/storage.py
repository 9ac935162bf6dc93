"""On-disk formats: binary fingerprint index, text model file, JSON report.

The index layout is little-endian and, apart from the header text and the
clip ids, fixed-width, so a round trip is byte-identical and a hexdump diff
is readable:

    magic 'UGFP', u16 version=2, u32 header length, header bytes,
    u32 n_clips, per clip {u16 id length, id bytes, f64 duration, u32 #L},
    u64 n_postings, per posting {u32 key, u32 clip ordinal, u32 t1}

The header is UTF-8 `key = value` lines, one per LANDMARK_KEYS parameter in
that order, floats written with repr: the config file format, read back by
the same parser, so the index knows every parameter its postings depend on.
Version 1 files stored only rate, window and hop, and are refused.

Clips are in sorted-id order and postings sorted by (key, ordinal, t1), so
the posting block is the index's in-memory posting array: written with one
`tobytes`, read with one `frombuffer`, checked, and handed to the index as
is. A file out of either order is refused, naming where.

Model files are `key = value` text with repr'd floats, which round-trip
float64 exactly. Reports are JSON with sorted keys and a trailing newline.
"""

from __future__ import annotations

import json
import struct
from typing import Any

import numpy as np

from .audio_io import read_text
from .fingerprint import _KEY_LIMIT, LANDMARK_KEYS, FingerprintIndex, parse_config
from .match_classifier import (
    FAMILY_KNN,
    FAMILY_LOGREG,
    KnnModel,
    LogRegModel,
    MatchFilter,
    Standardizer,
    parse_subset,
)

INDEX_MAGIC = b"UGFP"
INDEX_VERSION = 2
MODEL_VERSION = 1
# One posting row is three of these: key, clip ordinal, anchor frame.
_POSTING = np.dtype("<u4")
# The metadata a model file may end with, in file order, and the type of each.
_MODEL_META = (("accuracy", float), ("val_error", float), ("wrong_fps", int), ("degraded", int))


class StorageError(Exception):
    pass


class _Reader:
    def __init__(self, data: bytes, what: str):
        self.data = data
        self.pos = 0
        self.what = what

    def take(self, fmt: str):
        return struct.unpack(fmt, self.take_bytes(struct.calcsize(fmt)))

    def take_bytes(self, size: int) -> bytes:
        if self.pos + size > len(self.data):
            raise StorageError(
                f"truncated {self.what}: needed {size} bytes at offset {self.pos}"
            )
        out = self.data[self.pos : self.pos + size]
        self.pos += size
        return out


def index_to_bytes(index: FingerprintIndex) -> bytes:
    """Serialize with clips in sorted-id order and postings fully sorted."""
    clip_ids = index.clip_ids
    header = "".join(f"{key} = {getattr(index.cfg, key)!r}\n" for key in LANDMARK_KEYS).encode()
    parts = [
        INDEX_MAGIC,
        struct.pack("<HI", INDEX_VERSION, len(header)),
        header,
        struct.pack("<I", len(clip_ids)),
    ]
    for cid in clip_ids:
        raw = cid.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise StorageError(f"clip id too long to store: {cid[:40]!r}...")
        parts.append(struct.pack("<H", len(raw)))
        parts.append(raw)
        parts.append(
            struct.pack("<dI", index.durations[cid], index.landmark_counts[cid])
        )

    postings = index.postings()
    parts.append(struct.pack("<Q", len(postings)))
    parts.append(postings.astype(_POSTING, copy=False).tobytes())
    return b"".join(parts)


def index_from_bytes(data: bytes) -> FingerprintIndex:
    r = _Reader(data, "index file")
    if r.take_bytes(4) != INDEX_MAGIC:
        raise StorageError("not an index file (bad magic)")
    (version,) = r.take("<H")
    if version == 1:
        raise StorageError(
            "index file version 1 does not record its landmark parameters; re-index the clips"
        )
    if version != INDEX_VERSION:
        raise StorageError(f"unsupported version {version} (expected {INDEX_VERSION})")
    (header_len,) = r.take("<I")
    try:
        text = r.take_bytes(header_len).decode("utf-8")
        # The key list first, so that a repeated key is refused as a header fault.
        keys = [line.partition("=")[0].strip() for line in text.splitlines()]
        if sorted(keys) != sorted(LANDMARK_KEYS):
            raise StorageError(
                f"index header sets {', '.join(keys)}; expected exactly {', '.join(LANDMARK_KEYS)}"
            )
        cfg = parse_config(text)
    except ValueError as exc:
        raise StorageError(f"index header: {exc}") from None
    (n_clips,) = r.take("<I")
    index = FingerprintIndex(cfg)

    clip_ids: list[str] = []
    for _ in range(n_clips):
        (id_len,) = r.take("<H")
        at = r.pos
        try:
            cid = r.take_bytes(id_len).decode("utf-8")
        except UnicodeDecodeError:
            raise StorageError(f"clip table entry {len(clip_ids)}: id at offset {at} is not UTF-8") from None
        duration, n_landmarks = r.take("<dI")
        if cid in index.landmark_counts:
            raise StorageError(f"duplicate clip id {cid!r} in index file")
        if clip_ids and cid < clip_ids[-1]:
            raise StorageError(
                f"clip table out of id order: clip {len(clip_ids)} {cid!r} follows {clip_ids[-1]!r}"
            )
        if n_landmarks == 0:
            raise StorageError(f"clip {cid!r} declares 0 landmarks; an indexed clip has some")
        clip_ids.append(cid)
        index.landmark_counts[cid] = n_landmarks
        index.durations[cid] = duration

    (n_postings,) = r.take("<Q")
    row = 3 * _POSTING.itemsize
    complete = min(n_postings, (len(data) - r.pos) // row)
    block = np.frombuffer(data, dtype=_POSTING, count=3 * complete, offset=r.pos).reshape(-1, 3)
    # Faults are reported in file order: bad posting rows before a short tail.
    bad = np.flatnonzero(block[:, 1] >= len(clip_ids))
    if len(bad):
        raise StorageError(
            f"posting {bad[0]} references clip ordinal {block[bad[0], 1]} of {len(clip_ids)}"
        )
    # (key, ordinal) fits one int64 code; t1 breaks its ties.
    step = np.diff((block[:, 0].astype(np.int64) << 32) | block[:, 1])
    bad = np.flatnonzero((step < 0) | ((step == 0) & (block[1:, 2] < block[:-1, 2])))
    if len(bad):
        raise StorageError(
            f"postings out of (key, ordinal, t1) order: posting {bad[0] + 1} sorts before posting {bad[0]}"
        )
    if complete and block[-1, 0] >= _KEY_LIMIT:  # sorted, so the last key is the largest
        first = int(np.searchsorted(block[:, 0], _KEY_LIMIT))
        raise StorageError(f"posting {first} has key {block[first, 0]}, not below 2**21")
    r.pos += row * complete
    if complete < n_postings:
        r.take_bytes(row)  # raises, naming the offset of the incomplete posting
    if r.pos != len(data):
        raise StorageError(f"{len(data) - r.pos} trailing bytes after postings")
    seen = np.bincount(block[:, 1], minlength=len(clip_ids)).tolist()
    for cid, count in zip(clip_ids, seen):
        if count != index.landmark_counts[cid]:
            raise StorageError(
                f"clip {cid!r} declares {index.landmark_counts[cid]} landmarks "
                f"but has {count} postings"
            )
    index.freeze(block)
    return index


def save_index(index: FingerprintIndex, path: str) -> None:
    with open(path, "wb") as f:
        f.write(index_to_bytes(index))


def load_index(path: str) -> FingerprintIndex:
    with open(path, "rb") as f:
        return index_from_bytes(f.read())


def _floats(values) -> str:
    return ",".join(repr(float(v)) for v in np.asarray(values, dtype=np.float64).ravel())


def model_to_text(flt: MatchFilter, meta: dict[str, Any] | None = None) -> str:
    """Fixed field order so identical models serialize identically."""
    meta = meta or {}
    lines = [
        f"version = {MODEL_VERSION}",
        f"family = {flt.family}",
        f"subset = {flt.subset.name}",
        f"features = {','.join(flt.subset.fields)}",
        f"param = {repr(flt.param)}",
        f"mean = {_floats(flt.standardizer.mean)}",
        f"std = {_floats(flt.standardizer.std)}",
    ]
    if isinstance(flt.model, LogRegModel):
        lines.append(f"weights = {_floats(flt.model.weights)}")
        lines.append(f"bias = {repr(float(flt.model.bias))}")
    else:
        rows = ";".join(_floats(row) for row in flt.model.train_x)
        lines.append(f"train_x = {rows}")
        lines.append(f"train_y = {','.join(str(int(v)) for v in flt.model.train_y)}")
    lines.extend(f"{key} = {kind(meta[key])!r}" for key, kind in _MODEL_META if key in meta)
    return "\n".join(lines) + "\n"


def model_from_text(text: str) -> tuple[MatchFilter, dict[str, Any]]:
    """Parse a model file, refusing any value that no fitted filter has.

    Every value must be a number; mean, weights, bias and train_x finite;
    std finite and positive; train_y 0 or 1; a logistic c finite and
    positive; a k-NN k an odd integer in [1, training rows]. A StorageError
    names the field at fault, or the line of a key that the file's family
    does not have (a logistic model's train_x, a misspelt metadata key).
    """
    fields: dict[str, str] = {}
    line_of: dict[str, int] = {}
    for i, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if " = " not in line:
            raise StorageError(f"model file line {i}: expected 'key = value'")
        key, value = line.split(" = ", 1)
        if key in fields:
            raise StorageError(f"model file line {i}: duplicate key {key!r}")
        fields[key] = value
        line_of[key] = i
    read: set[str] = set()  # every key the file's family has, as it is read

    def need(key: str) -> str:
        if key not in fields:
            raise StorageError(f"model file missing field {key!r}")
        read.add(key)
        return fields[key]

    def floats(key: str, text: str, check=np.isfinite, wanted: str = "finite") -> np.ndarray:
        """Comma-separated numbers of field `key`, each passing `check`."""
        try:
            values = np.array([float(v) for v in text.split(",")] if text else [])
        except ValueError:
            raise StorageError(f"model file field {key!r}: {text!r} is not numbers") from None
        if not check(values).all():
            raise StorageError(f"model file field {key!r}: values must be {wanted}, got {text!r}")
        return values

    def positive(v: np.ndarray) -> np.ndarray:
        return np.isfinite(v) & (v > 0)

    def number(key: str, check=np.isfinite, wanted: str = "finite") -> float:
        value = floats(key, need(key), check, wanted)
        if len(value) != 1:
            raise StorageError(f"model file field {key!r}: expected one number, got {need(key)!r}")
        return float(value[0])

    if need("version") != str(MODEL_VERSION):
        raise StorageError(
            f"unsupported version {fields['version']} (expected {MODEL_VERSION})"
        )
    family = need("family")
    subset = parse_subset(need("subset"))
    if need("features") != ",".join(subset.fields):
        raise StorageError("model file features do not match its subset")
    std = Standardizer(
        mean=floats("mean", need("mean")),
        std=floats("std", need("std"), positive, "finite and positive"),
    )
    dim = len(subset.fields)
    if len(std.mean) != dim or len(std.std) != dim:
        raise StorageError("standardizer dimension does not match the feature subset")

    if family == FAMILY_LOGREG:
        weights = floats("weights", need("weights"))
        if len(weights) != dim:
            raise StorageError("weight dimension does not match the feature subset")
        c = number("param", positive, "finite and positive")
        model = LogRegModel(weights=weights, bias=number("bias"), c=c)
    elif family == FAMILY_KNN:
        rows = [floats("train_x", row) for row in need("train_x").split(";")]
        if any(len(row) != dim for row in rows):
            raise StorageError("training matrix does not match the feature subset")
        train_x = np.array(rows, dtype=np.float64).reshape(len(rows), dim)
        train_y = floats("train_y", need("train_y"), lambda v: (v == 0) | (v == 1), "0 or 1")
        if len(train_y) != len(train_x):
            raise StorageError("training labels do not match the training matrix")
        k = number("param")
        if not (k.is_integer() and k % 2 == 1 and 1 <= k <= len(train_x)):
            raise StorageError(
                f"model file field 'param': k must be an odd integer "
                f"in [1, {len(train_x)}], got {k!r}"
            )
        model = KnnModel(k=int(k), train_x=train_x, train_y=train_y)
    else:
        raise StorageError(f"unknown model family {family!r}")

    meta: dict[str, Any] = {}
    for key, kind in _MODEL_META:
        if key not in fields:
            continue
        try:
            meta[key] = number(key) if kind is float else int(need(key))
        except ValueError:  # int() only: number() raises StorageError
            raise StorageError(f"model file field {key!r}: {fields[key]!r} is not an integer") from None
    unknown = next((key for key in fields if key not in read), None)
    if unknown is not None:
        raise StorageError(f"model file line {line_of[unknown]}: a {family} model has no field {unknown!r}")
    flt = MatchFilter(subset=subset, standardizer=std, model=model)
    return flt, meta


def save_model(flt: MatchFilter, path: str, meta: dict[str, Any] | None = None) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(model_to_text(flt, meta))


def load_model(path: str) -> tuple[MatchFilter, dict[str, Any]]:
    return model_from_text(read_text(path))


def dump_json(obj: Any) -> str:
    """Canonical form: sorted keys, 2-space indent, trailing newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def save_json(obj: Any, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(dump_json(obj))


def _refuse_repeated_keys(pairs: list[tuple[str, Any]]) -> dict:
    """A JSON object from its (key, value) pairs, refusing a key given twice rather than keeping the last."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"repeated key {next(key for key in doc if keys.count(key) > 1)!r}")
    return doc


def load_json(path: str) -> Any:
    """The JSON document in the file at path; a ValueError names the file when it does not parse or repeats a key."""
    text = read_text(path)
    try:
        return json.loads(text, object_pairs_hook=_refuse_repeated_keys)
    except ValueError as exc:  # malformed JSON, a repeated key, or an integer past the interpreter's digit limit
        raise ValueError(f"{path}: {exc}") from None
