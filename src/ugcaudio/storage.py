"""On-disk formats: fingerprint index, JSON model file and reports.

JSON files are written by dump_json (sorted keys, 2-space indent, floats in
their shortest repr, which round-trips float64 exactly) and read through
audio_io.read_json, which refuses a key given twice in one object, and
audio_io.read_record, which refuses unknown, missing and mistyped fields.

The index file is little-endian, so a round trip is byte-identical:

    magic 'UGFP', u16 version=3, u32 header length, header bytes,
    u64 n_postings, per posting {u32 key, u32 clip ordinal, u32 t1}

The header is one dump_json document, {"config": {the ten LANDMARK_KEYS},
"clips": {id: {"duration": seconds, "landmarks": count}}}, so the index knows
every parameter its postings depend on; its config is read by
fingerprint.read_config like a config file's. A clip's ordinal is its rank
among the sorted ids. Postings are sorted by (key, ordinal, t1), so the
posting block is the index's in-memory posting array: written with one
`tobytes`, read with one `frombuffer`, checked, and handed to the index as
is. A block out of order is refused, naming where. Versions 1 and 2 (a
`key = value` header and a binary clip table) are refused.

A model file is one JSON document: its header, the fields of its
Standardizer and of its family's model, each listed once with its
read_record kind in _MODEL_HEADER and _MODEL_FIELDS for writer and reader
alike, and the optional _MODEL_META figures. A version-1 `key = value` text
model is refused.
"""

from __future__ import annotations

import json
import math
import struct
from typing import Any

import numpy as np

from .audio_io import read_json, read_record, read_text
from .fingerprint import _CONFIG_KINDS, _KEY_LIMIT, LANDMARK_KEYS, FingerprintIndex, read_config
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
INDEX_VERSION = 3
MODEL_VERSION = 2
# One posting row is three of these: key, clip ordinal, anchor frame.
_POSTING = np.dtype("<u4")
_NUMBER, _NUMBERS = "a finite number", "a list of finite numbers"
# The index header's fields, its config's and each of its clips', with their read_record kinds.
_HEADER_KINDS = {"config": "an object", "clips": "an object"}
_LANDMARK_KINDS = {key: _CONFIG_KINDS[key] for key in LANDMARK_KEYS}
_CLIP_KINDS = {"duration": _NUMBER, "landmarks": "an integer"}
# The model document's fields besides its records', with their read_record kinds.
_MODEL_HEADER = {"version": "an integer", "family": "a string", "subset": "a string", "features": "a list of strings"}
# The dataclass fields a model document holds for each record, with their read_record kinds.
_MODEL_FIELDS = {
    Standardizer: {"mean": _NUMBERS, "std": _NUMBERS},
    LogRegModel: {"weights": _NUMBERS, "bias": _NUMBER, "c": _NUMBER},
    KnnModel: {"k": _NUMBER, "train_x": "a list of rows of finite numbers", "train_y": _NUMBERS},
}
# The metadata a model document may hold: each key's type and largest value (the least is 0).
_MODEL_META = {"accuracy": (float, 1), "val_error": (float, 1), "wrong_fps": (int, math.inf), "degraded": (int, 1)}


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
    """Serialize: the JSON header, then the postings, fully sorted."""
    header = dump_json({
        "config": {key: getattr(index.cfg, key) for key in LANDMARK_KEYS},
        "clips": {cid: {"duration": index.durations[cid], "landmarks": index.landmark_counts[cid]} for cid in index.clip_ids},
    }).encode()
    postings = index.postings()
    return b"".join([
        INDEX_MAGIC,
        struct.pack("<HI", INDEX_VERSION, len(header)),
        header,
        struct.pack("<Q", len(postings)),
        postings.astype(_POSTING, copy=False).tobytes(),
    ])


def index_from_bytes(data: bytes) -> FingerprintIndex:
    r = _Reader(data, "index file")
    if r.take_bytes(4) != INDEX_MAGIC:
        raise StorageError("not an index file (bad magic)")
    (version,) = r.take("<H")
    if version < INDEX_VERSION:
        raise StorageError(f"index file version {version} is a format this version does not read; re-index the clips")
    if version != INDEX_VERSION:
        raise StorageError(f"unsupported version {version} (expected {INDEX_VERSION})")
    (header_len,) = r.take("<I")
    try:
        doc = read_json(r.take_bytes(header_len).decode("utf-8"), "index header")
        read_record(doc, _HEADER_KINDS, "index header")
        cfg = read_config(doc["config"], _LANDMARK_KINDS, "index header config")
        clips = {cid: read_record(clip, _CLIP_KINDS, f"index header clip {cid!r}") for cid, clip in doc["clips"].items()}
    except UnicodeDecodeError as exc:
        raise StorageError(f"index header: {exc}") from None
    except ValueError as exc:
        raise StorageError(str(exc)) from None
    index = FingerprintIndex(cfg)
    clip_ids = sorted(clips)
    for cid in clip_ids:
        if clips[cid]["landmarks"] < 1:
            raise StorageError(f"clip {cid!r} declares {clips[cid]['landmarks']} landmarks; an indexed clip has some")
        index.landmark_counts[cid] = clips[cid]["landmarks"]
        index.durations[cid] = float(clips[cid]["duration"])

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


def model_to_text(flt: MatchFilter, meta: dict[str, Any] | None = None) -> str:
    """The model document: its header, the _MODEL_FIELDS of the filter's records and meta's _MODEL_META keys."""
    doc = {"version": MODEL_VERSION, "family": flt.family, "subset": flt.subset.name, "features": list(flt.subset.fields)}
    for record in (flt.standardizer, flt.model):
        doc |= {key: np.asarray(getattr(record, key)).tolist() for key in _MODEL_FIELDS[type(record)]}
    doc |= {key: kind(meta[key]) for key, (kind, _) in _MODEL_META.items() if key in (meta or {})}
    return dump_json(doc)


def _refuse_first(where: str, key: str, values: np.ndarray, ok: np.ndarray, wanted: str) -> None:
    """Refuse the first of values that ok marks false, naming where, key and its index."""
    bad = np.flatnonzero(~ok)
    if len(bad):
        raise StorageError(f"{where}: {key}[{bad[0]}] must be {wanted}, got {values[bad[0]].item()!r}")


def model_from_text(text: str) -> tuple[MatchFilter, dict[str, Any]]:
    """Read model_to_text's document, refusing any value that no fitted filter has.

    Beyond its kind, std must be positive, train_y 0 or 1, c positive, k an odd integer in
    [1, training rows], accuracy and val_error in [0, 1], wrong_fps at least 0 and degraded 0
    or 1. A StorageError names the field at fault, a key the family lacks (a logistic model's
    train_x, a misspelt metadata key) or a repeated key; a version-1 text model is named so.
    """
    try:
        doc = read_json(text, "model file")
    except ValueError as exc:
        if text.startswith("version = 1\n"):
            raise StorageError(
                "model file is a version-1 text model, which this version does not read; re-train the model"
            ) from None
        raise StorageError(str(exc)) from None
    if not isinstance(doc, dict):
        raise StorageError("model file: not an object")
    for key in ("version", "family"):
        if key not in doc:
            raise StorageError(f"model file: missing field {key!r}")
    if doc["version"] != MODEL_VERSION:
        raise StorageError(f"model file: unsupported version {doc['version']!r} (expected {MODEL_VERSION})")
    family = doc["family"]
    if family not in (FAMILY_LOGREG, FAMILY_KNN):
        raise StorageError(f"model file: unknown model family {family!r}")
    model_type = LogRegModel if family == FAMILY_LOGREG else KnnModel
    where = f"{family} model file"
    kinds = _MODEL_HEADER | _MODEL_FIELDS[Standardizer] | _MODEL_FIELDS[model_type]
    kinds |= {key: _NUMBER if kind is float else "an integer" for key, (kind, _) in _MODEL_META.items() if key in doc}
    try:
        read_record(doc, kinds, where)
        subset = parse_subset(doc["subset"])
    except ValueError as exc:
        raise StorageError(str(exc)) from None
    if doc["features"] != list(subset.fields):
        raise StorageError(f"{where}: features do not match its subset")
    dim = len(subset.fields)
    if family == FAMILY_KNN and any(len(row) != dim for row in doc["train_x"]):
        raise StorageError(f"{where}: training matrix does not match the feature subset")
    # Each record field is a list of numbers, read as a float64 array, or a finite number.
    std, model = (
        record(**{
            key: np.array(doc[key], dtype=np.float64) if isinstance(doc[key], list) else float(doc[key])
            for key in _MODEL_FIELDS[record]
        })
        for record in (Standardizer, model_type)
    )
    if len(std.mean) != dim or len(std.std) != dim:
        raise StorageError(f"{where}: standardizer dimension does not match the feature subset")
    _refuse_first(where, "std", std.std, std.std > 0, "positive")
    if family == FAMILY_LOGREG:
        if len(model.weights) != dim:
            raise StorageError(f"{where}: weight dimension does not match the feature subset")
        if model.c <= 0:
            raise StorageError(f"{where}: c must be positive, got {model.c!r}")
    else:
        _refuse_first(where, "train_y", model.train_y, (model.train_y == 0) | (model.train_y == 1), "0 or 1")
        if len(model.train_y) != len(model.train_x):
            raise StorageError(f"{where}: training labels do not match the training matrix")
        if not (model.k.is_integer() and model.k % 2 == 1 and 1 <= model.k <= len(model.train_x)):
            raise StorageError(f"{where}: k must be an odd integer in [1, {len(model.train_x)}], got {model.k!r}")
        model.k = int(model.k)
    meta = {key: kind(doc[key]) for key, (kind, _) in _MODEL_META.items() if key in doc}
    for key, value in meta.items():
        top = _MODEL_META[key][1]
        if not 0 <= value <= top:
            wanted = "at least 0" if top == math.inf else f"in [0, {top}]"
            raise StorageError(f"{where}: {key} must be {wanted}, got {value!r}")
    return MatchFilter(subset=subset, standardizer=std, model=model), meta


def save_model(flt: MatchFilter, path: str, meta: dict[str, Any] | None = None) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(model_to_text(flt, meta))


def load_model(path: str) -> tuple[MatchFilter, dict[str, Any]]:
    """model_from_text on the file at path; a StorageError starts with the path."""
    text = read_text(path)
    try:
        return model_from_text(text)
    except StorageError as exc:
        raise StorageError(f"{path}: {exc}") from None


def dump_json(obj: Any) -> str:
    """Canonical form: sorted keys, 2-space indent, trailing newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def save_json(obj: Any, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(dump_json(obj))


def load_json(path: str) -> Any:
    """The JSON document in the file at path; a ValueError names the file when it does not parse or repeats a key."""
    return read_json(read_text(path), path)
