import re
import struct
from dataclasses import replace

import numpy as np
import pytest

from ugcaudio import (
    FingerprintIndex,
    FpConfig,
    KnnModel,
    LogRegModel,
    MatchFilter,
    S2,
    S4,
    Standardizer,
    LANDMARK_KEYS,
    StorageError,
    fingerprint_clip,
    hash_landmarks,
    load_index,
    load_model,
    query,
    save_index,
    save_model,
)
from ugcaudio.storage import (
    INDEX_MAGIC,
    INDEX_VERSION,
    dump_json,
    index_from_bytes,
    index_to_bytes,
    model_from_text,
    model_to_text,
)

from _helpers import burst_clip


def toy_index() -> FingerprintIndex:
    index = FingerprintIndex(FpConfig())
    index.add_hashed("beta", [(512, 4), (99, 0), (512, 9)], duration=2.5)
    index.add_hashed("alpha", [(2_097_087, 63)], duration=0.75)
    return index


def real_rows(cfg: FpConfig = FpConfig()) -> dict[str, np.ndarray]:
    clips = [burst_clip(f"clip{i:02d}", duration=3.0, seed=20 + i) for i in range(3)]
    return {clip.id: hash_landmarks(fingerprint_clip(clip, cfg)) for clip in clips}


def real_index(cfg: FpConfig = FpConfig()) -> FingerprintIndex:
    index = FingerprintIndex(cfg)
    for cid, hashed in real_rows(cfg).items():
        index.add_hashed(cid, hashed, duration=3.0)
    return index


def clip_rows(index: FingerprintIndex) -> dict[str, list[tuple[int, int]]]:
    """Each clip's sorted (key, t1) rows, read back from the posting array."""
    ids = index.clip_ids
    rows = {cid: [] for cid in ids}
    for key, ordinal, t1 in index.postings().tolist():
        rows[ids[ordinal]].append((key, t1))
    return {cid: sorted(r) for cid, r in rows.items()}


def with_header(blob: bytes, text: str, version: int = INDEX_VERSION) -> bytes:
    """The index blob with its landmark header replaced by `text`."""
    (old_len,) = struct.unpack_from("<I", blob, 6)
    raw = text.encode()
    return blob[:4] + struct.pack("<HI", version, len(raw)) + raw + blob[10 + old_len :]


class TestIndexFormat:
    def test_round_trip_preserves_everything(self):
        toy = {"alpha": [(2_097_087, 63)], "beta": [(512, 4), (99, 0), (512, 9)]}
        for index, added in ((toy_index(), toy), (real_index(), real_rows())):
            loaded = index_from_bytes(index_to_bytes(index))
            assert loaded.cfg == index.cfg
            assert loaded.clip_ids == index.clip_ids
            assert loaded.durations == index.durations
            assert loaded.landmark_counts == index.landmark_counts
            rows = {cid: sorted(map(tuple, np.asarray(h).tolist())) for cid, h in added.items()}
            assert clip_rows(loaded) == rows
            assert np.array_equal(loaded.postings(), index.postings())

    def test_loaded_index_answers_queries_like_the_fresh_one(self):
        rows = real_rows()
        fresh = real_index()
        loaded = index_from_bytes(index_to_bytes(fresh))
        probes = {**rows, "probe": np.concatenate([h[::2] for h in rows.values()])}
        cfg = FpConfig(match_threshold=1)
        for qid, hashed in probes.items():
            want = query(fresh, qid, hashed, cfg).entries
            assert query(loaded, qid, hashed, cfg).entries == want
        assert {e.clip_id for e in want} == set(rows)  # the probe, last, meets every clip

    def test_loaded_index_is_frozen(self):
        loaded = index_from_bytes(index_to_bytes(toy_index()))
        with pytest.raises(ValueError, match="cannot add clip 'gamma': the index is frozen"):
            loaded.add_hashed("gamma", [(1, 0)], duration=1.0)

    def test_round_trip_keeps_landmark_parameters(self):
        cfg = FpConfig(fanout=5, peak_density=33.5, dt_max=40, df_min=-20, match_threshold=9)
        blob = index_to_bytes(real_index(cfg))
        loaded = index_from_bytes(blob)
        for key in LANDMARK_KEYS:
            assert getattr(loaded.cfg, key) == getattr(cfg, key), key
        # Query-time parameters are not stored: the loaded index has defaults.
        assert loaded.cfg == replace(cfg, match_threshold=FpConfig().match_threshold)
        assert index_to_bytes(loaded) == blob
        assert b"peak_density = 33.5\nfanout = 5\n" in blob  # LANDMARK_KEYS order

    def test_version_1_refused_naming_the_version(self):
        # Version 1: u16 version, u32 rate, u16 window, u16 hop, u32 n_clips = 0, u64 0.
        blob = INDEX_MAGIC + struct.pack("<HIHHIQ", 1, 11025, 512, 256, 0, 0)
        with pytest.raises(StorageError, match="version 1 .* re-index"):
            index_from_bytes(blob)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda lines: lines[:-1],  # df_max missing
            lambda lines: lines + ["match_threshold = 5"],  # a query-time key
            lambda lines: lines + [lines[0]],  # rate twice
        ],
    )
    def test_header_must_set_exactly_the_landmark_keys(self, edit):
        blob = index_to_bytes(toy_index())
        lines = [f"{key} = {getattr(FpConfig(), key)!r}" for key in LANDMARK_KEYS]
        assert index_from_bytes(with_header(blob, "\n".join(lines) + "\n")).cfg == FpConfig()
        with pytest.raises(StorageError, match="index header sets"):
            index_from_bytes(with_header(blob, "\n".join(edit(lines)) + "\n"))

    def test_bad_header_value_refused(self):
        blob = index_to_bytes(toy_index())
        text = blob[10 : 10 + struct.unpack_from("<I", blob, 6)[0]].decode()
        for bad in (
            text.replace("window = 512", "window = 500"),
            text.replace("fanout = 3", "fanout = x"),
            text.replace("log_floor = -10.0", "log_floor = nan"),
            text.replace("rate = 11025", "rate = 0"),
        ):
            with pytest.raises(StorageError, match="index header: .*(window|fanout|log_floor|rate)"):
                index_from_bytes(with_header(blob, bad))

    def test_serialization_is_canonical(self):
        # same content added in a different order serializes identically
        a = FingerprintIndex(FpConfig())
        a.add_hashed("x", [(7, 1), (3, 2)], duration=1.0)
        a.add_hashed("y", [(7, 5)], duration=2.0)
        b = FingerprintIndex(FpConfig())
        b.add_hashed("y", [(7, 5)], duration=2.0)
        b.add_hashed("x", [(3, 2), (7, 1)], duration=1.0)
        assert index_to_bytes(a) == index_to_bytes(b)

    def test_load_dump_is_byte_identical(self):
        blob = index_to_bytes(real_index())
        assert index_to_bytes(index_from_bytes(blob)) == blob

    def test_file_round_trip(self, tmp_path):
        index = real_index()
        path = str(tmp_path / "corpus.idx")
        save_index(index, path)
        loaded = load_index(path)
        assert index_to_bytes(loaded) == index_to_bytes(index)

    def test_bad_magic(self):
        blob = bytearray(index_to_bytes(toy_index()))
        blob[:4] = b"JUNK"
        with pytest.raises(StorageError, match="bad magic"):
            index_from_bytes(bytes(blob))

    def test_future_version_refused(self):
        blob = bytearray(index_to_bytes(toy_index()))
        blob[4:6] = (INDEX_VERSION + 1).to_bytes(2, "little")
        with pytest.raises(StorageError, match="unsupported version"):
            index_from_bytes(bytes(blob))

    def test_truncation_reports_offset(self):
        blob = index_to_bytes(toy_index())
        with pytest.raises(StorageError, match="truncated .* offset"):
            index_from_bytes(blob[: len(blob) - 5])
        with pytest.raises(StorageError, match="truncated"):
            index_from_bytes(blob[:3])

    def test_trailing_bytes_rejected(self):
        blob = index_to_bytes(toy_index())
        with pytest.raises(StorageError, match="trailing"):
            index_from_bytes(blob + b"\x00")

    def test_posting_count_mismatch_rejected(self):
        blob = bytearray(index_to_bytes(toy_index()))
        # clips are sorted, so 'alpha' (1 landmark) is declared first;
        # bump its count to 2 without adding a posting
        pos = blob.index(b"alpha") + len(b"alpha") + 8
        blob[pos:pos + 4] = (2).to_bytes(4, "little")
        with pytest.raises(StorageError, match="declares 2 landmarks"):
            index_from_bytes(bytes(blob))

    def test_clip_declaring_no_landmarks_rejected(self):
        blob = bytearray(index_to_bytes(toy_index()))
        # drop 'alpha' (declared first) and its one posting, the last by key
        pos = blob.index(b"alpha") + len(b"alpha") + 8
        blob[pos:pos + 4] = (0).to_bytes(4, "little")
        count = len(blob) - 4 * 12 - 8
        blob[count:count + 8] = (3).to_bytes(8, "little")
        del blob[-12:]
        with pytest.raises(StorageError, match="clip 'alpha' declares 0 landmarks"):
            index_from_bytes(bytes(blob))

    def test_clip_id_not_utf8_rejected(self):
        blob = index_to_bytes(toy_index())
        at = blob.index(b"beta")  # the second entry; 'alpha' sorts first
        with pytest.raises(StorageError, match=f"^clip table entry 1: id at offset {at} is not UTF-8$"):
            index_from_bytes(blob[:at] + b"\xffeta" + blob[at + 4 :])

    def test_clip_table_out_of_id_order_rejected(self):
        index = FingerprintIndex(FpConfig())
        index.add_hashed("x1", [(5, 0)], duration=1.0)
        index.add_hashed("x2", [(6, 0)], duration=1.0)
        blob = index_to_bytes(index).replace(b"x1", b"x3", 1)
        with pytest.raises(StorageError, match="clip table out of id order: clip 1 'x2' follows 'x3'"):
            index_from_bytes(blob)

    # Toy postings: (99, 1, 0), (512, 1, 4), (512, 1, 9), (2097087, 0, 63).
    @pytest.mark.parametrize("swap", [(1, 2), (2, 3)])  # t1 order, then key order
    def test_postings_out_of_order_rejected(self, swap):
        blob = bytearray(index_to_bytes(toy_index()))
        start = len(blob) - 4 * 12
        i, j = (start + 12 * k for k in swap)
        blob[i : i + 12], blob[j : j + 12] = blob[j : j + 12], blob[i : i + 12]
        message = f"postings out of (key, ordinal, t1) order: posting {swap[1]} sorts before posting {swap[0]}"
        with pytest.raises(StorageError, match=re.escape(message)):
            index_from_bytes(bytes(blob))

    def test_out_of_range_ordinal_rejected(self):
        blob = bytearray(index_to_bytes(toy_index()))
        blob[-8:-4] = (9).to_bytes(4, "little")  # ordinal field of last posting
        with pytest.raises(StorageError, match="^posting 3 references clip ordinal 9 of 2$"):
            index_from_bytes(bytes(blob))

    def test_key_beyond_the_key_space_rejected(self):
        blob = bytearray(index_to_bytes(toy_index()))
        blob[-12:-8] = (2**21 + 5).to_bytes(4, "little")  # key field of last posting
        with pytest.raises(StorageError, match=re.escape("posting 3 has key 2097157, not below 2**21")):
            index_from_bytes(bytes(blob))

    def test_empty_index_round_trips(self):
        empty = FingerprintIndex(FpConfig())
        blob = index_to_bytes(empty)
        loaded = index_from_bytes(blob)
        assert loaded.clip_ids == []
        assert index_to_bytes(loaded) == blob


def logreg_filter() -> MatchFilter:
    return MatchFilter(
        subset=S2,
        standardizer=Standardizer(
            mean=np.array([10.0, 20.5, 300.0]), std=np.array([2.0, 1.0, 55.25])
        ),
        model=LogRegModel(
            weights=np.array([0.1, -2.25, 1e-7]), bias=-0.3333333333333333, c=64.0
        ),
    )


def knn_filter() -> MatchFilter:
    rng = np.random.default_rng(3)
    return MatchFilter(
        subset=S4,
        standardizer=Standardizer(mean=np.zeros(4), std=np.ones(4)),
        model=KnnModel(
            k=3,
            train_x=rng.normal(size=(6, 4)),
            train_y=np.array([0.0, 1.0, 1.0, 0.0, 1.0, 0.0]),
        ),
    )


class TestModelFormat:
    def test_logreg_round_trip_exact(self):
        flt = logreg_filter()
        text = model_to_text(flt, {"accuracy": 0.925, "wrong_fps": 0})
        loaded, meta = model_from_text(text)
        assert model_to_text(loaded, meta) == text
        assert loaded.family == "logreg"
        assert loaded.param == 64.0
        assert np.array_equal(loaded.model.weights, flt.model.weights)
        assert loaded.model.bias == flt.model.bias
        assert np.array_equal(loaded.standardizer.mean, flt.standardizer.mean)
        assert meta == {"accuracy": 0.925, "wrong_fps": 0}

    def test_knn_round_trip_exact(self):
        flt = knn_filter()
        text = model_to_text(flt, {"val_error": 0.03125, "degraded": 0})
        loaded, meta = model_from_text(text)
        assert model_to_text(loaded, meta) == text
        assert loaded.family == "knn"
        assert loaded.model.k == 3
        assert np.array_equal(loaded.model.train_x, flt.model.train_x)
        assert np.array_equal(loaded.model.train_y, flt.model.train_y)
        assert meta == {"val_error": 0.03125, "degraded": 0}

    def test_loaded_filter_predicts_identically(self):
        flt = knn_filter()
        loaded, _ = model_from_text(model_to_text(flt))
        x = np.random.default_rng(5).normal(size=(10, 4))
        assert np.array_equal(loaded.model.predict(x), flt.model.predict(x))

    def test_file_round_trip(self, tmp_path):
        path = str(tmp_path / "model.txt")
        save_model(logreg_filter(), path, {"accuracy": 1.0})
        loaded, meta = load_model(path)
        assert loaded.subset.name == "S2"
        assert meta["accuracy"] == 1.0

    def test_future_version_refused(self):
        text = model_to_text(logreg_filter()).replace("version = 1", "version = 2")
        with pytest.raises(StorageError, match="unsupported version"):
            model_from_text(text)

    def test_missing_field(self):
        text = "\n".join(
            line for line in model_to_text(logreg_filter()).splitlines() if not line.startswith("bias")
        )
        with pytest.raises(StorageError, match="missing field 'bias'"):
            model_from_text(text)

    def test_weight_dimension_checked(self):
        text = model_to_text(logreg_filter()).replace(
            "weights = 0.1,-2.25,1e-07", "weights = 0.1,-2.25"
        )
        with pytest.raises(StorageError, match="weight dimension"):
            model_from_text(text)

    def test_features_subset_agreement_checked(self):
        text = model_to_text(logreg_filter()).replace(
            "features = ml,tml,lq", "features = ml,tml,li"
        )
        with pytest.raises(StorageError, match="features do not match"):
            model_from_text(text)

    def test_duplicate_key_rejected(self):
        text = model_to_text(logreg_filter())
        text += "family = knn\n"
        with pytest.raises(StorageError, match="duplicate key"):
            model_from_text(text)

    def test_malformed_line_rejected(self):
        with pytest.raises(StorageError, match="key = value"):
            model_from_text("version=1\n")

    @pytest.mark.parametrize(
        "family, field, value, message",
        [
            ("logreg", "mean", "10.0,x,300.0", "'10.0,x,300.0' is not numbers"),
            ("logreg", "mean", "10.0,nan,300.0", "values must be finite"),
            ("logreg", "std", "0.0,1.0,55.25", "values must be finite and positive"),
            ("logreg", "std", "2.0,-1.0,inf", "values must be finite and positive"),
            ("logreg", "weights", "0.1,inf,1e-07", "values must be finite"),
            ("logreg", "bias", "nan", "values must be finite"),
            ("logreg", "param", "0.0", "values must be finite and positive"),
            ("logreg", "param", "inf", "values must be finite and positive"),
            ("knn", "train_x", "1.0,2.0,3.0,nan", "values must be finite"),
            ("knn", "train_y", "0,1,1,0,2,0", "values must be 0 or 1"),
            ("knn", "param", "4.0", "k must be an odd integer in [1, 6], got 4.0"),
            ("knn", "param", "7.0", "k must be an odd integer in [1, 6], got 7.0"),
            ("knn", "param", "2.5", "k must be an odd integer in [1, 6], got 2.5"),
            ("knn", "param", "three", "'three' is not numbers"),
        ],
    )
    def test_value_no_fitted_filter_has_refused(self, family, field, value, message):
        text = model_to_text(logreg_filter() if family == "logreg" else knn_filter())
        if field == "train_x":  # the first row only
            text = re.sub(r"^train_x = [^;]*", f"train_x = {value}", text, flags=re.M)
        else:
            text = re.sub(rf"^{field} = .*$", f"{field} = {value}", text, flags=re.M)
        with pytest.raises(StorageError, match=re.escape(f"model file field {field!r}: {message}")):
            model_from_text(text)

    @pytest.mark.parametrize(
        "family, line",
        [("logreg", "train_x = 1,2"), ("logreg", "acuracy = 0.5"), ("knn", "bias = 0.5"), ("knn", "note = x")],
    )
    def test_key_the_family_lacks_refused_naming_its_line(self, family, line):
        text = model_to_text(logreg_filter() if family == "logreg" else knn_filter(), {"accuracy": 0.5})
        at = len(text.splitlines()) + 1
        key = line.split(" = ")[0]
        with pytest.raises(StorageError, match=re.escape(f"model file line {at}: a {family} model has no field {key!r}")):
            model_from_text(text + line + "\n")

    def test_knn_label_length_checked(self):
        flt = knn_filter()
        text = model_to_text(flt)
        old = "train_y = " + ",".join(str(int(v)) for v in flt.model.train_y)
        text = text.replace(old, "train_y = 0,1")
        with pytest.raises(StorageError, match="labels do not match"):
            model_from_text(text)


class TestJson:
    def test_canonical_form(self):
        assert dump_json({"b": 1, "a": [2, 3]}) == '{\n  "a": [\n    2,\n    3\n  ],\n  "b": 1\n}\n'

    def test_key_order_independent(self):
        assert dump_json({"x": 1, "y": 2}) == dump_json({"y": 2, "x": 1})
