import json
import math
import re
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ugcaudio import (
    FingerprintIndex,
    FpConfig,
    KnnModel,
    LogRegModel,
    MatchFilter,
    S2,
    S4,
    SUBSETS,
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
    """The index blob with its JSON header replaced by `text`."""
    (old_len,) = struct.unpack_from("<I", blob, 6)
    raw = text.encode()
    return blob[:4] + struct.pack("<HI", version, len(raw)) + raw + blob[10 + old_len :]


def header_of(blob: bytes) -> dict:
    """The index blob's JSON header, which starts at byte 10."""
    (length,) = struct.unpack_from("<I", blob, 6)
    return json.loads(blob[10 : 10 + length])


@st.composite
def landmark_configs(draw) -> FpConfig:
    """An FpConfig with random valid values of every LANDMARK_KEYS field."""
    window = 2 ** draw(st.integers(0, 16))
    dt = sorted(draw(st.lists(st.integers(1, 63), min_size=2, max_size=2)))
    df = sorted(draw(st.lists(st.integers(-63, 63), min_size=2, max_size=2)))
    finite = {"allow_nan": False, "allow_infinity": False}
    return FpConfig(
        rate=draw(st.integers(1, 2**40)),
        window=window,
        hop=draw(st.integers(1, window)),
        log_floor=draw(st.floats(**finite)),
        peak_density=draw(st.floats(min_value=0, exclude_min=True, **finite)),
        fanout=draw(st.integers(1, 2**40)),
        dt_min=dt[0], dt_max=dt[1], df_min=df[0], df_max=df[1],
    )


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
        assert header_of(blob)["config"] == {key: getattr(cfg, key) for key in LANDMARK_KEYS}
        assert header_of(blob)["config"]["peak_density"] == 33.5 and header_of(blob)["config"]["fanout"] == 5

    def test_float_key_spelt_as_an_integer_round_trips(self):
        blob = index_to_bytes(real_index(FpConfig(peak_density=40)))
        assert index_to_bytes(index_from_bytes(blob)) == blob
        assert blob == index_to_bytes(real_index(FpConfig(peak_density=40.0)))
        assert b'"peak_density": 40.0' in blob

    @given(
        clips=st.dictionaries(
            st.text(st.characters(exclude_categories=()), max_size=6),
            st.tuples(st.floats(allow_nan=False, allow_infinity=False), st.integers(1, 4)),
            max_size=6,
        ),
        cfg=landmark_configs(),
    )
    @example(clips={"": (5e-324, 1), '"': (-0.0, 2), "\\": (2.2250738585072014e-308, 1), "\x00\x1f": (1e308, 3), "\U0001F600": (0.1, 1), "\ud800": (3.0, 4)}, cfg=FpConfig())
    @settings(max_examples=50, deadline=None)
    def test_header_round_trips_byte_for_byte(self, clips, cfg):
        index = FingerprintIndex(cfg)
        for cid, (duration, n) in clips.items():
            index.add_hashed(cid, [(key, 7) for key in range(n)], duration=duration)
        blob = index_to_bytes(index)
        loaded = index_from_bytes(blob)
        assert index_to_bytes(loaded) == blob
        assert loaded.clip_ids == sorted(clips) and loaded.landmark_counts == index.landmark_counts
        ids = sorted(clips)
        bits = np.array([clips[cid][0] for cid in ids], dtype=np.float64).view(np.uint64)
        assert np.array_equal(np.array([loaded.durations[cid] for cid in ids], dtype=np.float64).view(np.uint64), bits)
        for key in LANDMARK_KEYS:
            assert getattr(loaded.cfg, key) == getattr(cfg, key), key

    def test_version_1_refused_naming_the_version(self):
        # Version 1: u16 version, u32 rate, u16 window, u16 hop, u32 n_clips = 0, u64 0.
        blob = INDEX_MAGIC + struct.pack("<HIHHIQ", 1, 11025, 512, 256, 0, 0)
        with pytest.raises(StorageError, match="version 1 .* re-index"):
            index_from_bytes(blob)

    def test_version_2_refused_naming_the_version(self):
        # Version 2: a `key = value` header, u32 n_clips = 0, u64 n_postings = 0.
        header = "".join(f"{key} = {getattr(FpConfig(), key)!r}\n" for key in LANDMARK_KEYS).encode()
        blob = INDEX_MAGIC + struct.pack("<HI", 2, len(header)) + header + struct.pack("<IQ", 0, 0)
        with pytest.raises(StorageError, match="^index file version 2 .*; re-index the clips$"):
            index_from_bytes(blob)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda pairs: pairs[:-1],  # df_max missing
            lambda pairs: pairs + [("match_threshold", 5)],  # a query-time key
            lambda pairs: pairs + [pairs[0]],  # rate twice
        ],
    )
    def test_header_must_set_exactly_the_landmark_keys(self, edit):
        blob = index_to_bytes(toy_index())
        clips = json.dumps(header_of(blob)["clips"])

        def header(pairs) -> str:  # written by hand, so that a key may repeat
            return f'{{"clips": {clips}, "config": {{{", ".join(f"{json.dumps(k)}: {v!r}" for k, v in pairs)}}}}}'

        pairs = [(key, getattr(FpConfig(), key)) for key in LANDMARK_KEYS]
        assert index_from_bytes(with_header(blob, header(pairs))).cfg == FpConfig()
        message = "^index header( config)?: (missing field 'df_max'|unknown key 'match_threshold'|repeated key 'rate')$"
        with pytest.raises(StorageError, match=message):
            index_from_bytes(with_header(blob, header(edit(pairs))))

    def test_bad_header_value_refused(self):
        blob = index_to_bytes(toy_index())
        for key, bad in (("window", 500), ("fanout", "x"), ("log_floor", math.nan), ("rate", 0)):
            doc = header_of(blob)
            doc["config"][key] = bad
            with pytest.raises(StorageError, match=f"^index header config: {key} must be "):
                index_from_bytes(with_header(blob, json.dumps(doc)))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[]", "index header: not an object"),
            ('{"clips": {}}', "index header: missing field 'config'"),
            ('{"clips": [], "config": {}}', "index header: clips must be an object, got []"),
            ('{"clips": {}, "config": 5}', "index header: config must be an object, got 5"),
            ("{", "index header: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
        ],
    )
    def test_unreadable_header_refused(self, text, message):
        with pytest.raises(StorageError, match="^" + re.escape(message) + "$"):
            index_from_bytes(with_header(index_to_bytes(toy_index()), text))

    @pytest.mark.parametrize(
        "clip, message",
        [
            ({"duration": 1.0}, "missing field 'landmarks'"),
            ({"duration": 1.0, "landmarks": 1, "t1": 0}, "unknown key 't1'"),
            ({"duration": "1.0", "landmarks": 1}, "duration must be a finite number, got '1.0'"),
            ({"duration": 1.0, "landmarks": 1.0}, "landmarks must be an integer, got 1.0"),
        ],
    )
    def test_invalid_clip_entry_refused_naming_the_clip(self, clip, message):
        blob = index_to_bytes(toy_index())
        doc = header_of(blob)
        doc["clips"]["alpha"] = clip
        with pytest.raises(StorageError, match="^" + re.escape(f"index header clip 'alpha': {message}") + "$"):
            index_from_bytes(with_header(blob, json.dumps(doc)))

    def test_repeated_clip_id_refused(self):
        blob = index_to_bytes(toy_index())
        config = json.dumps(header_of(blob)["config"])
        text = f'{{"clips": {{"alpha": {{"duration": 0.75, "landmarks": 1}}, "alpha": {{"duration": 2.5, "landmarks": 3}}}}, "config": {config}}}'
        with pytest.raises(StorageError, match="^index header: repeated key 'alpha'$"):
            index_from_bytes(with_header(blob, text))

    def test_clip_ordinals_are_ranks_of_the_sorted_ids(self):
        blob = index_to_bytes(toy_index())
        doc = header_of(blob)
        # The same clips listed in reverse id order: the order in the file means nothing.
        doc["clips"] = dict(reversed(doc["clips"].items()))
        loaded = index_from_bytes(with_header(blob, json.dumps(doc)))
        assert loaded.clip_ids == ["alpha", "beta"]
        assert index_to_bytes(loaded) == blob

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
        blob = index_to_bytes(toy_index())
        # bump alpha's count from 1 to 2 without adding a posting
        doc = header_of(blob)
        doc["clips"]["alpha"]["landmarks"] = 2
        with pytest.raises(StorageError, match="declares 2 landmarks"):
            index_from_bytes(with_header(blob, json.dumps(doc)))

    def test_clip_declaring_no_landmarks_rejected(self):
        blob = index_to_bytes(toy_index())
        # drop alpha's one posting, the last by key, and its count
        doc = header_of(blob)
        doc["clips"]["alpha"]["landmarks"] = 0
        blob = bytearray(with_header(blob, json.dumps(doc)))
        count = len(blob) - 4 * 12 - 8
        blob[count:count + 8] = (3).to_bytes(8, "little")
        del blob[-12:]
        with pytest.raises(StorageError, match="clip 'alpha' declares 0 landmarks"):
            index_from_bytes(bytes(blob))

    def test_clip_id_not_utf8_rejected(self):
        blob = bytearray(index_to_bytes(toy_index()))
        at = blob.index(b'"beta"') + 1
        blob[at] = 0xFF  # the header starts at byte 10
        message = f"^index header: 'utf-8' codec can't decode byte 0xff in position {at - 10}: invalid start byte$"
        with pytest.raises(StorageError, match=message):
            index_from_bytes(bytes(blob))

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


def model_doc(flt: MatchFilter, meta: dict | None = None) -> dict:
    return json.loads(model_to_text(flt, meta))


def spelled(text: str):
    """The JSON value a case spells as comma-separated items: each a float
    where float() reads it (nan and inf too), else a string. One item alone
    is that item, not a list."""

    def item(s: str):
        try:
            return float(s)
        except ValueError:
            return s

    items = [item(s) for s in text.split(",")]
    return items if len(items) > 1 else items[0]


# A finite float64 drawn from the whole range: -0.0, subnormals and the largest
# magnitudes included.
finite = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308]),
)
positive = st.one_of(st.floats(min_value=5e-324, allow_infinity=False), st.sampled_from([5e-324, 1.7976931348623157e308]))


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

    @given(
        st.sampled_from(SUBSETS).flatmap(
            lambda subset: st.tuples(
                st.just(subset),
                *(st.lists(values, min_size=len(subset.fields), max_size=len(subset.fields)) for values in (finite, positive, finite)),
                finite,
                positive,
                st.lists(st.lists(finite, min_size=len(subset.fields), max_size=len(subset.fields)), min_size=1, max_size=5),
            )
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_random_values_round_trip_bit_for_bit(self, drawn):
        subset, mean, std, weights, bias, c, train_x = drawn
        standardizer = Standardizer(mean=np.array(mean), std=np.array(std))
        for model in (
            LogRegModel(weights=np.array(weights), bias=bias, c=c),
            KnnModel(k=1, train_x=np.array(train_x), train_y=np.arange(len(train_x)) % 2.0),
        ):
            flt = MatchFilter(subset, standardizer, model)
            text = model_to_text(flt)
            loaded, _ = model_from_text(text)
            assert model_to_text(loaded) == text
            for record, back in ((flt.standardizer, loaded.standardizer), (flt.model, loaded.model)):
                for key, value in vars(record).items():
                    bits = np.asarray(value, dtype=np.float64).view(np.uint64)
                    assert np.array_equal(np.asarray(getattr(back, key), dtype=np.float64).view(np.uint64), bits), key

    def test_loaded_filter_predicts_identically(self):
        flt = knn_filter()
        loaded, _ = model_from_text(model_to_text(flt))
        x = np.random.default_rng(5).normal(size=(10, 4))
        assert np.array_equal(loaded.model.predict(x), flt.model.predict(x))

    def test_file_round_trip(self, tmp_path):
        path = str(tmp_path / "model.json")
        save_model(logreg_filter(), path, {"accuracy": 1.0})
        loaded, meta = load_model(path)
        assert loaded.subset.name == "S2"
        assert meta["accuracy"] == 1.0

    def test_future_version_refused(self):
        text = model_to_text(logreg_filter()).replace('"version": 2', '"version": 3')
        with pytest.raises(StorageError, match="unsupported version 3"):
            model_from_text(text)

    def test_version_1_text_model_refused_as_such(self):
        with pytest.raises(StorageError, match="^model file is a version-1 text model, .*; re-train the model$"):
            model_from_text("version = 1\nfamily = knn\n")

    def test_missing_field(self):
        doc = model_doc(logreg_filter())
        del doc["bias"]
        with pytest.raises(StorageError, match="missing field 'bias'"):
            model_from_text(json.dumps(doc))

    def test_weight_dimension_checked(self):
        doc = model_doc(logreg_filter())
        assert doc["weights"] == [0.1, -2.25, 1e-07]
        doc["weights"] = [0.1, -2.25]
        with pytest.raises(StorageError, match="weight dimension"):
            model_from_text(json.dumps(doc))

    def test_features_subset_agreement_checked(self):
        doc = model_doc(logreg_filter())
        assert doc["features"] == ["ml", "tml", "lq"]
        doc["features"] = ["ml", "tml", "li"]
        with pytest.raises(StorageError, match="features do not match"):
            model_from_text(json.dumps(doc))

    def test_duplicate_key_rejected(self):
        text = model_to_text(logreg_filter())
        text = text[: text.rindex("}")] + ',\n  "family": "knn"\n}\n'
        with pytest.raises(StorageError, match="^model file: repeated key 'family'$"):
            model_from_text(text)

    def test_malformed_line_rejected(self):
        with pytest.raises(StorageError, match="^model file: Expecting value: line 1 column 1"):
            model_from_text("version=1\n")

    @pytest.mark.parametrize(
        "family, field, value, message",
        [
            ("logreg", "mean", "10.0,x,300.0", "mean[1] must be a finite number, got 'x'"),
            ("logreg", "mean", "10.0,nan,300.0", "mean[1] must be a finite number, got nan"),
            ("logreg", "std", "0.0,1.0,55.25", "std[0] must be positive, got 0.0"),
            ("logreg", "std", "2.0,-1.0,inf", "std[2] must be a finite number, got inf"),
            ("logreg", "std", "2.0,-1.0,3.0", "std[1] must be positive, got -1.0"),
            ("logreg", "weights", "0.1,inf,1e-07", "weights[1] must be a finite number, got inf"),
            ("logreg", "bias", "nan", "bias must be a finite number, got nan"),
            ("logreg", "param", "0.0", "c must be positive, got 0.0"),
            ("logreg", "param", "inf", "c must be a finite number, got inf"),
            ("knn", "train_x", "1.0,2.0,3.0,nan", "train_x[0][3] must be a finite number, got nan"),
            ("knn", "train_y", "0,1,1,0,2,0", "train_y[4] must be 0 or 1, got 2.0"),
            ("knn", "param", "4.0", "k must be an odd integer in [1, 6], got 4.0"),
            ("knn", "param", "7.0", "k must be an odd integer in [1, 6], got 7.0"),
            ("knn", "param", "2.5", "k must be an odd integer in [1, 6], got 2.5"),
            ("knn", "param", "three", "k must be a finite number, got 'three'"),
        ],
    )
    def test_value_no_fitted_filter_has_refused(self, family, field, value, message):
        doc = model_doc(logreg_filter() if family == "logreg" else knn_filter())
        key = {"logreg": "c", "knn": "k"}[family] if field == "param" else field  # the filter's param
        if key == "train_x":  # the first row only
            doc[key][0] = spelled(value)
        else:
            doc[key] = spelled(value)
        with pytest.raises(StorageError, match=f"^{re.escape(f'{family} model file: {message}')}$"):
            model_from_text(json.dumps(doc))

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("accuracy", 7.5, "accuracy must be in [0, 1], got 7.5"),
            ("accuracy", -0.5, "accuracy must be in [0, 1], got -0.5"),
            ("val_error", -1.0, "val_error must be in [0, 1], got -1.0"),
            ("val_error", float("nan"), "val_error must be a finite number, got nan"),
            ("wrong_fps", -4, "wrong_fps must be at least 0, got -4"),
            ("wrong_fps", 1.5, "wrong_fps must be an integer, got 1.5"),
            ("degraded", 2, "degraded must be in [0, 1], got 2"),
            ("degraded", True, "degraded must be an integer, got True"),
        ],
    )
    def test_metadata_no_fitted_filter_has_refused(self, key, value, message):
        doc = model_doc(knn_filter(), {"accuracy": 0.5, "val_error": 0.25, "wrong_fps": 0, "degraded": 0})
        doc[key] = value
        with pytest.raises(StorageError, match=f"^{re.escape(f'knn model file: {message}')}$"):
            model_from_text(json.dumps(doc))

    @pytest.mark.parametrize(
        "family, key, value",
        [("logreg", "train_x", [[1.0, 2.0]]), ("logreg", "acuracy", 0.5), ("knn", "bias", 0.5), ("knn", "note", "x")],
    )
    def test_key_the_family_lacks_refused_naming_it(self, family, key, value):
        doc = model_doc(logreg_filter() if family == "logreg" else knn_filter(), {"accuracy": 0.5})
        doc[key] = value
        with pytest.raises(StorageError, match=f"^{re.escape(f'{family} model file: unknown key {key!r}')}$"):
            model_from_text(json.dumps(doc))

    def test_knn_label_length_checked(self):
        doc = model_doc(knn_filter())
        assert doc["train_y"] == [0.0, 1.0, 1.0, 0.0, 1.0, 0.0]
        doc["train_y"] = [0.0, 1.0]
        with pytest.raises(StorageError, match="labels do not match"):
            model_from_text(json.dumps(doc))


class TestJson:
    def test_canonical_form(self):
        assert dump_json({"b": 1, "a": [2, 3]}) == '{\n  "a": [\n    2,\n    3\n  ],\n  "b": 1\n}\n'

    def test_key_order_independent(self):
        assert dump_json({"x": 1, "y": 2}) == dump_json({"y": 2, "x": 1})
