import glob
import json
import math
import re
import shlex
import struct
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
from jsonschema import Draft202012Validator

from ugcaudio import AudioClip, FingerprintIndex, FpConfig, PROCESS_RATE, encode_wav, load_index, load_model, query, read_clip
from ugcaudio import pipeline
from ugcaudio.cli import main, matches_from_doc, matches_to_doc
from ugcaudio.fingerprint import load_config
from ugcaudio.storage import index_to_bytes, model_from_text, model_to_text
from ugcaudio.timeline import ClipCut, cut_audio

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs"
README = Path(__file__).resolve().parent.parent / "README.md"


def load_schema(name: str) -> Draft202012Validator:
    schema = json.loads((SCHEMA_DIR / name).read_text(encoding="utf-8"))
    Draft202012Validator.check_schema(schema)
    return Draft202012Validator(schema)


@pytest.fixture(scope="module")
def train_corpus(tmp_path_factory):
    """Corpus with repetitions so autolabel yields both classes."""
    out = tmp_path_factory.mktemp("train_corpus")
    rc = main(
        [
            "synth",
            "--events", "5",
            "--clips", "5",
            "--event-duration", "60",
            "--clip-duration", "12", "20",
            "--min-overlap", "8",
            "--snr", "18", "28",
            "--seed", "3",
            "--repeat-fraction", "0.35",
            "--cross-snippet", "1.5",
            "--out", str(out),
        ]
    )
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("small_corpus")
    rc = main(
        [
            "synth",
            "--events", "2",
            "--clips", "3",
            "--event-duration", "30",
            "--clip-duration", "8", "12",
            "--min-overlap", "4",
            "--snr", "18", "25",
            "--seed", "5",
            "--out", str(out),
        ]
    )
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def indexed(train_corpus, tmp_path_factory):
    idx = tmp_path_factory.mktemp("idx") / "corpus.idx"
    wavs = sorted(str(p) for p in train_corpus.glob("*.wav"))
    assert main(["index", *wavs, "--out", str(idx)]) == 0
    return idx, wavs


@pytest.fixture(scope="module")
def matches_file(indexed, tmp_path_factory):
    idx, wavs = indexed
    out = tmp_path_factory.mktemp("matches") / "matches.json"
    assert main(["match", *wavs, "--index", str(idx), "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def trained_model(train_corpus, matches_file, tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("model")
    model = out_dir / "model.json"
    report = out_dir / "cv.json"
    rc = main(
        [
            "train",
            "--matches", str(matches_file),
            "--manifest", str(train_corpus / "manifest.json"),
            "--family", "knn",
            "--subset", "S1",
            "--seed", "0",
            "--out", str(model),
            "--report", str(report),
        ]
    )
    assert rc == 0
    return model, report


class TestSynth:
    def test_writes_wavs_and_manifest(self, small_corpus):
        wavs = sorted(small_corpus.glob("*.wav"))
        assert len(wavs) == 6
        assert wavs[0].name == "event00_c00.wav"
        manifest = json.loads((small_corpus / "manifest.json").read_text())
        assert sorted(manifest["clips"]) == [p.stem for p in wavs]

    def test_rerun_is_byte_identical(self, small_corpus, tmp_path):
        again = tmp_path / "again"
        rc = main(
            [
                "synth",
                "--events", "2", "--clips", "3",
                "--event-duration", "30",
                "--clip-duration", "8", "12",
                "--min-overlap", "4",
                "--snr", "18", "25",
                "--seed", "5",
                "--out", str(again),
            ]
        )
        assert rc == 0
        for name in ("event00_c00.wav", "event01_c02.wav", "manifest.json"):
            assert (again / name).read_bytes() == (small_corpus / name).read_bytes()

    def test_infeasible_layout_exits_3(self, tmp_path, capsys):
        rc = main(
            [
                "synth",
                "--events", "1", "--clips", "2",
                "--event-duration", "5",
                "--clip-duration", "8", "12",
                "--min-overlap", "4",
                "--out", str(tmp_path / "x"),
            ]
        )
        assert rc == 3
        assert "error" in capsys.readouterr().err


class TestIndex:
    def test_index_contains_all_clips(self, indexed):
        idx, wavs = indexed
        loaded = load_index(str(idx))
        assert loaded.clip_ids == [Path(w).stem for w in wavs]
        assert all(loaded.landmark_counts[c] > 0 for c in loaded.clip_ids)
        assert all(loaded.durations[c] > 0 for c in loaded.clip_ids)

    def test_silent_clip_skipped_with_warning(self, tmp_path, capsys):
        silent = AudioClip(
            id="quiet", samples=np.zeros(PROCESS_RATE, dtype=np.float64), rate=PROCESS_RATE
        )
        wav = tmp_path / "quiet.wav"
        wav.write_bytes(encode_wav(silent))
        out = tmp_path / "one.idx"
        assert main(["index", str(wav), "--out", str(out)]) == 0
        assert "no landmarks" in capsys.readouterr().err
        assert load_index(str(out)).clip_ids == []

    @pytest.mark.parametrize("workers", [1, 4])
    def test_index_bytes_do_not_depend_on_workers(self, indexed, tmp_path, monkeypatch, workers):
        idx, wavs = indexed
        monkeypatch.setattr(pipeline, "WORKERS", workers)
        out = tmp_path / "other.idx"
        assert main(["index", *wavs, "--out", str(out)]) == 0
        assert out.read_bytes() == idx.read_bytes()

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["index", str(tmp_path / "ghost.wav"), "--out", str(tmp_path / "o.idx")]) == 2

    def test_unknown_config_key_exits_3(self, small_corpus, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"bogus": 3}')
        wav = str(next(iter(sorted(small_corpus.glob("*.wav")))))
        rc = main(["index", wav, "--config", str(cfg), "--out", str(tmp_path / "o.idx")])
        assert rc == 3
        assert "unknown key" in capsys.readouterr().err


def settings_id(value):
    """A config's test id, `key = value` per setting; None keeps pytest's own id for other parameters."""
    return ", ".join(f"{key} = {v}" for key, v in value.items()) if isinstance(value, dict) else None


class TestConfigFiles:
    def run_with_config(self, small_corpus, tmp_path, settings, command="index", index=None):
        """Exit code of `command` on the small corpus with a config file, tmp_path / "run.json".

        The file holds settings as JSON, or settings itself when it is a string.
        """
        cfg = tmp_path / "run.json"
        cfg.write_text(settings if isinstance(settings, str) else json.dumps(settings))
        wav = str(next(iter(sorted(small_corpus.glob("*.wav")))))
        if command == "index":
            argv = ["index", wav, "--out", str(tmp_path / "o.idx")]
        elif command == "match":
            argv = ["match", wav, "--index", str(index), "--out", str(tmp_path / "m.json")]
        else:
            argv = ["pipeline", "--in", str(small_corpus), "--out", str(tmp_path / "r.json")]
        return main([*argv, "--config", str(cfg)])

    def test_invalid_value_exits_3_naming_the_key(self, small_corpus, tmp_path, capsys):
        assert self.run_with_config(small_corpus, tmp_path, {"window": 500}) == 3
        assert capsys.readouterr().err == f"error: {tmp_path / 'run.json'}: window must be a power of two, got 500\n"

    def test_delta_outside_key_budget_exits_3_naming_the_key(self, small_corpus, tmp_path, capsys):
        assert self.run_with_config(small_corpus, tmp_path, {"dt_max": 100}) == 3
        assert capsys.readouterr().err == f"error: {tmp_path / 'run.json'}: dt_max must be in [1, 63], got 100\n"

    @pytest.mark.parametrize(
        "command, settings",
        [
            ("index", {"peak_density": math.inf}),
            ("pipeline", {"density_multiplier": math.nan}),
            ("pipeline", {"consistency_eps": math.nan}),
        ],
        ids=settings_id,
    )
    def test_non_finite_value_exits_3_naming_the_key(self, small_corpus, tmp_path, capsys, command, settings):
        ((key, value),) = settings.items()
        assert self.run_with_config(small_corpus, tmp_path, settings, command) == 3
        assert f"error: {tmp_path / 'run.json'}: {key} must be a finite number, got {value}\n" == capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"hop": 1.5}', "hop must be an integer, got 1.5"),
            ('{"fanout": "x"}', "fanout must be an integer, got 'x'"),
            ('{"dt_max": true}', "dt_max must be an integer, got True"),
            ('{"peak_density": NaN}', "peak_density must be a finite number, got nan"),
            ('{"log_floor": -Infinity}', "log_floor must be a finite number, got -inf"),
            ('{"consistency_eps": 1e400}', "consistency_eps must be a finite number, got inf"),
        ],
    )
    def test_mistyped_value_exits_3_naming_the_key(self, small_corpus, tmp_path, capsys, text, message):
        assert self.run_with_config(small_corpus, tmp_path, text) == 3
        assert capsys.readouterr().err == f"error: {tmp_path / 'run.json'}: {message}\n"

    @pytest.mark.parametrize(
        "command, settings, message",
        [
            ("pipeline", {"rate": 0}, "rate must be positive, got 0"),
            ("index", {"rate": -11025}, "rate must be positive, got -11025"),
            ("pipeline", {"consistency_eps": -1}, "consistency_eps must be >= 0, got -1.0"),
            # Past the largest anchor frame: 2**63 - 1 wrapped query's int64
            # pruning window, and 10**30 overflowed it.
            ("match", {"offset_merge": 4294967296}, "offset_merge must be in [0, 4294967295], got 4294967296"),
            (
                "match",
                {"offset_merge": 9223372036854775807},
                "offset_merge must be in [0, 4294967295], got 9223372036854775807",
            ),
            ("pipeline", {"offset_merge": 10**30}, f"offset_merge must be in [0, 4294967295], got {10**30}"),
        ],
        ids=settings_id,
    )
    def test_value_a_run_cannot_honour_exits_3_naming_the_key(
        self, small_corpus, indexed, tmp_path, capsys, command, settings, message
    ):
        assert self.run_with_config(small_corpus, tmp_path, settings, command, indexed[0]) == 3
        assert f"error: {tmp_path / 'run.json'}: {message}\n" == capsys.readouterr().err

    @pytest.mark.parametrize("key", ["family", "subset", "seed", "input", "output"])
    def test_removed_key_exits_3(self, small_corpus, tmp_path, capsys, key):
        assert self.run_with_config(small_corpus, tmp_path, {key: "x"}) == 3
        assert capsys.readouterr().err == f"error: {tmp_path / 'run.json'}: unknown key {key!r}\n"

    def test_repeated_key_exits_3_naming_it(self, small_corpus, tmp_path, capsys):
        assert self.run_with_config(small_corpus, tmp_path, '{"fanout": 3,\n "fanout": 5}') == 3
        assert capsys.readouterr().err == f"error: {tmp_path / 'run.json'}: repeated key 'fanout'\n"

    def test_key_value_lines_exit_3_saying_configs_are_json(self, small_corpus, tmp_path, capsys):
        assert self.run_with_config(small_corpus, tmp_path, "# denser\npeak_density = 40\n") == 3
        message = 'not a JSON object; config files are JSON objects such as {"hop": 128}'
        assert capsys.readouterr().err == f"error: {tmp_path / 'run.json'}: {message}\n"

    def test_defaults_only_config_writes_the_index_no_config_writes(self, small_corpus, tmp_path):
        wav = str(next(iter(sorted(small_corpus.glob("*.wav")))))
        plain = tmp_path / "plain.idx"
        assert main(["index", wav, "--out", str(plain)]) == 0
        for settings in ({}, asdict(FpConfig()), {"peak_density": 20, "log_floor": -10}):
            assert self.run_with_config(small_corpus, tmp_path, settings) == 0
            assert (tmp_path / "o.idx").read_bytes() == plain.read_bytes()

    def test_schema_pins_the_fields_and_defaults(self, tmp_path):
        schema = load_schema("config.schema.json")
        properties = schema.schema["properties"]
        assert list(properties) == [f.name for f in fields(FpConfig)]
        assert {key: p["default"] for key, p in properties.items()} == asdict(FpConfig())
        assert all(p["type"] == ("integer" if f.type == "int" else "number") for f, p in zip(fields(FpConfig), properties.values()))
        path = tmp_path / "run.json"
        for doc in ({}, asdict(FpConfig(hop=128, peak_density=12.5))):
            schema.validate(doc)
            path.write_text(json.dumps(doc))
            assert load_config(str(path)) == FpConfig(**doc)
        assert not schema.is_valid({"seed": 3})

    def test_undecodable_file_exits_3_naming_it(self, small_corpus, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_bytes(b'{"hop": 128,\n\xff}')
        wav = str(next(iter(sorted(small_corpus.glob("*.wav")))))
        capsys.readouterr()
        assert main(["index", wav, "--config", str(cfg), "--out", str(tmp_path / "o.idx")]) == 3
        message = "'utf-8' codec can't decode byte 0xff in position 13: invalid start byte"
        assert capsys.readouterr().err == f"error: {cfg}: {message}\n"

    def test_index_match_and_pipeline_ignore_env_seed(self, small_corpus, indexed, tmp_path, monkeypatch):
        monkeypatch.setenv("UGC_SEED", "not-a-number")
        wav = str(next(iter(sorted(small_corpus.glob("*.wav")))))
        assert main(["index", wav, "--out", str(tmp_path / "o.idx")]) == 0
        assert main(["match", wav, "--index", str(indexed[0]), "--out", str(tmp_path / "m.json")]) == 0
        assert main(["pipeline", "--in", str(small_corpus), "--out", str(tmp_path / "r.json")]) == 0

    def test_match_refuses_other_landmark_parameters(self, indexed, tmp_path, capsys):
        idx, wavs = indexed  # built with the defaults
        dense = tmp_path / "dense.json"
        dense.write_text('{"peak_density": 40}')
        capsys.readouterr()
        assert main(["match", wavs[0], "--index", str(idx), "--config", str(dense)]) == 3
        err = capsys.readouterr().err
        assert "peak_density = 40.0 differs from the index's peak_density = 20.0" in err

        strict = tmp_path / "strict.json"
        strict.write_text('{"match_threshold": 9}')
        assert main(["match", wavs[0], "--index", str(idx), "--config", str(strict)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert all(e["ml"] >= 9 for q in doc["queries"] for e in q["entries"])


class TestEmptyFingerprints:
    def test_silent_and_short_clips_are_skipped(self, indexed, small_corpus, tmp_path, capsys):
        silent = AudioClip(id="quiet", samples=np.zeros(PROCESS_RATE), rate=PROCESS_RATE)
        short = AudioClip(id="tiny", samples=np.full(300, 0.5), rate=PROCESS_RATE)
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for clip in (silent, short):
            (corpus / f"{clip.id}.wav").write_bytes(encode_wav(clip))
        wavs = [str(corpus / "quiet.wav"), str(corpus / "tiny.wav")]

        out = tmp_path / "empty.idx"
        assert main(["index", *wavs, "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert "quiet: no landmarks" in err and "tiny: no landmarks" in err
        assert load_index(str(out)).clip_ids == []

        idx, _ = indexed
        matches = tmp_path / "matches.json"
        assert main(["match", wavs[0], "--index", str(idx), "--out", str(matches)]) == 0
        assert json.loads(matches.read_text()) == {"queries": [{"query": "quiet", "entries": []}]}

        src = next(iter(sorted(small_corpus.glob("*.wav"))))
        (corpus / src.name).write_bytes(src.read_bytes())
        report = tmp_path / "report.json"
        assert main(["pipeline", "--in", str(corpus), "--out", str(report)]) == 0
        assert json.loads(report.read_text())["unmatched"] == ["quiet", "tiny"]


    @pytest.mark.parametrize("rate", [8000, 11025, 22050, 44100, 48000])
    def test_empty_wav_is_skipped_at_any_rate(self, indexed, small_corpus, tmp_path, capsys, rate):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        wav = corpus / "hollow.wav"
        wav.write_bytes(encode_wav(AudioClip(id="hollow", samples=np.zeros(0), rate=rate)))

        out = tmp_path / "empty.idx"
        assert main(["index", str(wav), "--out", str(out)]) == 0
        assert capsys.readouterr().err == "warning: hollow: no landmarks, skipped\n"
        assert load_index(str(out)).clip_ids == []

        idx, _ = indexed
        matches = tmp_path / "matches.json"
        assert main(["match", str(wav), "--index", str(idx), "--out", str(matches)]) == 0
        assert json.loads(matches.read_text()) == {"queries": [{"query": "hollow", "entries": []}]}

        src = next(iter(sorted(small_corpus.glob("*.wav"))))
        (corpus / src.name).write_bytes(src.read_bytes())
        report = tmp_path / "report.json"
        assert main(["pipeline", "--in", str(corpus), "--out", str(report)]) == 0
        assert json.loads(report.read_text())["unmatched"] == ["hollow"]


class TestMatch:
    def test_matches_written(self, matches_file, indexed):
        _, wavs = indexed
        doc = json.loads(matches_file.read_text())
        assert [q["query"] for q in doc["queries"]] == [Path(w).stem for w in wavs]
        entries = [e for q in doc["queries"] for e in q["entries"]]
        assert entries, "overlapping corpus must produce matches"
        for q in doc["queries"]:
            for e in q["entries"]:
                assert e["clip"] != q["query"]
                assert e["ml"] >= 5  # default match threshold
                assert e["tml"] >= e["ml"]

    def test_matches_schema(self, matches_file):
        load_schema("matches.schema.json").validate(json.loads(matches_file.read_text()))

    def test_round_trips_through_loader(self, matches_file):
        doc = json.loads(matches_file.read_text())
        lists = matches_from_doc(doc)
        assert len(lists) == len(doc["queries"])
        total = sum(len(ml.entries) for ml in lists)
        assert total == sum(len(q["entries"]) for q in doc["queries"])

    def test_stdout_mode(self, indexed, capsys):
        idx, wavs = indexed
        assert main(["match", wavs[0], "--index", str(idx)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["queries"][0]["query"] == Path(wavs[0]).stem

    @pytest.mark.parametrize("command", ["index", "match"])
    def test_repeated_clip_id_exits_3_before_decoding(self, indexed, tmp_path, capsys, command):
        # Neither file is a WAV: the refusal comes before either is decoded.
        a, b = tmp_path / "a" / "x.wav", tmp_path / "b" / "x.wav"
        for path in (a, b):
            path.parent.mkdir()
            path.write_bytes(b"not a wav")
        out = tmp_path / "out"
        argv = ["index"] if command == "index" else ["match", "--index", str(indexed[0])]
        capsys.readouterr()
        assert main([*argv, "--out", str(out), str(a), str(b)]) == 3
        assert capsys.readouterr().err == f"error: {a} and {b} are both clip 'x'\n"
        assert not out.exists()

    def test_usage_error_exits_2(self):
        assert main(["match"]) == 2

    @pytest.mark.parametrize("workers", [1, 4])
    def test_matches_do_not_depend_on_workers(self, indexed, matches_file, tmp_path, monkeypatch, workers):
        idx, wavs = indexed
        monkeypatch.setattr(pipeline, "WORKERS", workers)
        out = tmp_path / "other.json"
        assert main(["match", *wavs, "--index", str(idx), "--out", str(out)]) == 0
        assert out.read_bytes() == matches_file.read_bytes()

    @pytest.mark.parametrize("fault", ["key", "ordinal", "no landmarks", "clip id"])
    def test_refused_index_file_exits_3_naming_the_fault(self, indexed, tmp_path, capsys, fault):
        index = FingerprintIndex(FpConfig())
        index.add_hashed("a", [(7, 0)], duration=1.0)
        index.add_hashed("b", [(9, 2)], duration=1.0)
        blob = bytearray(index_to_bytes(index))
        if fault == "key":
            blob[-12:-8] = (2**21 + 5).to_bytes(4, "little")  # key of the last posting, b's
            message = "posting 1 has key 2097157, not below 2**21"
        elif fault == "ordinal":
            blob[-8:-4] = (9).to_bytes(4, "little")  # clip ordinal of the last posting
            message = "posting 1 references clip ordinal 9 of 2"
        elif fault == "clip id":
            pos = blob.index(b'"b": {') + 1
            blob[pos] = 0xFF  # b's one-byte id in the JSON header, which starts at byte 10
            message = f"index header: 'utf-8' codec can't decode byte 0xff in position {pos - 10}: invalid start byte"
        else:
            pos = blob.index(b'"landmarks": 1', blob.index(b'"b": {')) + len(b'"landmarks": ')
            blob[pos] = ord("0")  # b's landmark count
            del blob[-12:]  # b's posting, the last
            blob[-20:-12] = (1).to_bytes(8, "little")  # posting count
            message = "clip 'b' declares 0 landmarks"
        bad = tmp_path / "bad.idx"
        bad.write_bytes(bytes(blob))
        capsys.readouterr()
        assert main(["match", indexed[1][0], "--index", str(bad)]) == 3
        assert message in capsys.readouterr().err


GOOD_ENTRY = {"clip": "b", "offset_frames": 3, "ml": 9, "tml": 12, "lq": 300, "li": 280}
MISSING = object()  # drops the field from the entry


# File contents no reader can take, by fault: the bytes and the error that follows the file's path.
UNREADABLE_TEXT = {
    "truncated": (b'{"queries": [', "Expecting value: line 1 column 14 (char 13)"),
    "5001-digit integer": (
        b'{"queries": ' + b"7" * 5001 + b"}",
        "Exceeds the limit (4300 digits) for integer string conversion: "
        "value has 5001 digits; use sys.set_int_max_str_digits() to increase the limit",
    ),
    "0xff byte": (b'{"queries": [\xff]}', "'utf-8' codec can't decode byte 0xff in position 13: invalid start byte"),
    # json.loads alone would keep the last value, here a valid 53.
    "repeated key": (b'{"queries": [{"query": "a", "entries": [{"ml": 999999, "ml": 53}]}]}', "repeated key 'ml'"),
}


def matches_doc(**counts):
    """One query 'a' whose second entry (index 1) takes the given counts."""
    second = {key: v for key, v in {**GOOD_ENTRY, "clip": "c", **counts}.items() if v is not MISSING}
    return {"queries": [{"query": "a", "entries": [GOOD_ENTRY, second]}]}


# Entry fields that are missing or of the wrong JSON type, and the refusal's text.
MALFORMED_ENTRIES = [
    ({"offset_frames": MISSING}, "missing field 'offset_frames'"),
    ({"ml": 7.9}, "ml must be an integer, got 7.9"),
    ({"ml": True}, "ml must be an integer, got True"),
    ({"offset_frames": 2.5}, "offset_frames must be an integer, got 2.5"),
    ({"clip": 4}, "clip must be a string, got 4"),
    ({"clip": "a"}, "clip must differ from the query, got 'a'"),
    ({"mll": 9}, "unknown key 'mll'"),
    ({"offset_seconds": 0.07}, "unknown key 'offset_seconds'"),  # written by older versions of match
    # Counts past 2**53 would not survive the classifier's float features.
    *(
        pytest.param({key: 10**400}, f"{key} must be at most 2**53, got {10**400}", id=f"{key}-10**400")
        for key in ("ml", "tml", "lq", "li")
    ),
    pytest.param({"tml": 2**53 + 1}, f"tml must be at most 2**53, got {2**53 + 1}", id="tml-2**53+1"),
    # JSON Schema counts 7.0 as an integer; the reader does not.
    ({"ml": 7.0}, "ml must be an integer, got 7.0"),
    ({"offset_frames": 2.0}, "offset_frames must be an integer, got 2.0"),
]
# Documents malformed outside their entries, and the refusal's text.
MALFORMED_DOCS = [
    ([], "matches file: expected an object whose 'queries' is a list"),
    ({"queries": {"a": []}}, "matches file: expected an object whose 'queries' is a list"),
    ({"queries": [{"query": "a"}]}, "matches file: query 0 needs a string 'query' and a list 'entries'"),
    ({"queries": [], "extra": 1}, "matches file: unknown key 'extra'"),
    ({"queries": [{"query": "a", "entries": [], "note": ""}]}, "query 'a': unknown key 'note'"),
    (
        {"queries": [{"query": q, "entries": []} for q in ("a", "b", "a")]},
        "matches file: queries 0 and 2 are both 'a'",
    ),
    # One landmark count per query and per indexed clip, as query writes them.
    (
        {"queries": [{"query": "a", "entries": [GOOD_ENTRY, {**GOOD_ENTRY, "clip": "c", "lq": 301}]}]},
        "query 'a' entries 0 and 1 disagree on lq (300, 301)",
    ),
    (
        {
            "queries": [
                {"query": "a", "entries": [GOOD_ENTRY]},
                {"query": "d", "entries": [{**GOOD_ENTRY, "lq": 50, "li": 999}]},
            ]
        },
        "query 'a' entry 0 and query 'd' entry 0 disagree on li for clip 'b' (280, 999)",
    ),
]


class TestMatchesFromDoc:
    def test_negative_count_rejected(self):
        for key in ("ml", "tml", "lq", "li"):
            with pytest.raises(ValueError, match="^query 'a' entry 1: negative landmark count$"):
                matches_from_doc(matches_doc(**{key: -1}))

    def test_counts_up_to_2_to_the_53_accepted(self):
        entry = matches_from_doc(matches_doc(ml=2**53, tml=2**53, li=2**53))[0].entries[1]
        assert (entry.ml, entry.tml, entry.li) == (2**53,) * 3

    def test_ml_above_tml_rejected(self):
        with pytest.raises(ValueError, match="^query 'a' entry 1: ml 13 exceeds tml 12$"):
            matches_from_doc(matches_doc(ml=13))
        assert matches_from_doc(matches_doc(ml=12))[0].entries[1].ml == 12

    def test_ml_above_lq_from_query_round_trips(self):
        # One query landmark meets two postings of its key one frame apart;
        # the merged offset bin counts both, so ml exceeds lq.
        cfg = FpConfig(match_threshold=2)
        index = FingerprintIndex(cfg)
        index.add_hashed("a", [(1234, 10), (1234, 11)], duration=1.0)
        found = query(index, "q", [(1234, 0)], cfg)
        (e,) = found.entries
        assert (e.clip_id, e.ml, e.tml, e.lq) == ("a", 2, 2, 1)
        assert matches_from_doc(json.loads(json.dumps(matches_to_doc([found])))) == [found]

    @pytest.mark.parametrize("counts, message", MALFORMED_ENTRIES)
    def test_malformed_entry_rejected(self, counts, message):
        with pytest.raises(ValueError, match="^" + re.escape(f"query 'a' entry 1: {message}") + "$"):
            matches_from_doc(matches_doc(**counts))

    @pytest.mark.parametrize("doc, message", MALFORMED_DOCS)
    def test_malformed_document_rejected(self, doc, message):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            matches_from_doc(doc)

    @staticmethod
    def run_on(doc, command, train_corpus, trained_model, tmp_path, capsys) -> tuple[int, str]:
        """`command` on a matches file holding `doc` (or these bytes): exit code and stderr."""
        bad = tmp_path / "bad.json"
        bad.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
        if command == "train":
            manifest = str(train_corpus / "manifest.json")
            argv = ["train", "--matches", str(bad), "--manifest", manifest, "--out", str(tmp_path / "m.txt")]
        else:
            argv = ["classify", "--model", str(trained_model[0]), "--matches", str(bad)]
        capsys.readouterr()
        return main(argv), capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "classify"])
    @pytest.mark.parametrize(
        "counts, message",
        [({"ml": 13}, "ml 13 exceeds tml 12"), ({"li": -1}, "negative landmark count"), *MALFORMED_ENTRIES],
    )
    def test_bad_counts_exit_3(self, train_corpus, trained_model, tmp_path, capsys, command, counts, message):
        rc, err = self.run_on(matches_doc(**counts), command, train_corpus, trained_model, tmp_path, capsys)
        assert rc == 3
        assert err == f"error: query 'a' entry 1: {message}\n"

    @pytest.mark.parametrize("command", ["train", "classify"])
    @pytest.mark.parametrize("doc, message", MALFORMED_DOCS)
    def test_bad_document_exits_3(self, train_corpus, trained_model, tmp_path, capsys, command, doc, message):
        rc, err = self.run_on(doc, command, train_corpus, trained_model, tmp_path, capsys)
        assert rc == 3
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["train", "classify"])
    @pytest.mark.parametrize("fault", UNREADABLE_TEXT)
    def test_unreadable_file_exits_3_naming_it(self, train_corpus, trained_model, tmp_path, capsys, command, fault):
        raw, message = UNREADABLE_TEXT[fault]
        rc, err = self.run_on(raw, command, train_corpus, trained_model, tmp_path, capsys)
        assert rc == 3
        assert err == f"error: {tmp_path / 'bad.json'}: {message}\n"


class TestTrain:
    def test_model_and_report_written(self, trained_model):
        model_path, report_path = trained_model
        flt, meta = load_model(str(model_path))
        assert flt.family == "knn"
        assert flt.subset.name == "S1"
        assert set(meta) == {"accuracy", "val_error", "wrong_fps", "degraded"}
        assert 0.0 <= meta["accuracy"] <= 1.0
        report = json.loads(report_path.read_text())
        assert len(report["results"]) == 20  # odd k 1..39
        assert report["chosen"]["family"] == "knn"
        assert report["chosen"]["wrong_fps"] == meta["wrong_fps"]

    def test_report_matches_schema(self, trained_model):
        _, report_path = trained_model
        load_schema("cv_report.schema.json").validate(json.loads(report_path.read_text()))

    @pytest.mark.parametrize("family", ["logreg", "knn", "both"])
    def test_model_matches_schema(self, family, train_corpus, matches_file, tmp_path):
        model = tmp_path / "model.json"
        argv = ["train", "--matches", str(matches_file), "--manifest", str(train_corpus / "manifest.json")]
        assert main([*argv, "--family", family, "--subset", "S1", "--out", str(model)]) == 0
        doc = json.loads(model.read_text())
        schema = load_schema("model.schema.json")
        schema.validate(doc)
        assert set(doc) >= {"accuracy", "val_error", "wrong_fps", "degraded"}
        # The metadata no fitted filter has, which the reader refuses too.
        for key, value in {"accuracy": 7.5, "val_error": -1.0, "wrong_fps": -4, "degraded": 2}.items():
            assert not schema.is_valid(doc | {key: value})
        assert model_to_text(*model_from_text(model.read_text())) == model.read_text()

    def test_knn_grid_fits_a_small_corpus(self, tmp_path):
        # 25 balanced samples per inner training set: the k above 25 are left out.
        corpus = tmp_path / "corpus"
        assert main(["synth", "--events", "3", "--clips", "4", "--seed", "7", "--out", str(corpus)]) == 0
        wavs = sorted(str(p) for p in corpus.glob("*.wav"))
        idx, matches = tmp_path / "c.idx", tmp_path / "m.json"
        assert main(["index", *wavs, "--out", str(idx)]) == 0
        assert main(["match", *wavs, "--index", str(idx), "--out", str(matches)]) == 0
        report = tmp_path / "cv.json"
        rc = main(
            [
                "train",
                "--matches", str(matches),
                "--manifest", str(corpus / "manifest.json"),
                "--family", "knn",
                "--out", str(tmp_path / "m.txt"),
                "--report", str(report),
            ]
        )
        assert rc == 0
        results = json.loads(report.read_text())["results"]
        assert {r["param"] for r in results} == {float(k) for k in range(1, 26, 2)}

    def test_missing_manifest_exits_2(self, matches_file, tmp_path):
        rc = main(
            [
                "train",
                "--matches", str(matches_file),
                "--manifest", str(tmp_path / "ghost.json"),
                "--out", str(tmp_path / "m.txt"),
            ]
        )
        assert rc == 2

    @pytest.mark.parametrize(
        "fault",
        [
            "list", "no event_id", "integer event_id", "negative duration", "unknown clip key", "unknown key",
            "huge duration", "repeated snr_db", *UNREADABLE_TEXT,
        ],
    )
    def test_malformed_manifest_exits_3(self, train_corpus, matches_file, tmp_path, capsys, fault):
        manifest = json.loads((train_corpus / "manifest.json").read_text())
        first = min(manifest["clips"])
        bad = tmp_path / "manifest.json"
        if fault in UNREADABLE_TEXT:
            manifest, message = UNREADABLE_TEXT[fault]
            message = f"{bad}: {message}"
        elif fault == "list":
            manifest, message = [], "manifest: expected an object whose 'clips' is an object"
        elif fault == "no event_id":
            del manifest["clips"][first]["event_id"]
            message = f"manifest clip {first!r}: missing field 'event_id'"
        elif fault == "integer event_id":
            manifest["clips"][first]["event_id"] = 7
            message = f"manifest clip {first!r}: event_id must be a string, got 7"
        elif fault == "negative duration":
            manifest["clips"][first]["duration"] = -1
            message = f"manifest clip {first!r}: duration must be above 0, got -1"
        elif fault == "unknown clip key":
            manifest["clips"][first]["snr"] = 9
            message = f"manifest clip {first!r}: unknown key 'snr'"
        elif fault == "unknown key":
            manifest["extra"] = 1
            message = "manifest: unknown key 'extra'"
        elif fault == "repeated snr_db":  # in the first clip, which the file lists first
            manifest = json.dumps(manifest).replace('"snr_db": ', '"snr_db": 99.0, "snr_db": ', 1).encode()
            message = f"{bad}: repeated key 'snr_db'"
        else:  # past the float range: "duration": 1 followed by 400 zeros
            manifest["clips"][first]["duration"] = 10**400
            message = f"manifest clip {first!r}: duration must be a finite number, got {10**400}"
        bad.write_bytes(manifest if isinstance(manifest, bytes) else json.dumps(manifest).encode())
        capsys.readouterr()
        assert main(["train", "--matches", str(matches_file), "--manifest", str(bad), "--out", str(tmp_path / "m.txt")]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_clip_missing_from_manifest_exits_3(self, train_corpus, matches_file, tmp_path, capsys):
        doc = json.loads(matches_file.read_text())
        # The first entry's matched clip: its query is listed, so the matched side is what is missing.
        dropped = next(q["entries"][0]["clip"] for q in doc["queries"] if q["entries"])
        manifest = json.loads((train_corpus / "manifest.json").read_text())
        del manifest["clips"][dropped]
        partial = tmp_path / "manifest.json"
        partial.write_text(json.dumps(manifest))
        out = tmp_path / "m.txt"
        capsys.readouterr()
        assert main(["train", "--matches", str(matches_file), "--manifest", str(partial), "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"error: manifest has no clip {dropped!r}\n"
        assert not out.exists()


class TestClassify:
    def test_predictions_cover_all_entries(self, trained_model, matches_file, tmp_path):
        model_path, _ = trained_model
        out = tmp_path / "preds.json"
        rc = main(
            ["classify", "--model", str(model_path), "--matches", str(matches_file),
             "--out", str(out)]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        matches = json.loads(matches_file.read_text())
        total = sum(len(q["entries"]) for q in matches["queries"])
        assert len(doc["predictions"]) == total
        assert all(p["predicted_class"] in (0, 1) for p in doc["predictions"])

    def run_bad_model(self, doc_or_text, small_corpus, matches_file, tmp_path, capsys) -> list[tuple[int, str]]:
        """(exit code, stderr) of classify and of pipeline --model on the model file given as a document or as text."""
        bad = tmp_path / "model.json"
        bad.write_text(doc_or_text if isinstance(doc_or_text, str) else json.dumps(doc_or_text), encoding="utf-8")
        capsys.readouterr()
        out = []
        for argv in (
            ["classify", "--model", str(bad), "--matches", str(matches_file), "--out", str(tmp_path / "p.json")],
            ["pipeline", "--in", str(small_corpus), "--model", str(bad), "--out", str(tmp_path / "r.json")],
        ):
            out.append((main(argv), capsys.readouterr().err))
        return out

    def test_bad_model_value_exits_3_naming_the_field(
        self, trained_model, matches_file, small_corpus, tmp_path, capsys
    ):
        model_path, _ = trained_model
        doc = json.loads(model_path.read_text(encoding="utf-8"))
        doc["k"] = 4
        for rc, err in self.run_bad_model(doc, small_corpus, matches_file, tmp_path, capsys):
            assert rc == 3
            assert err.startswith(f"error: {tmp_path / 'model.json'}: knn model file: k must be an odd integer in [1, ")

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("accuracy", 7.5, "accuracy must be in [0, 1], got 7.5"),
            ("val_error", -1.0, "val_error must be in [0, 1], got -1.0"),
            ("wrong_fps", -4, "wrong_fps must be at least 0, got -4"),
            ("degraded", 2, "degraded must be in [0, 1], got 2"),
        ],
    )
    def test_metadata_no_fitted_filter_has_exits_3_naming_the_field(
        self, key, value, message, trained_model, matches_file, small_corpus, tmp_path, capsys
    ):
        model_path, _ = trained_model
        doc = json.loads(model_path.read_text(encoding="utf-8"))
        doc[key] = value
        expected = f"error: {tmp_path / 'model.json'}: knn model file: {message}\n"
        assert self.run_bad_model(doc, small_corpus, matches_file, tmp_path, capsys) == [(3, expected)] * 2

    def test_version_1_text_model_exits_3_asking_to_retrain(self, matches_file, small_corpus, tmp_path, capsys):
        old = "version = 1\nfamily = knn\nsubset = S1\nfeatures = ml,tml\nparam = 3.0\n"
        expected = (
            f"error: {tmp_path / 'model.json'}: model file is a version-1 text model, "
            "which this version does not read; re-train the model\n"
        )
        assert self.run_bad_model(old, small_corpus, matches_file, tmp_path, capsys) == [(3, expected)] * 2

    def test_undecodable_model_exits_3_naming_it(self, trained_model, matches_file, small_corpus, tmp_path, capsys):
        model_path, _ = trained_model
        bad = tmp_path / "model.json"
        text = model_path.read_bytes()
        bad.write_bytes(text + b"\xff\n")
        message = f"error: {bad}: 'utf-8' codec can't decode byte 0xff in position {len(text)}: invalid start byte\n"
        capsys.readouterr()
        argv = ["classify", "--model", str(bad), "--matches", str(matches_file)]
        assert main([*argv, "--out", str(tmp_path / "p.json")]) == 3
        assert capsys.readouterr().err == message
        argv = ["pipeline", "--in", str(small_corpus), "--model", str(bad)]
        assert main([*argv, "--out", str(tmp_path / "r.json")]) == 3
        assert capsys.readouterr().err == message

    def test_key_the_family_lacks_exits_3_naming_it(self, trained_model, matches_file, small_corpus, tmp_path, capsys):
        model_path, _ = trained_model
        doc = json.loads(model_path.read_text(encoding="utf-8"))
        doc["weights"] = [1.0, 2.0]
        expected = f"error: {tmp_path / 'model.json'}: knn model file: unknown key 'weights'\n"
        assert self.run_bad_model(doc, small_corpus, matches_file, tmp_path, capsys) == [(3, expected)] * 2


class TestPipeline:
    def test_report_matches_schema_and_partitions_clips(self, small_corpus, tmp_path):
        out = tmp_path / "report.json"
        assert main(["pipeline", "--in", str(small_corpus), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        load_schema("report.schema.json").validate(report)

        placed = [c["id"] for ev in report["events"] for c in ev["clips"]]
        all_ids = sorted(p.stem for p in small_corpus.glob("*.wav"))
        assert sorted(placed + report["unmatched"]) == all_ids
        assert report["classifier"] is None

        truth = json.loads((small_corpus / "manifest.json").read_text())["clips"]
        for ev in report["events"]:
            events_of = {truth[c["id"]]["event_id"] for c in ev["clips"]}
            assert len(events_of) == 1  # no cluster mixes true events
            for c in ev["clips"]:
                assert c["position"] >= 0.0

    def test_single_clip_corpus(self, small_corpus, tmp_path, capsys):
        solo_dir = tmp_path / "solo"
        solo_dir.mkdir()
        src = next(iter(sorted(small_corpus.glob("*.wav"))))
        (solo_dir / src.name).write_bytes(src.read_bytes())
        assert main(["pipeline", "--in", str(solo_dir)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["events"]) == 1
        (ev,) = report["events"]
        assert [c["id"] for c in ev["clips"]] == [src.stem]
        assert len(ev["segments"]) == 1
        assert ev["segments"][0]["quality"] == [{"clip": src.stem, "score": 0}]
        assert report["unmatched"] == []

    def test_model_meta_lands_in_report(self, small_corpus, trained_model, tmp_path):
        model_path, _ = trained_model
        out = tmp_path / "report.json"
        rc = main(
            ["pipeline", "--in", str(small_corpus), "--model", str(model_path),
             "--out", str(out)]
        )
        assert rc == 0
        report = json.loads(out.read_text())
        meta = report["classifier"]
        assert meta["family"] == "knn"
        assert meta["subset"] == "S1"
        assert "accuracy" in meta

    def test_emit_cuts_names_by_millisecond(self, small_corpus, tmp_path):
        cuts_dir = tmp_path / "cuts"
        out = tmp_path / "report.json"
        rc = main(
            ["pipeline", "--in", str(small_corpus), "--out", str(out),
             "--emit-cuts", str(cuts_dir)]
        )
        assert rc == 0
        report = json.loads(out.read_text())
        expected = set()
        for ev in report["events"]:
            for seg in ev["segments"]:
                for m in seg["members"]:
                    ms0 = round(m["local_start"] * 1000)
                    ms1 = round(m["local_end"] * 1000)
                    expected.add(f"{m['clip']}__{ms0}_{ms1}.wav")
        produced = {p.name for p in cuts_dir.glob("*.wav")}
        assert produced == expected
        assert produced, "expected at least one cut"
        for ev in report["events"]:
            for seg in ev["segments"]:
                for m in seg["members"]:
                    cut = ClipCut(m["clip"], m["local_start"], m["local_end"])
                    audio = cut_audio(read_clip(small_corpus / f"{m['clip']}.wav", PROCESS_RATE), cut)
                    assert (cuts_dir / f"{audio.id}.wav").read_bytes() == encode_wav(audio)

    def test_missing_corpus_dir_exits_2(self, tmp_path):
        assert main(["pipeline", "--in", str(tmp_path / "ghost")]) == 2

    def test_truncated_wav_exits_3_naming_the_file(self, small_corpus, indexed, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        wavs = sorted(small_corpus.glob("*.wav"))[:3]
        for src in wavs:
            (corpus / src.name).write_bytes(src.read_bytes())
        bad = corpus / wavs[1].name
        bad.write_bytes(bad.read_bytes()[:1000])
        capsys.readouterr()

        assert main(["pipeline", "--in", str(corpus), "--out", str(tmp_path / "r.json")]) == 3
        err = capsys.readouterr().err
        assert f"{bad}: truncated data chunk (byte offset 44)" in err

        paths = [str(corpus / src.name) for src in wavs]
        assert main(["index", *paths, "--out", str(tmp_path / "o.idx")]) == 3
        err = capsys.readouterr().err
        assert f"{bad}: truncated data chunk (byte offset 44)" in err

        assert main(["match", *paths, "--index", str(indexed[0]), "--out", str(tmp_path / "m.json")]) == 3
        err = capsys.readouterr().err
        assert f"{bad}: truncated data chunk (byte offset 44)" in err
        assert not (tmp_path / "m.json").exists()

    def test_zero_sample_rate_exits_3_naming_the_file(self, small_corpus, tmp_path, capsys):
        bad = tmp_path / "zero.wav"
        raw = bytearray(next(iter(sorted(small_corpus.glob("*.wav")))).read_bytes())
        raw[24:28] = bytes(4)  # fmt sample rate
        bad.write_bytes(bytes(raw))
        capsys.readouterr()
        assert main(["index", str(bad), "--out", str(tmp_path / "o.idx")]) == 3
        assert f"{bad}: sample rate 0 in fmt chunk (byte offset 24)" in capsys.readouterr().err

    def test_unsupported_bit_depth_exits_3_at_the_bits_field(self, small_corpus, tmp_path, capsys):
        bad = tmp_path / "pcm8.wav"
        raw = bytearray(next(iter(sorted(small_corpus.glob("*.wav")))).read_bytes())
        raw[34:36] = (8).to_bytes(2, "little")  # fmt bits per sample
        bad.write_bytes(bytes(raw))
        capsys.readouterr()
        assert main(["index", str(bad), "--out", str(tmp_path / "o.idx")]) == 3
        assert f"{bad}: unsupported codec (format 1, 8-bit) (byte offset 34)" in capsys.readouterr().err

    def test_nan_float_sample_exits_3_at_its_offset(self, tmp_path, capsys):
        rate = 11025
        x = np.sin(np.arange(5 * rate) * 0.05).astype("<f4")
        x[12345] = np.nan
        body = x.tobytes()
        fmt = struct.pack("<IHHIIHH", 16, 3, 1, rate, rate * 4, 4, 32)
        bad = tmp_path / "nan.wav"
        bad.write_bytes(
            b"RIFF" + struct.pack("<I", 36 + len(body)) + b"WAVE" + b"fmt " + fmt
            + b"data" + struct.pack("<I", len(body)) + body
        )
        capsys.readouterr()
        assert main(["index", str(bad), "--out", str(tmp_path / "o.idx")]) == 3
        err = capsys.readouterr().err
        assert f"{bad}: NaN sample in float data (byte offset {44 + 4 * 12345})" in err

    def test_no_corpus_dir_exits_2(self, capsys):
        assert main(["pipeline"]) == 2
        assert "corpus" in capsys.readouterr().err


def quick_start_commands() -> list[list[str]]:
    """The arguments of every `ugcaudio` line in the README's Quick start."""
    section = README.read_text(encoding="utf-8").split("\n## Quick start\n", 1)[1].split("\n## ", 1)[0]
    lines = section.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("ugcaudio ")]


def test_readme_quick_start_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = quick_start_commands()
    assert [argv[0] for argv in commands] == [
        "synth", "pipeline", "index", "match", "train", "classify", "pipeline"
    ]
    for argv in commands:
        argv = [path for arg in argv for path in (sorted(glob.glob(arg)) if "*" in arg else [arg])]
        assert main(argv) == 0, argv


def test_console_script_help_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "ugcaudio.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "synth" in proc.stdout
