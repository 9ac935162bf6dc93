"""The three workloads: inputs, one measured round, output checks.

Inputs are made by `make_inputs`, which `run.py` calls in a child process
(`python3 workloads.py NAME WORK SEED`), so the memory that corpus synthesis
takes never counts towards the measured process's peak. `load` then reads
what the child left in the work directory.

Every call into the program goes through `ugcaudio.cli.main` or a public
function looked up on its module at call time, so the wrappers that
`spans.install` puts in place see it. A round returns a `Round`. An
operation whose output is wrong counts as failed; a broken invariant of an
output that did not fail goes to `errors` and makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles

# Alignment bound of acceptance criterion 2: two STFT hops.
ALIGN_TOL_S = 2 * 256 / 11025 + 1e-9

# `ugcaudio synth` defaults except for the SNR range, which is criterion 1's.
EVENT_SHAPE = dict(
    event_duration=120.0,
    clip_duration_range=(20.0, 40.0),
    min_overlap=10.0,
    snr_range_db=(10.0, 20.0),
)


@dataclass
class Round:
    step_s: list[float] = field(default_factory=list)  # one per timed step
    busy_s: float = 0.0  # wall time the throughput is taken over
    audio_s: float = 0.0  # audio seconds handled in busy_s
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    quality_agree: int = 0
    quality_pairs: int = 0


def cli(*argv: str) -> int:
    """Run one `ugcaudio` command in this process, its chatter discarded."""
    import ugcaudio.cli

    with contextlib.redirect_stdout(io.StringIO()):
        return ugcaudio.cli.main(list(argv))


def write_renamed(clips, truth, seed: int, place) -> dict:
    """Write clips as WAVs under seeded opaque names; truth keyed by new name.

    `place(synth id)` gives the directory and the sample rate to write at
    (None: as synthesised). Names carry no ground truth, and their sort
    order, which sets the program's processing order, changes with the seed.
    """
    from ugcaudio import audio_io

    order = np.random.default_rng(seed).permutation(len(clips))
    renamed = {}
    for clip, rank in zip(clips, order):
        new_id = f"r{rank:03d}"
        out, rate = place(clip.id)
        out.mkdir(parents=True, exist_ok=True)
        audio = audio_io.AudioClip(id=new_id, samples=clip.samples, rate=clip.rate)
        if rate is not None:
            audio = audio_io.resample_mono(audio, rate)
        (out / f"{new_id}.wav").write_bytes(audio_io.encode_wav(audio))
        t = truth.clips[clip.id]
        renamed[new_id] = {
            "synth_id": clip.id,
            "event_id": t.event_id,
            "start": t.start,
            "duration": t.duration,
            "snr_db": t.snr_db,
        }
    return renamed


class Organise:
    """`ugcaudio pipeline` over two 20-event x 6-clip corpora (seeds 0, 1)."""

    CORPUS_SEEDS = (0, 1)

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed

    def make_inputs(self) -> None:
        from ugcaudio import audio_io

        truth = {}
        for corpus_seed in self.CORPUS_SEEDS:
            spec = audio_io.SynthSpec(n_events=20, clips_per_event=6, seed=corpus_seed, **EVENT_SHAPE)
            clips, manifest = audio_io.synth_corpus(spec)
            directory = self.work / f"corpus{corpus_seed}"
            truth[directory.name] = write_renamed(clips, manifest, self.seed, lambda _: (directory, None))
        (self.work / "truth.json").write_text(json.dumps(truth), encoding="utf-8")

    def load(self) -> None:
        truth = json.loads((self.work / "truth.json").read_text(encoding="utf-8"))
        self.corpora = [(self.work / name, clips) for name, clips in truth.items()]
        schema_path = Path(__file__).resolve().parent.parent / "docs" / "report.schema.json"
        self.schema = json.loads(schema_path.read_text(encoding="utf-8"))

    def round(self, clock) -> Round:
        out = Round()
        for directory, truth in self.corpora:
            report_path = self.work / f"{directory.name}-report.json"
            with clock.measure() as t:
                rc = cli("pipeline", "--in", str(directory), "--out", str(report_path))
            out.step_s.append(t.elapsed)
            out.busy_s += t.elapsed
            out.audio_s += sum(c["duration"] for c in truth.values())
            n_events = len({c["event_id"] for c in truth.values()})
            out.attempted += n_events
            if rc != 0:
                out.failed += n_events
                out.errors.append(f"pipeline exited {rc} on {directory.name}")
                continue
            report = json.loads(report_path.read_text(encoding="utf-8"))
            self.check(report, truth, out, directory.name)
        return out

    def check(self, report: dict, truth: dict, out: Round, name: str) -> None:
        import jsonschema

        try:
            jsonschema.validate(report, self.schema)
        except jsonschema.ValidationError as exc:
            out.errors.append(f"{name}: report fails its schema: {exc.message}")
        clusters = [[c["id"] for c in ev["clips"]] for ev in report["events"]]
        for problem in oracles.partition_errors(list(truth), clusters, report["unmatched"]):
            out.errors.append(f"{name}: events + unmatched do not partition the inputs: {problem}")

        # The known fault: distinct events chained into one cluster (or split)
        # fail their operation.
        exact = oracles.recovered_events({cid: c["event_id"] for cid, c in truth.items()}, clusters)
        out.failed += sum(not ok for ok in exact.values())
        snr = {cid: c["snr_db"] for cid, c in truth.items()}
        for ev in report["events"]:
            positions = {c["id"]: c["position"] for c in ev["clips"]}
            events = {truth[cid]["event_id"] for cid in positions}
            if len(events) == 1 and exact[events.pop()]:
                starts = {cid: truth[cid]["start"] for cid in positions}
                worst = oracles.worst_alignment_error(positions, starts)
                if worst > ALIGN_TOL_S:
                    out.errors.append(f"{name}: event {ev['id']} misaligned by {worst * 1000:.1f} ms")
            self.check_segments(ev, out, f"{name}: event {ev['id']}")
            for seg in ev["segments"]:
                ranked = [(q["clip"], q["score"]) for q in seg["quality"]]
                agree, pairs = oracles.snr_concordance(ranked, snr)
                out.quality_agree += agree
                out.quality_pairs += pairs

    @staticmethod
    def check_segments(ev: dict, out: Round, where: str) -> None:
        """Segments against the sweep oracle; rankings against their members."""
        try:
            pos = {c["id"]: oracles.to_samples(c["position"]) for c in ev["clips"]}
            dur = {c["id"]: oracles.to_samples(c["duration"]) for c in ev["clips"]}
            got = []
            for seg in ev["segments"]:
                s0, s1 = oracles.to_samples(seg["start"]), oracles.to_samples(seg["end"])
                got.append((s0, s1, [m["clip"] for m in seg["members"]]))
                for m in seg["members"]:
                    local = (oracles.to_samples(m["local_start"]), oracles.to_samples(m["local_end"]))
                    if local != (s0 - pos[m["clip"]], s1 - pos[m["clip"]]):
                        out.errors.append(f"{where}: cut of {m['clip']} is {local}, not its overlap")
        except ValueError as exc:
            out.errors.append(f"{where}: {exc}")
            return
        if got != oracles.sweep_segments(pos, dur):
            out.errors.append(f"{where}: segments differ from the boundary sweep")
        for seg in ev["segments"]:
            if sorted(q["clip"] for q in seg["quality"]) != sorted(m["clip"] for m in seg["members"]):
                out.errors.append(f"{where}: ranking is not a permutation of the members")
            if not oracles.non_increasing([q["score"] for q in seg["quality"]]):
                out.errors.append(f"{where}: ranking scores increase")


class IndexMatch:
    """`ugcaudio index` of 240 clips, then `ugcaudio match` of 40 new ones.

    40 events x 7 clips at corpus seed 0. Clips c00-c05 of each event are
    indexed at 11025 Hz; c06 arrives as a 44.1 kHz recording and is matched.
    Besides the `match` command, each query is timed alone through the same
    public functions against an index loaded once, which gives the
    per-recording latency without the one-off load. The queries are timed in
    five passes, so that the samples span about as long as the two commands
    rather than a moment of the machine's speed. Throughput counts the
    commands and the passes.
    """

    CORPUS_SEED = 0
    QUERY_RATE = 44100
    LATENCY_PASSES = 5

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed

    def make_inputs(self) -> None:
        from ugcaudio import audio_io

        spec = audio_io.SynthSpec(n_events=40, clips_per_event=7, seed=self.CORPUS_SEED, **EVENT_SHAPE)
        clips, manifest = audio_io.synth_corpus(spec)

        def place(synth_id: str):
            if synth_id.endswith("_c06"):
                return self.work / "queries", self.QUERY_RATE
            return self.work / "indexed", None

        truth = write_renamed(clips, manifest, self.seed, place)
        (self.work / "truth.json").write_text(json.dumps(truth), encoding="utf-8")

    def load(self) -> None:
        self.truth = json.loads((self.work / "truth.json").read_text(encoding="utf-8"))
        self.indexed = sorted((self.work / "indexed").glob("*.wav"))
        self.queries = sorted((self.work / "queries").glob("*.wav"))
        # New id of each query's overlapping predecessor c05.
        by_synth_id = {c["synth_id"]: cid for cid, c in self.truth.items()}
        self.predecessor = {
            q.stem: by_synth_id[self.truth[q.stem]["synth_id"].replace("_c06", "_c05")]
            for q in self.queries
        }

    def round(self, clock) -> Round:
        from ugcaudio import audio_io, fingerprint, storage

        out = Round()
        index_path = self.work / "corpus.idx"
        matches_path = self.work / "matches.json"
        with clock.measure() as t_index:
            rc_index = cli("index", "--out", str(index_path), *map(str, self.indexed))
        with clock.measure() as t_match:
            rc_match = cli("match", "--index", str(index_path), "--out", str(matches_path), *map(str, self.queries))
        out.busy_s = t_index.elapsed + t_match.elapsed
        out.audio_s = sum(self.truth[p.stem]["duration"] for p in self.indexed + self.queries)
        out.attempted = 1 + len(self.queries)
        if rc_index != 0 or rc_match != 0:
            out.failed = out.attempted
            out.errors.append(f"index exited {rc_index}, match exited {rc_match}")
            return out

        index = storage.load_index(str(index_path))
        cfg = fingerprint.FpConfig()
        lists = {}
        for path in self.queries * self.LATENCY_PASSES:
            # Not traced: the layers' times come from the two commands alone.
            with clock.measure(trace=False) as t:
                clip = audio_io.decode_wav(path.read_bytes(), clip_id=path.stem)
                clip = audio_io.resample_mono(clip, cfg.rate)
                hashed = fingerprint.hash_landmarks(fingerprint.fingerprint_clip(clip, cfg))
                lists[path.stem] = fingerprint.query(index, path.stem, hashed, cfg)
            out.step_s.append(t.elapsed)
        # Throughput is taken over the whole round, so that it too spans more
        # than a moment of the machine's speed.
        out.busy_s += sum(out.step_s)
        out.audio_s += self.LATENCY_PASSES * sum(self.truth[p.stem]["duration"] for p in self.queries)

        if storage.index_to_bytes(index) != index_path.read_bytes():
            out.errors.append("index file does not re-serialise byte-identically after a load")
        doc = json.loads(matches_path.read_text(encoding="utf-8"))
        for q in doc["queries"]:
            alone = [(e.clip_id, e.offset_frames, e.ml, e.tml) for e in lists[q["query"]].entries]
            if alone != [(e["clip"], e["offset_frames"], e["ml"], e["tml"]) for e in q["entries"]]:
                out.errors.append(f"query {q['query']}: timed-alone entries differ from `match`")
            if not self.query_ok(q["query"], q["entries"], cfg):
                out.failed += 1
        return out

    def query_ok(self, qid: str, entries: list[dict], cfg) -> bool:
        """Strongest entry: same event at the true offset; c05 found at its own."""
        if not entries:
            return False
        query = self.truth[qid]

        def offset_ok(entry) -> bool:
            clip = self.truth[entry["clip"]]
            want = oracles.true_offset_frames(query["start"], clip["start"], cfg.rate, cfg.hop)
            return abs(entry["offset_frames"] - want) <= 1

        top = min(entries, key=lambda e: (-e["ml"], abs(e["offset_frames"]), e["clip"]))
        same_event = self.truth[top["clip"]]["event_id"] == query["event_id"]
        prev = self.predecessor[qid]
        return same_event and offset_ok(top) and any(e["clip"] == prev and offset_ok(e) for e in entries)


class Train:
    """`ugcaudio train --family knn --subset S3` on the criterion-6 corpus.

    The corpus (10 events x 6 clips, seed 11, 25% repeats, 2 s cross-event
    snippets) and the CV seed (0) are those of acceptance criterion 6, so this
    workload's inputs do not depend on the benchmark seed.
    """

    SYNTH = (
        "--events 10 --clips 6 --event-duration 120 --clip-duration 25 40 --min-overlap 12"
        " --snr 15 25 --seed 11 --repeat-fraction 0.25 --cross-snippet 2"
    )

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.corpus = work / "corpus"
        self.index = work / "corpus.idx"
        self.matches = work / "matches.json"

    def make_inputs(self) -> None:
        if cli("synth", *self.SYNTH.split(), "--out", str(self.corpus)) != 0:
            raise RuntimeError("`ugcaudio synth` failed")
        wavs = sorted(map(str, self.corpus.glob("*.wav")))
        if cli("index", "--out", str(self.index), *wavs) != 0:
            raise RuntimeError("`ugcaudio index` failed")
        if cli("match", "--index", str(self.index), "--out", str(self.matches), *wavs) != 0:
            raise RuntimeError("`ugcaudio match` failed")

    def load(self) -> None:
        manifest = json.loads((self.corpus / "manifest.json").read_text(encoding="utf-8"))
        self.audio_s = sum(c["duration"] for c in manifest["clips"].values())

    def round(self, clock) -> Round:
        from ugcaudio import storage

        model, cv = self.work / "model.txt", self.work / "cv.json"
        with clock.measure() as t:
            rc = cli(
                "train", "--matches", str(self.matches),
                "--manifest", str(self.corpus / "manifest.json"),
                "--family", "knn", "--subset", "S3", "--out", str(model), "--report", str(cv),
            )
        out = Round(step_s=[t.elapsed], busy_s=t.elapsed, audio_s=self.audio_s, attempted=1)
        if rc != 0:
            out.failed = 1
            out.errors.append(f"train exited {rc}")
            return out
        chosen = json.loads(cv.read_text(encoding="utf-8"))["chosen"]
        # Criterion 6's bounds on the selected model.
        if chosen["wrong_fps"] != 0 or chosen["degraded"] or chosen["test_accuracy"] < 0.90:
            out.failed = 1
        text = model.read_text(encoding="utf-8")
        if storage.model_to_text(*storage.model_from_text(text)) != text:
            out.errors.append("model text does not round-trip byte-identically")
        return out


WORKLOADS = {"organise": Organise, "index-match": IndexMatch, "train": Train}


if __name__ == "__main__":
    name, work, seed = sys.argv[1], Path(sys.argv[2]), int(sys.argv[3])
    WORKLOADS[name](work, seed).make_inputs()
