"""Command line: synth, index, match, pipeline, train, classify.

Exit codes: 0 success, 2 usage error (bad flags, missing input file),
3 data or constraint error (undecodable audio, infeasible layout, corrupt
or incompatible stored file, failed precondition).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict
from pathlib import Path

from .audio_io import (
    DecodeError,
    GroundTruth,
    LayoutError,
    SynthSpec,
    encode_wav,
    read_clip,
    refuse_unknown_keys,
    synth_corpus,
)
from .fingerprint import (
    FingerprintIndex,
    FpConfig,
    MatchEntry,
    MatchingList,
    load_config,
    query,
)
from .match_classifier import (
    CvResult,
    autolabel,
    default_grid,
    double_cv,
    fit_filter,
    parse_subset,
    select_model,
    SUBSETS,
)
from .pipeline import fingerprint_clips, load_corpus, run_pipeline
from .storage import (
    StorageError,
    dump_json,
    load_index,
    load_json,
    load_model,
    save_index,
    save_json,
    save_model,
)
from .timeline import cut_audio

ENV_SEED = "UGC_SEED"


def _require(path: str, what: str) -> str:
    if not Path(path).exists():
        raise FileNotFoundError(f"{what} not found: {path}")
    return path


def _config_from(args) -> FpConfig:
    return load_config(_require(args.config, "config file")) if args.config else FpConfig()


def seed_override(default: int) -> int:
    """UGC_SEED in the environment beats a `--seed` flag."""
    raw = os.environ.get(ENV_SEED)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{ENV_SEED} must be an integer, got {raw!r}") from None


def _write(doc, out: str | None, done: str) -> None:
    """Write doc to the file out and print done, or doc to stdout when out is not given."""
    if out:
        save_json(doc, out)
        print(done)
    else:
        print(dump_json(doc), end="")


def cmd_synth(args) -> int:
    spec = SynthSpec(
        n_events=args.events,
        clips_per_event=args.clips,
        event_duration=args.event_duration,
        clip_duration_range=(args.clip_duration[0], args.clip_duration[1]),
        min_overlap=args.min_overlap,
        snr_range_db=(args.snr[0], args.snr[1]),
        seed=seed_override(args.seed),
        repeat_fraction=args.repeat_fraction,
        cross_snippet_seconds=args.cross_snippet,
    )
    clips, truth = synth_corpus(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for clip in clips:
        (out / f"{clip.id}.wav").write_bytes(encode_wav(clip))
    (out / "manifest.json").write_text(truth.to_json() + "\n", encoding="utf-8")
    print(f"wrote {len(clips)} clips + manifest.json to {out}")
    return 0


def _read_clips(files: list[str], rate: int):
    """Clips decoded one by one, each named by its file's stem; two files of one stem are refused first."""
    first: dict[str, int] = {}  # stem -> the index of its first file
    for i, name in enumerate(files):
        if (j := first.setdefault(Path(name).stem, i)) != i:
            raise ValueError(f"{files[j]} and {name} are both clip {Path(name).stem!r}")
    return (read_clip(Path(_require(name, "audio file")), rate) for name in files)


def cmd_index(args) -> int:
    cfg = _config_from(args)
    index = FingerprintIndex(cfg)
    clips = _read_clips(args.files, cfg.rate)
    for clip_id, duration, hashed, _ in fingerprint_clips(clips, cfg):
        if len(hashed) == 0:
            print(f"warning: {clip_id}: no landmarks, skipped", file=sys.stderr)
            continue
        index.add_hashed(clip_id, hashed, duration)
    save_index(index, args.out)
    print(f"indexed {len(index.clip_ids)} clips to {args.out}")
    return 0


# Each field of a matches-file entry: its MatchEntry attribute, the JSON
# types it takes, and their name.
_ENTRY_FIELDS = {
    "clip": ("clip_id", (str,), "a string"),
    "offset_frames": ("offset_frames", (int,), "an integer"),
    "ml": ("ml", (int,), "an integer"),
    "tml": ("tml", (int,), "an integer"),
    "lq": ("lq", (int,), "an integer"),
    "li": ("li", (int,), "an integer"),
}


def matches_to_doc(lists: list[MatchingList]) -> dict:
    return {
        "queries": [
            {
                "query": ml.query_id,
                "entries": [
                    {key: getattr(e, attr) for key, (attr, _, _) in _ENTRY_FIELDS.items()}
                    for e in ml.entries
                ],
            }
            for ml in lists
        ]
    }


def matches_from_doc(doc) -> list[MatchingList]:
    """Matching lists from a matches document, refusing malformed entries and impossible counts.

    The document is {"queries": [{"query": id, "entries": [...]}, ...]}, as
    matches_to_doc writes it. Every entry field must be present and of its
    type (a count 7.9 or true is not read as 7 or 1), clip may not be the
    query itself, no count may be negative or above 2**53 and ml may not
    exceed tml; a ValueError names the query, the entry's index and the field.
    ml may exceed lq: `query` writes such entries when one query landmark
    meets postings at adjacent offsets of one clip. The one landmark count
    `query` writes per query (lq) and per indexed clip (li) must agree
    wherever it is repeated; a ValueError names both entries. A key
    matches_to_doc does not write, or a query id repeated, is refused.
    """
    queries = doc.get("queries") if isinstance(doc, dict) else None
    if not isinstance(queries, list):
        raise ValueError("matches file: expected an object whose 'queries' is a list")
    refuse_unknown_keys(doc, ("queries",), "matches file")
    lists = []
    first: dict[str, int] = {}  # query id -> the index of its first query
    li_of: dict[str, tuple[str, int]] = {}  # clip -> (the entry that gave its li, that li)
    for n, q in enumerate(queries):
        if not (isinstance(q, dict) and isinstance(q.get("query"), str) and isinstance(q.get("entries"), list)):
            raise ValueError(f"matches file: query {n} needs a string 'query' and a list 'entries'")
        if (j := first.setdefault(q["query"], n)) != n:
            raise ValueError(f"matches file: queries {j} and {n} are both {q['query']!r}")
        refuse_unknown_keys(q, ("query", "entries"), f"query {q['query']!r}")
        entries = []
        for i, e in enumerate(q["entries"]):
            where = f"query {q['query']!r} entry {i}"
            if not isinstance(e, dict):
                raise ValueError(f"{where}: not an object")
            refuse_unknown_keys(e, _ENTRY_FIELDS, where)
            values = {"query_id": q["query"]}
            for key, (attr, kinds, wanted) in _ENTRY_FIELDS.items():
                if key not in e:
                    raise ValueError(f"{where}: missing field {key!r}")
                if not isinstance(e[key], kinds) or isinstance(e[key], bool):
                    raise ValueError(f"{where}: {key} must be {wanted}, got {e[key]!r}")
                values[attr] = e[key]
            if e["clip"] == q["query"]:
                raise ValueError(f"{where}: clip must differ from the query, got {e['clip']!r}")
            entry = MatchEntry(**values)
            if min(entry.ml, entry.tml, entry.lq, entry.li) < 0:
                raise ValueError(f"{where}: negative landmark count")
            for key in ("ml", "tml", "lq", "li"):  # counts are read as float64 features
                if e[key] > 2**53:
                    raise ValueError(f"{where}: {key} must be at most 2**53, got {e[key]}")
            if entry.ml > entry.tml:
                raise ValueError(f"{where}: ml {entry.ml} exceeds tml {entry.tml}")
            if entries and entry.lq != entries[0].lq:
                raise ValueError(f"query {q['query']!r} entries 0 and {i} disagree on lq ({entries[0].lq}, {entry.lq})")
            given, li = li_of.setdefault(entry.clip_id, (where, entry.li))
            if entry.li != li:
                raise ValueError(f"{given} and {where} disagree on li for clip {entry.clip_id!r} ({li}, {entry.li})")
            entries.append(entry)
        lists.append(MatchingList(query_id=q["query"], entries=entries))
    return lists


def cmd_match(args) -> int:
    cfg = _config_from(args)
    clips = _read_clips(args.files, cfg.rate)
    index = load_index(_require(args.index, "index file"))
    lists = [query(index, clip_id, hashed, cfg) for clip_id, _, hashed, _ in fingerprint_clips(clips, cfg)]
    _write(matches_to_doc(lists), args.out, f"wrote matches for {len(lists)} queries to {args.out}")
    return 0


def cmd_pipeline(args) -> int:
    cfg = _config_from(args)
    corpus_dir = _require(args.input, "corpus directory")

    match_filter = None
    meta = None
    if args.model:
        match_filter, meta_raw = load_model(_require(args.model, "model file"))
        meta = {
            "family": match_filter.family,
            "param": match_filter.param,
            "subset": match_filter.subset.name,
            **meta_raw,
        }

    result = run_pipeline(load_corpus(corpus_dir, cfg.rate), cfg, match_filter, meta)

    _write(result.report, args.out, f"wrote report ({len(result.events)} events) to {args.out}")

    if args.emit_cuts:
        cuts_dir = Path(args.emit_cuts)
        cuts_dir.mkdir(parents=True, exist_ok=True)
        cuts_of: dict[str, list] = {}
        for ev in result.events:
            for seg in ev.segments:
                for cut in seg.members:
                    cuts_of.setdefault(cut.clip_id, []).append(cut)
        n = 0
        # The run keeps no audio: decode each clip with cuts again, once.
        for clip_id, cuts in cuts_of.items():
            clip = read_clip(Path(corpus_dir) / f"{clip_id}.wav", cfg.rate)
            for cut in cuts:
                audio = cut_audio(clip, cut)
                if len(audio.samples) == 0:
                    continue
                (cuts_dir / f"{audio.id}.wav").write_bytes(encode_wav(audio))
                n += 1
        print(f"wrote {n} segment cuts to {cuts_dir}")
    return 0


def _cv_result_doc(r: CvResult) -> dict:
    return asdict(r) | {"subset": r.subset.name}


def cmd_train(args) -> int:
    doc = load_json(_require(args.matches, "matches file"))
    lists = matches_from_doc(doc)
    truth = GroundTruth.from_doc(load_json(_require(args.manifest, "manifest file")))
    seed = seed_override(args.seed)
    samples = autolabel(lists, truth)

    subsets = SUBSETS if args.subset == "all" else (parse_subset(args.subset),)
    families = ("logreg", "knn") if args.family == "both" else (args.family,)
    results: list[CvResult] = []
    for family in families:
        grid = default_grid(family)
        for subset in subsets:
            results.extend(double_cv(samples, family, grid, subset, seed))

    chosen = select_model(results)
    flt = fit_filter(samples, chosen.family, chosen.param, chosen.subset, seed)
    save_model(
        flt,
        args.out,
        meta={
            "accuracy": chosen.test_accuracy,
            "val_error": chosen.val_error,
            "wrong_fps": chosen.wrong_fps,
            "degraded": chosen.degraded,
        },
    )
    if args.report:
        save_json(
            {
                "results": [_cv_result_doc(r) for r in results],
                "chosen": _cv_result_doc(chosen),
            },
            args.report,
        )
    flag = " (degraded)" if chosen.degraded else ""
    print(
        f"chose {chosen.family} param={chosen.param:g} subset={chosen.subset.name}"
        f" accuracy={chosen.test_accuracy:.4f} wrong_fps={chosen.wrong_fps}{flag}"
        f" -> {args.out}"
    )
    return 0


def cmd_classify(args) -> int:
    flt, _ = load_model(_require(args.model, "model file"))
    lists = matches_from_doc(load_json(_require(args.matches, "matches file")))
    entries = [e for ml in lists for e in ml.entries]
    rows = [
        {
            "query": e.query_id,
            "clip": e.clip_id,
            "offset_frames": e.offset_frames,
            "predicted_class": cls,
        }
        for e, cls in zip(entries, flt.predict(entries).tolist())
    ]
    _write({"predictions": rows}, args.out, f"wrote {len(rows)} predictions to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ugcaudio",
        description="Organize user-recorded audio clips into events by shared sound.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic labeled corpus")
    p.add_argument("--events", type=int, default=2)
    p.add_argument("--clips", type=int, default=3, help="clips per event")
    p.add_argument("--event-duration", type=float, default=120.0)
    p.add_argument("--clip-duration", type=float, nargs=2, default=(20.0, 40.0), metavar=("LO", "HI"))
    p.add_argument("--min-overlap", type=float, default=10.0)
    p.add_argument("--snr", type=float, nargs=2, default=(20.0, 30.0), metavar=("LO", "HI"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--repeat-fraction", type=float, default=0.0)
    p.add_argument("--cross-snippet", type=float, default=0.0, help="seconds of audio shared across event pairs")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("index", help="fingerprint WAV files into a binary index")
    p.add_argument("files", nargs="*")
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("match", help="match query WAVs against an index")
    p.add_argument("files", nargs="+")
    p.add_argument("--index", required=True)
    p.add_argument("--config")
    p.add_argument("--out")
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("pipeline", help="full run: cluster, align, segment, report")
    p.add_argument("--in", dest="input", required=True, metavar="corpus_dir")
    p.add_argument("--config")
    p.add_argument("--model", help="trained match classifier to filter edges")
    p.add_argument("--out")
    p.add_argument("--emit-cuts", metavar="DIR", help="write per-segment WAV cuts here")
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("train", help="double cross-validation over a model grid")
    p.add_argument("--matches", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--family", choices=("logreg", "knn", "both"), default="logreg")
    p.add_argument("--subset", choices=("S1", "S2", "S3", "S4", "all"), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--report", help="also write every grid cell's CV numbers here")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("classify", help="apply a trained model to a matches file")
    p.add_argument("--model", required=True)
    p.add_argument("--matches", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_classify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DecodeError, LayoutError, StorageError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
