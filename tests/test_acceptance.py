"""Acceptance run: ten end-to-end criteria, one test (and one line) each.

Each test prints the measured numbers next to the threshold it had to meet,
so a `pytest -v` run reads as a criterion-by-criterion scoreboard.
"""

import time

import numpy as np
import pytest

from ugcaudio import (
    AudioClip,
    Cluster,
    FingerprintIndex,
    FpConfig,
    KnnModel,
    LogRegModel,
    MatchEdge,
    MatchEntry,
    MatchGraph,
    MatchingList,
    S1,
    S2,
    S4,
    SUBSETS,
    Standardizer,
    StorageError,
    SynthSpec,
    autolabel,
    confirm_cluster,
    default_grid,
    double_cv,
    fit_filter,
    logreg_gradient,
    logreg_loss,
    query,
    segment_quality,
    select_model,
    split_repetitions,
    synth_corpus,
)
from ugcaudio.cli import main as cli_main
from ugcaudio.match_classifier import (
    KIND_WRONG,
    Sample,
)
from ugcaudio.pipeline import run_pipeline
from ugcaudio.storage import (
    INDEX_VERSION,
    index_from_bytes,
    index_to_bytes,
    model_from_text,
    model_to_text,
)
from ugcaudio.timeline import ClipCut, Segment
from ugcaudio.fingerprint import fingerprint_clip, hash_landmarks

from _helpers import (
    add_noise,
    burst_clip,
    candidates_of,
    check_layout_against_oracle,
    melody_clip,
    rand_index,
    random_layout,
)

TWO_HOPS_SECONDS = 2 * 256 / 11025


# -----------------------------------------------------------------------------
# criteria 1 + 2 share five full pipeline runs
# -----------------------------------------------------------------------------


@pytest.fixture(scope="module")
def clustering_runs():
    spec_of = lambda seed: SynthSpec(
        n_events=5,
        clips_per_event=6,
        event_duration=120.0,
        clip_duration_range=(20.0, 40.0),
        min_overlap=10.0,
        snr_range_db=(10.0, 20.0),
        seed=seed,
    )
    runs = []
    elapsed = 0.0
    # corpus generation is excluded from the runtime budget; everything from
    # raw samples to the report is inside it
    for seed in range(5):
        clips, truth = synth_corpus(spec_of(seed))
        t0 = time.perf_counter()
        result = run_pipeline(clips, FpConfig())
        elapsed += time.perf_counter() - t0
        runs.append((truth, result))
    return runs, elapsed


def test_criterion_01_clustering_recovers_events_exactly(clustering_runs):
    runs, elapsed = clustering_runs
    rands = []
    for truth, result in runs:
        assert result.unmatched == []
        recovered = {
            cid: ev.cluster.id for ev in result.events for cid in ev.cluster.members
        }
        expected = {cid: t.event_id for cid, t in truth.clips.items()}
        assert len(result.events) == 5
        rands.append(rand_index(recovered, expected))
    print(
        f"\ncriterion 1: rand index per seed = {rands}, "
        f"pipeline runtime {elapsed:.1f}s (budget 120s)"
    )
    assert rands == [1.0] * 5
    assert elapsed < 120.0


def test_criterion_02_alignment_within_two_hops(clustering_runs):
    runs, _ = clustering_runs
    worst = 0.0
    for truth, result in runs:
        for ev in result.events:
            members = ev.cluster.members
            anchor = min(members, key=lambda c: (truth.clips[c].start, c))
            for cid in members:
                got = ev.positions.positions[cid] - ev.positions.positions[anchor]
                want = truth.clips[cid].start - truth.clips[anchor].start
                worst = max(worst, abs(got - want))
    print(
        f"\ncriterion 2: worst alignment error {worst * 1000:.1f}ms "
        f"(bound {TWO_HOPS_SECONDS * 1000:.1f}ms)"
    )
    assert worst <= TWO_HOPS_SECONDS


def test_criterion_03_segmentation_matches_millisecond_sweep():
    rng = np.random.default_rng(777)
    for _ in range(200):
        check_layout_against_oracle(*random_layout(rng))
    print("\ncriterion 3: 200 random layouts, boundary-for-boundary oracle agreement")


def test_criterion_04_self_match_is_exact():
    cfg = FpConfig()
    index = FingerprintIndex(cfg)
    hashed = {}
    rng = np.random.default_rng(4)
    for i in range(50):
        clip = burst_clip(f"clip{i:02d}", duration=float(rng.uniform(4.0, 9.0)), seed=1000 + i)
        h = hash_landmarks(fingerprint_clip(clip, cfg))
        hashed[clip.id] = h
        index.add_hashed(clip.id, h, clip.duration)

    for cid, h in hashed.items():
        result = query(index, f"probe_{cid}", h, cfg)
        own = [e for e in result.entries if e.clip_id == cid]
        assert own, f"{cid}: no self match"
        best = max(own, key=lambda e: e.ml)
        assert best.offset_frames == 0, f"{cid}: offset {best.offset_frames}"
        assert best.ml == len(h), f"{cid}: ml {best.ml} != landmarks {len(h)}"
        assert best.lq == len(h)
    print("\ncriterion 4: 50/50 clips self-match at offset 0 with ml == landmark count")


def test_criterion_05_repetition_split_is_total_and_unique():
    rng = np.random.default_rng(0xC5)
    for _ in range(10_000):
        entries = []
        for c in range(int(rng.integers(1, 7))):
            k = int(rng.integers(1, 5))
            offsets = rng.choice(np.arange(-100, 101), size=k, replace=False)
            mls = rng.integers(1, 51, size=k)
            for off, ml in zip(offsets, mls):
                entries.append(
                    MatchEntry(
                        query_id="q",
                        clip_id=f"c{c}",
                        offset_frames=int(off),
                        ml=int(ml),
                        tml=int(mls.sum()),
                        lq=500,
                        li=500,
                    )
                )
        perm = rng.permutation(len(entries))
        entries = [entries[i] for i in perm]
        primaries, repetitions = split_repetitions(MatchingList("q", entries))

        by_clip = {}
        for e in entries:
            by_clip.setdefault(e.clip_id, []).append(e)
        oracle = {
            cid: min(group, key=lambda e: (-e.ml, abs(e.offset_frames), e.offset_frames))
            for cid, group in by_clip.items()
        }
        assert [e.clip_id for e in primaries] == sorted(by_clip)
        assert {id(e) for e in primaries} == {id(e) for e in oracle.values()}
        assert {id(e) for e in primaries} | {id(e) for e in repetitions} == {
            id(e) for e in entries
        }
        assert len(primaries) + len(repetitions) == len(entries)
    print("\ncriterion 5: 10000 random lists split into unique primaries + rest")


# -----------------------------------------------------------------------------
# criterion 6: double CV over the full grids on a labeled synthetic corpus
# -----------------------------------------------------------------------------


@pytest.fixture(scope="module")
def cv_samples():
    spec = SynthSpec(
        n_events=10,
        clips_per_event=6,
        event_duration=120.0,
        clip_duration_range=(25.0, 40.0),
        min_overlap=12.0,
        snr_range_db=(15.0, 25.0),
        seed=11,
        repeat_fraction=0.25,
        cross_snippet_seconds=2.0,
    )
    clips, truth = synth_corpus(spec)
    cfg = FpConfig()
    index = FingerprintIndex(cfg)
    hashed = {}
    for clip in clips:
        h = hash_landmarks(fingerprint_clip(clip, cfg))
        hashed[clip.id] = h
        index.add_hashed(clip.id, h, clip.duration)
    lists = [query(index, cid, hashed[cid], cfg) for cid in index.clip_ids]
    return autolabel(lists, truth)


def test_criterion_06_model_selection_clean_and_accurate(cv_samples):
    samples = cv_samples
    songs = sorted({s.query_song_id for s in samples})
    n_wrong = sum(s.kind == KIND_WRONG for s in samples)
    assert len(samples) >= 500, f"only {len(samples)} samples"
    assert len(songs) >= 8, f"only {len(songs)} songs"
    assert n_wrong > 0, "corpus produced no wrong matches"

    results = []
    for family in ("logreg", "knn"):
        grid = default_grid(family)
        for subset in SUBSETS:
            t0 = time.perf_counter()
            rs = double_cv(samples, family, grid, subset, seed=0)
            assert len(rs) == len(grid)
            results.extend(rs)
            print(
                f"  cv {family}/{subset.name}: best val_error "
                f"{min(r.val_error for r in rs):.4f} ({time.perf_counter() - t0:.0f}s)"
            )

    chosen = select_model(results)
    print(
        f"\ncriterion 6: {len(samples)} samples over {len(songs)} songs "
        f"({n_wrong} wrong); chose {chosen.family} param={chosen.param:g} "
        f"{chosen.subset.name}: accuracy {chosen.test_accuracy:.4f} (>= 0.90), "
        f"wrong_fps {chosen.wrong_fps} (== 0), degraded {chosen.degraded}"
    )
    assert chosen.wrong_fps == 0
    assert not chosen.degraded
    assert chosen.test_accuracy >= 0.90


def test_criterion_07_gradient_matches_finite_differences():
    h = 1e-5
    worst = 0.0
    for i in range(20):
        rng = np.random.default_rng(7000 + i)
        n = int(rng.integers(20, 101))
        d = int(rng.integers(2, 7))
        x = rng.normal(size=(n, d))
        y = rng.integers(0, 2, size=n).astype(np.float64)
        w = rng.normal(size=d)
        b = float(rng.normal())
        c = float(2 ** rng.integers(0, 20))
        gw, gb = logreg_gradient(w, b, x, y, c)
        got = np.append(gw, gb)
        fd = np.empty(d + 1)
        for j in range(d):
            e = np.zeros(d)
            e[j] = h
            fd[j] = (logreg_loss(w + e, b, x, y, c) - logreg_loss(w - e, b, x, y, c)) / (2 * h)
        fd[d] = (logreg_loss(w, b + h, x, y, c) - logreg_loss(w, b - h, x, y, c)) / (2 * h)
        rel = np.abs(got - fd) / np.maximum(np.abs(fd), 1e-8)
        worst = max(worst, float(rel.max()))
    print(f"\ncriterion 7: 20 instances, worst relative gradient error {worst:.2e} (<= 1e-5)")
    assert worst <= 1e-5


def test_criterion_08_quality_ranking_tracks_snr():
    cfg = FpConfig()
    hits = 0
    for trial in range(50):
        # melody_clip keeps the clean copy's peak count under the density cap;
        # a capped clean fingerprint drops weak true peaks and the two noisy
        # copies then agree with each other as often as with the clean one.
        master = melody_clip("master", duration=8.0, seed=8000 + trial)
        # ids chosen so that a score tie sorts the WRONG way and counts as a miss
        clean = AudioClip(id="z_clean", samples=master.samples.copy(), rate=master.rate)
        mid = add_noise(
            AudioClip(id="m_mid", samples=master.samples.copy(), rate=master.rate),
            20.0,
            seed=2 * trial,
        )
        low = add_noise(
            AudioClip(id="a_low", samples=master.samples.copy(), rate=master.rate),
            5.0,
            seed=2 * trial + 1,
        )
        clips = {c.id: c for c in (clean, mid, low)}
        seg = Segment(
            t_start=0.0,
            t_end=8.0,
            members=[ClipCut(cid, 0.0, 8.0) for cid in sorted(clips)],
        )
        [q] = segment_quality([seg], candidates_of(clips, cfg), cfg)
        if [cid for cid, _ in q.ranking] == ["z_clean", "m_mid", "a_low"]:
            hits += 1
    print(f"\ncriterion 8: SNR ordering correct in {hits}/50 trials (need >= 45)")
    assert hits >= 45


def _confirmation_setup(third_clip):
    master = burst_clip("master", duration=6.0, seed=90)
    a = AudioClip(id="a", samples=master.samples.copy(), rate=master.rate)
    b = add_noise(AudioClip(id="b", samples=master.samples.copy(), rate=master.rate), 22.0, 5)
    clips = {c.id: c for c in (a, b, third_clip)}
    members = sorted(clips)
    seg = Segment(0.0, 6.0, [ClipCut(cid, 0.0, 6.0) for cid in members])
    cfg = FpConfig()
    [quality] = segment_quality([seg], candidates_of(clips, cfg), cfg)

    graph = MatchGraph(nodes=set(members))
    for frm in members:
        for to in members:
            if frm != to:
                entry = MatchEntry(
                    query_id=frm, clip_id=to, offset_frames=0,
                    ml=20, tml=25, lq=300, li=300,
                )
                graph.edges[(frm, to)] = MatchEdge(frm, to, 0.0, entry)
    return Cluster(members=members), graph, quality


def test_criterion_09_cluster_confirmation_predicate():
    master = burst_clip("master", duration=6.0, seed=90)
    aligned_third = add_noise(
        AudioClip(id="c", samples=master.samples.copy(), rate=master.rate), 25.0, 7
    )
    cluster, graph, quality = _confirmation_setup(aligned_third)
    confirmed = confirm_cluster(cluster, graph, [quality])
    assert len(confirmed) == 6  # both directions of all 3 pairs
    assert all(s.cls == 1 and not s.vacuous for s in confirmed)
    min_votes_ok = min(
        quality.pair_votes[(x, y)] for x in "abc" for y in "abc" if x != y
    )

    unrelated_third = burst_clip("c", duration=6.0, seed=4242)
    cluster, graph, quality = _confirmation_setup(unrelated_third)
    dead = [
        (x, y)
        for x in "abc"
        for y in "abc"
        if x < y and quality.pair_votes.get((x, y), 0) < 1
    ]
    assert dead, "violating construction must break at least one pair"
    assert confirm_cluster(cluster, graph, [quality]) == []
    print(
        f"\ncriterion 9: aligned cluster confirmed (6 class-1 samples, min pair votes "
        f"{min_votes_ok}); cluster with unrelated member confirmed nothing "
        f"(dead pairs {dead})"
    )


def test_criterion_10_persistence_round_trips_exactly():
    # --- binary index ---
    cfg = FpConfig()
    index = FingerprintIndex(cfg)
    for i in range(3):
        clip = burst_clip(f"clip{i:02d}", duration=4.0, seed=600 + i)
        index.add_hashed(clip.id, hash_landmarks(fingerprint_clip(clip, cfg)), clip.duration)
    blob = index_to_bytes(index)
    assert index_to_bytes(index_from_bytes(blob)) == blob

    bad = bytearray(blob)
    bad[4:6] = (INDEX_VERSION + 1).to_bytes(2, "little")
    with pytest.raises(StorageError, match="unsupported version"):
        index_from_bytes(bytes(bad))

    # --- model text, both families ---
    def toy_samples():
        out = []
        rng = np.random.default_rng(33)
        for song in ("A", "B"):
            for i in range(12):
                cls = i % 2
                ml = int(rng.integers(40, 60)) if cls else int(rng.integers(1, 12))
                out.append(
                    Sample(
                        MatchEntry(
                            query_id=f"{song}_c{i:02d}", clip_id=f"{song}_c{i + 1:02d}",
                            offset_frames=i,
                            ml=ml, tml=ml + 5, lq=400, li=380,
                        ),
                        kind="true" if cls else "repetition",
                        query_song_id=song,
                    )
                )
        return out

    probe = np.random.default_rng(9).normal(size=(20, 2)) * 10 + 25
    for family, param in (("logreg", 64.0), ("knn", 3)):
        flt = fit_filter(toy_samples(), family, param, S1, seed=0)
        text = model_to_text(flt, {"accuracy": 0.975, "wrong_fps": 0, "degraded": 0})
        loaded, meta = model_from_text(text)
        assert model_to_text(loaded, meta) == text
        std_probe = flt.standardizer.apply(probe)
        assert np.array_equal(
            loaded.model.predict(loaded.standardizer.apply(probe)),
            flt.model.predict(std_probe),
        )

    text2 = text.replace('"version": 2', '"version": 9')
    with pytest.raises(StorageError, match="unsupported version"):
        model_from_text(text2)
    print(
        "\ncriterion 10: index and model files round-trip byte-identically; "
        "future versions refused"
    )
