import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from ugcaudio import (
    AudioClip,
    Cluster,
    FpConfig,
    MatchEdge,
    MatchGraph,
    SynthSpec,
    assign_offsets,
    build_segments,
    consistency_report,
    cut_audio,
    cut_landmarks,
    fingerprint_clip,
    hash_landmarks,
    normalize_positions,
    offset_zero_votes,
    pair_landmarks,
    peak_candidates,
    segment_quality,
    spectrogram,
    synth_corpus,
    thin_peaks,
)
from ugcaudio import timeline
from ugcaudio.timeline import QUALITY_BATCH_PEAKS, QUALITY_OFFSET_TOL_FRAMES, ClipCut, Segment

from _helpers import (
    add_noise,
    burst_clip,
    candidates_of,
    check_layout_against_oracle,
    melody_clip,
    pm_of,
    random_layout,
    reference_peaks,
)


def hand_graph(edges: dict[tuple[str, str], float]) -> MatchGraph:
    """Build a graph from one weight per directed pair, mirroring the inverse."""
    g = MatchGraph()
    for (frm, to), w in edges.items():
        g.nodes.update((frm, to))
        g.edges[(frm, to)] = MatchEdge(from_id=frm, to_id=to, weight=w, source_entry=None)
        g.edges[(to, frm)] = MatchEdge(from_id=to, to_id=frm, weight=-w, source_entry=None)
    return g


class TestAssignOffsets:
    def test_chain_path_costs(self):
        g = hand_graph({("a", "b"): 2.0, ("b", "c"): 3.0})
        raw = assign_offsets(Cluster(members=["a", "b", "c"]), g)
        assert raw.representative == "b"  # degree 2 beats 1
        assert raw.offsets == {"b": 0.0, "a": -2.0, "c": 3.0}

    def test_representative_tie_smallest_id(self):
        g = hand_graph({("a", "b"): 1.0})
        raw = assign_offsets(Cluster(members=["a", "b"]), g)
        assert raw.representative == "a"

    def test_singleton(self):
        g = MatchGraph()
        g.nodes.add("solo")
        raw = assign_offsets(Cluster(members=["solo"]), g)
        assert raw.offsets == {"solo": 0.0}

    def test_bfs_prefers_sorted_neighbors(self):
        # two paths to d; BFS explores b before c, so d gets b's cost
        g = hand_graph({("a", "b"): 1.0, ("a", "c"): 1.0, ("b", "d"): 1.0, ("c", "d"): 5.0})
        raw = assign_offsets(Cluster(members=["a", "b", "c", "d"]), g)
        assert raw.representative == "a"
        assert raw.offsets["d"] == 2.0

    def test_disconnected_member_raises(self):
        g = hand_graph({("a", "b"): 1.0})
        g.nodes.add("zz")
        with pytest.raises(ValueError):
            assign_offsets(Cluster(members=["a", "b", "zz"]), g)


class TestNormalize:
    def test_earliest_member_at_zero(self):
        g = hand_graph({("a", "b"): 2.0, ("b", "c"): 3.0})
        pm = normalize_positions(assign_offsets(Cluster(members=["a", "b", "c"]), g))
        assert pm.earliest == "a"
        assert pm.positions == {"a": 0.0, "b": 2.0, "c": 5.0}
        assert min(pm.positions.values()) == 0.0

    def test_tie_earliest_smallest_id(self):
        g = hand_graph({("b", "a"): 0.0})
        pm = normalize_positions(assign_offsets(Cluster(members=["a", "b"]), g))
        assert pm.earliest == "a"


class TestConsistency:
    def test_consistent_triangle_zero_residuals(self):
        g = hand_graph({("a", "b"): 2.0, ("b", "c"): 3.0, ("a", "c"): 5.0})
        cluster = Cluster(members=["a", "b", "c"])
        pm = normalize_positions(assign_offsets(cluster, g))
        report = consistency_report(cluster, g, pm)
        assert len(report) == 3
        assert all(r.residual == pytest.approx(0.0) for r in report)
        assert not any(r.flagged for r in report)

    def test_inconsistent_edge_flagged(self):
        g = hand_graph({("a", "b"): 2.0, ("b", "c"): 3.0, ("a", "c"): 5.4})
        cluster = Cluster(members=["a", "b", "c"])
        pm = normalize_positions(assign_offsets(cluster, g))
        report = consistency_report(cluster, g, pm, eps=0.1)
        flagged = [r for r in report if r.flagged]
        # BFS from a uses edges (a,b) and (a,c) for positions, so the
        # contradiction surfaces on the unused edge (b,c)
        assert len(flagged) == 1
        assert {flagged[0].from_id, flagged[0].to_id} == {"b", "c"}
        assert flagged[0].residual == pytest.approx(0.4)


class TestBuildSegments:
    def test_two_overlapping_clips(self):
        pm = pm_of({"a": 0.0, "b": 2.0})
        segs = build_segments(pm, {"a": 5.0, "b": 5.0})
        assert [(s.t_start, s.t_end) for s in segs] == [(0.0, 2.0), (2.0, 5.0), (5.0, 7.0)]
        assert [m.clip_id for m in segs[1].members] == ["a", "b"]
        cut_b = next(m for m in segs[1].members if m.clip_id == "b")
        assert cut_b.local_start == 0.0 and cut_b.local_end == pytest.approx(3.0)

    def test_gap_interval_skipped(self):
        pm = pm_of({"a": 0.0, "b": 6.0})
        segs = build_segments(pm, {"a": 2.0, "b": 2.0})
        assert [(s.t_start, s.t_end) for s in segs] == [(0.0, 2.0), (6.0, 8.0)]

    def test_identical_spans_merge_boundaries(self):
        pm = pm_of({"a": 0.0, "b": 0.0})
        segs = build_segments(pm, {"a": 3.0, "b": 3.0})
        assert len(segs) == 1
        assert [m.clip_id for m in segs[0].members] == ["a", "b"]

    def test_zero_duration_rejected(self):
        pm = pm_of({"a": 0.0})
        with pytest.raises(ValueError):
            build_segments(pm, {"a": 0.0})

    def test_matches_millisecond_sweep_oracle(self):
        rng = np.random.default_rng(1234)
        for _ in range(60):
            check_layout_against_oracle(*random_layout(rng))


class TestCutAudio:
    def test_id_and_samples(self):
        clip = burst_clip("src", duration=2.0, seed=9)
        cut = ClipCut(clip_id="src", local_start=0.25, local_end=1.5)
        audio = cut_audio(clip, cut)
        assert audio.id == "src__250_1500"
        i0 = int(round(0.25 * clip.rate))
        i1 = int(round(1.5 * clip.rate))
        assert np.array_equal(audio.samples, clip.samples[i0:i1])


class TestSegmentQuality:
    def test_ignores_match_threshold(self):
        master = burst_clip("m", duration=4.0, seed=12)
        clips = {cid: AudioClip(id=cid, samples=master.samples.copy(), rate=master.rate) for cid in "ab"}
        seg = Segment(0.0, 4.0, [ClipCut(cid, 0.0, 4.0) for cid in clips])
        candidates = candidates_of(clips, FpConfig())
        want = segment_quality([seg], candidates, FpConfig())
        assert want[0].pair_votes[("a", "b")] > 0
        for threshold in (1, 9):
            assert segment_quality([seg], candidates, FpConfig(match_threshold=threshold)) == want

    def test_thins_at_multiplied_density(self):
        master = burst_clip("m", duration=4.0, seed=13)
        clips = {cid: AudioClip(id=cid, samples=master.samples.copy(), rate=master.rate) for cid in "ab"}
        seg = Segment(0.0, 4.0, [ClipCut(cid, 0.0, 4.0) for cid in clips])
        cfg = FpConfig(density_multiplier=2.5)
        candidates = candidates_of(clips, cfg)
        votes = {}
        for density in (20.0, 50.0):
            thinned = replace(cfg, peak_density=density)
            hashed = cut_landmarks(candidates, seg.members, thinned)
            votes[density] = offset_zero_votes(hashed, QUALITY_OFFSET_TOL_FRAMES)[0, 1]
        assert votes[50.0] > votes[20.0]
        assert segment_quality([seg], candidates, cfg)[0].pair_votes[("a", "b")] == votes[50.0]

    def test_copies_outrank_noise(self):
        master = burst_clip("m", duration=6.0, seed=10)
        a = AudioClip(id="a", samples=master.samples.copy(), rate=master.rate)
        b = add_noise(AudioClip(id="b", samples=master.samples.copy(), rate=master.rate), 18.0, 1)
        c = burst_clip("c", duration=6.0, seed=99)  # unrelated audio
        seg = Segment(
            t_start=0.0,
            t_end=6.0,
            members=[ClipCut("a", 0.0, 6.0), ClipCut("b", 0.0, 6.0), ClipCut("c", 0.0, 6.0)],
        )
        cfg = FpConfig()
        [q] = segment_quality([seg], candidates_of({"a": a, "b": b, "c": c}, cfg), cfg)
        ranked = [cid for cid, _ in q.ranking]
        assert ranked.index("c") == 2  # unrelated content scores lowest
        assert q.pair_votes[("a", "b")] == q.pair_votes[("b", "a")]
        assert q.pair_votes[("a", "b")] > q.pair_votes[("a", "c")]

    def test_short_cut_scores_zero(self):
        clip = burst_clip("a", duration=1.0, seed=11)
        seg = Segment(
            t_start=0.0, t_end=0.01, members=[ClipCut("a", 0.0, 0.01)]
        )
        cfg = FpConfig()
        [q] = segment_quality([seg], candidates_of({"a": clip}, cfg), cfg)
        assert q.ranking == [("a", 0)]

    def test_whole_clip_cuts_match_fingerprinting_each_cut(self):
        cfg = FpConfig()
        dense = replace(cfg, peak_density=cfg.peak_density * cfg.density_multiplier)
        for trial in range(4):
            make = burst_clip if trial % 2 else melody_clip
            master = make("m", duration=5.0, seed=60 + trial)
            clips = {
                cid: add_noise(AudioClip(id=cid, samples=master.samples.copy(), rate=master.rate), snr, 3 * trial + k)
                for k, (cid, snr) in enumerate((("a", 30.0), ("b", 15.0), ("c", 5.0)))
            }
            seg = Segment(0.0, 5.0, [ClipCut(cid, 0.0, clip.duration) for cid, clip in clips.items()])
            [q] = segment_quality([seg], candidates_of(clips, cfg), cfg)
            # The old path: every cut fingerprinted as a clip of its own.
            hashed = {
                cut.clip_id: hash_landmarks(fingerprint_clip(cut_audio(clips[cut.clip_id], cut), dense))
                for cut in seg.members
            }
            want = {
                (x, y): offset_zero_votes([hashed[x], hashed[y]], QUALITY_OFFSET_TOL_FRAMES)[0, 1]
                for x in clips
                for y in clips
                if x != y
            }
            assert q.pair_votes == want
            assert min(want.values()) > 0

    def test_list_equals_each_segment_alone(self, monkeypatch):
        master = burst_clip("m", duration=12.0, seed=14)
        clips = {
            cid: add_noise(AudioClip(id=cid, samples=master.samples.copy(), rate=master.rate), snr, k)
            for k, (cid, snr) in enumerate((("a", 30.0), ("b", 15.0), ("c", 5.0)))
        }
        long_master = burst_clip("n", duration=30.0, seed=15)
        clips.update(
            (cid, add_noise(AudioClip(id=cid, samples=long_master.samples.copy(), rate=long_master.rate), snr, k))
            for k, (cid, snr) in enumerate((("d", 25.0), ("e", 12.0), ("f", 6.0)), start=3)
        )
        cfg = FpConfig()
        candidates = candidates_of(clips, cfg)
        whole = Segment(0.0, 12.0, [ClipCut(cid, 0.0, 12.0) for cid in "cab"])
        # Three 30 s cuts at 60 peaks/s: over the cap within one segment.
        long = Segment(0.0, 30.0, [ClipCut(cid, 0.0, 30.0) for cid in "fde"])
        segments = [
            whole,
            # Back-to-back cuts of each clip.
            Segment(0.0, 5.0, [ClipCut(cid, 0.0, 5.0) for cid in "abc"]),
            Segment(5.0, 12.0, [ClipCut(cid, 5.0, 12.0) for cid in "abc"]),
            Segment(3.0, 3.01, [ClipCut("a", 3.0, 3.01), ClipCut("b", 3.0, 3.01)]),  # no whole window
            Segment(2.0, 9.0, [ClipCut("b", 2.0, 9.0)]),  # one member
            whole,
            long,
        ]
        alone = [segment_quality([seg], candidates, cfg)[0] for seg in segments]
        # Each cut paired on its own, so no other cut can share its pass.
        dense = replace(cfg, peak_density=cfg.peak_density * cfg.density_multiplier)
        for seg, q in zip(segments, alone):
            hashed = {cut.clip_id: next(cut_landmarks(candidates, [cut], dense)) for cut in seg.members}
            want = {
                (x, y): offset_zero_votes([hashed[x], hashed[y]], QUALITY_OFFSET_TOL_FRAMES)[0, 1]
                for x in hashed
                for y in hashed
                if x != y
            }
            assert q.pair_votes == want
            scores = {x: sum(v for (a, _), v in want.items() if a == x) for x in hashed}
            assert q.ranking == sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
        thinned = [
            len(thin_peaks(candidates[cut.clip_id], *timeline._cut_frames(cut, dense), dense)) for cut in long.members
        ]
        assert sum(thinned) > QUALITY_BATCH_PEAKS and max(thinned) <= QUALITY_BATCH_PEAKS
        passes = []
        paired = timeline._pair_pass

        def recording(batch, cfg):
            passes.append((len(batch), sum(len(p) for p in batch)))
            return paired(batch, cfg)

        monkeypatch.setattr(timeline, "_pair_pass", recording)
        assert segment_quality(segments, candidates, cfg) == alone
        # 60 peaks/s over 6 cuts of 12 s and more: above the cap, so it splits.
        assert 60 * 12 * 6 > QUALITY_BATCH_PEAKS
        assert len(passes) > 1 and sum(n for n, _ in passes) == 18
        # Every pass stays under the cap unless it holds a single cut.
        assert all(n == 1 or peaks <= QUALITY_BATCH_PEAKS for n, peaks in passes)
        assert alone[3].ranking == [("a", 0), ("b", 0)] and alone[3].pair_votes == {("a", "b"): 0, ("b", "a"): 0}
        assert alone[4].ranking == [("b", 0)] and alone[4].pair_votes == {}
        assert min(alone[0].pair_votes.values()) > 0
        assert segment_quality([], candidates, cfg) == []

    def test_one_event_holds_under_2_8_mb(self):
        # The organise shape: one 120 s event recorded by 6 clips of 20-40 s at 10-20 dB.
        spec = SynthSpec(
            n_events=1,
            clips_per_event=6,
            event_duration=120.0,
            clip_duration_range=(20.0, 40.0),
            min_overlap=10.0,
            snr_range_db=(10.0, 20.0),
            seed=0,
        )
        clips, truth = synth_corpus(spec)
        cfg = FpConfig()
        pm = pm_of({c.id: truth.clips[c.id].start for c in clips})
        segments = build_segments(pm, {c.id: c.duration for c in clips})
        candidates = candidates_of({c.id: c for c in clips}, cfg)
        # 60 peaks/s over the event: several passes of QUALITY_BATCH_PEAKS.
        assert sum(len(seg.members) * (seg.t_end - seg.t_start) for seg in segments) * 60 > 2 * QUALITY_BATCH_PEAKS
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            segment_quality(segments, candidates, cfg)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 2.8e6


def _inside_cut_oracle(clip, cut, cfg):
    """Landmarks of the frames whose window fits inside the cut, by a frame sweep."""
    i0 = int(round(cut.local_start * clip.rate))
    i1 = int(round(cut.local_end * clip.rate))
    spec = spectrogram(clip, cfg)
    inside = [f for f in range(spec.shape[0]) if f * cfg.hop >= i0 and f * cfg.hop + cfg.window <= i1]
    peaks = np.array(reference_peaks(spec, cfg, inside[0], inside[-1] + 1), dtype=np.int64).reshape(-1, 2)
    peaks[:, 0] -= inside[0]
    return hash_landmarks(pair_landmarks(peaks, cfg))


class TestCutLandmarks:
    @pytest.mark.parametrize(
        "start, end",
        [
            (5 * 256 + 100, 9000),  # starts off the hop grid
            (40 * 256, None),  # ends at the clip's last sample
            (3 * 256 + 255, None),  # both
        ],
    )
    def test_only_frames_inside_the_cut(self, start, end):
        cfg = FpConfig(peak_density=60.0)
        clip = burst_clip("a", duration=3.0, seed=21)
        assert (len(clip.samples) - cfg.window) % cfg.hop != 0  # a partial frame at the end
        end = len(clip.samples) if end is None else end
        cut = ClipCut("a", start / clip.rate, end / clip.rate)
        [got] = cut_landmarks({"a": peak_candidates(spectrogram(clip, cfg), cfg)}, [cut], cfg)
        want = _inside_cut_oracle(clip, cut, cfg)
        assert len(want) > 0
        assert got.tolist() == want.tolist()

    @pytest.mark.parametrize(
        "cfg", [FpConfig(peak_density=60.0), FpConfig(peak_density=60.0, fanout=8, dt_max=9)]
    )
    def test_batch_equals_each_cut_alone(self, cfg):
        clips = {"a": burst_clip("a", duration=6.0, seed=22), "b": melody_clip("b", duration=4.0, seed=23)}
        candidates = candidates_of(clips, cfg)
        cuts = [
            ClipCut("a", 0.0, 6.0),  # the longest cut, so the next one starts closest to it
            ClipCut("b", 0.0, 4.0),
            ClipCut("b", 0.5, 0.51),  # no whole window
            ClipCut("a", 1.0, 2.5),  # back-to-back cuts of one clip
            ClipCut("a", 2.5, 4.0),
            ClipCut("a", 5.0, 5.2),  # fewer frames than dt_max
        ]
        got = list(cut_landmarks(candidates, cuts, cfg))
        assert len(got) == len(cuts) and len(got[2]) == 0
        for cut, hashed in zip(cuts, got):
            i0, i1 = int(round(cut.local_start * cfg.rate)), int(round(cut.local_end * cfg.rate))
            f0, f1 = -(-i0 // cfg.hop), (i1 - cfg.window) // cfg.hop + 1
            peaks = thin_peaks(candidates[cut.clip_id], f0, f1, cfg)
            peaks[:, 0] -= f0
            assert hashed.tolist() == hash_landmarks(pair_landmarks(peaks, cfg)).tolist()
        assert list(cut_landmarks(candidates, [], cfg)) == []
