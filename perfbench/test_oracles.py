"""Self-tests of the benchmark's oracles on hand-made cases; no workload runs.

    python3 -m pytest perfbench/test_oracles.py
"""

import pytest

import oracles


def test_sweep_cuts_at_every_start_and_end():
    # a: [0, 10), b: [4, 14), c: [10, 12)
    got = oracles.sweep_segments({"a": 0, "b": 4, "c": 10}, {"a": 10, "b": 10, "c": 2})
    assert got == [
        (0, 4, ["a"]),
        (4, 10, ["a", "b"]),
        (10, 12, ["b", "c"]),
        (12, 14, ["b"]),
    ]


def test_sweep_skips_gaps_and_merges_shared_boundaries():
    # x and y start together; z begins after a gap nobody covers.
    got = oracles.sweep_segments({"x": 0, "y": 0, "z": 20}, {"x": 5, "y": 8, "z": 3})
    assert got == [(0, 5, ["x", "y"]), (5, 8, ["y"]), (20, 23, ["z"])]


def test_sweep_single_clip_and_bad_duration():
    assert oracles.sweep_segments({"s": 7}, {"s": 1}) == [(7, 8, ["s"])]
    with pytest.raises(ValueError):
        oracles.sweep_segments({"s": 0}, {"s": 0})


def test_to_samples_accepts_float_dust_and_rejects_off_grid():
    assert oracles.to_samples(512 / 11025 + 1e-12) == 512
    assert oracles.to_samples(0.0) == 0
    with pytest.raises(ValueError):
        oracles.to_samples(0.5 / 11025)


def test_true_offset_is_the_start_difference_in_hops():
    rate, hop = 11025, 256
    # Query starts 3 hops after the indexed clip: its anchors sit 3 frames later
    # in the indexed clip, so the offset is +3.
    assert oracles.true_offset_frames(10 * hop / rate, 7 * hop / rate, rate, hop) == 3
    assert oracles.true_offset_frames(7 * hop / rate, 10 * hop / rate, rate, hop) == -3
    assert oracles.true_offset_frames(1.5, 1.5, rate, hop) == 0
    with pytest.raises(ValueError):
        oracles.true_offset_frames(100 / rate, 0.0, rate, hop)


def test_partition_errors_names_duplicates_missing_and_strays():
    ids = ["a", "b", "c", "d"]
    assert oracles.partition_errors(ids, [["a", "b"], ["c"]], ["d"]) == []
    assert oracles.partition_errors(ids, [["a", "b"], ["b", "c"]], []) == [
        "b appears 2 times",
        "d is missing",
    ]
    assert oracles.partition_errors(ids, [["a", "b", "c", "d", "e"]], []) == ["e is not an input"]


def test_recovered_events_flags_merges_and_splits():
    truth = {"a1": "A", "a2": "A", "b1": "B", "b2": "B", "c1": "C", "c2": "C"}
    clusters = [["a1", "a2"], ["b1", "b2", "c1"], ["c2"]]
    assert oracles.recovered_events(truth, clusters) == {"A": True, "B": False, "C": False}


def test_worst_alignment_error_is_pairwise():
    starts = {"a": 0.0, "b": 5.0, "c": 9.0}
    assert oracles.worst_alignment_error({"a": 1.0, "b": 6.0, "c": 10.0}, starts) == 0.0
    assert oracles.worst_alignment_error({"a": 0.0, "b": 5.0, "c": 9.5}, starts) == pytest.approx(0.5)


def test_snr_concordance_skips_ties():
    snr = {"a": 20.0, "b": 15.0, "c": 10.0, "d": 10.0}
    assert oracles.snr_concordance([("a", 9), ("b", 5), ("c", 1)], snr) == (3, 3)
    assert oracles.snr_concordance([("c", 9), ("a", 5), ("b", 5)], snr) == (0, 2)
    assert oracles.snr_concordance([("c", 9), ("d", 1)], snr) == (0, 0)


def test_non_increasing():
    assert oracles.non_increasing([3, 3, 1])
    assert not oracles.non_increasing([1, 2])
