"""Reference computations the benchmark checks program outputs against.

Nothing here calls into ugcaudio: each oracle recomputes its answer from
the synth manifest or from the report's own numbers with code of its own.
"""

from __future__ import annotations

from collections import Counter

# Positions and durations the pipeline reports are whole samples at this rate
# (offsets are whole STFT hops), so the sweep works on exact integers.
SWEEP_RATE = 11025
# Allowed distance from a whole sample before a value counts as off-grid.
GRID_TOL = 1e-6


def to_samples(seconds: float, rate: int = SWEEP_RATE) -> int:
    """Seconds as a whole number of samples; ValueError when off the grid."""
    exact = seconds * rate
    whole = round(exact)
    if abs(exact - whole) > GRID_TOL * rate:
        raise ValueError(f"{seconds!r} s is not a whole number of samples at {rate} Hz")
    return int(whole)


def sweep_segments(
    positions: dict[str, int], durations: dict[str, int]
) -> list[tuple[int, int, list[str]]]:
    """Start/end event sweep: (start, end, sorted active ids) per covered run.

    Walks the clips' start (+1) and end (-1) events in time order, keeping the
    active set, and closes a segment wherever the set changes. Integer inputs,
    so there is no boundary tolerance.
    """
    events: dict[int, list[tuple[int, str]]] = {}
    for cid, start in positions.items():
        if durations[cid] <= 0:
            raise ValueError(f"clip {cid!r} has non-positive duration")
        events.setdefault(start, []).append((+1, cid))
        events.setdefault(start + durations[cid], []).append((-1, cid))
    active: set[str] = set()
    segments = []
    times = sorted(events)
    for here, nxt in zip(times, times[1:]):
        for delta, cid in events[here]:
            if delta > 0:
                active.add(cid)
            else:
                active.discard(cid)
        if active:
            segments.append((here, nxt, sorted(active)))
    return segments


def true_offset_frames(query_start: float, clip_start: float, rate: int, hop: int) -> int:
    """Frames to add to a query anchor to land on the indexed clip's anchor.

    A landmark at event time T sits at frame (T - start) * rate / hop in each
    recording, so the offset is (query_start - clip_start) * rate / hop. Synth
    starts are hop-snapped, so the value is a whole number; ValueError if not.
    """
    exact = (query_start - clip_start) * rate / hop
    whole = round(exact)
    if abs(exact - whole) > GRID_TOL * rate:
        raise ValueError(f"true offset {exact!r} frames is not a whole number")
    return int(whole)


def partition_errors(input_ids: list[str], clusters: list[list[str]], unmatched: list[str]) -> list[str]:
    """Ways in which clusters plus unmatched fail to partition the inputs."""
    seen = Counter(cid for members in clusters for cid in members)
    seen.update(unmatched)
    errors = [f"{cid} appears {n} times" for cid, n in sorted(seen.items()) if n > 1]
    errors += [f"{cid} is missing" for cid in sorted(set(input_ids) - set(seen))]
    errors += [f"{cid} is not an input" for cid in sorted(set(seen) - set(input_ids))]
    return errors


def recovered_events(truth_event: dict[str, str], clusters: list[list[str]]) -> dict[str, bool]:
    """Per true event: is it exactly one recovered cluster?"""
    members_of: dict[str, set[str]] = {}
    for cid, event in truth_event.items():
        members_of.setdefault(event, set()).add(cid)
    as_sets = [set(members) for members in clusters]
    return {event: members in as_sets for event, members in sorted(members_of.items())}


def worst_alignment_error(
    positions: dict[str, float], true_starts: dict[str, float]
) -> float:
    """Largest |(p_a - p_b) - (s_a - s_b)| over member pairs, in seconds."""
    ids = sorted(positions)
    worst = 0.0
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            got = positions[a] - positions[b]
            want = true_starts[a] - true_starts[b]
            worst = max(worst, abs(got - want))
    return worst


def snr_concordance(ranking: list[tuple[str, float]], snr_db: dict[str, float]) -> tuple[int, int]:
    """(agreeing, compared) member pairs: higher score goes with higher SNR.

    Pairs tied in score or in SNR are not compared.
    """
    agree = total = 0
    for i, (a, score_a) in enumerate(ranking):
        for b, score_b in ranking[i + 1 :]:
            if score_a == score_b or snr_db[a] == snr_db[b]:
                continue
            total += 1
            agree += (score_a > score_b) == (snr_db[a] > snr_db[b])
    return agree, total


def non_increasing(values: list[float]) -> bool:
    return all(a >= b for a, b in zip(values, values[1:]))

