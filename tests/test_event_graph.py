from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from ugcaudio import (
    FpConfig,
    MatchEdge,
    MatchEntry,
    MatchGraph,
    MatchingList,
    assign_offsets,
    build_graph,
    cluster_edges,
    connected_components,
    consistency_report,
    normalize_positions,
    split_repetitions,
)


def entry(q, c, offset_frames, ml, tml=None, lq=100, li=100):
    return MatchEntry(
        query_id=q,
        clip_id=c,
        offset_frames=offset_frames,
        ml=ml,
        tml=tml if tml is not None else ml,
        lq=lq,
        li=li,
    )


class TestSplitRepetitions:
    def test_max_ml_is_primary(self):
        ml = MatchingList(
            query_id="q",
            entries=[entry("q", "a", 10, 5), entry("q", "a", 40, 12), entry("q", "a", -3, 7)],
        )
        primaries, reps = split_repetitions(ml)
        assert [e.offset_frames for e in primaries] == [40]
        assert sorted(e.offset_frames for e in reps) == [-3, 10]

    def test_tie_smaller_absolute_offset(self):
        ml = MatchingList(
            query_id="q", entries=[entry("q", "a", -8, 9), entry("q", "a", 3, 9)]
        )
        primaries, _ = split_repetitions(ml)
        assert primaries[0].offset_frames == 3

    def test_tie_absolute_then_signed(self):
        ml = MatchingList(
            query_id="q", entries=[entry("q", "a", 5, 9), entry("q", "a", -5, 9)]
        )
        primaries, _ = split_repetitions(ml)
        assert primaries[0].offset_frames == -5

    def test_multiple_clips_split_independently(self):
        ml = MatchingList(
            query_id="q",
            entries=[
                entry("q", "a", 1, 5),
                entry("q", "b", 2, 3),
                entry("q", "a", 9, 2),
            ],
        )
        primaries, reps = split_repetitions(ml)
        assert {(e.clip_id, e.offset_frames) for e in primaries} == {("a", 1), ("b", 2)}
        assert [(e.clip_id, e.offset_frames) for e in reps] == [("a", 9)]

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c"]),
                st.integers(-50, 50),
                st.integers(1, 100),
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_primary_is_argmax_and_counts_preserved(self, raw):
        seen = set()
        entries = []
        for clip, off, ml in raw:
            if (clip, off) in seen:
                continue
            seen.add((clip, off))
            entries.append(entry("q", clip, off, ml))
        lst = MatchingList(query_id="q", entries=entries)
        primaries, reps = split_repetitions(lst)
        assert len(primaries) + len(reps) == len(entries)
        best = {}
        for e in entries:
            best[e.clip_id] = max(best.get(e.clip_id, 0), e.ml)
        for p in primaries:
            assert p.ml == best[p.clip_id]
        assert len(primaries) == len({e.clip_id for e in entries})


class TestBuildGraph:
    def test_antisymmetric_weights(self):
        lists = [
            MatchingList("a", [entry("a", "b", 43, 20)]),
            MatchingList("b", [entry("b", "a", -43, 20)]),
        ]
        g = build_graph(lists, FpConfig())
        wab = g.weight("a", "b")
        assert wab == pytest.approx(-43 * 256 / 11025)
        assert g.weight("b", "a") == pytest.approx(-wab)

    def test_weights_are_offset_frames_in_the_runs_seconds(self):
        lists = [
            MatchingList("a", [entry("a", "b", 43, 20), entry("a", "c", -7, 9)]),
            MatchingList("b", [entry("b", "c", 1, 8)]),
        ]
        g = build_graph(lists, FpConfig(hop=128))
        assert len(g.edges) == 6
        for (frm, _to), edge in g.edges.items():
            weight = -edge.source_entry.offset_frames * 128 / 11025
            assert edge.weight == (weight if frm == edge.source_entry.query_id else -weight)

    def test_higher_ml_direction_wins(self):
        # directions disagree: a->b says offset 10, b->a says offset -12
        lists = [
            MatchingList("a", [entry("a", "b", 10, 5)]),
            MatchingList("b", [entry("b", "a", -12, 9)]),
        ]
        g = build_graph(lists, FpConfig())
        # b's entry (ml 9) defines the pair: weight(b->a) = -offset = 12 frames
        assert g.weight("b", "a") == pytest.approx(12 * 256 / 11025)
        assert g.weight("a", "b") == pytest.approx(-12 * 256 / 11025)

    def test_ml_tie_smaller_query_id_wins(self):
        lists = [
            MatchingList("a", [entry("a", "b", 10, 7)]),
            MatchingList("b", [entry("b", "a", -11, 7)]),
        ]
        g = build_graph(lists, FpConfig())
        assert g.weight("a", "b") == pytest.approx(-10 * 256 / 11025)

    def test_filter_drops_edges(self):
        lists = [
            MatchingList("a", [entry("a", "b", 5, 30), entry("a", "c", 9, 6)]),
            MatchingList("b", [entry("b", "a", -5, 30)]),
            MatchingList("c", [entry("c", "a", -9, 6)]),
        ]
        keep_all = build_graph(lists, FpConfig())
        assert len(connected_components(keep_all)) == 1

        weak_out = build_graph(lists, FpConfig(), filter_fn=lambda es: [1 if e.ml >= 10 else 0 for e in es])
        comps = [c.members for c in connected_components(weak_out)]
        assert comps == [["a", "b"], ["c"]]

    def test_filter_sees_every_primary_in_one_batch(self):
        lists = [
            MatchingList("a", [entry("a", "b", 5, 30), entry("a", "b", 40, 6), entry("a", "c", 9, 6)]),
            MatchingList("b", [entry("b", "a", -5, 30)]),
            MatchingList("c", []),
        ]
        batches = []

        def keep_strong(entries):
            batches.append([(e.query_id, e.clip_id, e.offset_frames) for e in entries])
            return [int(e.ml >= 10) for e in entries]

        g = build_graph(lists, FpConfig(), filter_fn=keep_strong)
        assert batches == [[("a", "b", 5), ("a", "c", 9), ("b", "a", -5)]]
        assert sorted(g.edges) == [("a", "b"), ("b", "a")]

    def test_filter_never_merges_clusters(self):
        lists = [
            MatchingList("a", [entry("a", "b", 5, 30)]),
            MatchingList("b", []),
            MatchingList("c", [entry("c", "d", 2, 8)]),
            MatchingList("d", []),
        ]
        before = {tuple(c.members) for c in connected_components(build_graph(lists, FpConfig()))}
        filtered = build_graph(lists, FpConfig(), filter_fn=lambda es: [0 if e.ml < 10 else 1 for e in es])
        after = {tuple(c.members) for c in connected_components(filtered)}
        # every filtered cluster is a subset of one unfiltered cluster
        for comp in after:
            assert any(set(comp) <= set(big) for big in before)

    def test_repetitions_do_not_create_edges(self):
        lists = [
            MatchingList(
                "a", [entry("a", "b", 5, 30, tml=42), entry("a", "b", 90, 12, tml=42)]
            )
        ]
        g = build_graph(lists, FpConfig())
        assert len(g.edges) == 2  # one pair, both directions
        assert g.weight("a", "b") == pytest.approx(-5 * 256 / 11025)


class TestComponents:
    def test_singletons_are_clusters(self):
        lists = [
            MatchingList("a", [entry("a", "b", 1, 9)]),
            MatchingList("b", []),
            MatchingList("c", []),
        ]
        comps = connected_components(build_graph(lists, FpConfig()))
        assert [c.members for c in comps] == [["a", "b"], ["c"]]
        assert [c.id for c in comps] == ["a", "c"]

    def test_chain_is_one_component(self):
        lists = [
            MatchingList("a", [entry("a", "b", 1, 9)]),
            MatchingList("b", [entry("b", "c", 1, 9)]),
            MatchingList("c", []),
        ]
        comps = connected_components(build_graph(lists, FpConfig()))
        assert [c.members for c in comps] == [["a", "b", "c"]]

    def test_cluster_edges_are_intra_cluster(self):
        lists = [
            MatchingList("a", [entry("a", "b", 1, 9)]),
            MatchingList("b", []),
            MatchingList("c", [entry("c", "d", 4, 9)]),
            MatchingList("d", []),
        ]
        g = build_graph(lists, FpConfig())
        comps = connected_components(g)
        first = cluster_edges(comps[0], g)
        assert {(e.from_id, e.to_id) for e in first} == {("a", "b"), ("b", "a")}


@st.composite
def random_graphs(draw):
    """(nodes, {(a, b): weight} with a < b, directed edges in insertion order) over a small id pool.

    Few ids and few edges give several components, isolated nodes and
    degree ties; edges are inserted in a drawn order, not sorted.
    """
    nodes = draw(st.lists(st.sampled_from([f"c{i:02d}" for i in range(10)]), min_size=1, max_size=10, unique=True))
    possible = [(a, b) for a in sorted(nodes) for b in sorted(nodes) if a < b]
    pairs = draw(st.lists(st.sampled_from(possible), max_size=14, unique=True)) if possible else []
    weights = {pair: draw(st.integers(-400, 400)) / 8 for pair in pairs}
    directed = [(a, b) for a, b in pairs] + [(b, a) for a, b in pairs]
    return nodes, weights, draw(st.permutations(directed))


def bfs_oracle(nodes, weights):
    """Plain BFS over neighbour sets: components, then per component its representative and offsets.

    The representative is the member of highest degree, ties to the
    smallest id; neighbours are visited in sorted id order.
    """
    neighbours = {n: set() for n in nodes}
    for a, b in weights:
        neighbours[a].add(b)
        neighbours[b].add(a)

    def weight(frm, to):
        return weights[(frm, to)] if frm < to else -weights[(to, frm)]

    def bfs(start, visit):
        order, queue, seen = [start], deque([start]), {start}
        while queue:
            current = queue.popleft()
            for n in sorted(neighbours[current]):
                if n not in seen:
                    seen.add(n)
                    visit(current, n)
                    order.append(n)
                    queue.append(n)
        return order

    components, placed = [], set()
    for node in sorted(nodes):
        if node not in placed:
            members = sorted(bfs(node, lambda _frm, _to: None))
            placed.update(members)
            components.append(members)
    walks = []
    for members in components:
        rep = min(members, key=lambda m: (-len(neighbours[m]), m))
        offsets = {rep: 0.0}
        bfs(rep, lambda frm, to: offsets.__setitem__(to, offsets[frm] + weight(frm, to)))
        walks.append((rep, offsets))
    return components, walks


class TestGraphWalks:
    @given(random_graphs())
    @settings(max_examples=200, deadline=None)
    def test_walks_agree_with_a_plain_bfs(self, drawn):
        nodes, weights, directed = drawn
        graph = MatchGraph(nodes=set(nodes))
        for frm, to in directed:
            w = weights[(frm, to)] if frm < to else -weights[(to, frm)]
            graph.edges[(frm, to)] = MatchEdge(from_id=frm, to_id=to, weight=w, source_entry=None)

        components, walks = bfs_oracle(nodes, weights)
        clusters = connected_components(graph)
        assert [c.members for c in clusters] == components
        for cluster, (rep, offsets) in zip(clusters, walks):
            raw = assign_offsets(cluster, graph)
            assert raw.representative == rep
            assert raw.offsets == offsets
            inside = sorted((a, b) for a, b in weights if a in cluster.members)
            pm = normalize_positions(raw)
            rows = consistency_report(cluster, graph, pm, eps=0.1)
            assert [(r.from_id, r.to_id) for r in rows] == inside
            assert [r.residual for r in rows] == [
                abs((pm.positions[b] - pm.positions[a]) - weights[(a, b)]) for a, b in inside
            ]
            assert [(e.from_id, e.to_id) for e in cluster_edges(cluster, graph)] == sorted(
                inside + [(b, a) for a, b in inside]
            )
