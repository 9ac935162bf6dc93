import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ugcaudio import (
    Cluster,
    ClipTruth,
    CvResult,
    GroundTruth,
    KNN_K_GRID,
    LOGREG_C_GRID,
    MatchEdge,
    MatchEntry,
    MatchGraph,
    MatchingList,
    Sample,
    autolabel,
    balance,
    confirm_cluster,
    double_cv,
    expand_from_repetitions,
    fit_filter,
    fit_standardizer,
    logreg_gradient,
    logreg_loss,
    parse_subset,
    select_model,
    song_of,
    train_knn,
    train_logreg,
    train_logreg_grid,
)
from ugcaudio import match_classifier
from ugcaudio.match_classifier import (
    KIND_REPETITION,
    KIND_TRUE,
    KIND_WRONG,
    S1,
    S2,
    S3,
    S4,
    _knn_grid_predict,
    feature_matrix,
    labels_of,
)

SECONDS_PER_FRAME = 256 / 11025


def entry(
    query="songA_c00",
    clip="songA_c01",
    offset_frames=0,
    ml=10,
    tml=None,
    lq=100,
    li=100,
) -> MatchEntry:
    return MatchEntry(
        query_id=query,
        clip_id=clip,
        offset_frames=offset_frames,
        offset_seconds=offset_frames * SECONDS_PER_FRAME,
        ml=ml,
        tml=ml if tml is None else tml,
        lq=lq,
        li=li,
    )


def sample(
    ml,
    kind,
    song="songA",
    query="songA_c00",
    clip="songA_c01",
    offset=0,
    tml=None,
) -> Sample:
    tml = ml + 1 if tml is None else tml
    return Sample(entry(query, clip, offset, ml, tml, lq=500, li=500), kind, song)


class TestFeatures:
    def test_projection_per_subset(self):
        entries = [entry(ml=40, tml=55, lq=900, li=1200), entry(ml=7, tml=9, lq=30, li=20)]
        assert feature_matrix(entries, S1).tolist() == [[40, 55], [7, 9]]
        assert feature_matrix(entries, S2).tolist() == [[40, 55, 900], [7, 9, 30]]
        assert feature_matrix(entries, S3).tolist() == [[40, 900, 1200], [7, 30, 20]]
        assert feature_matrix(entries, S4).tolist() == [[40, 55, 900, 1200], [7, 9, 30, 20]]
        assert feature_matrix(entries, S4).dtype == np.float64

    def test_parse_subset(self):
        assert parse_subset("S2") is S2
        with pytest.raises(ValueError):
            parse_subset("S5")

    def test_sample_kind_class_consistency(self):
        assert sample(5, KIND_TRUE).cls == 1
        assert sample(5, KIND_REPETITION).cls == 0
        assert sample(5, KIND_WRONG).cls == 0


class TestSongOf:
    def test_truth_maps_to_event(self):
        truth = GroundTruth(clips={"x_c00": ClipTruth("ev7", 0.0, 5.0, 20.0)})
        assert song_of("x_c00", truth) == "ev7"

    def test_fallback_strips_clip_suffix(self):
        assert song_of("songB_c13", None) == "songB"
        truth = GroundTruth()
        assert song_of("songB_c13", truth) == "songB"

    def test_no_suffix_uses_whole_id(self):
        assert song_of("oddname", None) == "oddname"


class TestAutolabel:
    def test_repeated_clip_splits_true_and_repetition(self):
        ml = MatchingList(
            query_id="songA_c00",
            entries=[
                entry(clip="songA_c01", offset_frames=10, ml=30, tml=42),
                entry(clip="songA_c01", offset_frames=90, ml=12, tml=42),
            ],
        )
        samples = autolabel([ml])
        by_kind = {s.kind: s for s in samples}
        assert set(by_kind) == {KIND_TRUE, KIND_REPETITION}
        assert by_kind[KIND_TRUE].entry.offset_frames == 10
        assert by_kind[KIND_TRUE].cls == 1
        assert by_kind[KIND_REPETITION].entry.offset_frames == 90
        assert by_kind[KIND_REPETITION].cls == 0

    def test_truth_demotes_cross_event_primary(self):
        truth = GroundTruth(
            clips={
                "songA_c00": ClipTruth("e1", 0.0, 5.0, 20.0),
                "songB_c03": ClipTruth("e2", 0.0, 5.0, 20.0),
            }
        )
        ml = MatchingList(
            query_id="songA_c00", entries=[entry(clip="songB_c03", ml=8)]
        )
        (s,) = autolabel([ml], truth)
        assert (s.kind, s.cls) == (KIND_WRONG, 0)
        assert s.query_song_id == "e1"

    def test_without_truth_primaries_are_true(self):
        ml = MatchingList(
            query_id="songA_c00", entries=[entry(clip="songB_c03", ml=8)]
        )
        (s,) = autolabel([ml])
        assert (s.kind, s.cls) == (KIND_TRUE, 1)

    @given(st.integers(0, 10**6))
    def test_kind_class_agreement_and_count(self, seed):
        rng = np.random.default_rng(seed)
        lists = []
        total = 0
        for q in range(3):
            entries = []
            for c in range(int(rng.integers(0, 4))):
                for _ in range(int(rng.integers(1, 4))):
                    entries.append(
                        entry(
                            query=f"s{q}_c00",
                            clip=f"s{rng.integers(0, 4)}_c{c + 1:02d}",
                            offset_frames=int(rng.integers(-50, 50)),
                            ml=int(rng.integers(5, 40)),
                            tml=60,
                        )
                    )
            total += len(entries)
            lists.append(MatchingList(query_id=f"s{q}_c00", entries=entries))
        samples = autolabel(lists)
        assert len(samples) == total
        for s in samples:
            assert (s.cls == 1) == (s.kind == KIND_TRUE)


class TestBalance:
    def test_downsamples_majority(self):
        data = [sample(i, KIND_REPETITION, query=f"q{i}") for i in range(10)]
        data += [sample(50 + i, KIND_TRUE, query=f"p{i}") for i in range(4)]
        out = balance(data, seed=0)
        assert sum(s.cls == 0 for s in out) == 4
        assert sum(s.cls == 1 for s in out) == 4
        # original relative order survives
        idx = [data.index(s) for s in out]
        assert idx == sorted(idx)

    def test_balanced_input_unchanged(self):
        data = [sample(1, KIND_REPETITION), sample(2, KIND_TRUE)]
        assert balance(data, seed=3) == data

    def test_seed_deterministic(self):
        data = [sample(i, KIND_REPETITION, query=f"q{i}") for i in range(30)]
        data += [sample(90, KIND_TRUE, query="p")]
        a = balance(data, seed=7)
        b = balance(data, seed=7)
        assert a == b

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            balance([sample(1, KIND_REPETITION)], seed=0)

    @given(st.integers(1, 20), st.integers(1, 20), st.integers(0, 100))
    def test_classes_end_up_equal(self, n0, n1, seed):
        data = [sample(i, KIND_REPETITION, query=f"q{i}") for i in range(n0)]
        data += [sample(50 + i, KIND_TRUE, query=f"p{i}") for i in range(n1)]
        out = balance(data, seed=seed)
        assert sum(s.cls == 0 for s in out) == sum(s.cls == 1 for s in out) == min(n0, n1)


class TestStandardizer:
    def test_zero_mean_unit_std(self):
        rng = np.random.default_rng(0)
        x = rng.normal(3.0, 5.0, size=(200, 4))
        std = fit_standardizer(x)
        z = std.apply(x)
        assert np.allclose(z.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(z.std(axis=0), 1.0, atol=1e-12)

    def test_constant_column_maps_to_zero(self):
        x = np.array([[1.0, 7.0], [2.0, 7.0], [3.0, 7.0]])
        std = fit_standardizer(x)
        assert std.std[1] == 1.0
        assert np.all(std.apply(x)[:, 1] == 0.0)

    def test_shape_guard(self):
        with pytest.raises(ValueError):
            fit_standardizer(np.zeros((0, 3)))
        with pytest.raises(ValueError):
            fit_standardizer(np.zeros(5))


def logreg_problem(seed, n=40, d=3):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    w_true = rng.normal(size=d)
    y = (x @ w_true + 0.3 * rng.normal(size=n) > 0).astype(np.float64)
    return x, y


class TestLogReg:
    def test_loss_at_origin_is_log2(self):
        x, y = logreg_problem(0)
        assert logreg_loss(np.zeros(3), 0.0, x, y, 4.0) == pytest.approx(math.log(2.0))

    def test_gradient_matches_finite_differences(self):
        h = 1e-5
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            x, y = logreg_problem(seed)
            w = rng.normal(size=3)
            b = float(rng.normal())
            c = float(2 ** rng.integers(0, 10))
            gw, gb = logreg_gradient(w, b, x, y, c)
            fd = np.empty(4)
            for i in range(3):
                e = np.zeros(3)
                e[i] = h
                fd[i] = (logreg_loss(w + e, b, x, y, c) - logreg_loss(w - e, b, x, y, c)) / (
                    2 * h
                )
            fd[3] = (logreg_loss(w, b + h, x, y, c) - logreg_loss(w, b - h, x, y, c)) / (2 * h)
            got = np.append(gw, gb)
            rel = np.abs(got - fd) / np.maximum(np.abs(fd), 1e-8)
            assert rel.max() <= 1e-5

    def test_separable_data_fits_perfectly(self):
        x = np.array([[v] for v in (-3.0, -2.5, -2.0, 2.0, 2.5, 3.0)])
        y = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        model = train_logreg(x, y, c=1e6)
        assert np.all(np.isfinite(model.weights)) and math.isfinite(model.bias)
        assert np.array_equal(model.predict(x), y.astype(np.int64))

    def test_heavier_regularization_shrinks_weights(self):
        x, y = logreg_problem(2)
        tight = train_logreg(x, y, c=0.01)
        loose = train_logreg(x, y, c=100.0)
        assert np.linalg.norm(tight.weights) < np.linalg.norm(loose.weights)
        assert np.abs(tight.logits(x)).mean() < np.abs(loose.logits(x)).mean()

    def test_batched_predictions_equal_row_by_row(self):
        x, y = logreg_problem(4, n=500, d=4)
        model = train_logreg(x, y, c=1.0)
        alone = [model.logits(x[i : i + 1])[0] for i in range(len(x))]
        ref = []  # columns in order, bias last
        for row in x:
            z = 0.0
            for value, weight in zip(row, model.weights):
                z += value * weight
            ref.append(z + model.bias)
        assert model.logits(x).tolist() == alone == ref
        assert model.predict(x).tolist() == [model.predict(x[i : i + 1])[0] for i in range(len(x))]

    def test_gradient_vanishes_at_every_fit(self):
        # the loss is strictly convex, so a zero gradient is the optimum
        for seed, n, d in ((0, 40, 3), (1, 300, 4), (2, 25, 1)):
            x, y = logreg_problem(seed, n=n, d=d)
            for c in LOGREG_C_GRID + (1e-8, 1e6):
                model = train_logreg(x, y, c)
                gw, gb = logreg_gradient(model.weights, model.bias, x, y, c)
                assert np.abs(np.append(gw, gb)).max() <= 1e-8, (seed, c)

    def test_invalid_c_rejected(self):
        x, y = logreg_problem(3)
        for c in (0.0, -1.0):
            with pytest.raises(ValueError):
                train_logreg(x, y, c=c)
            with pytest.raises(ValueError):
                train_logreg_grid(x, y, [1.0, c])

    def test_grid_matches_scalar_training(self):
        x, y = logreg_problem(5, n=60)
        cs = [1.0, 8.0, 64.0, 1024.0]
        grid_models = train_logreg_grid(x, y, cs)
        assert [gm.c for gm in grid_models] == cs
        for c, gm in zip(cs, grid_models):
            sm = train_logreg(x, y, c)
            assert np.array_equal(gm.weights, sm.weights)
            assert gm.bias == sm.bias


def knn_reference(tr_x, tr_y, xq, ks):
    """Per query, a full stable argsort of its distances and a prefix vote."""
    out = np.empty((len(ks), len(xq)), dtype=np.int64)
    for i, q in enumerate(xq):
        order = np.argsort(np.linalg.norm(tr_x - q, axis=1), kind="stable")
        for j, k in enumerate(ks):
            out[j, i] = tr_y[order[:k]].mean() >= 0.5
    return out


@st.composite
def knn_problems(draw):
    """Tie-heavy k-NN inputs: repeated rows, often on an integer grid."""
    d = draw(st.integers(1, 4))
    if draw(st.booleans()):
        value = st.integers(-2, 2).map(float)
    else:
        value = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
    rows = st.lists(value, min_size=d, max_size=d)
    palette = draw(st.lists(rows, min_size=1, max_size=8))
    picks = st.integers(0, len(palette) - 1)
    tr_x = np.array([palette[i] for i in draw(st.lists(picks, min_size=1, max_size=30))])
    n = len(tr_x)
    tr_y = np.array(draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n)))
    if draw(st.booleans()):
        xq = tr_x.copy()
    else:
        xq = np.array(draw(st.lists(rows, min_size=1, max_size=6)))
    odd = list(range(1, n + 1, 2))
    ks = sorted(draw(st.sets(st.sampled_from(odd), min_size=1, max_size=4)))
    return tr_x, tr_y, xq, ks


# Query 0 against 1-D integer points: the k-th distance ties across the cut
# at every k, and the lowest-index tied points must be the ones kept.
TIED_CUT = (
    np.array(
        [1, -2, -2, -1, 2, 0, 1, -1, -1, 1, 2, -2, -2, 1, -1, 0, -2, 2, 0, 2, 1, 1, -1],
        dtype=np.float64,
    )[:, None],
    np.array(
        [1, 0, 1, 0, 1, 0, 1, 0, 1, 1, 1, 0, 1, 1, 1, 0, 1, 1, 0, 0, 1, 0, 1],
        dtype=np.float64,
    ),
    np.zeros((1, 1)),
    [1, 5, 9],
)


class TestKnn:
    def test_own_point_at_k1(self):
        x = np.array([[0.0, 0.0], [5.0, 5.0]])
        y = np.array([0.0, 1.0])
        model = train_knn(x, y, 1)
        assert model.predict(np.array([[5.0, 5.0]])).tolist() == [1]

    def test_frozen_three_neighbor_vote(self):
        x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0, 1.0])
        # nearest to (1.2, 0.4): (1,0) d=.447, (0,0) d=1.265, (0,1) d=1.342
        q = np.array([[1.2, 0.4]])
        assert train_knn(x, y, 3).predict(q).tolist() == [0]
        assert train_knn(x, y, 5).predict(q).tolist() == [1]

    def test_distance_tie_keeps_lower_index(self):
        x = np.array([[9.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        y = np.array([0.0, 1.0, 0.0])
        model = train_knn(x, y, 1)
        assert model.predict(np.array([[1.0, 0.0]])).tolist() == [1]

    def test_invalid_k(self):
        x = np.zeros((4, 2))
        y = np.zeros(4)
        for k in (0, 2, -1, 5):
            with pytest.raises(ValueError):
                train_knn(x, y, k)

    def test_power_of_two_feature_scaling_is_invisible(self):
        rng = np.random.default_rng(8)
        raw = rng.normal(size=(30, 3))
        scaled = raw.copy()
        scaled[:, 1] *= 1024.0
        za = fit_standardizer(raw).apply(raw)
        zb = fit_standardizer(scaled).apply(scaled)
        assert np.array_equal(za, zb)

    @given(st.integers(0, 10**6))
    @settings(deadline=None, max_examples=40)
    def test_grid_predict_matches_per_model(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 30))
        tr_x = rng.normal(size=(n, 2))
        tr_y = rng.integers(0, 2, size=n).astype(np.float64)
        xq = rng.normal(size=(7, 2))
        ks = [k for k in (1, 3, 5, 9) if k <= n]
        grid = _knn_grid_predict(tr_x, tr_y, xq, ks)
        for j, k in enumerate(ks):
            assert np.array_equal(grid[j], train_knn(tr_x, tr_y, k).predict(xq))

    @given(knn_problems())
    @example(TIED_CUT)
    @settings(deadline=None, max_examples=300)
    def test_grid_predict_matches_stable_argsort(self, problem):
        tr_x, tr_y, xq, ks = problem
        got = _knn_grid_predict(tr_x, tr_y, xq, ks)
        assert np.array_equal(got, knn_reference(tr_x, tr_y, xq, ks))

    def test_grid_validates_every_k(self):
        x = np.zeros((4, 2))
        y = np.zeros(4)
        with pytest.raises(ValueError):
            _knn_grid_predict(x, y, x, [1, 4])
        with pytest.raises(ValueError):
            _knn_grid_predict(x, y, x, [1, 5])


def songs_dataset(per_song=None, songs=("A", "B", "C", "D")):
    """Separable toy set: true matches high ml, repetitions low, optional wrongs."""
    per_song = per_song or {"true": 3, "repetition": 3, "wrong": 0}
    rng = np.random.default_rng(42)
    data = []
    for song in songs:
        for i in range(per_song["true"]):
            data.append(
                sample(
                    int(rng.integers(50, 60)),
                    KIND_TRUE,
                    song=song,
                    query=f"{song}_c{i:02d}",
                    clip=f"{song}_c{i + 1:02d}",
                )
            )
        for i in range(per_song["repetition"]):
            data.append(
                sample(
                    int(rng.integers(2, 9)),
                    KIND_REPETITION,
                    song=song,
                    query=f"{song}_c{i:02d}",
                    clip=f"{song}_c{i + 2:02d}",
                    offset=37,
                )
            )
        for i in range(per_song["wrong"]):
            data.append(
                sample(
                    100,
                    KIND_WRONG,
                    song=song,
                    query=f"{song}_c{i:02d}",
                    clip=f"Z{song}_c{i:02d}",
                )
            )
    return data


def mixed_dataset():
    """Overlapping classes over five songs; only song C has wrong matches."""
    rng = np.random.default_rng(5)
    data = []
    for song in ("A", "B", "C", "D", "E"):
        for i in range(int(rng.integers(6, 10))):
            kind = KIND_TRUE if i % 3 else KIND_REPETITION
            ml = int(rng.integers(20, 70) if kind == KIND_TRUE else rng.integers(5, 35))
            data.append(
                Sample(
                    entry(
                        f"{song}_c{i:02d}",
                        f"{song}_c{i + 1:02d}",
                        ml=ml,
                        tml=ml + int(rng.integers(0, 40)),
                        lq=int(rng.integers(100, 900)),
                        li=int(rng.integers(100, 900)),
                    ),
                    kind,
                    song,
                )
            )
    for i in range(3):
        wrong = entry("C_c00", f"Z_c{i:02d}", ml=45 + i, tml=60, lq=300, li=700)
        data.append(Sample(wrong, KIND_WRONG, "C"))
    return data


def reference_double_cv(data, family, grid, subset, seed, inner_folds):
    """double_cv written out per grid value, per song and per inner fold."""
    songs = sorted({s.query_song_id for s in data})
    results = []
    for param in grid:
        train, value = (train_logreg, float(param)) if family == "logreg" else (train_knn, int(param))
        train_err = val_err = 0.0
        n_inner = correct = wrong_fps = 0
        try:
            for song in songs:
                test = [s for s in data if s.query_song_id == song]
                bal = balance([s for s in data if s.query_song_id != song], seed)
                x = feature_matrix([s.entry for s in bal], subset)
                y = labels_of(bal)
                perm = np.random.default_rng(seed).permutation(len(bal))
                for chunk in np.array_split(perm, inner_folds):
                    val = np.isin(np.arange(len(bal)), chunk)
                    std = fit_standardizer(x[~val])
                    model = train(std.apply(x[~val]), y[~val], value)
                    train_err += np.mean(model.predict(std.apply(x[~val])) != y[~val])
                    val_err += np.mean(model.predict(std.apply(x[val])) != y[val])
                    n_inner += 1
                std = fit_standardizer(x)
                model = train(std.apply(x), y, value)
                pred = model.predict(std.apply(feature_matrix([s.entry for s in test], subset)))
                correct += int(np.sum(pred == labels_of(test)))
                wrong_fps += sum(int(p == 1 and s.kind == KIND_WRONG) for p, s in zip(pred, test))
        except ValueError as exc:  # a k larger than some training set gets no result
            assert "exceeds training size" in str(exc)
            continue
        results.append(
            CvResult(
                family=family,
                param=float(param),
                subset=subset,
                train_error=float(train_err / n_inner),
                val_error=float(val_err / n_inner),
                test_accuracy=correct / len(data),
                wrong_fps=wrong_fps,
            )
        )
    return results


class TestDoubleCv:
    def test_outer_fold_per_song(self, monkeypatch):
        data = songs_dataset()
        calls = []
        grid_predict = match_classifier._grid_predict

        def recording(family, grid, tr_x, tr_y, targets):
            calls.append([len(t) for t in targets])
            return grid_predict(family, grid, tr_x, tr_y, targets)

        monkeypatch.setattr(match_classifier, "_grid_predict", recording)
        double_cv(data, "knn", [1], S1, seed=0, inner_folds=5)
        outer = [c for c in calls if len(c) == 1]  # (test x,)
        inner = [c for c in calls if len(c) == 2]  # (train x, validation x)
        assert len(outer) == 4
        assert len(inner) == 4 * 5
        assert sum(n for (n,) in outer) == len(data)

    @pytest.mark.parametrize(
        "family, grid, subset",
        [("logreg", LOGREG_C_GRID[::3], S4), ("knn", KNN_K_GRID, S3)],
    )
    def test_matches_per_model_reference(self, family, grid, subset):
        data = mixed_dataset()
        results = double_cv(data, family, grid, subset, seed=3, inner_folds=4)
        reference = reference_double_cv(data, family, grid, subset, seed=3, inner_folds=4)
        assert results == reference
        if family == "knn":
            assert 0 < len(results) < len(grid)  # the grid was cut
        assert any(r.wrong_fps > 0 for r in results)
        assert any(0.0 < r.val_error for r in results)

    def test_perfectly_separable_data(self):
        data = songs_dataset()
        results = double_cv(data, "knn", [1], S1, seed=0, inner_folds=5)
        (r,) = results
        assert r.test_accuracy == 1.0
        assert r.wrong_fps == 0
        assert r.val_error == 0.0
        assert r.train_error == 0.0

    def test_wrong_kind_false_positives_counted(self):
        data = songs_dataset({"true": 5, "repetition": 4, "wrong": 1})
        (r,) = double_cv(data, "logreg", [1024.0], S1, seed=0, inner_folds=5)
        # wrongs sit above the true-match range, so a monotone linear model
        # must pass every one of them (one per left-out song)
        assert r.wrong_fps == 4
        chosen = select_model([r])
        assert chosen.degraded is True
        assert r.degraded is False  # original result untouched

    def test_random_labels_score_near_chance(self):
        rng = np.random.default_rng(17)
        data = []
        for song in ("A", "B", "C", "D"):
            for i in range(50):
                cls = int(rng.integers(0, 2))
                data.append(
                    sample(
                        int(rng.integers(0, 200)),
                        KIND_TRUE if cls else KIND_REPETITION,
                        song=song,
                        query=f"{song}_c{i:02d}",
                        tml=400,
                    )
                )
        (r,) = double_cv(data, "knn", [1], S1, seed=0, inner_folds=5)
        assert 0.35 <= r.test_accuracy <= 0.65

    def test_preconditions(self):
        one_song = songs_dataset(songs=("A",))
        with pytest.raises(ValueError):
            double_cv(one_song, "knn", [1], S1, seed=0)
        tiny = songs_dataset({"true": 1, "repetition": 1, "wrong": 0}, songs=("A", "B"))
        with pytest.raises(ValueError):
            double_cv(tiny, "knn", [1], S1, seed=0)
        with pytest.raises(ValueError):
            double_cv(songs_dataset(), "knn", [], S1, seed=0)

    def test_knn_grid_cut_to_smallest_training_set(self):
        # 18 balanced samples per left-out song; 5 inner folds train on 14 or 15.
        data = songs_dataset()
        results = double_cv(data, "knn", KNN_K_GRID, S1, seed=0, inner_folds=5)
        assert [r.param for r in results] == [float(k) for k in range(1, 15, 2)]
        assert results == double_cv(data, "knn", range(1, 15, 2), S1, seed=0, inner_folds=5)
        with pytest.raises(ValueError, match="smallest training set, 14 samples"):
            double_cv(data, "knn", [15, 17], S1, seed=0, inner_folds=5)

    def test_default_grids(self):
        assert LOGREG_C_GRID == tuple(float(2**i) for i in range(20))
        assert KNN_K_GRID == tuple(range(1, 40, 2))


def cv_result(val, fps, param=1.0, subset=S1, family="knn", acc=0.9):
    return CvResult(
        family=family,
        param=param,
        subset=subset,
        train_error=val / 2,
        val_error=val,
        test_accuracy=acc,
        wrong_fps=fps,
    )


class TestSelectModel:
    def test_clean_beats_lower_error_dirty(self):
        dirty = cv_result(0.03, fps=1)
        clean = cv_result(0.04, fps=0)
        assert select_model([dirty, clean]) is clean

    def test_all_dirty_best_flagged_degraded(self):
        a = cv_result(0.05, fps=2)
        b = cv_result(0.03, fps=1)
        chosen = select_model([a, b])
        assert chosen.degraded is True
        assert chosen.val_error == 0.03
        assert b.degraded is False

    def test_tie_breaks_param_then_subset(self):
        k5 = cv_result(0.02, 0, param=5.0)
        k3 = cv_result(0.02, 0, param=3.0)
        assert select_model([k5, k3]) is k3
        s3 = cv_result(0.02, 0, param=3.0, subset=S3)
        assert select_model([s3, k3]) is k3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            select_model([])


class TestExpansion:
    def lists_with_repeats(self):
        return [
            MatchingList(
                query_id="songA_c00",
                entries=[
                    entry(clip="songA_c01", offset_frames=0, ml=30, tml=50),
                    entry(clip="songA_c01", offset_frames=120, ml=11, tml=50),
                    entry(clip="songA_c01", offset_frames=240, ml=9, tml=50),
                ],
            )
        ]

    def test_single_offset_lists_add_nothing(self):
        lists = [MatchingList(query_id="q", entries=[entry(clip="c", ml=9)])]
        assert expand_from_repetitions(lists) == []

    def test_three_offsets_give_two_samples(self):
        out = expand_from_repetitions(self.lists_with_repeats())
        assert [s.entry.offset_frames for s in out] == [120, 240]
        assert all(s.cls == 0 and s.kind == KIND_REPETITION for s in out)

    def test_idempotent_via_existing(self):
        lists = self.lists_with_repeats()
        first = expand_from_repetitions(lists)
        assert expand_from_repetitions(lists, existing=first) == []


def quality(votes: dict[tuple[str, str], int], ids: list[str]):
    from ugcaudio.timeline import QualityRanking

    sym = dict(votes)
    for (a, b), v in votes.items():
        sym[(b, a)] = v
    return QualityRanking(ranking=[(c, 1) for c in ids], pair_votes=sym)


def aligned_cluster():
    members = ["a", "b", "c"]
    g = MatchGraph(nodes=set(members))
    for frm, to in [("a", "b"), ("a", "c"), ("b", "c")]:
        g.edges[(frm, to)] = MatchEdge(
            from_id=frm, to_id=to, weight=0.0, source_entry=entry(query=frm, clip=to, ml=25)
        )
        g.edges[(to, frm)] = MatchEdge(
            from_id=to, to_id=frm, weight=0.0, source_entry=entry(query=to, clip=frm, ml=25)
        )
    return Cluster(members=members), g


class TestConfirmCluster:
    def test_all_pairs_voting_confirms_edges(self):
        cluster, g = aligned_cluster()
        q = quality({("a", "b"): 4, ("a", "c"): 3, ("b", "c"): 2}, ["a", "b", "c"])
        out = confirm_cluster(cluster, g, [q])
        assert len(out) == 6  # both directions of each of the 3 pairs
        assert all(s.cls == 1 and s.kind == KIND_TRUE for s in out)
        assert not any(s.vacuous for s in out)
        assert {(s.entry.query_id, s.entry.clip_id) for s in out} == {
            (a, b) for a in "abc" for b in "abc" if a != b
        }

    def test_one_dead_pair_confirms_nothing(self):
        cluster, g = aligned_cluster()
        q = quality({("a", "b"): 4, ("a", "c"): 0, ("b", "c"): 2}, ["a", "b", "c"])
        assert confirm_cluster(cluster, g, [q]) == []

    def test_missing_pair_counts_as_zero(self):
        cluster, g = aligned_cluster()
        q = quality({("a", "b"): 4, ("b", "c"): 2}, ["a", "b", "c"])
        assert confirm_cluster(cluster, g, [q]) == []

    def test_single_member_segments_flag_vacuous(self):
        cluster, g = aligned_cluster()
        qs = [quality({}, ["a"]), quality({}, ["b"])]
        out = confirm_cluster(cluster, g, qs)
        assert len(out) == 6
        assert all(s.vacuous for s in out)

    def test_duplicate_edges_deduplicated(self):
        cluster, g = aligned_cluster()
        q = quality({("a", "b"): 4, ("a", "c"): 3, ("b", "c"): 2}, ["a", "b", "c"])
        out = confirm_cluster(cluster, g, [q, q])
        assert len(out) == 6


class TestMatchFilter:
    def test_knn_filter_separates(self):
        data = songs_dataset()
        filt = fit_filter(data, "knn", 1, S1, seed=0)
        assert filt.predict([entry(ml=55, tml=56), entry(ml=3, tml=4)]).tolist() == [1, 0]
        assert filt.family == "knn"
        assert filt.param == 1.0

    def test_logreg_filter_separates(self):
        data = songs_dataset()
        filt = fit_filter(data, "logreg", 64.0, S1, seed=0)
        assert filt.predict([entry(ml=55, tml=56), entry(ml=3, tml=4)]).tolist() == [1, 0]
        assert filt.family == "logreg"
        assert filt.param == 64.0

    @pytest.mark.parametrize("family, param", [("knn", 3), ("logreg", 64.0)])
    def test_batch_agrees_with_single_entries(self, family, param):
        filt = fit_filter(songs_dataset(), family, param, S3, seed=0)
        rng = np.random.default_rng(5)
        batch = [
            entry(ml=int(m), lq=int(q), li=int(i))
            for m, q, i in rng.integers(1, 120, size=(40, 3))
        ]
        got = filt.predict(batch)
        assert got.dtype == np.int64 and got.shape == (40,)
        assert got.tolist() == [int(filt.predict([e])[0]) for e in batch]
        assert filt.predict([]).shape == (0,)

    def test_feature_matrix_shape(self):
        data = songs_dataset()
        assert feature_matrix([s.entry for s in data], S3).shape == (len(data), 3)
        assert feature_matrix([], S3).shape == (0, 3)
