"""False-match classification over landmark-count features.

A match entry's features are its own counts (ml, tml, lq, li); models are
L2-regularised logistic regression, fitted exactly by Newton/IRLS, and
k-nearest neighbors, both over z-scored features. Model selection runs a
double cross-validation: leave-one-song-out outside, seeded 10-fold inside,
with candidates that ever pass a wrong match discarded first. Extra training
data comes for free from repetition entries (class 0) and from clusters
whose segments all agree at offset zero (class 1).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np
from scipy.special import expit

from .audio_io import GroundTruth
from .event_graph import Cluster, MatchGraph, cluster_edges, split_repetitions
from .fingerprint import MatchEntry, MatchingList
from .timeline import QualityRanking

KIND_TRUE = "true"
KIND_REPETITION = "repetition"
KIND_WRONG = "wrong"


@dataclass(frozen=True)
class FeatureSubset:
    name: str
    fields: tuple[str, ...]  # MatchEntry count attributes, in column order


S1 = FeatureSubset("S1", ("ml", "tml"))
S2 = FeatureSubset("S2", ("ml", "tml", "lq"))
S3 = FeatureSubset("S3", ("ml", "lq", "li"))
S4 = FeatureSubset("S4", ("ml", "tml", "lq", "li"))
SUBSETS = (S1, S2, S3, S4)
_SUBSET_RANK = {s.name: i for i, s in enumerate(SUBSETS)}


def parse_subset(name: str) -> FeatureSubset:
    for s in SUBSETS:
        if s.name == name:
            return s
    raise ValueError(f"unknown feature subset {name!r}; expected one of S1..S4")


@dataclass
class Sample:
    """One labeled match entry. Kind true is class 1; repetition and wrong are 0."""

    entry: MatchEntry
    kind: str
    query_song_id: str
    vacuous: bool = False  # emitted by a single-member-segment confirmation

    @property
    def cls(self) -> int:
        return int(self.kind == KIND_TRUE)


def song_of(clip_id: str, truth: GroundTruth | None) -> str:
    """Grouping key for leave-one-song-out; id prefix when truth is absent."""
    if truth is not None:
        try:
            return truth.event_of(clip_id)
        except KeyError:
            pass
    return clip_id.rsplit("_c", 1)[0]


def _sample_from(entry: MatchEntry, kind: str, truth: GroundTruth | None) -> Sample:
    return Sample(entry, kind, song_of(entry.query_id, truth))


def autolabel(
    lists: Iterable[MatchingList],
    truth: GroundTruth | None = None,
) -> list[Sample]:
    """Label every match entry from its role in the matching list.

    Non-primary offsets of a clip are repetitions (class 0). Primaries are
    true matches (class 1), except that ground truth demotes any primary
    joining two different events to a wrong match (class 0). Without truth
    no wrong matches can be identified.
    """
    samples: list[Sample] = []
    for ml in lists:
        primaries, repetitions = split_repetitions(ml)
        for entry in primaries:
            if truth is not None and song_of(entry.query_id, truth) != song_of(
                entry.clip_id, truth
            ):
                samples.append(_sample_from(entry, KIND_WRONG, truth))
            else:
                samples.append(_sample_from(entry, KIND_TRUE, truth))
        for entry in repetitions:
            samples.append(_sample_from(entry, KIND_REPETITION, truth))
    return samples


def balance(data: Sequence[Sample], seed: int) -> list[Sample]:
    """Downsample the majority class to the minority size, keeping order."""
    zero = [i for i, s in enumerate(data) if s.cls == 0]
    one = [i for i, s in enumerate(data) if s.cls == 1]
    if not zero or not one:
        raise ValueError("balance requires both classes present")
    if len(zero) == len(one):
        return list(data)
    majority, minority = (zero, one) if len(zero) > len(one) else (one, zero)
    rng = np.random.default_rng(seed)
    kept = rng.choice(len(majority), size=len(minority), replace=False)
    keep = set(minority) | {majority[i] for i in kept}
    return [s for i, s in enumerate(data) if i in keep]


def feature_matrix(entries: Sequence[MatchEntry], subset: FeatureSubset) -> np.ndarray:
    """One float64 row per entry: its counts named by subset.fields, in order."""
    return np.array(
        [[getattr(e, name) for name in subset.fields] for e in entries], dtype=np.float64
    ).reshape(len(entries), len(subset.fields))


def labels_of(data: Sequence[Sample]) -> np.ndarray:
    return np.array([s.cls for s in data], dtype=np.float64)


@dataclass
class Standardizer:
    mean: np.ndarray
    std: np.ndarray  # zeros replaced by 1 at fit time

    def apply(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=np.float64) - self.mean) / self.std


def fit_standardizer(x: np.ndarray) -> Standardizer:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or len(x) == 0:
        raise ValueError("standardizer needs a non-empty 2-D feature matrix")
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std[std == 0.0] = 1.0
    return Standardizer(mean=mean, std=std)


@dataclass
class LogRegModel:
    weights: np.ndarray
    bias: float
    c: float

    def logits(self, x: np.ndarray) -> np.ndarray:
        """x @ weights + bias, summed column by column so no row depends on its batch."""
        z = np.zeros(len(x))
        for column, weight in zip(np.asarray(x, dtype=np.float64).T, self.weights):
            z += column * weight
        return z + self.bias

    def predict(self, x: np.ndarray) -> np.ndarray:
        return (self.logits(x) >= 0.0).astype(np.int64)


def logreg_loss(
    w: np.ndarray, b: float, x: np.ndarray, y: np.ndarray, c: float
) -> float:
    # Cross-entropy in the logaddexp form: log(1 + e^z) - y z never overflows.
    z = x @ w + b
    ce = np.logaddexp(0.0, z) - y * z
    n = len(y)
    return float(ce.mean() + (w @ w) / (2.0 * c * n))


def logreg_gradient(
    w: np.ndarray, b: float, x: np.ndarray, y: np.ndarray, c: float
) -> tuple[np.ndarray, float]:
    n = len(y)
    r = expit(x @ w + b) - y
    gw = x.T @ r / n + w / (c * n)
    return gw, float(r.mean())


# Newton stops once every gradient component is this small. A step counts
# as no worse when the loss rises by less than _LOSS_SLACK of itself: near
# the optimum the loss is flat to rounding, and a strict test would reject
# the step that zeroes the gradient. After _MAX_HALVINGS rejected halvings
# the iterate is as good as the arithmetic allows.
_GRAD_TOL = 1e-10
_LOSS_SLACK = 1e-13
_MAX_NEWTON_STEPS = 100
_MAX_HALVINGS = 50


def train_logreg(x: np.ndarray, y: np.ndarray, c: float) -> LogRegModel:
    """Minimise logreg_loss by Newton/IRLS from zero weights.

    The Hessian is (d+1)x(d+1) for d features plus the bias. Each Newton step
    is halved until the loss does not increase, and training stops when no
    logreg_gradient component exceeds _GRAD_TOL.
    """
    if c <= 0:
        raise ValueError("regularization parameter c must be positive")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, d = x.shape
    design = np.column_stack([x, np.ones(n)])
    ridge = np.diag(np.append(np.full(d, 1.0 / (c * n)), 0.0))
    w = np.zeros(d)
    b = 0.0
    loss = logreg_loss(w, b, x, y, c)
    for _ in range(_MAX_NEWTON_STEPS):
        gw, gb = logreg_gradient(w, b, x, y, c)
        grad = np.append(gw, gb)
        if np.abs(grad).max() <= _GRAD_TOL:
            break
        z = x @ w + b
        curvature = expit(z) * expit(-z)  # p(1-p) without cancellation
        hessian = (design.T * curvature) @ design / n + ridge
        step = np.linalg.solve(hessian, grad)
        t = 1.0
        for _ in range(_MAX_HALVINGS):
            w_try = w - t * step[:d]
            b_try = b - t * float(step[d])
            loss_try = logreg_loss(w_try, b_try, x, y, c)
            if loss_try <= loss * (1.0 + _LOSS_SLACK):
                break
            t *= 0.5
        else:
            break
        w, b, loss = w_try, b_try, loss_try
    return LogRegModel(weights=w, bias=b, c=c)


def train_logreg_grid(x: np.ndarray, y: np.ndarray, cs: Sequence[float]) -> list[LogRegModel]:
    """One train_logreg fit per regularization value, in grid order."""
    return [train_logreg(x, y, float(c)) for c in cs]


@dataclass
class KnnModel:
    k: int
    train_x: np.ndarray
    train_y: np.ndarray

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Majority vote of the k nearest; distance ties keep index order."""
        x = np.asarray(x, dtype=np.float64)
        return _knn_grid_predict(self.train_x, self.train_y, x, [self.k])[0]


def train_knn(x: np.ndarray, y: np.ndarray, k: int) -> KnnModel:
    if k % 2 != 1 or k < 1:
        raise ValueError(f"k must be odd and positive, got {k}")
    if k > len(x):
        raise ValueError(f"k={k} exceeds training size {len(x)}")
    return KnnModel(
        k=k,
        train_x=np.asarray(x, dtype=np.float64),
        train_y=np.asarray(y, dtype=np.float64),
    )


FAMILY_LOGREG = "logreg"
FAMILY_KNN = "knn"

# c doubles 20 times from 1.0; k runs over the odd numbers 1..39.
LOGREG_C_GRID = tuple(float(2**i) for i in range(20))
KNN_K_GRID = tuple(range(1, 40, 2))


def default_grid(family: str) -> tuple:
    if family == FAMILY_LOGREG:
        return LOGREG_C_GRID
    if family == FAMILY_KNN:
        return KNN_K_GRID
    raise ValueError(f"unknown model family {family!r}")


def _fit(family: str, x: np.ndarray, y: np.ndarray, param) -> LogRegModel | KnnModel:
    if family == FAMILY_LOGREG:
        return train_logreg(x, y, float(param))
    if family == FAMILY_KNN:
        return train_knn(x, y, int(param))
    raise ValueError(f"unknown model family {family!r}")


def _knn_grid_predict(
    tr_x: np.ndarray, tr_y: np.ndarray, xq: np.ndarray, ks: Sequence[int]
) -> np.ndarray:
    """Predictions of every k at once, (len(ks), len(xq)).

    Neighbours are ranked as a stable argsort of the Euclidean distances
    would rank them: by distance, then by training index. Only the max(ks)
    nearest of each query are selected and sorted; the vote is their
    prefix mean.
    """
    for k in ks:
        if k % 2 != 1 or k < 1:
            raise ValueError(f"k must be odd and positive, got {k}")
        if k > len(tr_x):
            raise ValueError(f"k={k} exceeds training size {len(tr_x)}")
    k_max = max(ks)
    # One feature column at a time: for the at most four features of a
    # subset, the same squares summed in the same left-to-right order as
    # np.linalg.norm(xq[:, None] - tr_x, axis=2), so bit-identical distances
    # without the (len(xq), len(tr_x), d) temporary.
    dist = np.zeros((len(xq), len(tr_x)))
    diff = np.empty_like(dist)
    for j in range(tr_x.shape[1]):
        np.subtract.outer(xq[:, j], tr_x[:, j], out=diff)
        diff *= diff
        dist += diff
    np.sqrt(dist, out=dist)

    # Per row: every column strictly nearer than the k_max-th distance, then
    # the lowest-index columns at exactly that distance until k_max are taken.
    kth = np.partition(dist, k_max - 1, axis=1)[:, k_max - 1 : k_max]
    nearer = dist < kth
    at_kth = dist == kth
    room = k_max - nearer.sum(axis=1, keepdims=True)
    take = nearer | (at_kth & (np.cumsum(at_kth, axis=1, dtype=np.int32) <= room))
    nearest = (np.flatnonzero(take) % len(tr_x)).reshape(len(xq), k_max)  # rising index
    order = np.argsort(np.take_along_axis(dist, nearest, axis=1), axis=1, kind="stable")
    nearest = np.take_along_axis(nearest, order, axis=1)

    votes = np.cumsum(tr_y[nearest], axis=1)
    preds = np.empty((len(ks), len(xq)), dtype=np.int64)
    for j, k in enumerate(ks):
        preds[j] = votes[:, k - 1] / k >= 0.5
    return preds


def _grid_predict(
    family: str,
    grid: Sequence,
    tr_x: np.ndarray,
    tr_y: np.ndarray,
    targets: Sequence[np.ndarray],
) -> list[np.ndarray]:
    """Per target matrix, an array of predictions shaped (len(grid), len(target))."""
    if family == FAMILY_LOGREG:
        models = train_logreg_grid(tr_x, tr_y, [float(c) for c in grid])
        return [
            np.stack([model.predict(t) for model in models]) for t in targets
        ]
    if family == FAMILY_KNN:
        ks = [int(k) for k in grid]
        return [_knn_grid_predict(tr_x, tr_y, t, ks) for t in targets]
    raise ValueError(f"unknown model family {family!r}")


@dataclass
class CvResult:
    family: str
    param: float
    subset: FeatureSubset
    train_error: float
    val_error: float
    test_accuracy: float
    wrong_fps: int
    degraded: bool = False


@dataclass
class _OuterFold:
    """Standardized matrices for one left-out song, shared across params."""

    inner: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]
    full_x: np.ndarray
    full_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    test_kinds: list[str]


def _prepare_folds(
    data: Sequence[Sample],
    subset: FeatureSubset,
    seed: int,
    inner_folds: int,
) -> list[_OuterFold]:
    songs = sorted({s.query_song_id for s in data})
    out: list[_OuterFold] = []
    for song in songs:
        test = [s for s in data if s.query_song_id == song]
        rest = [s for s in data if s.query_song_id != song]
        try:
            bal = balance(rest, seed)
        except ValueError as exc:
            raise ValueError(f"leaving out song {song!r}: {exc}") from exc
        if len(bal) < inner_folds:
            raise ValueError(
                f"leaving out song {song!r} leaves {len(bal)} balanced samples, "
                f"fewer than {inner_folds} folds"
            )
        bal_x = feature_matrix([s.entry for s in bal], subset)
        bal_y = labels_of(bal)

        perm = np.random.default_rng(seed).permutation(len(bal))
        inner = []
        for chunk in np.array_split(perm, inner_folds):
            val_mask = np.zeros(len(bal), dtype=bool)
            val_mask[chunk] = True
            std = fit_standardizer(bal_x[~val_mask])
            inner.append(
                (
                    std.apply(bal_x[~val_mask]),
                    bal_y[~val_mask],
                    std.apply(bal_x[val_mask]),
                    bal_y[val_mask],
                )
            )

        std = fit_standardizer(bal_x)
        out.append(
            _OuterFold(
                inner=inner,
                full_x=std.apply(bal_x),
                full_y=bal_y,
                test_x=std.apply(feature_matrix([s.entry for s in test], subset)),
                test_y=labels_of(test),
                test_kinds=[s.kind for s in test],
            )
        )
    return out


def double_cv(
    data: Sequence[Sample],
    family: str,
    grid: Sequence,
    subset: FeatureSubset,
    seed: int,
    inner_folds: int = 10,
) -> list[CvResult]:
    """Leave-one-song-out outside, seeded k-fold inside, per grid value.

    Each left-out song contributes: 10 inner train/validation errors per
    parameter (folds of the remaining songs' balanced samples), plus test
    predictions from the model retrained on all of those balanced samples.
    Train and validation errors are means over every (song, fold) pair;
    accuracy and the wrong-match false-positive count pool the test
    predictions of all left-out songs.

    A k-NN grid is cut to the k that fit every training set, inner and
    outer; only those get a result. When none fits, ValueError names the
    smallest training size.
    """
    songs = {s.query_song_id for s in data}
    if len(songs) < 2:
        raise ValueError(f"double CV needs at least 2 songs, got {len(songs)}")
    if len(data) < 20:
        raise ValueError(f"double CV needs at least 20 samples, got {len(data)}")
    if not grid:
        raise ValueError("empty parameter grid")

    folds = _prepare_folds(data, subset, seed, inner_folds)
    if family == FAMILY_KNN:
        # Each inner training set is a part of its outer fold's.
        smallest = min(len(tr_y) for fold in folds for _, tr_y, _, _ in fold.inner)
        grid = [k for k in grid if int(k) <= smallest]
        if not grid:
            raise ValueError(
                f"no k in the grid fits the smallest training set, {smallest} samples"
            )
    m = len(grid)
    train_sum = np.zeros(m)
    val_sum = np.zeros(m)
    n_inner = 0
    correct = np.zeros(m, dtype=np.int64)
    total = 0
    wrong_fps = np.zeros(m, dtype=np.int64)
    for fold in folds:
        for tr_x, tr_y, va_x, va_y in fold.inner:
            tr_pred, va_pred = _grid_predict(family, grid, tr_x, tr_y, (tr_x, va_x))
            train_sum += (tr_pred != tr_y).mean(axis=1)
            val_sum += (va_pred != va_y).mean(axis=1)
            n_inner += 1
        (test_pred,) = _grid_predict(
            family, grid, fold.full_x, fold.full_y, (fold.test_x,)
        )
        correct += (test_pred == fold.test_y).sum(axis=1)
        total += len(fold.test_y)
        wrong = np.array([k == KIND_WRONG for k in fold.test_kinds], dtype=bool)
        if wrong.any():
            wrong_fps += (test_pred[:, wrong] == 1).sum(axis=1)
    return [
        CvResult(
            family=family,
            param=float(grid[j]),
            subset=subset,
            train_error=float(train_sum[j] / n_inner),
            val_error=float(val_sum[j] / n_inner),
            test_accuracy=float(correct[j] / total),
            wrong_fps=int(wrong_fps[j]),
        )
        for j in range(m)
    ]


def select_model(results: Sequence[CvResult]) -> CvResult:
    """Lowest validation error among models that never pass a wrong match.

    Ties fall to the smaller parameter, then the smaller feature subset.
    When every candidate violates the wrong-match constraint the best of
    them is returned anyway, marked degraded.
    """
    if not results:
        raise ValueError("no CV results to select from")

    def key(r: CvResult):
        return (r.val_error, r.param, _SUBSET_RANK[r.subset.name], r.family)

    clean = [r for r in results if r.wrong_fps == 0]
    if clean:
        return min(clean, key=key)
    return replace(min(results, key=key), degraded=True)


def _dedup_key(s: Sample) -> tuple[str, str, int]:
    return (s.entry.query_id, s.entry.clip_id, s.entry.offset_frames)


def expand_from_repetitions(
    lists: Iterable[MatchingList],
    truth: GroundTruth | None = None,
    existing: Iterable[Sample] = (),
) -> list[Sample]:
    """Every repetition entry as a class-0 sample, minus ones already held.

    Keyed by (query, clip, offset) so running the expansion twice adds
    nothing the second time.
    """
    seen = {_dedup_key(s) for s in existing}
    out: list[Sample] = []
    for ml in lists:
        _, repetitions = split_repetitions(ml)
        for entry in repetitions:
            sample = _sample_from(entry, KIND_REPETITION, truth)
            if _dedup_key(sample) not in seen:
                seen.add(_dedup_key(sample))
                out.append(sample)
    return out


def confirm_cluster(
    cluster: Cluster,
    graph: MatchGraph,
    qualities: Sequence[QualityRanking],
    truth: GroundTruth | None = None,
) -> list[Sample]:
    """Class-1 samples from a cluster whose segments all agree at offset 0.

    The predicate: in every segment, every member shares near-zero-offset
    votes with every other member. When it holds, each match entry behind a
    cluster edge becomes a class-1 sample; one failed pair anywhere yields
    nothing. Clusters where no segment has two members satisfy the predicate
    vacuously; their samples carry the vacuous flag.
    """
    vacuous = True
    for q in qualities:
        ids = [cid for cid, _ in q.ranking]
        if len(ids) > 1:
            vacuous = False
        for i, a in enumerate(ids):
            for b in ids[i + 1 :]:
                if q.pair_votes.get((a, b), 0) < 1:
                    return []

    samples = []
    seen: set[tuple[str, str, int]] = set()
    for edge in cluster_edges(cluster, graph):
        sample = _sample_from(edge.source_entry, KIND_TRUE, truth)
        sample.vacuous = vacuous
        if _dedup_key(sample) not in seen:
            seen.add(_dedup_key(sample))
            samples.append(sample)
    return samples


@dataclass
class MatchFilter:
    """Trained model bundled with its preprocessing.

    `predict` classifies a batch of entries with one model call, as double
    CV evaluates its models.
    """

    subset: FeatureSubset
    standardizer: Standardizer
    model: LogRegModel | KnnModel

    def predict(self, entries: Sequence[MatchEntry]) -> np.ndarray:
        """Class per entry, 1 true match and 0 false, as an int64 array."""
        x = feature_matrix(entries, self.subset)
        return self.model.predict(self.standardizer.apply(x))

    @property
    def family(self) -> str:
        return FAMILY_LOGREG if isinstance(self.model, LogRegModel) else FAMILY_KNN

    @property
    def param(self) -> float:
        return self.model.c if isinstance(self.model, LogRegModel) else float(self.model.k)


def fit_filter(
    data: Sequence[Sample],
    family: str,
    param,
    subset: FeatureSubset,
    seed: int,
) -> MatchFilter:
    """Train a deployable filter on the full balanced data."""
    bal = balance(data, seed)
    x = feature_matrix([s.entry for s in bal], subset)
    std = fit_standardizer(x)
    model = _fit(family, std.apply(x), labels_of(bal), param)
    return MatchFilter(subset=subset, standardizer=std, model=model)
