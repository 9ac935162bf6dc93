"""False-match classification over landmark-count features.

A match entry's features are its own counts (ml, tml, lq, li); models are
L2-regularised logistic regression, fitted exactly by Newton/IRLS, and
k-nearest neighbors, both over z-scored features. Model selection runs a
double cross-validation: leave-one-song-out outside, seeded 10-fold inside,
with candidates that ever pass a wrong match discarded first. `autolabel`
emits every repetition entry as a class-0 sample; `confirm_cluster` yields
class-1 samples from clusters whose segments all agree at offset zero.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

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
    """Grouping key for leave-one-song-out: the clip's event in truth.

    A clip that truth lacks is refused with a ValueError naming it. Without
    truth, the key is the id's prefix before its last "_c".
    """
    if truth is None:
        return clip_id.rsplit("_c", 1)[0]
    if clip_id not in truth.clips:
        raise ValueError(f"manifest has no clip {clip_id!r}")
    return truth.event_of(clip_id)


def _sample_from(entry: MatchEntry, kind: str, truth: GroundTruth | None) -> Sample:
    return Sample(entry, kind, song_of(entry.query_id, truth))


def autolabel(
    lists: Iterable[MatchingList],
    truth: GroundTruth | None = None,
) -> list[Sample]:
    """Label every match entry from its role in the matching list.

    Non-primary offsets of a clip are repetitions (class 0). Primaries are
    true matches (class 1), except that ground truth demotes any primary
    joining two different events to a wrong match (class 0), and a clip it
    lacks is refused (see song_of). Without truth no wrong matches can be
    identified.
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


def _expit(z: np.ndarray) -> np.ndarray:
    # The logistic sigmoid as scipy.special.expit defines it. Where e^-z
    # overflows to inf the result is exactly 0, so the overflow is expected.
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def logreg_loss(
    w: np.ndarray, b: float, x: np.ndarray, y: np.ndarray, c: float
) -> float:
    # Cross-entropy in the logaddexp form: log(1 + e^z) - y z never overflows.
    z = x @ w + b
    ce = np.logaddexp(0.0, z) - y * z
    n = len(y)
    # sum / n is ndarray.mean's own arithmetic, without its per-call overhead.
    return float(ce.sum() / n + (w @ w) / (2.0 * c * n))


def logreg_gradient(
    w: np.ndarray, b: float, x: np.ndarray, y: np.ndarray, c: float
) -> tuple[np.ndarray, float]:
    return _gradient(_expit(x @ w + b), w, x, y, c)


def _gradient(
    p: np.ndarray, w: np.ndarray, x: np.ndarray, y: np.ndarray, c: float
) -> tuple[np.ndarray, float]:
    # logreg_gradient from p, the predicted probabilities at (w, b).
    n = len(y)
    r = p - y
    gw = x.T @ r / n + w / (c * n)
    return gw, float(r.sum() / n)


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
        z = x @ w + b
        p = _expit(z)  # shared by the gradient and the curvature
        gw, gb = _gradient(p, w, x, y, c)
        grad = np.append(gw, gb)
        if np.abs(grad).max() <= _GRAD_TOL:
            break
        curvature = p * _expit(-z)  # p(1-p) without cancellation
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


def _check_k(k: int, n: int) -> None:
    """Refuse a k that is not odd and positive, or more than n training rows."""
    if k % 2 != 1 or k < 1:
        raise ValueError(f"k must be odd and positive, got {k}")
    if k > n:
        raise ValueError(f"k={k} exceeds training size {n}")


def train_knn(x: np.ndarray, y: np.ndarray, k: int) -> KnnModel:
    _check_k(k, len(x))
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


# Query rows per block of _knn_grid_predict: a block's distances fill at most
# this many cells (195 query rows against 335 training rows), so the kernel's
# memory does not grow with the number of queries.
_KNN_BLOCK_CELLS = 1 << 16


def _knn_grid_predict(
    tr_x: np.ndarray, tr_y: np.ndarray, xq: np.ndarray, ks: Sequence[int]
) -> np.ndarray:
    """Predictions of every k at once, (len(ks), len(xq)).

    Neighbours are ranked as a stable argsort of the Euclidean distances
    would rank them: by distance, then by training index. Only the max(ks)
    nearest of each query are selected and sorted; the vote is their
    prefix mean. Queries go through in blocks of rows, each with at most
    _KNN_BLOCK_CELLS distances, in buffers reused from block to block.
    """
    for k in ks:
        _check_k(k, len(tr_x))
    k_max = max(ks)
    k_arr = np.asarray(ks)
    n = len(tr_x)
    rows = max(1, _KNN_BLOCK_CELLS // n)
    dist = np.empty((min(rows, len(xq)), n))
    spare = np.empty_like(dist)  # squared differences, then the partition
    take = np.empty(dist.shape, dtype=bool)
    preds = np.empty((len(ks), len(xq)), dtype=np.int64)
    for lo in range(0, len(xq), rows):
        q = xq[lo : lo + rows]
        d, s, t = dist[: len(q)], spare[: len(q)], take[: len(q)]
        # One feature column at a time: for the at most four features of a
        # subset, the same squares summed in the same left-to-right order as
        # np.linalg.norm(q[:, None] - tr_x, axis=2), so bit-identical
        # distances without the (len(q), n, d) temporary. The first square
        # is written as is, since 0.0 + x == x.
        np.subtract.outer(q[:, 0], tr_x[:, 0], out=d)
        d *= d
        for j in range(1, tr_x.shape[1]):
            np.subtract.outer(q[:, j], tr_x[:, j], out=s)
            s *= s
            d += s
        np.sqrt(d, out=d)

        # Per row, every column at or below the k_max-th distance. A row with
        # more than k_max of them ties at that distance: it takes the strictly
        # nearer columns, then the lowest-index columns at exactly that
        # distance until it has k_max.
        s[...] = d
        s.partition(k_max - 1, axis=1)
        kth = s[:, k_max - 1 : k_max]
        np.less_equal(d, kth, out=t)
        tied = np.flatnonzero(t.sum(axis=1) > k_max)
        if len(tied):
            d_tied, kth_tied = d[tied], kth[tied]
            nearer = d_tied < kth_tied
            at_kth = d_tied == kth_tied
            room = k_max - nearer.sum(axis=1, keepdims=True)
            t[tied] = nearer | (at_kth & (np.cumsum(at_kth, axis=1, dtype=np.int32) <= room))
        picked = np.flatnonzero(t)  # k_max cells a row, by rising index
        nearest = (picked % n).reshape(len(q), k_max)
        order = np.argsort(d.ravel()[picked].reshape(len(q), k_max), axis=1, kind="stable")
        votes = np.cumsum(np.take_along_axis(tr_y[nearest], order, axis=1), axis=1)
        preds[:, lo : lo + len(q)] = (votes[:, k_arr - 1] / k_arr >= 0.5).T
    return preds


def _grid_predict(family: str, grid: Sequence, fold: tuple[np.ndarray, ...]) -> np.ndarray:
    """Predictions for fold = (train x, train y, query x), (len(grid), len(query x))."""
    tr_x, tr_y, query_x = fold
    if family == FAMILY_LOGREG:
        models = train_logreg_grid(tr_x, tr_y, [float(c) for c in grid])
        return np.stack([model.predict(query_x) for model in models])
    if family == FAMILY_KNN:
        return _knn_grid_predict(tr_x, tr_y, query_x, [int(k) for k in grid])
    raise ValueError(f"unknown model family {family!r}")


@dataclass
class CvResult:
    family: str
    param: float
    subset: FeatureSubset
    val_error: float
    test_accuracy: float
    wrong_fps: int
    degraded: bool = False


def double_cv(
    data: Sequence[Sample],
    family: str,
    grid: Sequence,
    subset: FeatureSubset,
    seed: int,
    inner_folds: int = 10,
) -> list[CvResult]:
    """Leave-one-song-out outside, seeded k-fold inside, per grid value.

    Each left-out song contributes inner_folds folds of the remaining songs'
    balanced samples, each predicting its validation rows, and one outer
    fold, the model retrained on all of those samples predicting the song's
    rows. Validation errors are means over every (song, inner fold) pair;
    accuracy and the wrong-match false-positive count pool the test
    predictions of all left-out songs.

    Every fold, a (train x, train y, query x) triple, is built before any is
    predicted, and one `_grid_predict` call predicts each, in fold order on
    the calling thread. Fold pools measured slower at the sample counts
    trained on (525 or fewer).

    A k-NN grid is cut to the k that fit every training set, inner and
    outer; only those get a result. When none fits, ValueError names the
    smallest training size.
    """
    songs = sorted({s.query_song_id for s in data})
    if len(songs) < 2:
        raise ValueError(f"double CV needs at least 2 songs, got {len(songs)}")
    if len(data) < 20:
        raise ValueError(f"double CV needs at least 20 samples, got {len(data)}")
    if not grid:
        raise ValueError("empty parameter grid")

    # All folds are built before any fit: fitting each song's folds as built measured slower.
    inner, val_ys = [], []  # (train x, train y, validation x) and validation y, song by song
    outer = []  # (train x, train y, test x), one per song
    tested: list[Sample] = []  # the test rows of every song, in fold order
    for song in songs:
        test = [s for s in data if s.query_song_id == song]
        try:
            bal = balance([s for s in data if s.query_song_id != song], seed)
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
        for chunk in np.array_split(perm, inner_folds):
            val = np.zeros(len(bal), dtype=bool)
            val[chunk] = True
            std = fit_standardizer(bal_x[~val])
            inner.append((std.apply(bal_x[~val]), bal_y[~val], std.apply(bal_x[val])))
            val_ys.append(bal_y[val])
        std = fit_standardizer(bal_x)
        test_x = std.apply(feature_matrix([s.entry for s in test], subset))
        outer.append((std.apply(bal_x), bal_y, test_x))
        tested.extend(test)

    if family == FAMILY_KNN:
        # Each inner training set is a part of its outer fold's.
        smallest = min(len(tr_y) for _, tr_y, _ in inner)
        grid = [k for k in grid if int(k) <= smallest]
        if not grid:
            raise ValueError(
                f"no k in the grid fits the smallest training set, {smallest} samples"
            )
    preds = [_grid_predict(family, grid, fold) for fold in inner + outer]
    val_sum = sum((va_pred != va_y).mean(axis=1) for va_pred, va_y in zip(preds, val_ys))
    test_pred = np.concatenate(preds[len(inner) :], axis=1)
    correct = (test_pred == labels_of(tested)).sum(axis=1)
    wrong = np.array([s.kind == KIND_WRONG for s in tested], dtype=bool)
    wrong_fps = (test_pred[:, wrong] == 1).sum(axis=1)
    return [
        CvResult(
            family=family,
            param=float(param),
            subset=subset,
            val_error=float(val_sum[j] / len(inner)),
            test_accuracy=float(correct[j] / len(data)),
            wrong_fps=int(wrong_fps[j]),
        )
        for j, param in enumerate(grid)
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
