"""Organize user-recorded audio clips into events by the sound they share.

Clips are fingerprinted with spectrogram-peak landmarks, matched through an
inverted index, clustered into events over an offset-weighted graph, laid
out on per-event timelines, segmented, ranked by per-segment quality, and
optionally filtered by a trained false-match classifier.
"""

from .audio_io import (
    AudioClip,
    ClipTruth,
    DecodeError,
    GroundTruth,
    LayoutError,
    PROCESS_RATE,
    SynthSpec,
    decode_wav,
    encode_wav,
    read_clip,
    resample_mono,
    synth_corpus,
)
from .event_graph import (
    Cluster,
    MatchEdge,
    MatchGraph,
    build_graph,
    cluster_edges,
    connected_components,
    split_repetitions,
)
from .fingerprint import (
    LANDMARK_KEYS,
    FingerprintIndex,
    FpConfig,
    MatchEntry,
    MatchingList,
    clip_fingerprint,
    extract_peaks,
    fingerprint_clip,
    hash_landmarks,
    load_config,
    offset_zero_votes,
    pair_landmarks,
    query,
    spectrogram,
    thin_peaks,
)
from .match_classifier import (
    CvResult,
    FeatureSubset,
    KNN_K_GRID,
    KnnModel,
    LOGREG_C_GRID,
    LogRegModel,
    MatchFilter,
    S1,
    S2,
    S3,
    S4,
    SUBSETS,
    Sample,
    Standardizer,
    autolabel,
    balance,
    confirm_cluster,
    default_grid,
    double_cv,
    feature_matrix,
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
from .pipeline import run_pipeline
from .storage import (
    StorageError,
    load_index,
    load_model,
    save_index,
    save_model,
)
from .timeline import (
    ClipCut,
    PositionMap,
    QualityRanking,
    RawOffsets,
    Segment,
    assign_offsets,
    build_segments,
    consistency_report,
    cut_audio,
    cut_landmarks,
    normalize_positions,
    segment_quality,
)

__version__ = "0.1.0"
