"""Degeneration diagnostics and inverse graph convolution for retrieval
embedding sets, with retrieval metrics, a tuning harness, synthetic cone
datasets, and numeric verification of the supporting cap geometry."""

__version__ = "0.1.0"

from .core import (
    InvGCConfig,
    build_adjacency,
    forward_convolve,
    inverse_convolve_dual,
    inverse_convolve_single,
    row_normalize,
)
from .diagnostics import (
    DegenerationReport,
    cross_mean_sim,
    degeneration_score,
    intra_mean_sim,
    nn_similarity_histogram,
)
from .embio import (
    EmbeddingSet,
    FormatError,
    PairingReport,
    load_embeddings,
    load_relevance,
    save_embeddings,
    save_relevance,
    validate_pairing,
)
from .retrieval import (
    RetrievalReport,
    compute_metrics,
    dump_ranks,
    evaluate,
    rank_queries,
)
from .simgraph import (
    Adjacency,
    SimMatrix,
    adjacency_binary,
    adjacency_full,
    adjacency_local,
    cosine_similarity_matrix,
    row_percentile_threshold,
    unit_rows,
)
from .synth import MODALITY_GAP, ConeConfig, generate_cone_dataset
from .theory import (
    CapCheck,
    cap_fraction_exact,
    cap_fraction_mc,
    check_corollary,
    check_lemma2,
    check_thm1_bounds,
    check_thm3_bounds,
    run_theory_suite,
    sample_corollary_pairs,
    sphere_area_volume_ratio,
)
from .tuner import (
    DEFAULT_R_GRID,
    SweepCurve,
    TuneResult,
    grid_search,
    subsample_reference,
    sweep_param,
)

__all__ = [
    "Adjacency",
    "CapCheck",
    "ConeConfig",
    "DEFAULT_R_GRID",
    "DegenerationReport",
    "EmbeddingSet",
    "FormatError",
    "InvGCConfig",
    "MODALITY_GAP",
    "PairingReport",
    "RetrievalReport",
    "SimMatrix",
    "SweepCurve",
    "TuneResult",
    "adjacency_binary",
    "adjacency_full",
    "adjacency_local",
    "build_adjacency",
    "cap_fraction_exact",
    "cap_fraction_mc",
    "check_corollary",
    "check_lemma2",
    "check_thm1_bounds",
    "check_thm3_bounds",
    "compute_metrics",
    "cosine_similarity_matrix",
    "cross_mean_sim",
    "degeneration_score",
    "dump_ranks",
    "evaluate",
    "forward_convolve",
    "generate_cone_dataset",
    "grid_search",
    "intra_mean_sim",
    "inverse_convolve_dual",
    "inverse_convolve_single",
    "load_embeddings",
    "load_relevance",
    "nn_similarity_histogram",
    "rank_queries",
    "row_normalize",
    "row_percentile_threshold",
    "run_theory_suite",
    "sample_corollary_pairs",
    "save_embeddings",
    "save_relevance",
    "sphere_area_volume_ratio",
    "subsample_reference",
    "sweep_param",
    "unit_rows",
    "validate_pairing",
]
