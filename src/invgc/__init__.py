"""Degeneration diagnostics and inverse graph convolution for retrieval
embedding sets, with retrieval metrics, a tuning harness, synthetic cone
datasets, and numeric verification of the supporting cap geometry."""

__version__ = "0.1.0"

from importlib import import_module as _import_module

# Each public name, by the module that defines it.  A name is imported on
# first use (PEP 562), so a command loads only the modules it runs.
_EXPORTS = {
    "core": (
        "InvGCConfig",
        "build_adjacency",
        "forward_convolve",
        "inverse_convolve_dual",
        "inverse_convolve_single",
        "row_normalize",
    ),
    "diagnostics": (
        "DegenerationReport",
        "cross_mean_sim",
        "degeneration_score",
        "intra_mean_sim",
        "nn_similarity_histogram",
    ),
    "embio": (
        "EmbeddingSet",
        "FormatError",
        "PairingReport",
        "load_embeddings",
        "load_relevance",
        "save_embeddings",
        "save_relevance",
        "validate_pairing",
    ),
    "retrieval": (
        "RetrievalReport",
        "compute_metrics",
        "dump_ranks",
        "evaluate",
        "rank_queries",
    ),
    "simgraph": (
        "Adjacency",
        "SimMatrix",
        "adjacency_binary",
        "adjacency_full",
        "adjacency_local",
        "cosine_similarity_matrix",
        "row_percentile_threshold",
        "unit_rows",
    ),
    "synth": ("MODALITY_GAP", "ConeConfig", "generate_cone_dataset"),
    "theory": (
        "CapCheck",
        "cap_fraction_exact",
        "cap_fraction_mc",
        "check_corollary",
        "check_lemma2",
        "check_thm1_bounds",
        "check_thm3_bounds",
        "run_theory_suite",
        "sample_corollary_pairs",
        "sphere_area_volume_ratio",
    ),
    "tuner": (
        "DEFAULT_R_GRID",
        "SweepCurve",
        "TuneResult",
        "grid_search",
        "subsample_reference",
        "sweep_param",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _EXPORTS:
        return _import_module(f".{name}", __name__)
    if name in _MODULE_OF:
        value = getattr(_import_module(f".{_MODULE_OF[name]}", __name__), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    # What dir() listed when every module was imported eagerly.
    own = {k for k in globals() if k.startswith("__") and k not in ("__getattr__", "__dir__")}
    return sorted(own | set(__all__) | set(_EXPORTS))

