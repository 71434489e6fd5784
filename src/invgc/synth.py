"""Synthetic cone-degenerate datasets.

Items are drawn around one shared unit axis: each latent vector is
normalize(axis + perturbation), where the perturbation is isotropic
Gaussian with per-coordinate standard deviation cone_spread/sqrt(dim).
That scaling makes cone_spread the typical length of the perturbation
vector itself, so the cone's angular radius tracks cone_spread directly
regardless of dimension, and smaller spreads collapse the set into a
tighter cone (more degenerate).

Gallery rows are the latents themselves.  Each matched query is the
latent plus query noise (same per-coordinate scaling) plus a shared
offset of MODALITY_GAP along the axis, renormalized.  Paired encoders
in the wild place the two modalities on displaced cones, and the offset
reproduces the retrieval failure that displacement causes: rows near
the cone's center score well against every query, so off-center items
lose their own queries to central ones.  Inverse convolution removes
exactly that shared component, which is what makes the corrected
gallery measurably better here.

Both reference sets are fresh draws from the same generative laws as
their test counterparts: refG from the cone law, refQ from the query
law (new latents plus query noise plus the offset).

Generation is single-threaded and fully determined by the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .embio import EmbeddingSet, _check_count
from .simgraph import _mm, unit_rows

MODALITY_GAP = 1.4
"""Length of the shared query-side offset along the cone axis.

Fixed rather than configurable: it models a structural property of
paired encoders (the two modalities' cones do not coincide), not a
noise scale a caller would sweep.  The value leaves single-digit
percent of queries captured by central gallery rows at the default
noise scales, which is the regime where correction is demonstrable.
"""


@dataclass
class ConeConfig:
    """Dataset shape and noise scales.

    Args:
        n_items: paired gallery/query count.
        n_ref: rows in each reference set.
        dim: embedding dimension.
        cone_spread: typical length of the isotropic perturbation around
            the axis (per-coordinate std is cone_spread/sqrt(dim)).
        query_noise: typical length of the perturbation between an item
            and its matched query, scaled the same way.
        seed: RNG seed.
    """

    n_items: int = 200
    n_ref: int = 1000
    dim: int = 32
    cone_spread: float = 0.15
    query_noise: float = 0.1
    seed: int = 7

    def __post_init__(self):
        self.n_items = _check_count("n_items", self.n_items, 2)
        self.n_ref = _check_count("n_ref", self.n_ref, 2)
        self.dim = _check_count("dim", self.dim, 2)
        if not (math.isfinite(self.cone_spread) and self.cone_spread > 0):
            raise ValueError(f"cone_spread must be finite and > 0, got {self.cone_spread}")
        if not (math.isfinite(self.query_noise) and self.query_noise >= 0):
            raise ValueError(f"query_noise must be finite and >= 0, got {self.query_noise}")
        self.seed = _check_count("seed", self.seed, 0)


def generate_cone_dataset(cfg: ConeConfig):
    """Build (G, Q, refG, refQ, rel) with rel mapping query i to gallery i.

    Each set is built in its own normal draw z, in place: scaled by the
    per-coordinate std c, offset by the axis (a query set by its latent,
    then by MODALITY_GAP * axis) and divided by its row norms.  So the
    only other array alive is the latent a query set is drawn around.
    The steps are those of normalize(axis + c*z) and
    normalize(latent + c*z + MODALITY_GAP*axis), left to right, with the
    two operands of each sum or product swapped, which leaves a float
    result's bits as they are.
    """
    rng = np.random.default_rng(cfg.seed)
    axis = rng.standard_normal(cfg.dim)
    axis /= np.sqrt(_mm(axis[None, :], axis[:, None])[0, 0])
    gap = MODALITY_GAP * axis
    root_dim = math.sqrt(cfg.dim)

    def cone_rows(count: int) -> np.ndarray:
        z = rng.standard_normal((count, cfg.dim))
        z *= cfg.cone_spread / root_dim
        z += axis
        return unit_rows(z, out=z)

    def query_rows(latent: np.ndarray) -> np.ndarray:
        z = rng.standard_normal(latent.shape)
        z *= cfg.query_noise / root_dim
        z += latent
        z += gap
        return unit_rows(z, out=z)

    latent = cone_rows(cfg.n_items)
    G = EmbeddingSet([f"g{i}" for i in range(cfg.n_items)], latent)
    Q = EmbeddingSet([f"q{i}" for i in range(cfg.n_items)], query_rows(latent))
    refG = EmbeddingSet([f"rg{i}" for i in range(cfg.n_ref)], cone_rows(cfg.n_ref))
    refQ = EmbeddingSet([f"rq{i}" for i in range(cfg.n_ref)], query_rows(cone_rows(cfg.n_ref)))
    rel = {f"q{i}": {f"g{i}"} for i in range(cfg.n_items)}
    return G, Q, refG, refQ, rel
