"""Similarity functions between event and user attribute vectors.

The paper measures a user's interest in an event with Eq. (1):

    sim(l_v, l_u) = 1 - ||l_v - l_u||_2 / sqrt(d * T^2)

where attributes live in ``[0, T]^d`` and ``sqrt(d * T^2)`` is the largest
possible Euclidean distance, so sim is always in ``[0, 1]``. The paper
notes other similarity functions are applicable; we also ship cosine and
(negated, rescaled) dot-product similarities for the extension benchmarks.

All functions here are vectorised: given event attributes ``(|V|, d)`` and
user attributes ``(|U|, d)`` they return the full ``(|V|, |U|)`` matrix.
:func:`similarity_tiles` computes one rectangular block of that matrix
bit-identically (the tile kernel every array-backed solver substrate pulls
cache-friendly blocks through, and what lets the service grow its
similarity buffer by new rows and columns only).
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

SimilarityFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _pairwise_euclidean(event_attrs: np.ndarray, user_attrs: np.ndarray) -> np.ndarray:
    """Pairwise Euclidean distances, shape ``(|V|, |U|)``.

    Uses the expanded form ||a-b||^2 = ||a||^2 + ||b||^2 - 2 a.b so the
    whole matrix is three vectorised contractions instead of a Python
    loop. The cross term deliberately uses ``einsum`` rather than ``@``:
    BLAS matmul picks its accumulation order per matrix *shape*, which
    breaks the tiling contract (a tile must equal the same block of the
    full matrix bit-for-bit), while einsum's fixed contraction order is
    shape-independent.
    """
    ev_sq = np.einsum("ij,ij->i", event_attrs, event_attrs)
    us_sq = np.einsum("ij,ij->i", user_attrs, user_attrs)
    sq = ev_sq[:, None] + us_sq[None, :] - 2.0 * np.einsum(
        "id,jd->ij", event_attrs, user_attrs
    )
    np.maximum(sq, 0.0, out=sq)
    return np.sqrt(sq)


def euclidean_similarity(
    event_attrs: np.ndarray, user_attrs: np.ndarray, t: float
) -> np.ndarray:
    """The paper's Eq. (1) similarity for attributes in ``[0, T]^d``.

    Args:
        event_attrs: Array of shape ``(|V|, d)``.
        user_attrs: Array of shape ``(|U|, d)``.
        t: The attribute range bound ``T`` (> 0).

    Returns:
        Matrix of shape ``(|V|, |U|)`` with values in ``[0, 1]``.
    """
    if t <= 0:
        raise ValueError(f"attribute bound T must be positive, got {t}")
    d = event_attrs.shape[1]
    max_dist = np.sqrt(d * t * t)
    sims = 1.0 - _pairwise_euclidean(event_attrs, user_attrs) / max_dist
    return np.clip(sims, 0.0, 1.0)


def cosine_similarity(event_attrs: np.ndarray, user_attrs: np.ndarray) -> np.ndarray:
    """Cosine similarity clipped to ``[0, 1]``.

    Zero vectors get similarity 0 against everything (an entity with no
    attributes expresses no interest).
    """
    ev_norm = np.linalg.norm(event_attrs, axis=1)
    us_norm = np.linalg.norm(user_attrs, axis=1)
    denom = ev_norm[:, None] * us_norm[None, :]
    # einsum, not @: shape-independent accumulation keeps tiles
    # bit-identical to full-matrix blocks (see _pairwise_euclidean).
    dots = np.einsum("id,jd->ij", event_attrs, user_attrs)
    with np.errstate(divide="ignore", invalid="ignore"):
        sims = np.where(denom > 0, dots / np.where(denom > 0, denom, 1.0), 0.0)
    return np.clip(sims, 0.0, 1.0)


def scaled_dot_similarity(event_attrs: np.ndarray, user_attrs: np.ndarray) -> np.ndarray:
    """Dot product rescaled by its maximum so values land in ``[0, 1]``."""
    dots = event_attrs @ user_attrs.T
    peak = dots.max() if dots.size else 0.0
    if peak <= 0:
        return np.zeros_like(dots)
    return np.clip(dots / peak, 0.0, 1.0)


def similarity_matrix(
    event_attrs: np.ndarray,
    user_attrs: np.ndarray,
    t: float,
    metric: str = "euclidean",
) -> np.ndarray:
    """Dispatch to a named similarity metric.

    Args:
        metric: ``euclidean`` (the paper's Eq. 1), ``cosine``, or ``dot``.
    """
    event_attrs = np.asarray(event_attrs, dtype=np.float64)
    user_attrs = np.asarray(user_attrs, dtype=np.float64)
    if metric == "euclidean":
        return euclidean_similarity(event_attrs, user_attrs, t)
    if metric == "cosine":
        return cosine_similarity(event_attrs, user_attrs)
    if metric == "dot":
        return scaled_dot_similarity(event_attrs, user_attrs)
    raise ValueError(f"unknown similarity metric {metric!r}")


#: Metrics whose entries depend only on the one (event, user) pair, so a
#: tile equals the same block of the full matrix bit-for-bit. ``dot``
#: normalises by the *global* matrix peak and is excluded.
TILEABLE_METRICS = frozenset({"euclidean", "cosine"})


def similarity_tiles(
    event_attrs: np.ndarray,
    user_attrs: np.ndarray,
    t: float,
    events_slice: slice | np.ndarray,
    users_slice: slice | np.ndarray,
    metric: str = "euclidean",
) -> np.ndarray:
    """One rectangular block of the similarity matrix.

    Returns ``similarity_matrix(event_attrs, user_attrs, ...)`` restricted
    to ``[events_slice, users_slice]`` without materialising the rest.
    Because the supported metrics are per-pair local, the block is
    bit-identical to slicing the full matrix -- the property the kernel
    equivalence suite pins down.

    Args:
        events_slice: A slice or integer index array over events.
        users_slice: A slice or integer index array over users.
        metric: One of :data:`TILEABLE_METRICS` (``dot`` rescales by the
            global peak and cannot be tiled).
    """
    if metric not in TILEABLE_METRICS:
        raise ValueError(
            f"metric {metric!r} is not tileable (entries depend on the "
            f"whole matrix); tileable metrics: {sorted(TILEABLE_METRICS)}"
        )
    event_attrs = np.asarray(event_attrs, dtype=np.float64)
    user_attrs = np.asarray(user_attrs, dtype=np.float64)
    return similarity_matrix(
        event_attrs[events_slice], user_attrs[users_slice], t, metric
    )


def top_k_descending(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` largest values, ordered by (value desc, index asc).

    Exactly the first ``k`` entries of ``np.argsort(-values,
    kind="stable")`` -- including under ties -- but computed with an O(n)
    ``argpartition`` plus an O(k log k) sort, so consumers that only ever
    look at a prefix (Greedy-GEACC's candidate cursors) never pay for the
    full sort. Ties *at the selection boundary* are repaired explicitly:
    a plain argpartition may keep an arbitrary subset of boundary-tied
    entries, which would break digest-identity with the scalar path.
    """
    n = values.shape[0]
    if k >= n:
        return np.argsort(-values, kind="stable")
    if k <= 0:
        return np.empty(0, dtype=np.intp)
    part = np.argpartition(-values, k - 1)[:k]
    boundary = values[part].min()
    strict = part[values[part] > boundary]
    # Fill remaining slots with the *lowest-index* boundary-tied entries.
    tied = np.flatnonzero(values == boundary)
    take = k - strict.shape[0]
    chosen = np.concatenate([strict, tied[:take]])
    # Order by (value desc, original index asc); a stable sort over the
    # argpartition output would tie-break by partition order instead.
    order = np.lexsort((chosen, -values[chosen]))
    return chosen[order]
