"""Kronecker block index maps (Section II-A of the paper).

For a block-structured index space with block size ``n_B``, the paper defines
(1-based) maps ``alpha``, ``beta``, ``gamma`` between a product-graph vertex
``p`` and its factor coordinates ``(i, k)``:

.. math::

    \\alpha_n(p) = \\lfloor (p-1)/n \\rfloor + 1, \\quad
    \\beta_n(p)  = ((p-1) \\bmod n) + 1, \\quad
    \\gamma_n(x, y) = (x-1) n + y.

The library works 0-based throughout, where the maps collapse to plain
floor-division / modulo: ``alpha(p) = p // n``, ``beta(p) = p % n``,
``gamma(i, k) = i * n + k``.  The 1-based paper forms are provided with an
``_1b`` suffix for documentation parity and cross-checking.

All maps are vectorized over numpy arrays.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

import numpy as np

from repro.errors import VertexIdOverflowError

__all__ = [
    "product_vertex_count",
    "alpha",
    "beta",
    "gamma",
    "split",
    "combine_edges",
    "alpha_1b",
    "beta_1b",
    "gamma_1b",
]


def product_vertex_count(sizes: Iterable[int]) -> int:
    """Vertex count of the product of factors with ``sizes`` vertices.

    Raises :class:`~repro.errors.VertexIdOverflowError` when the count
    reaches ``2**63``: the product's int64 vertex ids would wrap.
    """
    sizes = [int(s) for s in sizes]
    n = math.prod(sizes)
    if n >= 1 << 63:
        raise VertexIdOverflowError(
            f"product of factor sizes {sizes} has {n} vertices; int64 "
            f"vertex ids allow at most 2**63 - 1"
        )
    return n


def alpha(p: np.ndarray | int, n: int) -> np.ndarray:
    """Block number of 0-based index ``p`` with block size ``n``: ``p // n``."""
    return np.asarray(p, dtype=np.int64) // np.int64(n)


def beta(p: np.ndarray | int, n: int) -> np.ndarray:
    """Intra-block index of 0-based ``p`` with block size ``n``: ``p % n``."""
    return np.asarray(p, dtype=np.int64) % np.int64(n)


def gamma(i: np.ndarray | int, k: np.ndarray | int, n: int) -> np.ndarray:
    """Inverse map: ``(i, k) -> i * n + k`` (0-based)."""
    return np.asarray(i, dtype=np.int64) * np.int64(n) + np.asarray(k, dtype=np.int64)


def split(p: np.ndarray | int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(alpha(p, n), beta(p, n))`` in one call via divmod."""
    q, r = np.divmod(np.asarray(p, dtype=np.int64), np.int64(n))
    return q, r


def combine_edges(
    src_a: np.ndarray,
    dst_a: np.ndarray,
    src_b: np.ndarray,
    dst_b: np.ndarray,
    n_b: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Map factor edge pairs to product edges (Def. 1, entrywise form).

    Given aligned arrays where row ``t`` pairs factor-A edge
    ``(src_a[t], dst_a[t])`` with factor-B edge ``(src_b[t], dst_b[t])``,
    returns the product edges
    ``(gamma(src_a, src_b), gamma(dst_a, dst_b))``.
    """
    return gamma(src_a, src_b, n_b), gamma(dst_a, dst_b, n_b)


# --------------------------------------------------------------------- #
# 1-based forms exactly as printed in the paper (for cross-checking)
# --------------------------------------------------------------------- #
def alpha_1b(i: np.ndarray | int, n: int) -> np.ndarray:
    """Paper's ``alpha_n(i) = floor((i-1)/n) + 1`` on 1-based indices."""
    return (np.asarray(i, dtype=np.int64) - 1) // np.int64(n) + 1


def beta_1b(i: np.ndarray | int, n: int) -> np.ndarray:
    """Paper's ``beta_n(i) = ((i-1) % n) + 1`` on 1-based indices."""
    return (np.asarray(i, dtype=np.int64) - 1) % np.int64(n) + 1


def gamma_1b(x: np.ndarray | int, y: np.ndarray | int, n: int) -> np.ndarray:
    """Paper's ``gamma_n(x, y) = (x-1) n + y`` on 1-based indices."""
    return (np.asarray(x, dtype=np.int64) - 1) * np.int64(n) + np.asarray(
        y, dtype=np.int64
    )
