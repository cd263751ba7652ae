"""Seeded random generators for elements, tensors, and projections.

All draws go through an explicit numpy Generator so every caller is
deterministic given its seed.
"""

from __future__ import annotations

import numpy as np

from .algebra import AlgebraSpec, Element
from .tensor import AJElement, BElement, aj_pairs


def _cnormal(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def random_element(spec: AlgebraSpec, rng: np.random.Generator) -> Element:
    return Element(spec, tuple(_cnormal(rng, (n, n)) for n in spec.block_dims))


def random_traceless(spec: AlgebraSpec, rng: np.random.Generator) -> Element:
    """Standard complex normal blocks, recentred to total trace zero."""
    x = random_element(spec, rng)
    shift = sum(np.trace(m) for m in x.blocks) / spec.matrix_size
    return x - complex(shift) * spec.identity()


def random_aj(spec: AlgebraSpec, rng: np.random.Generator) -> AJElement:
    terms = {
        (i, j): _cnormal(rng, (spec.block_dims[i], spec.block_dims[j]))
        for i, j in aj_pairs(spec)
    }
    return AJElement(spec, terms)


def random_b(spec: AlgebraSpec, rng: np.random.Generator) -> BElement:
    return BElement(random_element(spec, rng), random_aj(spec, rng))


def random_rank_one_projection(
    spec: AlgebraSpec, block: int, rng: np.random.Generator
) -> Element:
    """A random (generally non-orthogonal) rank-one idempotent in one block."""
    n = spec.block_dims[block]
    if n == 1:
        return spec.matrix_unit(block, 0, 0)
    while True:
        v = _cnormal(rng, n)
        w = _cnormal(rng, n)
        pairing = w.conj() @ v
        if abs(pairing) > 0.2 * np.linalg.norm(v) * np.linalg.norm(w):
            break
    w = w / np.conj(pairing)
    blocks = [np.zeros((d, d), dtype=complex) for d in spec.block_dims]
    blocks[block] = np.outer(v, w.conj())
    return Element(spec, tuple(blocks))


def random_idempotent(
    spec: AlgebraSpec, block_ranks: tuple[int, ...], rng: np.random.Generator
) -> Element:
    """Idempotent with prescribed rank in each block, conjugated by a
    well-conditioned random similarity."""
    blocks = []
    for n, r in zip(spec.block_dims, block_ranks):
        if r == 0:
            blocks.append(np.zeros((n, n), dtype=complex))
            continue
        diag = np.diag(np.array([1.0] * r + [0.0] * (n - r), dtype=complex))
        while True:
            v = np.eye(n) + 0.35 * _cnormal(rng, (n, n))
            if np.linalg.cond(v) < 1e4:
                break
        blocks.append(v @ diag @ np.linalg.inv(v))
    return Element(spec, tuple(blocks))


def random_diagonalizable(
    spec: AlgebraSpec, rng: np.random.Generator, min_gap: float = 0.1
) -> Element:
    """Element with well-separated eigenvalues (pairwise and from zero) in
    every block, conjugated by a mildly non-normal similarity."""
    blocks = []
    for n in spec.block_dims:
        values: list[complex] = []
        while len(values) < n:
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if abs(z) < min_gap:
                continue
            if all(abs(z - w) >= min_gap for w in values):
                values.append(z)
        q, _ = np.linalg.qr(_cnormal(rng, (n, n)))
        v = q @ (np.eye(n) + 0.2 * _cnormal(rng, (n, n)))
        blocks.append(v @ np.diag(values) @ np.linalg.inv(v))
    return Element(spec, tuple(blocks))
