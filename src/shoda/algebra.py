"""Block-diagonal semisimple algebras over the complex numbers.

An algebra here is a finite direct sum of full matrix blocks; an element is
one square complex matrix per block, multiplied blockwise.  On top of the
plain arithmetic this module provides the spectral machinery used everywhere
else: spectrum with multiplicities, spectral trace and rank, Riesz
projections by resolvent quadrature, and idempotent-valued paths between
rank-one projections of one minimal ideal.

All values are immutable after construction.  Operations are pure functions
of their inputs plus an explicit seed where randomness is involved, so
concurrent use is safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import (
    ContourTooTight,
    DifferentMinimalIdeal,
    NoSuchSpectralValue,
    NotAProjection,
    NotRankOne,
    NumericalFailure,
    PathDegenerate,
    ShapeMismatch,
    TooLarge,
    ZeroElement,
)

DEFAULT_TOL = 1e-9

_CONTOUR_POINTS = 256
_PERTURB_RETRIES = 16
# A projection-path sample v w^H / (w^H v) lies off the exceptional set when
# |w^H v| > _PAIRING_FLOOR |v| |w|.  The floor is fixed: the caller's tol is
# a rank cut and says nothing about how close to a pole a sample may be.
_PAIRING_FLOOR = 1e-9

# memory budget of one call; every size guard checks its working-set model
# against it through _require_budget before allocating or reading anything
_BUDGET_BYTES = 2**28
_COMPLEX_BYTES = np.dtype(complex).itemsize  # the unit of the working-set models
# Stacked work (audit samples, quadrature nodes, path samples) is taken in
# chunks of about this many bytes; larger chunks were no faster and only
# raised the peak memory.
_CHUNK_BYTES = 2**20
# Working set of one quadrature node, in n x n complex arrays: the shifted
# matrix, its temporary and the solution.
_NODE_ARRAYS = 3
# Working set of one path sample, in complex entries per coordinate of the
# algebra.  tracemalloc on one-sample chunks of `shoda path` gives about 5:
# the endpoints, then their checks and their one SVD each, or the previous
# sample, the new one and its outer-product temporary.  A child process's
# peak RSS (getrusage) on [1024] gives about 8, the LAPACK workspaces of the
# endpoints' SVDs included, which tracemalloc does not see.
_PATH_ARRAYS = 8


def _require_budget(what: str, nbytes: int):
    """Raise TooLarge when what needs more than the memory budget."""
    if nbytes > _BUDGET_BYTES:
        raise TooLarge(f"{what} needs {nbytes} bytes, over the budget of {_BUDGET_BYTES}")


def _chunk_size(item_bytes: int) -> int:
    """Items per chunk of stacked work, for items of item_bytes each."""
    return max(1, _CHUNK_BYTES // item_bytes)


@dataclass(frozen=True)
class AlgebraSpec:
    """Shape of a block algebra: the ordered list of block sizes."""

    block_dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(n) for n in self.block_dims)
        if len(dims) < 1:
            raise ValueError("need at least one block")
        if any(n < 1 for n in dims):
            raise ValueError(f"block dimensions must be positive, got {dims}")
        object.__setattr__(self, "block_dims", dims)

    @property
    def num_blocks(self) -> int:
        return len(self.block_dims)

    @property
    def dim(self) -> int:
        """Linear dimension of the algebra, sum of squared block sizes."""
        return sum(n * n for n in self.block_dims)

    @property
    def matrix_size(self) -> int:
        """Side length of the single matrix block the extension identifies with."""
        return sum(self.block_dims)

    def zero(self) -> "Element":
        return Element(self, tuple(np.zeros((n, n), dtype=complex) for n in self.block_dims))

    def identity(self) -> "Element":
        return Element(self, tuple(np.eye(n, dtype=complex) for n in self.block_dims))

    def matrix_unit(self, block: int, row: int, col: int) -> "Element":
        """The element that is E_{row,col} in the given block and zero elsewhere."""
        n = self.block_dims[block]
        m = np.zeros((n, n), dtype=complex)
        m[row, col] = 1.0
        blocks = [np.zeros((d, d), dtype=complex) for d in self.block_dims]
        blocks[block] = m
        return Element(self, tuple(blocks))

    def canonical_projections(self) -> tuple["Element", ...]:
        """One rank-one projection per block: the first diagonal matrix unit."""
        return tuple(self.matrix_unit(i, 0, 0) for i in range(self.num_blocks))

    def basis(self) -> Iterator["Element"]:
        """All matrix units, block by block, rows before columns."""
        for i, n in enumerate(self.block_dims):
            for k in range(n):
                for l in range(n):
                    yield self.matrix_unit(i, k, l)

    def from_blocks(self, blocks: Sequence[np.ndarray]) -> "Element":
        return Element(self, tuple(np.asarray(b, dtype=complex) for b in blocks))


@dataclass(frozen=True, eq=False)
class Element:
    """A member of a block algebra: one complex matrix per block."""

    spec: AlgebraSpec
    blocks: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.blocks) != self.spec.num_blocks:
            raise ValueError("block count does not match the algebra")
        frozen = []
        for mat, n in zip(self.blocks, self.spec.block_dims):
            arr = np.array(mat, dtype=complex)
            if arr.shape != (n, n):
                raise ValueError(f"block of shape {arr.shape}, expected ({n}, {n})")
            arr.setflags(write=False)
            frozen.append(arr)
        object.__setattr__(self, "blocks", tuple(frozen))

    def _require_same_spec(self, other: "Element"):
        if self.spec != other.spec:
            raise ShapeMismatch(f"{self.spec.block_dims} vs {other.spec.block_dims}")

    def __add__(self, other: "Element") -> "Element":
        self._require_same_spec(other)
        return Element(self.spec, tuple(a + b for a, b in zip(self.blocks, other.blocks)))

    def __sub__(self, other: "Element") -> "Element":
        self._require_same_spec(other)
        return Element(self.spec, tuple(a - b for a, b in zip(self.blocks, other.blocks)))

    def __neg__(self) -> "Element":
        return Element(self.spec, tuple(-a for a in self.blocks))

    def __mul__(self, other):
        if isinstance(other, Element):
            return multiply(self, other)
        return Element(self.spec, tuple(complex(other) * a for a in self.blocks))

    def __rmul__(self, scalar) -> "Element":
        return Element(self.spec, tuple(complex(scalar) * a for a in self.blocks))


def multiply(a: Element, b: Element) -> Element:
    """Blockwise matrix product, the algebra multiplication."""
    a._require_same_spec(b)
    return Element(a.spec, tuple(x @ y for x, y in zip(a.blocks, b.blocks)))


def commutator(a: Element, b: Element) -> Element:
    return multiply(a, b) - multiply(b, a)


def frobenius(a: Element) -> float:
    """Frobenius norm across all blocks."""
    return float(np.sqrt(sum(np.sum(np.abs(m) ** 2) for m in a.blocks)))


def _shape_stacks(mats: list) -> list[tuple[list[int], np.ndarray]]:
    """The matrices stacked by shape along a new first axis, one stack per
    shape in order of first appearance, each with the places of its members
    in mats; a lone matrix is stacked as a view."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for q, m in enumerate(mats):
        groups.setdefault(m.shape, []).append(q)
    return [
        (places, mats[places[0]][None] if len(places) == 1 else np.array([mats[q] for q in places]))
        for places in groups.values()
    ]


def block_operator_norm(blocks) -> np.ndarray:
    """Max over blocks of the largest singular value.

    Leading axes of the blocks, if any, index a stack of elements, one norm
    each.  The blocks of one shape share one SVD call.
    """
    tops = [np.linalg.svd(stack, compute_uv=False)[..., 0] for _, stack in _shape_stacks(list(blocks))]
    return np.max(np.concatenate(tops), axis=0)


def largest_singular_value(a: Element) -> float:
    """Operator norm of the element: max over blocks of the largest singular value."""
    return float(block_operator_norm(a.blocks))


def flatten(a: Element) -> np.ndarray:
    """Coordinate vector of an element: each block row-major, block by block."""
    return np.concatenate([m.ravel() for m in a.blocks])


def allclose(a: Element, b: Element, tol: float = 1e-12) -> bool:
    a._require_same_spec(b)
    return all(np.allclose(x, y, rtol=0.0, atol=tol) for x, y in zip(a.blocks, b.blocks))


def trace(a: Element) -> complex:
    """Spectral trace; for block matrices this is the sum of the block traces."""
    return complex(sum(np.trace(m) for m in a.blocks))


def _all_eigenvalues(a: Element) -> np.ndarray:
    values = []
    for m in a.blocks:
        try:
            values.append(np.linalg.eigvals(m))
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure(f"eigensolver failed: {exc}") from exc
    return np.concatenate(values)


def _cluster(values: np.ndarray, radius: float) -> list[tuple[complex, int]]:
    """Greedy single-linkage clustering of complex values; returns (mean, count)."""
    remaining = list(values)
    clusters: list[tuple[complex, int]] = []
    while remaining:
        seed_val = remaining.pop(0)
        members = [seed_val]
        changed = True
        while changed:
            changed = False
            for v in remaining[:]:
                if any(abs(v - m) <= radius for m in members):
                    members.append(v)
                    remaining.remove(v)
                    changed = True
        clusters.append((complex(np.mean(members)), len(members)))
    return clusters


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues with algebraic multiplicities, plus the nonzero sublist."""

    eigenvalues: tuple[tuple[complex, int], ...]
    nonzero: tuple[tuple[complex, int], ...]

    @property
    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.eigenvalues)


def spectrum(a: Element, tol: float = DEFAULT_TOL) -> SpectrumReport:
    """Union of block eigenvalues; values within tol of each other (relative to
    the largest singular value) are merged into one entry with summed
    multiplicity, and the nonzero part keeps entries above the same threshold.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    radius = tol * largest_singular_value(a)
    clusters = _cluster(_all_eigenvalues(a), radius)
    clusters.sort(key=lambda cm: (-abs(cm[0]), cm[0].real, cm[0].imag))
    nonzero = tuple((v, m) for v, m in clusters if abs(v) > radius)
    return SpectrumReport(eigenvalues=tuple(clusters), nonzero=nonzero)


def _svd_ranks(svals: Sequence[np.ndarray], tol: float) -> np.ndarray:
    """Rank of each block from its descending singular values: those above tol
    times the largest of the whole element.  The last axis is the block, and
    leading axes of the values, if any, index a stack of elements."""
    thr = tol * np.max([s[..., 0] for s in svals], axis=0)
    return np.stack([np.sum(s > thr[..., None], axis=-1) for s in svals], axis=-1)


def _block_ranks(blocks: Sequence[np.ndarray], tol: float) -> np.ndarray:
    """_svd_ranks of the blocks, one SVD call per block for a whole stack; an
    all-zero block has zero singular values without one."""
    return _svd_ranks(
        [np.linalg.svd(m, compute_uv=False) if m.any() else np.zeros(m.shape[:-1]) for m in blocks],
        tol,
    )


def rank(a: Element, tol: float = DEFAULT_TOL) -> int:
    """Spectral rank; realized as the sum of the block matrix ranks."""
    return int(_block_ranks(a.blocks, tol).sum())


def riesz_projection(a: Element, value: complex, tol: float = DEFAULT_TOL) -> Element:
    """Spectral idempotent of an isolated nonzero spectral value.

    Computed by trapezoid quadrature of the resolvent on a circle centred at
    the value, with radius half the gap to the nearest other spectral value.
    The trapezoid rule converges exponentially for this analytic integrand.
    """
    return _riesz_from_clusters(a, value, tol, spectrum(a, tol).eigenvalues)


def _riesz_from_clusters(
    a: Element, value: complex, tol: float, clusters: Sequence[tuple[complex, int]]
) -> Element:
    """riesz_projection on the clusters of spectrum(a, tol), which a caller
    projecting onto several values computes once."""
    # the merge radius of spectrum(a, tol), the one relative threshold
    radius = tol * largest_singular_value(a)
    if abs(value) <= radius:
        raise NoSuchSpectralValue(f"{value} is not in the nonzero spectrum")
    centers = [c for c, _ in clusters]
    dists = [abs(value - c) for c in centers]
    hit = int(np.argmin(dists))
    if dists[hit] > radius:
        raise NoSuchSpectralValue(f"{value} not within {radius} of the spectrum")
    center = centers[hit]
    others = [c for j, c in enumerate(centers) if j != hit]
    if others:
        gap = min(abs(center - c) for c in others)
        if gap < 4.0 * radius:
            raise ContourTooTight(f"nearest spectral value at distance {gap}")
        contour = gap / 2.0
    else:
        contour = max(abs(center) / 2.0, 1.0)

    angles = 2.0 * np.pi * np.arange(_CONTOUR_POINTS) / _CONTOUR_POINTS
    nodes = center + contour * np.exp(1j * angles)
    weights = nodes - center
    out = []
    for m in a.blocks:
        n = m.shape[0]
        acc = np.zeros((n, n), dtype=complex)
        eye = np.eye(n, dtype=complex)
        chunk = _chunk_size(_NODE_ARRAYS * m.nbytes)
        for lo in range(0, _CONTOUR_POINTS, chunk):
            shifted = nodes[lo : lo + chunk, None, None] * eye - m
            # the right-hand side has the stack's shape: numpy 1.x reads a b
            # with one axis fewer than a as a stack of vectors
            resolvents = np.linalg.solve(shifted, np.broadcast_to(eye, shifted.shape))
            # term by term in node order, as a sum of single solves adds them
            for resolvent, weight in zip(resolvents, weights[lo : lo + chunk]):
                acc += resolvent * weight
        out.append(acc / _CONTOUR_POINTS)
    return Element(a.spec, tuple(out))


def _rank_one_block(ranks: np.ndarray) -> int:
    """Block index of the unique minimal two-sided ideal containing a rank-one
    element with these block ranks."""
    r = int(ranks.sum())
    if r == 0:
        raise ZeroElement("zero element lies in every ideal")
    if r != 1:
        raise NotRankOne(f"rank is {r}")
    return int(np.argmax(ranks))


def _shared_minimal_ideal(p: Element, q: Element, tol: float):
    """Check that p and q are rank-one projections of one minimal ideal; return
    its block index and each one's block m split as v w^H with w^H v = 1.
    One SVD per block gives the ranks, the block and v; the factors of p are
    dropped before q is factorized, so that the n x n factors of only one
    endpoint are alive at a time."""
    for x in (p, q):
        res = frobenius(multiply(x, x) - x)
        if res > tol * (1.0 + frobenius(x)):
            raise NotAProjection(f"idempotency residual {res}")

    def split(x: Element):
        svds = [np.linalg.svd(m) for m in x.blocks]
        ranks = _svd_ranks([s for _, s, _ in svds], tol)
        if ranks.sum() != 1:
            raise NotAProjection(f"rank is {ranks.sum()}, need 1")
        i = int(np.argmax(ranks))
        v = svds[i][0][:, 0].copy()  # a view would keep all of u alive along the path
        return i, (v, v.conj() @ x.blocks[i])

    (ip, split_p), (iq, split_q) = split(p), split(q)
    if ip != iq:
        raise DifferentMinimalIdeal(f"blocks {ip} and {iq}")
    return ip, split_p, split_q


def _path_chunk(spec: AlgebraSpec) -> int:
    """Samples per stack of a path; raises TooLarge, before anything is
    drawn, when the working set of one sample exceeds the memory budget."""
    sample_bytes = _PATH_ARRAYS * spec.dim * _COMPLEX_BYTES
    _require_budget(f"one path sample of {spec.block_dims}", sample_bytes)
    return _chunk_size(sample_bytes)


def _sampled_arc(
    start: Element, end: Element, samples: int,
    sample_at: Callable[[np.ndarray], tuple[list[np.ndarray], np.ndarray]],
    seed: int, chunk: int,
) -> Iterator[list[np.ndarray]]:
    """Samples of an arc on linspace(0, 1, samples), endpoints exactly as
    given, in stacks of at most chunk samples: one array per block with the
    sample index first.

    sample_at(ts) evaluates the arc at each parameter of ts, as such stacks,
    and flags the samples off the exceptional set.  A sample on it is pushed
    off the real axis by a seeded perturbation, at most _PERTURB_RETRIES
    times, one sample at a time in index order.
    """
    rng = np.random.default_rng(seed)
    grid = np.linspace(0.0, 1.0, samples)
    ends = {0: start.blocks} if samples == 1 else {0: start.blocks, samples - 1: end.blocks}
    for lo in range(0, samples, chunk):
        blocks, ok = sample_at(grid[lo : lo + chunk])
        for s_idx, matrices in ends.items():
            if lo <= s_idx < lo + chunk:
                ok[s_idx - lo] = True
                _set_sample(blocks, s_idx - lo, matrices)
        for j in np.flatnonzero(~ok):
            for _ in range(_PERTURB_RETRIES):
                t = grid[lo + j] + 1j * (rng.uniform(0.05, 0.5) / samples)
                retry, retry_ok = sample_at(np.array([t]))
                if retry_ok[0]:
                    break
            else:
                raise PathDegenerate(f"sample {lo + j} stuck on the exceptional set")
            _set_sample(blocks, j, [stack[0] for stack in retry])
        yield blocks


def _set_sample(blocks: list[np.ndarray], j: int, matrices: Sequence[np.ndarray]):
    """Write sample j of a stack.  A loop in _sampled_arc itself would leave
    its loop variable holding a block of the previous stack while the next
    one is evaluated."""
    for stack, m in zip(blocks, matrices):
        stack[j] = m


def projection_path(
    p: Element,
    q: Element,
    samples: int,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
) -> list[Element]:
    """A sampled arc of rank-one idempotents from p to q inside one minimal ideal.

    The arc is the normalized rank-one pencil g(t) = f(t) / Tr(f(t)) built
    from image and coimage vectors of the endpoints.  The exceptional set
    where the trace vanishes is discrete, so samples that land on it are
    pushed off the real axis by a seeded perturbation (at most 16 retries);
    endpoints are returned exactly as given.
    """
    return [
        Element(p.spec, tuple(stack[k] for stack in blocks))
        for blocks in _projection_arc(p, q, samples, tol, seed)
        for k in range(len(blocks[0]))
    ]


def _projection_arc(
    p: Element, q: Element, samples: int, tol: float, seed: int
) -> Iterator[list[np.ndarray]]:
    """The samples of projection_path, as stacks of _path_chunk samples."""
    if samples < 1:
        raise ValueError("samples must be positive")
    chunk = _path_chunk(p.spec)
    ip, (v_p, w_p), (v_q, w_q) = _shared_minimal_ideal(p, q, tol)
    spec = p.spec

    def sample_at(ts: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
        t = ts[:, None]
        v = (1.0 - t) * v_p + t * v_q
        w = (1.0 - t) * w_p + t * w_q
        denom = (w[:, None, :] @ v[:, :, None])[:, 0, 0]
        scale = np.linalg.norm(v, axis=1) * np.linalg.norm(w, axis=1)
        ok = np.abs(denom) > _PAIRING_FLOOR * np.maximum(scale, 1e-300)
        blocks = [np.zeros((len(ts), n, n), dtype=complex) for n in spec.block_dims]
        np.divide(
            v[:, :, None] * w[:, None, :], denom[:, None, None],
            out=blocks[ip], where=ok[:, None, None],
        )
        return blocks, ok

    return _sampled_arc(p, q, samples, sample_at, seed, chunk)
