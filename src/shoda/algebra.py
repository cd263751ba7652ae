"""Block-diagonal semisimple algebras over the complex numbers.

An algebra here is a finite direct sum of full matrix blocks; an element is
one square complex matrix per block, multiplied blockwise.  On top of the
plain arithmetic this module provides the spectral machinery used everywhere
else: spectrum with multiplicities, spectral trace and rank, Riesz
projections by the matrix sign function, and idempotent-valued paths between
rank-one projections of one minimal ideal.

All values are immutable after construction.  Operations are pure functions
of their inputs plus an explicit seed where randomness is involved, so
concurrent use is safe.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    ContourTooTight,
    DifferentMinimalIdeal,
    NoSuchSpectralValue,
    NotAProjection,
    NumericalFailure,
    PathDegenerate,
    ShapeMismatch,
    TooLarge,
)

DEFAULT_TOL = 1e-9

# Newton steps allowed for the sign of one block; the determinant-scaled
# iteration took at most 8 on seeded blocks up to n = 256, defective ones too
_SIGN_STEPS = 50
_PERTURB_RETRIES = 16
# A projection-path sample v w^H / (w^H v) lies off the exceptional set when
# |w^H v| > _PAIRING_FLOOR |v| |w|.  The floor is fixed: the caller's tol is
# a rank cut and says nothing about how close to a pole a sample may be.
_PAIRING_FLOOR = 1e-9

# memory budget of one call; every size guard checks its working-set model
# against it through _require_budget before allocating or reading anything
_BUDGET_BYTES = 2**28
_COMPLEX_BYTES = np.dtype(complex).itemsize  # the unit of the working-set models
# Stacked work (audit samples, path samples) is taken in chunks of about this
# many bytes; larger chunks were no faster and only raised the peak memory.
_CHUNK_BYTES = 2**20
# Working set of a path in complex entries: per coordinate of the algebra for
# the endpoints, their checks and SVDs, and per entry of the arc's block for
# each sample of a stack.  A child process's peak RSS (wait4, one BLAS
# thread), the interpreter included, with two samples gave 9.5 entries per
# coordinate on [1365] (270 MiB) and 9.65 on [1295], the largest block
# admitted (247 MiB, also with three).  Blocks cost nothing beyond their
# entries: two random endpoints and two samples peak at 112 MiB on
# (1,) * 1677721 and 103 MiB on (2,) * 419430, the most blocks admitted.
_PATH_ARRAYS = 10


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

    def describe(self) -> str:
        """The block sizes, or for many blocks their count, N and dim."""
        if self.num_blocks <= 8:
            return str(self.block_dims)
        return f"{self.num_blocks} blocks (N = {self.matrix_size}, dim = {self.dim})"

    @functools.cached_property
    def runs(self) -> tuple[tuple[int, int, int, int], ...]:
        """The consecutive runs of equal block sizes, each as (first block,
        block count, block size, place of its first coordinate)."""
        runs, first, start = [], 0, 0
        for n, group in itertools.groupby(self.block_dims):
            runs.append((first, count := len(list(group)), n, start))
            first, start = first + count, start + count * n * n
        return tuple(runs)

    def run_views(self, vector: np.ndarray) -> tuple[np.ndarray, ...]:
        """One (count, n, n) view of a coordinate vector per run."""
        return tuple(vector[o : o + c * n * n].reshape(c, n, n) for _, c, n, o in self.runs)

    def offset(self, block: int) -> int:
        """Place of the first coordinate of a block in an element's vector."""
        first, _, n, start = next(run for run in self.runs if block < run[0] + run[1])
        return start + (block - first) * n * n

    def zero(self) -> "Element":
        return Element(self, vector=np.zeros(self.dim, dtype=complex))

    def identity(self) -> "Element":
        return Element(self, tuple(np.eye(n, dtype=complex) for n in self.block_dims))

    def matrix_unit(self, block: int, row: int, col: int) -> "Element":
        """The element that is E_{row,col} in the given block and zero elsewhere."""
        vector = np.zeros(self.dim, dtype=complex)
        vector[self.offset(block) + row * self.block_dims[block] + col] = 1.0
        return Element(self, vector=vector)

    def canonical_projections(self) -> tuple["Element", ...]:
        """One rank-one projection per block: the first diagonal matrix unit."""
        return tuple(self.matrix_unit(i, 0, 0) for i in range(self.num_blocks))

    def basis(self) -> Iterator["Element"]:
        """All matrix units, block by block, rows before columns."""
        for i, n in enumerate(self.block_dims):
            for k in range(n):
                for l in range(n):
                    yield self.matrix_unit(i, k, l)


@dataclass(frozen=True, eq=False, init=False)
class Element:
    """A member of a block algebra: one complex matrix per block, held as one
    read-only coordinate vector, block by block, each block row-major.
    blocks and runs are views of it: each block, and each run of equal
    blocks as (count, n, n)."""

    spec: AlgebraSpec
    vector: np.ndarray

    def __init__(self, spec: AlgebraSpec, blocks: Sequence[np.ndarray] = (), vector=None):
        """The element with these blocks, copied into one vector, or with this
        complex coordinate vector, kept without a copy."""
        if vector is None:
            shapes = [np.shape(m) for m in blocks]
            if shapes != [(n, n) for n in spec.block_dims]:
                raise ValueError(f"blocks of shapes {shapes} for the blocks of {spec.describe()}")
            vector = np.concatenate([np.ravel(m) for m in blocks], dtype=complex)
        vector.setflags(write=False)
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "vector", vector)

    @functools.cached_property
    def runs(self) -> tuple[np.ndarray, ...]:
        return self.spec.run_views(self.vector)

    @functools.cached_property
    def blocks(self) -> tuple[np.ndarray, ...]:
        return tuple(m for run in self.runs for m in run)

    def block(self, i: int) -> np.ndarray:
        n, start = self.spec.block_dims[i], self.spec.offset(i)
        return self.vector[start : start + n * n].reshape(n, n)

    def _require_same_spec(self, other: "Element"):
        if self.spec != other.spec:
            raise ShapeMismatch(f"{self.spec.block_dims} vs {other.spec.block_dims}")

    def __add__(self, other: "Element") -> "Element":
        self._require_same_spec(other)
        return Element(self.spec, vector=self.vector + other.vector)

    def __sub__(self, other: "Element") -> "Element":
        self._require_same_spec(other)
        return Element(self.spec, vector=self.vector - other.vector)

    def __neg__(self) -> "Element":
        return Element(self.spec, vector=-self.vector)

    def __mul__(self, other):
        if isinstance(other, Element):
            return multiply(self, other)
        return Element(self.spec, vector=complex(other) * self.vector)

    def __rmul__(self, scalar) -> "Element":
        return Element(self.spec, vector=complex(scalar) * self.vector)


def multiply(a: Element, b: Element) -> Element:
    """Blockwise matrix product, the algebra multiplication: one matmul per run."""
    a._require_same_spec(b)
    out = np.empty(a.spec.dim, dtype=complex)
    for x, y, z in zip(a.runs, b.runs, a.spec.run_views(out)):
        np.matmul(x, y, out=z)
    return Element(a.spec, vector=out)


def commutator(a: Element, b: Element) -> Element:
    return multiply(a, b) - multiply(b, a)


# A chunk whose nonzero real and imaginary parts all have a binary exponent
# within this bound has a Gram that neither overflows nor underflows; any
# other chunk is scaled matrix by matrix.
_GRAM_SAFE_EXPONENT = 480
# Blocks whose shorter side exceeds this take the SVD for their norms.  On
# stacks of 400 Gaussian k x k blocks (one BLAS thread) the Gram route took
# 0.46 to 0.83 of the SVD's time for k from 2 to 10, and 0.97 to 1.14 from
# 12 to 24, where noise blocks, such as a decomposition residual's, fail the
# nuclear norm's rounding bound and pay both.
_GRAM_MAX_SIDE = 10


def frobenius(a: Element) -> float:
    """Frobenius norm across all blocks, the blocks' sums of squares added in
    block order.  When the largest modulus lies outside 2**-481 to 2**480,
    the moduli are first scaled by the power of two that brings it into
    [1/2, 1), so that their squares neither overflow nor underflow."""
    moduli = np.abs(a.vector)
    e = int(np.frexp(moduli.max())[1])
    if abs(e) > _GRAM_SAFE_EXPONENT:
        moduli = np.ldexp(moduli, -e)
    else:
        e = 0
    sums = np.concatenate([run.sum(axis=(1, 2)) for run in a.spec.run_views(moduli**2)])
    return math.ldexp(math.sqrt(np.cumsum(sums)[-1]), e)


def _gram_eigenvalues(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues lam of the Gram matrix of the shorter side of each matrix
    of a stack (m x n, leading axes index the stack), ascending and clipped
    at 0, and one exponent e per matrix: the singular values are
    2**e sqrt(lam).  e is 0 unless a nonzero real or imaginary part in the
    matrix's chunk lies outside 2**-481 to 2**480; then each matrix of the chunk
    is scaled by the power of two 2**-e that brings its largest real or
    imaginary part into [1/2, 1) before its Gram is formed, so the Gram
    neither overflows nor underflows on finite input.  The scaling is exact,
    so within range it changes no bit of the singular values.  One eigvalsh
    call per chunk of the stack of about _CHUNK_BYTES; an order-1 Gram is
    its own eigenvalue.  Each chunk is made contiguous first, so a matrix
    gets the same values as a view, alone or in any stack."""
    flat = stack.reshape(-1, *stack.shape[-2:])
    step = _chunk_size(_COMPLEX_BYTES * flat.shape[-2] * flat.shape[-1])
    lam = np.empty((len(flat), min(flat.shape[-2:])))
    exp = np.zeros(len(flat), dtype=np.int32)
    for lo in range(0, len(flat), step):
        a = np.ascontiguousarray(flat[lo : lo + step], dtype=complex)
        powers = np.frexp(a.view(float))[1]
        if max(powers.max(), -powers.min()) > _GRAM_SAFE_EXPONENT:
            e = exp[lo : lo + step] = np.frexp(np.max(np.abs(a.view(float)), axis=(-2, -1)))[1]
            a = np.ldexp(a.view(float), -e[:, None, None]).view(complex)
        ah = a.conj().swapaxes(-1, -2)
        gram = ah @ a if a.shape[-2] > a.shape[-1] else a @ ah
        lam[lo : lo + step] = gram[:, 0, :1].real if gram.shape[-1] == 1 else np.linalg.eigvalsh(gram)
    np.maximum(lam, 0.0, out=lam)
    return lam.reshape(stack.shape[:-2] + lam.shape[-1:]), exp.reshape(stack.shape[:-2])


def block_operator_norm(runs) -> np.ndarray:
    """Max over blocks of the largest singular value.

    Each run is a (..., count, m, n) stack of count blocks of one shape;
    leading axes, if any, index a stack of elements, one norm each.  A run
    takes one Gram eigensolve, or one SVD call past _GRAM_MAX_SIDE; the root
    of the largest Gram eigenvalue agrees with LAPACK's SVD to within 1e-14
    relative on the tested blocks, from 1 x 1 to 10 x 2828 and 1 x 9000.
    """
    tops = []
    for run in runs:
        if min(run.shape[-2:]) > _GRAM_MAX_SIDE:
            tops.append(np.linalg.svd(run, compute_uv=False)[..., 0])
        else:
            lam, exp = _gram_eigenvalues(run)
            tops.append(np.ldexp(np.sqrt(lam[..., -1]), exp))
    return np.max(np.concatenate(tops, axis=-1), axis=-1)


def largest_singular_value(a: Element) -> float:
    """Operator norm of the element: max over blocks of the largest singular value."""
    return float(block_operator_norm(a.runs))


def allclose(a: Element, b: Element, tol: float = 1e-12) -> bool:
    a._require_same_spec(b)
    return np.allclose(a.vector, b.vector, rtol=0.0, atol=tol)


def block_traces(a: Element) -> np.ndarray:
    """Trace of each block, one call per run."""
    return np.concatenate([run.diagonal(axis1=-2, axis2=-1).sum(axis=-1) for run in a.runs])


def trace(a: Element) -> complex:
    """Spectral trace, the sum of the block traces in block order."""
    return complex(np.cumsum(block_traces(a))[-1])


def _all_eigenvalues(a: Element) -> np.ndarray:
    try:
        return np.concatenate([np.linalg.eigvals(run).ravel() for run in a.runs])
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigensolver failed: {exc}") from exc


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


def _block_ranks(runs, tol: float) -> np.ndarray:
    """Rank of each block, the block the last axis: its singular values above
    tol times the largest of the element.  Runs as block_operator_norm takes
    them, one SVD call each, of its nonzero blocks."""
    svals = []
    for run in runs:
        nonzero = run.any(axis=(-2, -1))
        s = np.zeros(run.shape[:-1])
        if nonzero.all():  # no copy of a run whose blocks are all nonzero
            s = np.linalg.svd(run, compute_uv=False)
        elif nonzero.any():
            s[nonzero] = np.linalg.svd(run[nonzero], compute_uv=False)
        svals.append(s)
    thr = tol * np.max(np.concatenate([s[..., 0] for s in svals], axis=-1), axis=-1)
    return np.concatenate([np.sum(s > thr[..., None, None], axis=-1) for s in svals], axis=-1)


def rank(a: Element, tol: float = DEFAULT_TOL) -> int:
    """Spectral rank; realized as the sum of the block matrix ranks."""
    return int(_block_ranks(a.runs, tol).sum())


def riesz_projection(a: Element, value: complex, tol: float = DEFAULT_TOL) -> Element:
    """Spectral idempotent of an isolated nonzero spectral value.

    The projection onto the spectrum inside the circle about the value of
    radius half the gap to the nearest other spectral value, as (I + sign X)/2
    of the element's Cayley image X: the determinant-scaled Newton iteration
    (Roberts 1980; Higham, Functions of Matrices, ch. 5) needs no eigenvectors.
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

    out = []
    for m in a.blocks:
        n = m.shape[0]
        eye = np.eye(n, dtype=complex)
        b = (m - center * eye) / contour
        # the Cayley map sends eigenvalues inside the contour to Re > 0 and
        # those outside to Re < 0, so P = (I + sign x) / 2
        x = np.linalg.solve(eye - b, eye + b)
        for _ in range(_SIGN_STEPS):
            mu = np.exp(-np.linalg.slogdet(x)[1] / n)
            x, last = (mu * x + np.linalg.inv(x) / mu) / 2, x
            if np.linalg.norm(x - last, 1) <= n * 1e-14 * np.linalg.norm(x, 1):
                break
        else:
            raise NumericalFailure(f"the sign iteration at {value} took over {_SIGN_STEPS} steps")
        out.append((eye + x) / 2)
    return Element(a.spec, tuple(out))


def _rank_one_block(ranks: np.ndarray) -> np.ndarray:
    """Block index of the unique minimal two-sided ideal containing a rank-one
    element with these block ranks (the last axis; leading axes index a
    stack); NotAProjection for any other rank."""
    r = np.sum(ranks, axis=-1)
    if np.any(r != 1):
        raise NotAProjection(f"rank is {np.extract(r != 1, r)[0]}, need 1")
    return np.argmax(ranks, axis=-1)


def _shared_minimal_ideal(p: Element, q: Element, tol: float):
    """Check that p and q are rank-one projections of one minimal ideal; return
    its block index, each one's block split as v w^H with w^H v = 1, and the
    two idempotency residuals.  One SVD call per run gives the ranks and the
    block, one more of the block gives v; the factors of p are dropped before
    q is factorized, so that those of only one endpoint are alive at a time."""
    residuals = [frobenius(multiply(x, x) - x) for x in (p, q)]
    for x, res in zip((p, q), residuals):
        if res > tol * (1.0 + frobenius(x)):
            raise NotAProjection(f"idempotency residual {res}")

    def split(x: Element):
        i = int(_rank_one_block(_block_ranks(x.runs, tol)))
        m = x.block(i)
        v = np.linalg.svd(m)[0][:, 0].copy()  # a view would keep all of u alive along the path
        return i, (v, v.conj() @ m)

    (ip, split_p), (iq, split_q) = split(p), split(q)
    if ip != iq:
        raise DifferentMinimalIdeal(f"blocks {ip} and {iq}")
    return ip, split_p, split_q, residuals


def _path_chunk(spec: AlgebraSpec) -> int:
    """Samples per stack of a path in a one-block spec; raises TooLarge,
    before anything is drawn, when the working set of one sample of the
    whole spec exceeds the memory budget."""
    entry_bytes = _PATH_ARRAYS * spec.dim * _COMPLEX_BYTES
    _require_budget(f"one path sample of {spec.describe()}", entry_bytes)
    return _chunk_size(entry_bytes)


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
    ip, _, stacks = _projection_arc(p, q, samples, tol, seed)
    zero = p.spec.zero().blocks
    path = [Element(p.spec, zero[:ip] + (m,) + zero[ip + 1 :]) for stack in stacks for m in stack]
    path[0] = p
    if samples > 1:
        path[-1] = q
    return path


def _projection_arc(
    p: Element, q: Element, samples: int, tol: float, seed: int
) -> tuple[int, list[float], Iterator[np.ndarray]]:
    """The samples of projection_path on linspace(0, 1, samples) in the block
    ip of the endpoints' minimal ideal, every other block being zero: returns
    ip, the idempotency residuals of p and q, and the samples' ip blocks as
    stacks of that n x n block, the sample index first, each of about
    _CHUNK_BYTES of working set.  The endpoints' ip blocks are exactly as given.

    A sample on the exceptional set is pushed off the real axis by a seeded
    perturbation, at most _PERTURB_RETRIES times, one sample at a time in
    index order.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    _path_chunk(p.spec)  # the guard alone: TooLarge before the endpoints are read
    ip, (v_p, w_p), (v_q, w_q), residuals = _shared_minimal_ideal(p, q, tol)
    n = p.spec.block_dims[ip]
    chunk = _chunk_size(_PATH_ARRAYS * n * n * _COMPLEX_BYTES)
    ends = {0: p.block(ip)} if samples == 1 else {0: p.block(ip), samples - 1: q.block(ip)}

    def sample_at(ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The arc at each parameter of ts, and which samples are off the
        exceptional set."""
        t = ts[:, None]
        v = (1.0 - t) * v_p + t * v_q
        w = (1.0 - t) * w_p + t * w_q
        denom = (w[:, None, :] @ v[:, :, None])[:, 0, 0]
        scale = np.linalg.norm(v, axis=1) * np.linalg.norm(w, axis=1)
        ok = np.abs(denom) > _PAIRING_FLOOR * np.maximum(scale, 1e-300)
        stack = np.zeros((len(ts), n, n), dtype=complex)
        np.divide(
            v[:, :, None] * w[:, None, :], denom[:, None, None],
            out=stack, where=ok[:, None, None],
        )
        return stack, ok

    def stacks() -> Iterator[np.ndarray]:
        rng = np.random.default_rng(seed)
        step = 1.0 / max(samples - 1, 1)  # linspace's; the last sample is q as given
        for lo in range(0, samples, chunk):
            grid = np.arange(lo, min(lo + chunk, samples)) * step
            stack, ok = sample_at(grid)
            for s_idx, m in ends.items():
                if lo <= s_idx < lo + chunk:
                    ok[s_idx - lo] = True
                    stack[s_idx - lo] = m
            for j in np.flatnonzero(~ok):
                for _ in range(_PERTURB_RETRIES):
                    t = grid[j] + 1j * (rng.uniform(0.05, 0.5) / samples)
                    retry, retry_ok = sample_at(np.array([t]))
                    if retry_ok[0]:
                        break
                else:
                    raise PathDegenerate(f"sample {lo + j} stuck on the exceptional set")
                stack[j] = retry[0]
            yield stack

    return ip, residuals, stacks()
