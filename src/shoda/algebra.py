"""Block-diagonal semisimple algebras over the complex numbers.

An algebra here is a finite direct sum of full matrix blocks; an element is
one square complex matrix per block, multiplied blockwise.  On top of the
plain arithmetic this module provides the spectral machinery used everywhere
else: spectrum with multiplicities, spectral trace and rank, Riesz
projections by resolvent quadrature, separating elements for families of
rank-one elements, the block index of the minimal ideal containing a rank-one
element, conjugation between rank-one projections of the same minimal ideal,
idempotent-valued paths between such projections, isomorphisms of minimal
left ideals, and rank-preserving paths between equal-rank elements.

All values are immutable after construction.  Operations are pure functions
of their inputs plus an explicit seed where randomness is involved, so
concurrent use is safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .errors import (
    ContourTooTight,
    DependentInputs,
    DifferentMinimalIdeal,
    NoSuchSpectralValue,
    NotAProjection,
    NotRankOne,
    NotShodaComplete,
    NumericalFailure,
    PathDegenerate,
    RankMismatch,
    ShapeMismatch,
    ZeroElement,
)

DEFAULT_TOL = 1e-9

_CONTOUR_POINTS = 256
_PERTURB_RETRIES = 16


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

    def offsets(self) -> tuple[int, ...]:
        """Row/column offset of each block inside the full matrix picture."""
        out, acc = [], 0
        for n in self.block_dims:
            out.append(acc)
            acc += n
        return tuple(out)

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


def largest_singular_value(a: Element) -> float:
    """Operator norm of the element: max over blocks of the largest singular value."""
    return max(
        float(np.linalg.svd(m, compute_uv=False)[0]) if m.size else 0.0 for m in a.blocks
    )


def flatten(a: Element) -> np.ndarray:
    """Coordinate vector of an element: each block row-major, block by block."""
    return np.concatenate([m.ravel() for m in a.blocks])


def unflatten(spec: AlgebraSpec, vec: np.ndarray) -> Element:
    """The element whose coordinates are the leading spec.dim entries of vec."""
    blocks, pos = [], 0
    for n in spec.block_dims:
        blocks.append(vec[pos : pos + n * n].reshape(n, n))
        pos += n * n
    return Element(spec, tuple(blocks))


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

    @property
    def nonzero_count(self) -> int:
        """Number of distinct nonzero spectral values."""
        return len(self.nonzero)


def spectrum(a: Element, tol: float = DEFAULT_TOL) -> SpectrumReport:
    """Union of block eigenvalues; values within tol of each other (relative to
    the largest singular value) are merged into one entry with summed
    multiplicity, and the nonzero part keeps entries above the same threshold.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    scale = largest_singular_value(a)
    radius = tol * max(scale, 1.0)
    clusters = _cluster(_all_eigenvalues(a), radius)
    clusters.sort(key=lambda cm: (-abs(cm[0]), cm[0].real, cm[0].imag))
    nonzero = tuple((v, m) for v, m in clusters if abs(v) > tol * scale)
    return SpectrumReport(eigenvalues=tuple(clusters), nonzero=nonzero)


def _block_ranks(a: Element, tol: float) -> tuple[int, ...]:
    """Rank of each block, counting singular values above tol times the
    largest singular value of the whole element."""
    svals = [np.linalg.svd(m, compute_uv=False) for m in a.blocks]
    thr = tol * max(float(s[0]) for s in svals)
    return tuple(int(np.sum(s > thr)) for s in svals)


def rank(a: Element, tol: float = DEFAULT_TOL) -> int:
    """Spectral rank; realized as the sum of the block matrix ranks."""
    return sum(_block_ranks(a, tol))


def riesz_projection(a: Element, value: complex, tol: float = DEFAULT_TOL) -> Element:
    """Spectral idempotent of an isolated nonzero spectral value.

    Computed by trapezoid quadrature of the resolvent on a circle centred at
    the value, with radius half the gap to the nearest other spectral value.
    The trapezoid rule converges exponentially for this analytic integrand.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    scale = largest_singular_value(a)
    match_radius = tol * (1.0 + scale)
    if abs(value) <= tol:
        raise NoSuchSpectralValue(f"{value} is not in the nonzero spectrum")
    clusters = _cluster(_all_eigenvalues(a), tol * max(scale, 1.0))
    centers = [c for c, _ in clusters]
    dists = [abs(value - c) for c in centers]
    hit = int(np.argmin(dists))
    if dists[hit] > match_radius:
        raise NoSuchSpectralValue(f"{value} not within {match_radius} of the spectrum")
    center = centers[hit]
    others = [c for j, c in enumerate(centers) if j != hit]
    if others:
        gap = min(abs(center - c) for c in others)
        if gap < 4.0 * tol * max(scale, 1.0):
            raise ContourTooTight(f"nearest spectral value at distance {gap}")
        radius = gap / 2.0
    else:
        radius = max(abs(center) / 2.0, 1.0)

    angles = 2.0 * np.pi * np.arange(_CONTOUR_POINTS) / _CONTOUR_POINTS
    nodes = center + radius * np.exp(1j * angles)
    out = []
    for m in a.blocks:
        n = m.shape[0]
        acc = np.zeros((n, n), dtype=complex)
        eye = np.eye(n)
        for z in nodes:
            acc += np.linalg.solve(z * eye - m, eye) * (z - center)
        out.append(acc / _CONTOUR_POINTS)
    return Element(a.spec, tuple(out))


def separating_element(
    b: Element, others: Sequence[Element], tol: float = DEFAULT_TOL
) -> Element:
    """An element y with Tr(b y) nonzero and Tr(a y) zero for every a in others.

    For rank-one c the spectrum of c y is {0} exactly when Tr(c y) vanishes,
    so y separates b from the others spectrally.  Solved as the minimum-norm
    solution of the linear system of trace functionals.
    """
    family = [b, *others]
    for x in family:
        if rank(x, tol) != 1:
            raise NotRankOne("separating element needs rank-one inputs")
    rows = np.stack([np.concatenate([m.T.ravel() for m in x.blocks]) for x in family])
    s = np.linalg.svd(rows, compute_uv=False)
    if s[-1] <= tol * s[0]:
        raise DependentInputs("trace functionals of the inputs are dependent")
    rhs = np.zeros(len(family), dtype=complex)
    rhs[0] = 1.0
    y_vec, *_ = np.linalg.lstsq(rows, rhs, rcond=None)
    return unflatten(b.spec, y_vec)


def minimal_ideal_index(q: Element, tol: float = DEFAULT_TOL) -> int:
    """Block index of the unique minimal two-sided ideal containing a rank-one element."""
    r = rank(q, tol)
    if r == 0:
        raise ZeroElement("zero element lies in every ideal")
    if r != 1:
        raise NotRankOne(f"rank is {r}")
    scale = largest_singular_value(q)
    live = [i for i, m in enumerate(q.blocks) if np.abs(m).max() > tol * scale]
    return live[0]


def _check_rank_one_projection(p: Element, tol: float):
    res = frobenius(multiply(p, p) - p)
    if res > tol * (1.0 + frobenius(p)):
        raise NotAProjection(f"idempotency residual {res}")
    r = rank(p, tol)
    if r != 1:
        raise NotAProjection(f"rank is {r}, need 1")


def _shared_minimal_ideal(p: Element, q: Element, tol: float) -> int:
    """Block index of the minimal ideal holding both rank-one projections."""
    _check_rank_one_projection(p, tol)
    _check_rank_one_projection(q, tol)
    ip, iq = minimal_ideal_index(p, tol), minimal_ideal_index(q, tol)
    if ip != iq:
        raise DifferentMinimalIdeal(f"blocks {ip} and {iq}")
    return ip


def _idempotent_frame(m: np.ndarray):
    """Invertible matrix whose first column spans the image of the rank-one
    idempotent m and whose remaining columns span its kernel."""
    u, s, vh = np.linalg.svd(m)
    img = u[:, :1]
    ker = vh[1:, :].conj().T
    return np.concatenate([img, ker], axis=1)


def conjugate_projections(p: Element, q: Element, tol: float = DEFAULT_TOL) -> Element:
    """An invertible u with u p u^{-1} = q, for rank-one projections in the
    same minimal ideal.  Raises DifferentMinimalIdeal across orthogonal ideals,
    where no such u exists.
    """
    ip = _shared_minimal_ideal(p, q, tol)
    if all((x == y).all() for x, y in zip(p.blocks, q.blocks)):
        return p.spec.identity()
    frame_p = _idempotent_frame(p.blocks[ip])
    frame_q = _idempotent_frame(q.blocks[ip])
    u_block = frame_q @ np.linalg.inv(frame_p)
    blocks = [np.eye(n, dtype=complex) for n in p.spec.block_dims]
    blocks[ip] = u_block
    return Element(p.spec, tuple(blocks))


def _rank_one_factors(m: np.ndarray):
    """Split a rank-one idempotent as v w^H with w^H v = 1."""
    u, s, vh = np.linalg.svd(m)
    v = u[:, 0]
    w_h = v.conj() @ m
    return v, w_h


def _sampled_arc(
    start: Element, end: Element, samples: int,
    sample_at: Callable[[complex], Optional[Element]], seed: int, stuck: str,
) -> list[Element]:
    """Samples of an arc on linspace(0, 1, samples), endpoints exactly as given.

    sample_at returns None on the exceptional set; such a sample is pushed
    off the real axis by a seeded perturbation, at most _PERTURB_RETRIES times.
    """
    rng = np.random.default_rng(seed)
    grid = np.linspace(0.0, 1.0, samples)
    path = [start]
    for s_idx in range(1, samples - 1):
        t = grid[s_idx]
        e = sample_at(t)
        retries = 0
        while e is None and retries < _PERTURB_RETRIES:
            e = sample_at(t + 1j * (rng.uniform(0.05, 0.5) / samples))
            retries += 1
        if e is None:
            raise PathDegenerate(f"sample {s_idx} {stuck}")
        path.append(e)
    if samples > 1:
        path.append(end)
    return path


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
    if samples < 1:
        raise ValueError("samples must be positive")
    ip = _shared_minimal_ideal(p, q, tol)
    v_p, w_p = _rank_one_factors(p.blocks[ip])
    v_q, w_q = _rank_one_factors(q.blocks[ip])
    spec = p.spec

    def sample_at(t: complex) -> Element | None:
        v = (1.0 - t) * v_p + t * v_q
        w = (1.0 - t) * w_p + t * w_q
        denom = w @ v
        if abs(denom) <= tol * max(np.linalg.norm(v) * np.linalg.norm(w), 1e-300):
            return None
        blocks = [np.zeros((n, n), dtype=complex) for n in spec.block_dims]
        blocks[ip] = np.outer(v, w) / denom
        return Element(spec, tuple(blocks))

    return _sampled_arc(p, q, samples, sample_at, seed, "stuck on the exceptional set")


@dataclass(frozen=True, eq=False)
class LeftIdealIsomorphism:
    """Conjugation map between the minimal left ideals of two rank-one
    projections, T(x p) = v (x p) v^{-1}, returned as conjugator plus evaluator."""

    conjugator: Element
    inverse: Element = field(repr=False)
    source: Element = field(repr=False)
    target: Element = field(repr=False)

    def __call__(self, xp: Element) -> Element:
        return multiply(multiply(self.conjugator, xp), self.inverse)


def left_ideal_isomorphism(p: Element, q: Element, tol: float = DEFAULT_TOL) -> LeftIdealIsomorphism:
    v = conjugate_projections(p, q, tol)
    v_inv = Element(v.spec, tuple(np.linalg.inv(m) for m in v.blocks))
    return LeftIdealIsomorphism(conjugator=v, inverse=v_inv, source=p, target=q)


def rank_preserving_path(
    a: Element,
    b: Element,
    n: int,
    samples: int,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
) -> list[Element]:
    """A sampled arc of constant-rank elements from a to b.

    Endpoints must both have rank n.  The arc interpolates rank-one factor
    matrices of each block, so every sample has rank at most n; rank drops
    only on a discrete exceptional set, dodged by seeded perturbation into
    the complex parameter plane.  Elements supported on different blocks of
    a multi-block algebra lie in different connected components, in which
    case no path exists and NotShodaComplete is raised.
    """
    a._require_same_spec(b)
    if samples < 1:
        raise ValueError("samples must be positive")
    ranks_a, ranks_b = _block_ranks(a, tol), _block_ranks(b, tol)
    if sum(ranks_a) != n or sum(ranks_b) != n:
        raise RankMismatch(f"ranks {sum(ranks_a)}, {sum(ranks_b)}; expected {n}")
    if ranks_a != ranks_b:
        if a.spec.num_blocks >= 2:
            raise NotShodaComplete(
                f"per-block ranks {ranks_a} vs {ranks_b}: the endpoints lie in "
                "different connected components"
            )
        raise RankMismatch(f"per-block ranks {ranks_a} vs {ranks_b}")

    factors = []
    for m_a, m_b, r in zip(a.blocks, b.blocks, ranks_a):
        if r == 0:
            factors.append(None)
            continue
        ua, sa, vha = np.linalg.svd(m_a)
        ub, sb, vhb = np.linalg.svd(m_b)
        xa = ua[:, :r] * np.sqrt(sa[:r])
        ya = (vha[:r, :].conj().T) * np.sqrt(sa[:r])
        xb = ub[:, :r] * np.sqrt(sb[:r])
        yb = (vhb[:r, :].conj().T) * np.sqrt(sb[:r])
        factors.append((xa, ya, xb, yb))

    spec = a.spec

    def sample_at(t: complex) -> Element | None:
        blocks = []
        for dim_i, fac in zip(spec.block_dims, factors):
            if fac is None:
                blocks.append(np.zeros((dim_i, dim_i), dtype=complex))
                continue
            xa, ya, xb, yb = fac
            x = (1.0 - t) * xa + t * xb
            y = (1.0 - t) * ya + t * yb
            g = x @ y.conj().T
            blocks.append(g)
        e = Element(spec, tuple(blocks))
        if _block_ranks(e, tol) != ranks_a:
            return None
        return e

    return _sampled_arc(a, b, samples, sample_at, seed, "stuck at deficient rank")
