"""Extension norm: block operator norm plus an l1 sum of nuclear norms.

The base algebra carries the maximum over blocks of the operator norm (the
C*-direct-sum norm); this makes each minimal left ideal isometric to a
Euclidean column space, so the projective tensor norm of every off-diagonal
coordinate block has a closed form, the nuclear norm (sum of singular
values).  The pair norm of an extension element is the algebra norm of the
algebra part plus the l1 sum of the per-pair nuclear norms.  Every audit
here is seed-deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .algebra import (
    _COMPLEX_BYTES,
    _GRAM_MAX_SIDE,
    AlgebraSpec,
    _chunk_size,
    _gram_eigenvalues,
    _require_budget,
    _shape_stacks,
    block_operator_norm,
)
from .algebra import largest_singular_value as a_norm
from .tensor import BElement, _assemble, _cut, aj_pairs
from .tensor import multiply_B  # unused here, but perfbench/tracing.py binds it by name

A_NORM_MODEL = "max-block-operator-norm"

# Working set of one audit sample: 12 complex entries per entry of an N x N
# matrix (the draws, the block matrices and their products, the stacked
# norms) plus 2000 bytes per ordered block pair for the array objects of the
# coordinate dicts.  A child process's peak RSS (getrusage, one BLAS thread),
# the interpreter included, on one-sample audits at the largest admitted
# sizes: 206 MiB at (1182,), 209 MiB at (591, 591), 210 MiB at (394, 394,
# 394), 209 MiB at (30,) * 39, 226 MiB at (10,) * 112, 221 MiB at (2,) * 311
# and 215 MiB at (1,) * 349.  At 1200 bytes per pair (1,) * 439 was admitted
# and peaked at 365 MiB.
_AUDIT_ARRAYS = 12
_PAIR_BYTES = 2000


# Relative error allowed to the nuclear norm of a block taken from its Gram
# eigenvalues; a block whose rounding bound exceeds it takes the SVD.
_GRAM_RTOL = 1e-12


def pair_nuclear_norm(m: np.ndarray) -> np.floating | np.ndarray:
    """Sum of singular values, the projective norm between Euclidean factors.

    Leading axes of m, if any, index a stack of matrices, one norm each.
    The sum is taken as sum_i sqrt(lam_i) over the eigenvalues of the
    matrix's Gram G where a rounding bound allows it: an eigenvalue is taken
    to be within eps = (max(m, n) + 2 min(m, n)) u tr(G) of the exact one
    (Weyl, with the Gram's rounding bound, Higham, Accuracy and Stability of
    Numerical Algorithms, 3.5 and 3.6, and 2 min(m, n) u tr(G) for the
    backward error of eigvalsh, for which LAPACK states only a modest p(n)),
    so its root is within min(sqrt(eps), eps / sigma_i), and the sum of
    these must stay within _GRAM_RTOL of the norm.  The bound is a heuristic,
    checked against the SVD in the tests up to the shape cuts below.  The
    matrices that fail it, rank-deficient or ill-conditioned ones, take one
    SVD call between them, and so does a stack whose matrices' shorter side
    exceeds _GRAM_MAX_SIDE.
    """
    m = np.asarray(m, dtype=complex)
    k, long = sorted(m.shape[-2:])
    width = (long + 2 * k) * 2.0**-53  # eps / tr(G)
    # sum_i sigma_i <= sqrt(k tr G) and each root's bound is at least
    # eps / sigma_1 >= width sqrt(tr G), so with sqrt(k) width above
    # _GRAM_RTOL no matrix of this shape but 0 meets the bound
    if k > _GRAM_MAX_SIDE or np.sqrt(k) * width > _GRAM_RTOL:
        return np.sum(np.linalg.svd(m, compute_uv=False), axis=-1)
    flat = m.reshape(-1, *m.shape[-2:])
    lam, exp = _gram_eigenvalues(flat)
    sigma = np.sqrt(lam)
    norms = np.sum(sigma, axis=-1)
    eps = width * np.sum(lam, axis=-1)
    root = np.sqrt(eps)[:, None]
    err = np.divide(eps[:, None], np.maximum(sigma, root), out=np.zeros_like(sigma), where=root > 0)
    loose = np.sum(err, axis=-1) > _GRAM_RTOL * norms
    norms = np.ldexp(norms, exp)
    if loose.any():
        norms[loose] = np.sum(np.linalg.svd(flat[loose], compute_uv=False), axis=-1)
    return norms.reshape(m.shape[:-2])[()]


def _nuclear_norms(terms: dict) -> np.ndarray:
    """Nuclear norm of every coordinate block, in key order along the last
    axis, from one pair_nuclear_norm call per block shape (stacks allowed)."""
    mats = list(terms.values())
    if not mats:
        return np.zeros(0)
    norms = np.empty(mats[0].shape[:-2] + (len(mats),))
    for places, stack in _shape_stacks(mats):
        norms[..., places] = np.moveaxis(pair_nuclear_norm(stack), 0, -1)
    return norms


def _key_order_sum(norms: np.ndarray) -> float | np.ndarray:
    """Sum along the last axis, one term at a time in key order, as a loop
    over the keys adds them."""
    return np.cumsum(norms, axis=-1)[..., -1] if norms.shape[-1] else 0.0


def _tensor_l1(terms: dict) -> float | np.ndarray:
    """l1 sum of the per-pair nuclear norms, in key order (stacks allowed)."""
    return _key_order_sum(_nuclear_norms(terms))


def _pair_norm(blocks, terms: dict) -> float | np.ndarray:
    """Algebra norm plus l1 tensor norm of coordinate blocks (stacks allowed)."""
    return block_operator_norm(blocks) + _tensor_l1(terms)


@dataclass(frozen=True)
class NormReport:
    a_norm: float
    u_l1: float
    total: float
    per_pair: dict[tuple[int, int], float]


def b_norm(x: BElement) -> NormReport:
    """Pair norm of an extension element: algebra part plus l1 tensor part."""
    norms = _nuclear_norms(x.u.terms)
    per_pair = dict(zip(x.u.terms, norms.tolist()))
    u_l1 = float(_key_order_sum(norms))
    an = a_norm(x.a)
    return NormReport(a_norm=an, u_l1=u_l1, total=an + u_l1, per_pair=per_pair)


def _ratio(product_norm, left, right) -> np.ndarray:
    """product / (left right) elementwise, and 0 where a factor norm is 0."""
    nonzero = (left != 0.0) & (right != 0.0)
    return np.where(nonzero, product_norm / np.where(nonzero, left * right, 1.0), 0.0)


@dataclass(frozen=True)
class NormAudit:
    """Worst observed ratios for the submultiplicativity obligations."""

    tensor_times_algebra: float  # |ub|_1 <= |u|_1 |b|_A
    algebra_times_tensor: float  # |av|_1 <= |v|_1 |a|_A
    tensor_times_tensor: float  # combined bound for pure tensor products
    full_pairs: float

    @property
    def worst_ratio(self) -> float:
        return max(
            self.tensor_times_algebra,
            self.algebra_times_tensor,
            self.tensor_times_tensor,
            self.full_pairs,
        )


def _audit_chunk(spec: AlgebraSpec) -> int:
    """Samples per chunk of an audit; raises TooLarge, before anything is
    drawn, when the working set of one sample exceeds the memory budget."""
    entry_bytes = _AUDIT_ARRAYS * spec.matrix_size**2 * _COMPLEX_BYTES
    sample_bytes = entry_bytes + _PAIR_BYTES * spec.num_blocks**2
    _require_budget(f"one norm-audit sample of {spec.block_dims}", sample_bytes)
    return _chunk_size(entry_bytes)


def _draw_stacks(rng: np.random.Generator, count: int, shapes: list[tuple[int, int]]):
    """Stacks of standard complex normal matrices, `count` deep, one per shape.

    One sample draws its matrices in the order of `shapes`, each as
    `sampling._cnormal` draws it: all real parts, then all imaginary parts.
    Consecutive normal draws form one stream, so taking every sample of the
    stack from one call gives the same matrices as drawing them one by one.
    A run of consecutive shapes that agree is split from one array, and the
    normals are released before the stacks are used.
    """
    z = rng.normal(size=(count, 2 * sum(r * c for r, c in shapes)))
    stacks, pos = [], 0
    for shape, group in itertools.groupby(shapes):
        k, size = len(list(group)), shape[0] * shape[1]
        parts = z[:, pos : pos + 2 * k * size].reshape(count, k, 2, *shape).swapaxes(0, 1)
        pos += 2 * k * size
        # matrix-major, so that each stack is contiguous, and in one buffer
        run = np.multiply(1j, parts[:, :, 1], out=np.empty((k, count, *shape), dtype=complex))
        stacks.extend(np.add(parts[:, :, 0], run, out=run))
    return stacks


def submultiplicativity_audit(
    spec: AlgebraSpec, samples: int = 1000, seed: int = 42
) -> NormAudit:
    """Draw seeded random pairs and report the worst norm ratio per family.

    Families: tensor times algebra element, algebra element times tensor,
    pure tensor products (their combined algebra-plus-tensor output norm),
    and unrestricted extension pairs.  A submultiplicative norm keeps every
    ratio at most one.

    Each sample draws tensors u and v, algebra elements x and y, and
    extension elements s and t, in that order, as the generators of
    `shoda.sampling` would.  The samples are audited on stacks, a chunk at
    a time, through the block layout of `multiply_B` and the norms of
    `b_norm`.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    chunk = _audit_chunk(spec)
    rng = np.random.default_rng(seed)
    dims, pairs = spec.block_dims, aj_pairs(spec)
    element_shapes = [(n, n) for n in dims]
    tensor_shapes = [(dims[i], dims[j]) for i, j in pairs]
    shapes = 2 * tensor_shapes + 2 * element_shapes + 2 * (element_shapes + tensor_shapes)

    worst_ub = worst_av = worst_uv = worst_full = 0.0
    for start in range(0, samples, chunk):
        count = min(chunk, samples - start)
        draws = iter(_draw_stacks(rng, count, shapes))
        u = {p: next(draws) for p in pairs}
        v = {p: next(draws) for p in pairs}
        x = [next(draws) for _ in dims]
        y = [next(draws) for _ in dims]
        s_a, s_u = [next(draws) for _ in dims], {p: next(draws) for p in pairs}
        t_a, t_u = [next(draws) for _ in dims], {p: next(draws) for p in pairs}
        # each factor is placed once; the full pairs go first, so that the
        # placed s and t are released before u and v are placed
        st = _pair_norm(*_cut(dims, _assemble(dims, s_a, s_u) @ _assemble(dims, t_a, t_u)))
        ratio = _ratio(st, _pair_norm(s_a, s_u), _pair_norm(t_a, t_u))
        worst_full = max(worst_full, float(np.max(ratio)))
        # with one block there are no tensors, so the first three ratios are 0
        if pairs:
            u_l1, v_l1 = _tensor_l1(u), _tensor_l1(v)
            u, v = _assemble(dims, (), u), _assemble(dims, (), v)
            ub = _tensor_l1(_cut(dims, u @ _assemble(dims, x, {}))[1])
            worst_ub = max(worst_ub, float(np.max(_ratio(ub, u_l1, block_operator_norm(x)))))
            av = _tensor_l1(_cut(dims, _assemble(dims, y, {}) @ v)[1])
            worst_av = max(worst_av, float(np.max(_ratio(av, v_l1, block_operator_norm(y)))))
            uv = _pair_norm(*_cut(dims, u @ v))
            worst_uv = max(worst_uv, float(np.max(_ratio(uv, u_l1, v_l1))))
    return NormAudit(
        tensor_times_algebra=worst_ub,
        algebra_times_tensor=worst_av,
        tensor_times_tensor=worst_uv,
        full_pairs=worst_full,
    )


def isometry_check(spec: AlgebraSpec, samples: int = 100, seed: int = 42) -> float:
    """Max relative gap between the norm of an algebra element and the
    operator norm of its image in M_N under the full-matrix identification
    of `shoda.tensor`.  It places block i on the diagonal, so the
    embedding of the algebra must be isometric.  Samples are drawn and
    checked on stacks, a chunk at a time."""
    chunk = _audit_chunk(spec)
    rng = np.random.default_rng(seed)
    shapes = [(n, n) for n in spec.block_dims]
    worst = 0.0
    for start in range(0, samples, chunk):
        count = min(chunk, samples - start)
        x = _draw_stacks(rng, count, shapes)
        nx = block_operator_norm(x)
        # the image by LAPACK's SVD, so that the check also compares the
        # Gram route of block_operator_norm with an independent one
        image = np.linalg.svd(_assemble(spec.block_dims, x, {}), compute_uv=False)[..., 0]
        gap = np.abs(image - nx) / np.maximum(nx, 1e-300)
        worst = max(worst, float(np.max(gap)))
    return worst
