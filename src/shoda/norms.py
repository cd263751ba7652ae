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

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .algebra import (
    _COMPLEX_BYTES,
    _GRAM_MAX_SIDE,
    AlgebraSpec,
    _chunk_size,
    _gram_eigenvalues,
    _require_budget,
    block_operator_norm,
)
from .algebra import largest_singular_value as a_norm
from .tensor import BElement, _assemble, _cut, _pair_layout
from .tensor import multiply_B  # unused here, but perfbench/tracing.py binds it by name

A_NORM_MODEL = "max-block-operator-norm"

# Working set of one audit sample: 12 complex entries per entry of an N x N
# matrix (the draws, the block matrices and their products, the stacked
# norms) plus 100 bytes per ordered block pair for the index arrays of
# tensor._pair_layout and of the draws.  A child process's peak RSS (wait4,
# one BLAS thread), the interpreter included, on one-sample audits at the
# largest admitted sizes: 207 MiB at (1182,), 212 MiB at (591, 591), 207 MiB
# at (394, 394, 394), 211 MiB at (30,) * 39, 198 MiB at (10,) * 112, 216 MiB
# at (3,) * 383, 216 MiB at (2,) * 556 and 237 MiB at (1,) * 958, 79 bytes
# per pair over the entries on blocks of 1, where each entry is a pair.
_AUDIT_ARRAYS = 12
_PAIR_BYTES = 100


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


def _nuclear_norms(groups) -> np.ndarray:
    """Nuclear norm of every off-diagonal coordinate block, in aj_pairs order
    along the last axis up to the last one given, from one pair_nuclear_norm
    call per shape group of tensor._cut's form (stacks allowed); a pair left
    out of its group has norm 0."""
    if not groups:
        return np.zeros(0)
    norms = np.zeros(groups[0][1].shape[:-3] + (1 + max(places[-1] for places, _ in groups),))
    for places, stack in groups:
        norms[..., places] = pair_nuclear_norm(stack)
    return norms


def _key_order_sum(norms: np.ndarray) -> float | np.ndarray:
    """Sum along the last axis, one term at a time in key order, as a loop
    over the keys adds them."""
    return np.cumsum(norms, axis=-1)[..., -1] if norms.shape[-1] else 0.0


def _tensor_l1(groups) -> float | np.ndarray:
    """l1 sum of the per-pair nuclear norms, in key order (stacks allowed)."""
    return _key_order_sum(_nuclear_norms(groups))


def _pair_norm(runs, groups) -> float | np.ndarray:
    """Algebra norm plus l1 tensor norm of blocks in tensor._cut's form (stacks allowed)."""
    return block_operator_norm(runs) + _tensor_l1(groups)


@dataclass(frozen=True)
class NormReport:
    a_norm: float
    u_l1: float
    total: float
    per_pair: dict[tuple[int, int], float]


def b_norm(x: BElement) -> NormReport:
    """Pair norm of an extension element: algebra part plus l1 tensor part."""
    k = x.spec.num_blocks
    # the nonzero pairs' places in aj_pairs, where (i, j) is i (k - 1) + j - (j > i)
    places = np.array([i * (k - 1) + j - (j > i) for i, j in x.u.terms], dtype=np.intp)
    present = np.zeros(k * (k - 1), dtype=bool)
    present[places] = True
    norms = _nuclear_norms(_cut(x.spec, x.u.matrix, present)[1])
    per_pair = dict(zip(x.u.terms, norms[places].tolist()))
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
    _require_budget(f"one norm-audit sample of {spec.describe()}", sample_bytes)
    return _chunk_size(entry_bytes)


def _draw_runs(spec: AlgebraSpec, reals: np.ndarray) -> list[np.ndarray]:
    """The runs of a stack of algebra elements from its (count, 2 dim) real
    draws, drawn as `sampling.random_element` draws each: block by block, all
    real parts, then all imaginary parts.  Consecutive normal draws form one
    stream, so one call for the whole stack gives the same matrices."""
    runs = []
    for _, c, n, start in spec.runs:
        parts = reals[:, 2 * start : 2 * (start + c * n * n)].reshape(len(reals), c, 2, n, n)
        runs.append(parts[:, :, 0] + 1j * parts[:, :, 1])
    return runs


def _draw_groups(spec: AlgebraSpec, reals: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """A stack of tensors from its (count, 2 (N^2 - dim)) real draws, as
    `sampling.random_aj` draws one sample: pair by pair in aj_pairs order,
    all real parts, then all imaginary parts; in tensor._cut's form."""
    dims = np.array(spec.block_dims)
    sizes = np.outer(dims, dims)[~np.eye(len(dims), dtype=bool)]  # in aj_pairs order
    firsts, groups = 2 * (np.cumsum(sizes) - sizes), []
    for places, r, c, _, _ in _pair_layout(spec):
        # a pair's real parts, then its imaginary parts, are windows of r c draws
        windows, first = sliding_window_view(reals, r * c, axis=1), firsts[places]
        values = np.multiply(1j, windows[:, first + r * c])
        values += windows[:, first]
        groups.append((places, values.reshape(len(reals), len(places), r, c)))
    return groups


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
    tensor, element = 2 * (spec.matrix_size**2 - spec.dim), 2 * spec.dim
    ends = np.cumsum([tensor, tensor, element, element, element, tensor, element])

    worst_ub = worst_av = worst_uv = worst_full = 0.0
    for start in range(0, samples, chunk):
        count = min(chunk, samples - start)
        # one stream of normals per chunk, released before the stacks are used
        z = rng.normal(size=(count, ends[-1] + tensor))
        u, v, x, y, s_a, s_u, t_a, t_u = np.split(z, ends, axis=1)
        del z
        u, v, s_u, t_u = (_draw_groups(spec, f) for f in (u, v, s_u, t_u))
        x, y, s_a, t_a = (_draw_runs(spec, f) for f in (x, y, s_a, t_a))
        # each factor is placed once; the full pairs go first, so that the
        # placed s and t are released before u and v are placed
        st = _pair_norm(*_cut(spec, _assemble(spec, s_a, s_u) @ _assemble(spec, t_a, t_u)))
        ratio = _ratio(st, _pair_norm(s_a, s_u), _pair_norm(t_a, t_u))
        worst_full = max(worst_full, float(np.max(ratio)))
        # with one block there are no tensors, so the first three ratios are 0
        if u:
            u_l1, v_l1 = _tensor_l1(u), _tensor_l1(v)
            u, v = _assemble(spec, (), u), _assemble(spec, (), v)
            ub = _tensor_l1(_cut(spec, u @ _assemble(spec, x, ()))[1])
            worst_ub = max(worst_ub, float(np.max(_ratio(ub, u_l1, block_operator_norm(x)))))
            av = _tensor_l1(_cut(spec, _assemble(spec, y, ()) @ v)[1])
            worst_av = max(worst_av, float(np.max(_ratio(av, v_l1, block_operator_norm(y)))))
            uv = _pair_norm(*_cut(spec, u @ v))
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
    worst = 0.0
    for start in range(0, samples, chunk):
        count = min(chunk, samples - start)
        x = _draw_runs(spec, rng.normal(size=(count, 2 * spec.dim)))
        nx = block_operator_norm(x)
        # the image by LAPACK's SVD, so that the check also compares the
        # Gram route of block_operator_norm with an independent one
        image = np.linalg.svd(_assemble(spec, x, ()), compute_uv=False)[..., 0]
        gap = np.abs(image - nx) / np.maximum(nx, 1e-300)
        worst = max(worst, float(np.max(gap)))
    return worst
