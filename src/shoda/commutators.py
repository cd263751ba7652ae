"""Shoda-completeness verdicts and constructive commutator decomposition.

A block algebra has every traceless element equal to a commutator exactly
when it consists of a single block.  The verdict is still established by
evaluating the equivalent characterizations independently: minimality of the
socle as a two-sided ideal, generation of the socle by one rank-one
projection, full matrix corners p A p for sampled projections p, and
connectivity of the rank-one idempotents.  The criteria are provably
equivalent, so a disagreement between them means a numerical rank decision
failed at the given tolerance; it raises NumericalFailure rather than being
reported.

Decomposition of a traceless matrix follows the classical constructive
route (Fillmore; Albert and Muckenhoupt): a similarity takes it to zero
diagonal, after which divided differences against diag(0, 1, ..., n-1)
finish the job.  The similarity is one pass of n - 1 Householder steps, each
zeroing one diagonal entry in O(n^2) work, so a decomposition costs O(n^3)
time and a fixed number of n x n arrays, checked against the memory budget
before anything is allocated.  Diagonal inputs
skip the similarity and use the shift / partial-sum factors directly, which
keeps integer inputs exactly decomposed.  In a multi-block algebra the
per-block traces certify elements that are not commutators; those decompose
after passing to the completed algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Union

import numpy as np

from .algebra import (
    AlgebraSpec,
    Element,
    commutator,
    flatten,
    frobenius,
    minimal_ideal_index,
    trace,
)
from .completion import _TABLE_BYTES, extension_to_matrix, matrix_to_extension
from .errors import NotShodaComplete, NotTraceless, NumericalFailure, TooLarge
from .norms import b_norm
from .sampling import random_element, random_idempotent, random_rank_one_projection
from .tensor import BElement, aj_zero, multiply_B


@dataclass(frozen=True, eq=False)
class ShodaReport:
    verdict: bool
    criterion_minimal_ideal: bool
    criterion_single_generator: bool
    criterion_corner: tuple[tuple[int, int], ...]  # (projection rank, corner dimension)
    criterion_connectivity: bool
    witness: Optional[Element]


@dataclass(frozen=True, eq=False)
class CommutatorWitness:
    a: Union[Element, BElement]
    b: Union[Element, BElement]
    residual: float


# The checks peak at the products stack, the SVD's copy of it and the SVD
# workspace: a child process's peak RSS (getrusage) was 2.19 stacks at [27],
# 2.03 above the interpreter's own 36 MB.  The budget counts 2.25 stacks.
_CHECK_STACKS = 2.25


def _span_dim(stacked: np.ndarray, tol: float) -> int:
    s = np.linalg.svd(stacked, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > tol * s[0]))


def _unit_stacks(spec: AlgebraSpec) -> Iterator[tuple[slice, np.ndarray]]:
    """Per block: its slice of the coordinates (and of the basis) and its
    matrix units as an (n^2, n, n) stack, in the order of spec.basis()."""
    lo = 0
    for n in spec.block_dims:
        yield slice(lo, lo + n * n), np.eye(n * n, dtype=complex).reshape(n * n, n, n)
        lo += n * n


def _generated_ideal_dim(spec: AlgebraSpec, p: Element, tol: float) -> int:
    """Dimension of the two-sided ideal generated by p, computed as the span
    of basis * p * basis in two stages (left multiples first, rank-reduced).

    A product with a matrix unit stays in the unit's block, so each stage is
    one stacked matmul per block into the zero rows and columns of the others.
    """
    left_multiples = np.zeros((spec.dim, spec.dim), dtype=complex)
    for (span, units), m in zip(_unit_stacks(spec), p.blocks):
        n = m.shape[0]
        np.matmul(units, m, out=left_multiples[span, span].reshape(n * n, n, n))
    u, s, vh = np.linalg.svd(left_multiples, full_matrices=False)
    keep = s > tol * s[0] if s[0] > 0 else np.zeros(len(s), dtype=bool)
    reduced = vh[keep]
    r = len(reduced)
    # one preallocated stack: this is the largest allocation of the checks
    products = np.zeros((r, spec.dim, spec.dim), dtype=complex)
    for span, units in _unit_stacks(spec):
        n = units.shape[1]
        x = reduced[:, span].reshape(r, 1, n, n)
        np.matmul(x, units, out=products[:, span, span].reshape(r, n * n, n, n))
    return _span_dim(products.reshape(r * spec.dim, spec.dim), tol)


def _corner_dim(spec: AlgebraSpec, p: Element, tol: float) -> int:
    corners = np.zeros((spec.dim, spec.dim), dtype=complex)
    for (span, units), m in zip(_unit_stacks(spec), p.blocks):
        n = m.shape[0]
        np.matmul(m @ units, m, out=corners[span, span].reshape(n * n, n, n))
    return _span_dim(corners, tol)


def is_shoda_complete(spec: AlgebraSpec, tol: float = 1e-9, seed: int = 42) -> ShodaReport:
    """Evaluate all completeness criteria and the canonical witness.

    The witness, present when the verdict is negative, is the per-block
    scalar element with zero total trace but nonzero block traces, which the
    per-block trace certificate shows cannot be a commutator.  A spec whose
    checks would exceed the memory budget raises TooLarge before allocating.
    """
    dim = spec.dim
    # the largest allocation is the products stack of _generated_ideal_dim:
    # dim vectors of length dim per row of the left ideal, at most max(n_i) rows
    stack_bytes = max(spec.block_dims) * dim**2 * np.dtype(complex).itemsize
    nbytes = int(_CHECK_STACKS * stack_bytes)
    if nbytes > _TABLE_BYTES:
        raise TooLarge(
            f"the completeness checks of {spec.block_dims} need {nbytes} bytes, "
            f"over the budget of {_TABLE_BYTES}"
        )
    projections = spec.canonical_projections()
    ideal_dims = [_generated_ideal_dim(spec, p, tol) for p in projections]
    criterion_minimal = all(d == dim for d in ideal_dims)
    criterion_single = any(d == dim for d in ideal_dims)

    rng = np.random.default_rng(seed)
    corner_samples: list[tuple[int, int]] = []
    for i, n in enumerate(spec.block_dims):
        p = random_rank_one_projection(spec, i, rng)
        corner_samples.append((1, _corner_dim(spec, p, tol)))
        if n >= 2:
            ranks = tuple(2 if j == i else 0 for j in range(spec.num_blocks))
            q = random_idempotent(spec, ranks, rng)
            corner_samples.append((2, _corner_dim(spec, q, tol)))
    if spec.num_blocks >= 2:
        for j in range(1, spec.num_blocks):
            ranks = tuple(1 if i in (0, j) else 0 for i in range(spec.num_blocks))
            q = random_idempotent(spec, ranks, rng)
            corner_samples.append((2, _corner_dim(spec, q, tol)))
    criterion_corner = all(d == r * r for r, d in corner_samples)

    # rank-one idempotents split into one similarity class per minimal ideal
    classes = {minimal_ideal_index(p, tol) for p in projections}
    criterion_connectivity = len(classes) == 1

    votes = {criterion_minimal, criterion_single, criterion_corner, criterion_connectivity}
    if len(votes) != 1:
        raise NumericalFailure(
            "completeness criteria disagree: "
            f"minimal={criterion_minimal} single={criterion_single} "
            f"corner={criterion_corner} connectivity={criterion_connectivity}"
        )
    verdict = votes.pop()

    witness = None
    if not verdict:
        n0, n1 = spec.block_dims[0], spec.block_dims[1]
        blocks = [np.zeros((n, n), dtype=complex) for n in spec.block_dims]
        blocks[0] = float(n1) * np.eye(n0, dtype=complex)
        blocks[1] = -float(n0) * np.eye(n1, dtype=complex)
        witness = Element(spec, tuple(blocks))

    return ShodaReport(
        verdict=verdict,
        criterion_minimal_ideal=criterion_minimal,
        criterion_single_generator=criterion_single,
        criterion_corner=tuple(corner_samples),
        criterion_connectivity=criterion_connectivity,
        witness=witness,
    )


def infeasibility_certificate(t: Element) -> np.ndarray:
    """Per-block traces of t.  A commutator has zero trace in every block, so
    a zero total trace together with a nonzero block trace certifies that t
    is not a commutator in the base algebra."""
    return np.array([np.trace(m) for m in t.blocks])


def certifies_non_commutator(t: Element, tol: float = 1e-9) -> bool:
    traces = infeasibility_certificate(t)
    scale = 1.0 + frobenius(t)
    return bool(abs(traces.sum()) <= tol * scale and np.any(np.abs(traces) > tol * scale))


def _diagonal_shift_factors(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decompose a traceless diagonal matrix as [shift, partial-sum] factors."""
    n = m.shape[0]
    a = np.zeros((n, n), dtype=complex)
    b = np.zeros((n, n), dtype=complex)
    partial = 0.0 + 0.0j
    for i in range(n - 1):
        a[i, i + 1] = 1.0
        partial += m[i, i]
        b[i + 1, i] = partial
    return a, b


def _pick_pivot(
    a: np.ndarray, rng: np.random.Generator
) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """A unit vector v with {v, a v} independent, and a v; None when a is scalar.

    The score of v is the part of a v orthogonal to v, relative to the
    Frobenius norm of a.  The first standard vector scoring at least 0.25 is
    taken, all scored at once from the off-diagonal column norms; otherwise
    the best of 16 random unit vectors, unless even that scores at most
    1e-10.  A block within 1e-13 of scalar also gives None.
    """
    r = a.shape[0]
    mu = np.trace(a) / r
    shifted = a.copy()
    shifted.flat[:: r + 1] -= mu
    column_sq = np.einsum("ij,ij->j", shifted.conj(), shifted).real
    deviation_sq = column_sq.sum()
    scale = np.sqrt(deviation_sq + r * abs(mu) ** 2)
    if np.sqrt(deviation_sq) <= 1e-13 * max(scale, 1.0):
        return None
    off_diagonal = np.sqrt(np.maximum(column_sq - np.abs(shifted.diagonal()) ** 2, 0.0))
    hits = np.flatnonzero(off_diagonal >= 0.25 * scale)
    if hits.size:
        v = np.zeros(r, dtype=complex)
        v[hits[0]] = 1.0
        return v, a[:, hits[0]].copy()
    draws = rng.normal(size=(16, 2, r))
    trial = (draws[:, 0] + 1j * draws[:, 1]).T
    trial /= np.linalg.norm(trial, axis=0)
    images = a @ trial
    residual = images - trial * np.einsum("ij,ij->j", trial.conj(), images)
    scores = np.linalg.norm(residual, axis=0) / scale
    best = int(np.argmax(scores))
    if scores[best] <= 1e-10:
        return None
    return trial[:, best], images[:, best]


def _zero_diagonal_similarity(
    m: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Invertible S and its inverse such that S m S^{-1} has (numerically)
    zero diagonal.

    One pass over k on the trailing block a = t[k:, k:] of t = S m S^{-1}.
    With a pivot v and the QR factorization [v, a v] = Q R, the basis
    Q diag(P, I) has first column along v and second along a v, where P is
    upper triangular with P e2 = c / |c| for c = R[:, 1] / R[0, 0]; in it
    the leading diagonal entry of a is zero.  Q is two Householder
    reflectors in compact form I - U T U^H, so each step costs O(n^2) and
    updates a, the rows of S and the columns of S^{-1} in place.  The pass
    stops early when no pivot is found; in particular a scalar trailing
    block, being traceless, is already zero.
    """
    n = m.shape[0]
    t = np.array(m, dtype=complex)
    sim = np.eye(n, dtype=complex)
    # the transpose of S^{-1}, so that its update is on rows too
    sim_inv_t = np.eye(n, dtype=complex)
    for k in range(n - 1):
        a = t[k:, k:]
        pivot = _pick_pivot(a, rng)
        if pivot is None:
            break
        v, av = pivot
        # reflector 1 takes v to alpha e1, reflector 2 the rest of a v to beta e2
        alpha = -np.exp(1j * np.angle(v[0]))
        u1 = v.copy()
        u1[0] -= alpha
        tau1 = 2.0 / np.vdot(u1, u1).real
        y = av - (tau1 * np.vdot(u1, av)) * u1
        beta = -np.exp(1j * np.angle(y[1])) * np.linalg.norm(y[1:])
        u2 = y.copy()
        u2[0] = 0.0
        u2[1] -= beta
        tau2 = 2.0 / np.vdot(u2, u2).real
        # Q = H1 H2 = I - u tri u^H
        u = np.stack([u1, u2], axis=1)
        uh = u.conj().T
        tri = np.array([[tau1, -tau1 * tau2 * np.vdot(u1, u2)], [0.0, tau2]])
        c = np.array([y[0], beta]) / alpha
        p_col = c / np.linalg.norm(c)
        p = np.array([[1.0, p_col[0]], [0.0, p_col[1]]])
        p_inv = np.array([[1.0, -p_col[0] / p_col[1]], [0.0, 1.0 / p_col[1]]])
        # rows of S and a: diag(P^-1, I) Q^H;  columns of a and S^{-1}: Q diag(P, I)
        left = tri.conj().T @ uh
        right = tri @ uh
        rows = sim[k:]
        rows -= u @ (left @ rows)
        rows[:2] = p_inv @ rows[:2]
        a -= u @ (left @ a)
        a[:2] = p_inv @ a[:2]
        a -= (a @ u) @ right
        a[:, :2] = a[:, :2] @ p
        rows = sim_inv_t[k:]
        rows -= right.T @ (u.T @ rows)
        rows[:2] = p.T @ rows[:2]
    return sim, sim_inv_t.T


def _decompose_matrix(
    m: np.ndarray, rng: np.random.Generator, cond_limit: float = 1e8
) -> tuple[np.ndarray, np.ndarray]:
    """Factors (a, b) with a b - b a = m for a traceless square matrix."""
    n = m.shape[0]
    if not np.any(m):
        return np.zeros((n, n), dtype=complex), np.zeros((n, n), dtype=complex)
    off_mass = np.linalg.norm(m - np.diag(np.diag(m)))
    if off_mass <= 1e-12 * np.linalg.norm(m):
        return _diagonal_shift_factors(m)
    sim, sim_inv = _zero_diagonal_similarity(m, rng)
    # |S|_F |S^-1|_F bounds cond_2(S) from above; the SVD settles the rest
    if (
        np.linalg.norm(sim) * np.linalg.norm(sim_inv) > cond_limit
        and np.linalg.cond(sim) > cond_limit
    ):
        raise NumericalFailure("zero-diagonal similarity is ill-conditioned")
    flattened = sim @ m @ sim_inv
    index = np.arange(n)
    diff = index[:, None] - index[None, :]
    b = np.divide(flattened, diff, out=np.zeros((n, n), dtype=complex), where=diff != 0)
    return (sim_inv * index) @ sim, sim_inv @ b @ sim


# the decomposition's measured peak, in n x n complex arrays, the input included
_DECOMPOSE_ARRAYS = 10


def _require_decomposable_size(n: int):
    """Raise TooLarge when decomposing an n x n matrix would exceed the memory
    budget; callers check before anything of that size is allocated."""
    nbytes = _DECOMPOSE_ARRAYS * n * n * np.dtype(complex).itemsize
    if nbytes > _TABLE_BYTES:
        raise TooLarge(
            f"decomposing a {n} x {n} matrix needs {nbytes} bytes, "
            f"over the budget of {_TABLE_BYTES}"
        )


def _require_traceless(t: Element, tol: float):
    if abs(trace(t)) > tol * (1.0 + frobenius(t)):
        raise NotTraceless(f"trace is {trace(t)}")


def _best_witness(
    m: np.ndarray, seed_base: int, witness_of: Callable[..., CommutatorWitness], accept: float
) -> CommutatorWitness:
    """Decompose the matrix m with up to four pivot seeds, seed_base onward.

    witness_of(fa, fb) lifts each attempt's factors into the caller's algebra
    and scores them; the first witness with residual at most accept is
    returned.  Ill-conditioned attempts are skipped, and NumericalFailure is
    raised when no attempt meets accept.
    """
    best: Optional[CommutatorWitness] = None
    for attempt in range(4):
        rng = np.random.default_rng(seed_base + attempt)
        try:
            fa, fb = _decompose_matrix(m, rng)
        except NumericalFailure:
            continue
        witness = witness_of(fa, fb)
        if best is None or witness.residual < best.residual:
            best = witness
        if witness.residual <= accept:
            return witness
    if best is None:
        raise NumericalFailure("all decomposition attempts were ill-conditioned")
    raise NumericalFailure(f"best witness residual {best.residual} exceeds {accept}")


def commutator_decompose(t: Element, tol: float = 1e-9) -> CommutatorWitness:
    """Constructive decomposition t = a b - b a inside a single-block algebra.

    Multi-block algebras are rejected; use the per-block trace certificate
    and, for certified elements, the decomposition in the completion.
    Ill-conditioned similarities are retried with fresh pivot seeds.
    """
    if t.spec.num_blocks != 1:
        raise NotShodaComplete(
            f"{t.spec.block_dims} has {t.spec.num_blocks} blocks; "
            "decompose in the completion instead"
        )
    _require_decomposable_size(t.spec.block_dims[0])
    _require_traceless(t, tol)
    scale = frobenius(t)
    if scale == 0.0:
        zero = t.spec.zero()
        return CommutatorWitness(a=zero, b=zero, residual=0.0)

    def witness_of(fa: np.ndarray, fb: np.ndarray) -> CommutatorWitness:
        a, b = Element(t.spec, (fa,)), Element(t.spec, (fb,))
        return CommutatorWitness(a=a, b=b, residual=frobenius(t - commutator(a, b)))

    return _best_witness(t.blocks[0], 1000, witness_of, tol * max(1.0, scale))


def decompose_in_completion(t: Element, tol: float = 1e-9) -> CommutatorWitness:
    """Decompose a traceless element after embedding it into the completion.

    The element embeds as the pair (t, 0), maps through the full-matrix
    identification, decomposes there, and the factors pull back to extension
    elements.  The residual is measured in the extension norm.
    """
    _require_decomposable_size(t.spec.matrix_size)
    _require_traceless(t, tol)
    spec = t.spec
    embedded = BElement(t, aj_zero(spec))
    if frobenius(t) == 0.0:
        zero = BElement(spec.zero(), aj_zero(spec))
        return CommutatorWitness(a=zero, b=zero, residual=0.0)

    def witness_of(fa: np.ndarray, fb: np.ndarray) -> CommutatorWitness:
        a, b = matrix_to_extension(spec, fa), matrix_to_extension(spec, fb)
        residual = b_norm(embedded - (multiply_B(a, b) - multiply_B(b, a))).total
        return CommutatorWitness(a=a, b=b, residual=residual)

    full = extension_to_matrix(embedded)
    return _best_witness(full, 2000, witness_of, tol * max(1.0, frobenius(t)))


def random_commutator_search(
    t: Element, pairs: int = 10_000, seed: int = 42
) -> float:
    """Falsification probe: the smallest residual of a scaled random
    commutator against t over seeded random factor pairs.  For elements
    certified by the per-block traces no small residual can exist, since
    every commutator has zero trace in every block."""
    rng = np.random.default_rng(seed)
    spec = t.spec
    t_vec = flatten(t)
    best = np.inf
    for _ in range(pairs):
        c_vec = flatten(commutator(random_element(spec, rng), random_element(spec, rng)))
        denom = np.vdot(c_vec, c_vec).real
        coeff = np.vdot(c_vec, t_vec) / denom if denom > 0 else 0.0
        best = min(best, float(np.linalg.norm(t_vec - coeff * c_vec)))
    return best
