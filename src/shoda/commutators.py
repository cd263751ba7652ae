"""Shoda-completeness verdicts and constructive commutator decomposition.

A block algebra has every traceless element equal to a commutator exactly
when it consists of a single block.  The verdict is still established by
evaluating the equivalent characterizations: minimality of the socle as a
two-sided ideal, generation of the socle by one rank-one projection, full
matrix corners p A p for sampled projections p, and connectivity of the
rank-one idempotents.  Each is read from the block ranks of projections, one
SVD per block: with matrix units, E_ab p E_cd = p_bc E_ad, so the ideal
generated by p is the sum of the blocks where p is nonzero, and p A p has
dimension sum rank(p_i)^2.  The checks take O(n^3) time for a block of size
n; `shoda.oracles` keeps the dense spans of the products with every matrix
unit as the reference.  The criteria are provably equivalent, so a
disagreement between them means a numerical rank decision failed at the
given tolerance; it raises NumericalFailure rather than being reported.

Decomposition of a traceless matrix follows the classical constructive
route (Fillmore; Albert and Muckenhoupt): a similarity takes it to zero
diagonal, after which divided differences against diag(0, 1, ..., n-1)
finish the job.  The similarity is one pass of n - 1 Householder steps, each
zeroing one diagonal entry in O(n^2) work, so a decomposition costs O(n^3)
time and a fixed number of n x n arrays, checked against the memory budget
before anything is allocated.  A step pivots on the standard vector e_j with
the largest off-diagonal column norm among those at least twice |a_jj| and
at least |a|_F / (4 sqrt(r)) on the r x r trailing block, which keeps the
similarity well conditioned without a random draw; when none qualifies, and
at every step of a retry, it takes the best of 16 seeded random unit
vectors.  Diagonal inputs skip the similarity and use the shift /
partial-sum factors directly, which keeps integer inputs exactly decomposed.
In a multi-block algebra the per-block traces certify elements that are not
commutators; those decompose after passing to the completed algebra.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .algebra import (
    _COMPLEX_BYTES,
    AlgebraSpec,
    Element,
    _block_ranks,
    _rank_one_block,
    _require_budget,
    commutator,
    flatten,
    frobenius,
    trace,
)
from .errors import NotShodaComplete, NotTraceless, NumericalFailure
from .norms import b_norm
from .sampling import random_element, random_idempotent, random_rank_one_projection
from .tensor import BElement, aj_zero, extension_to_matrix, matrix_to_extension
from .tensor import multiply_B  # unused here, but perfbench/tracing.py binds it by name


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


# The checks hold a few elements at a time: a projection, the draws and
# temporaries of one random idempotent (the similarity, its inverse, the
# products) and the copy one SVD takes.  A child process's peak RSS
# (getrusage, one BLAS thread), the interpreter included, was 10.0 arrays of
# dim complex entries at [1024], 9.3 at [1234] and 7.8 at (870, 870).  Blocks
# cost objects too (the witness, the samples), about 620 bytes per block in all
# on (1,) * 112977, the most blocks admitted.
_CHECK_ARRAYS = 11
_BLOCK_BYTES = 200


def _ideal_dim(spec: AlgebraSpec, ranks: np.ndarray) -> int:
    """Dimension of the two-sided ideal generated by an element with these
    block ranks.  With matrix units, E_ab p E_cd = p_bc E_ad, so the ideal is
    the sum of the blocks where p is nonzero."""
    return sum(n * n for n, r in zip(spec.block_dims, ranks) if r)


def _corner_dim(p: Element, tol: float) -> int:
    """Dimension of the corner p A p: the map x -> p_i x p_i of a block has
    rank rank(p_i)^2, so one SVD per block decides it."""
    return int(np.sum(_block_ranks(p.blocks, tol) ** 2))


def is_shoda_complete(spec: AlgebraSpec, tol: float = 1e-9, seed: int = 42) -> ShodaReport:
    """Evaluate all completeness criteria and the canonical witness.

    The witness, present when the verdict is negative, is the per-block
    scalar element with zero total trace but nonzero block traces, which the
    per-block trace certificate shows cannot be a commutator.  A spec whose
    checks would exceed the memory budget raises TooLarge before allocating.
    """
    dim = spec.dim
    nbytes = _CHECK_ARRAYS * (dim * _COMPLEX_BYTES + spec.num_blocks * _BLOCK_BYTES)
    _require_budget(f"the completeness check of {spec.block_dims}", nbytes)
    # Each projection lives in the algebra of the blocks where it is nonzero,
    # since a zero block adds nothing and draws nothing, so k blocks cost O(k).
    # The block ranks of a canonical projection give the ideal it generates
    # and, as rank-one idempotents split into one similarity class per
    # minimal ideal, its class.
    ideal_dims, classes = [], set()
    for i, n in enumerate(spec.block_dims):
        own = AlgebraSpec((n,))
        ranks = _block_ranks(own.matrix_unit(0, 0, 0).blocks, tol)
        ideal_dims.append(_ideal_dim(own, ranks))
        classes.add(i + _rank_one_block(ranks))
    criterion_minimal = all(d == dim for d in ideal_dims)
    criterion_single = any(d == dim for d in ideal_dims)
    criterion_connectivity = len(classes) == 1

    rng = np.random.default_rng(seed)
    corner_samples: list[tuple[int, int]] = []
    for n in spec.block_dims:
        own = AlgebraSpec((n,))
        corner_samples.append((1, _corner_dim(random_rank_one_projection(own, 0, rng), tol)))
        if n >= 2:
            corner_samples.append((2, _corner_dim(random_idempotent(own, (2,), rng), tol)))
    for n in spec.block_dims[1:]:
        pair = AlgebraSpec((spec.block_dims[0], n))
        corner_samples.append((2, _corner_dim(random_idempotent(pair, (1, 1), rng), tol)))
    criterion_corner = all(d == r * r for r, d in corner_samples)

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
    partial = np.cumsum(np.diag(m).astype(complex))[:-1]
    return np.eye(n, k=1, dtype=complex), np.diag(partial, k=-1)


def _pick_pivot(
    a: np.ndarray, rng: np.random.Generator, standard: bool = True
) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """A unit vector v with {v, a v} independent, and a v; None when a is scalar.

    a is a contiguous complex block, traceless up to rounding; its diagonal
    is zeroed for one pass and then restored.  A step on v
    multiplies the condition of the similarity by about |v^H a v| / beta,
    with beta the part of a v orthogonal to v.  The standard vector e_j has
    beta_j, the off-diagonal norm of column j, and v^H a v = a_jj, so e_j
    qualifies when beta_j >= 2 |a_jj| and beta_j >= |a|_F / (4 sqrt(r));
    the one with the largest beta_j is taken.  When none qualifies, or when
    standard is False, the best of 16 random unit vectors is taken, v^H a v
    being near 0 for them since a is traceless, scored by beta / |a|_F,
    unless even that scores at most 1e-10.  A block within 1e-13 of scalar
    gives None.
    """
    r = a.shape[0]
    # exact off-diagonal column norms: zero the diagonal for one pass
    on_diagonal = a.reshape(-1)[:: r + 1]
    diagonal = on_diagonal.copy()
    on_diagonal[:] = 0.0
    parts = a.view(np.float64)
    column_sq = np.einsum("ij,ij->j", parts, parts)
    on_diagonal[:] = diagonal
    column_sq = column_sq[0::2] + column_sq[1::2]
    off_sq = column_sq.sum()
    scale = math.sqrt(off_sq + np.vdot(diagonal, diagonal).real)
    shifted = diagonal - diagonal.sum() / r
    if math.sqrt(off_sq + np.vdot(shifted, shifted).real) <= 1e-13 * max(scale, 1.0):
        return None
    if standard:
        beta = np.sqrt(column_sq)
        floor = np.maximum(2.0 * np.abs(diagonal), scale / (4.0 * math.sqrt(r)))
        eligible = np.where(beta >= floor, beta, 0.0)
        j = int(eligible.argmax())
        if eligible[j] > 0.0:
            v = np.zeros(r, dtype=complex)
            v[j] = 1.0
            return v, a[:, j].copy()
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
    m: np.ndarray, rng: np.random.Generator, standard: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """Invertible S and its inverse such that S m S^{-1} has (numerically)
    zero diagonal.

    One pass over k on a contiguous copy a of the trailing block t[k:, k:]
    of t = S m S^{-1}.  With a pivot v and the QR factorization
    [v, a v] = Q R, the basis Q diag(P, I) has first column along v and
    second along a v, where P is upper triangular with P e2 = c / |c| for
    c = R[:, 1] / R[0, 0]; in it the leading diagonal entry of a is zero.
    Q is two Householder reflectors in compact form I - U T U^H, so each step
    costs O(n^2): Q^H a Q is one rank-4 update of the rows and columns that
    the next step keeps, written as the next contiguous block, P acts by
    scalar row and column operations, and the rows of S and of S^{-H} are
    updated in place.  standard is passed to _pick_pivot.  The pass stops
    early when no pivot is found; in particular a scalar trailing block,
    being traceless, is already zero.
    """
    n = m.shape[0]
    # the trailing block alternates between two flat buffers, so that it is
    # contiguous at every size; the one it left is the scratch of the step
    flat = (np.array(m, dtype=complex).reshape(-1), np.empty(n * n, dtype=complex))
    a = flat[0].reshape(n, n)
    # S and S^-H, so that both are updated on rows by the same Q^H
    sim, sim_inv_h = np.eye(n, dtype=complex), np.eye(n, dtype=complex)
    for k in range(n - 1):
        r = n - k
        pivot = _pick_pivot(a, rng, standard)
        if pivot is None:
            break
        v, av = pivot
        # reflector 1 takes v to alpha e1, reflector 2 the rest of a v to beta e2
        alpha = -cmath.exp(1j * cmath.phase(v[0]))
        ut = np.empty((2, r), dtype=complex)
        u1, u2 = ut
        u1[:] = v
        u1[0] -= alpha
        tau1 = 2.0 / np.vdot(u1, u1).real
        np.subtract(av, (tau1 * np.vdot(u1, av)) * u1, out=u2)  # y = H1 a v
        y0, y1 = complex(u2[0]), complex(u2[1])
        beta = -cmath.exp(1j * cmath.phase(y1)) * math.sqrt(np.vdot(u2[1:], u2[1:]).real)
        u2[0] = 0.0
        u2[1] -= beta
        tau2 = 2.0 / np.vdot(u2, u2).real
        # Q = H1 H2 = I - u T u^H
        u, uh = ut.T, ut.conj()
        t12 = -tau1 * tau2 * complex(np.vdot(u1, u2))
        # left = T^H u^H and right = T u^H for T = [[tau1, t12], [0, tau2]]
        left, right = np.array(
            [[tau1, 0.0], [t12.conjugate(), tau2], [tau1, t12], [0.0, tau2]]
        ).reshape(2, 2, 2) @ uh
        # P = [[1, p0], [0, p1]] with (p0, p1) = c / |c|, c = (y0, beta) / alpha
        c0, c1 = y0 / alpha, beta / alpha
        norm = math.hypot(abs(c0), abs(c1))
        p0, p1 = c0 / norm, c1 / norm
        # Q^H a Q = a - w z for w = [u, a u - u left a u] and z = [left a; right]
        au = a @ u
        w = np.concatenate([u, au - u @ (left @ au)], axis=1)
        z = np.concatenate([left @ a, right])
        # rows and columns 1: of diag(P^-1, I) Q^H a Q diag(P, I)
        kept = flat[(k + 1) % 2][: (r - 1) ** 2].reshape(r - 1, r - 1)
        np.matmul(w[1:], z[:, 1:], out=kept)
        np.subtract(a[1:, 1:], kept, out=kept)
        kept[:, 0] *= p1
        kept[:, 0] += p0 * (a[1:, 0] - w[1:] @ z[:, 0])
        kept[0] /= p1
        a = kept
        # rows of S: diag(P^-1, I) Q^H;  rows of S^-H: diag(P^H, I) Q^H
        scratch = flat[k % 2][: r * n].reshape(r, n)
        for rows in (sim[k:], sim_inv_h[k:]):
            np.matmul(u, left @ rows, out=scratch)
            rows -= scratch
        sim[k] -= (p0 / p1) * sim[k + 1]
        sim[k + 1] /= p1
        sim_inv_h[k + 1] *= p1.conjugate()
        sim_inv_h[k + 1] += p0.conjugate() * sim_inv_h[k]
    np.conjugate(sim_inv_h, out=sim_inv_h)
    return sim, sim_inv_h.T


# the decomposition's measured peak, in n x n complex arrays, the input
# included; the single-block path sets it, at 8.0 arrays besides the input
# at n = 128 and 256 (tracemalloc), and the completion path peaks near 6
_DECOMPOSE_ARRAYS = 10
# similarities with a larger condition number are refused
_COND_LIMIT = 1e8


def _decompose_matrix(
    m: np.ndarray, rng: np.random.Generator, standard: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """Factors (a, b) with a b - b a = m for a traceless square matrix;
    standard is passed to _pick_pivot."""
    n = m.shape[0]
    if not np.any(m):
        return np.zeros((n, n), dtype=complex), np.zeros((n, n), dtype=complex)
    off_mass = np.linalg.norm(m - np.diag(np.diag(m)))
    if off_mass <= 1e-12 * np.linalg.norm(m):
        return _diagonal_shift_factors(m)
    sim, sim_inv = _zero_diagonal_similarity(m, rng, standard)
    # |S|_F |S^-1|_F bounds cond_2(S) from above; the SVD settles the rest
    if (
        np.linalg.norm(sim) * np.linalg.norm(sim_inv) > _COND_LIMIT
        and np.linalg.cond(sim) > _COND_LIMIT
    ):
        raise NumericalFailure("zero-diagonal similarity is ill-conditioned")
    # b = S^-1 (F / (i - j)) S with F = S m S^-1 of zero diagonal, and
    # a = S^-1 diag(0, ..., n-1) S, with at most two products alive at once
    b = sim @ m @ sim_inv
    # i - j as a read-only view of 2n - 1 numbers, not an n x n grid
    differences = sliding_window_view(np.arange(n - 1.0, -n, -1.0), n)[::-1]
    np.divide(b, differences, out=b, where=differences != 0)
    np.fill_diagonal(b, 0.0)
    b = sim_inv @ b
    b = b @ sim
    sim_inv *= np.arange(n)
    return sim_inv @ sim, b


def _require_decomposable_size(n: int):
    """Raise TooLarge when decomposing an n x n matrix would exceed the memory
    budget; callers check before anything of that size is allocated."""
    _require_budget(f"decomposing a {n} x {n} matrix", _DECOMPOSE_ARRAYS * n * n * _COMPLEX_BYTES)


def _require_traceless(t: Element, tol: float):
    if abs(trace(t)) > tol * (1.0 + frobenius(t)):
        raise NotTraceless(f"trace is {trace(t)}")


def _best_witness(
    m: np.ndarray, seed_base: int, witness_of: Callable[..., CommutatorWitness], accept: float
) -> CommutatorWitness:
    """Decompose the matrix m with up to four pivot seeds, seed_base onward.

    Attempt 0 pivots on standard vectors where they qualify; the retries
    take random pivots at every step, so that none repeats attempt 0.

    witness_of(fa, fb) lifts each attempt's factors into the caller's algebra
    and scores them; the first witness with residual at most accept is
    returned.  Ill-conditioned attempts are skipped, and NumericalFailure is
    raised when no attempt meets accept.
    """
    best: Optional[CommutatorWitness] = None
    for attempt in range(4):
        rng = np.random.default_rng(seed_base + attempt)
        try:
            fa, fb = _decompose_matrix(m, rng, standard=attempt == 0)
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
    if frobenius(t) == 0.0:
        zero = BElement(spec.zero(), aj_zero(spec))
        return CommutatorWitness(a=zero, b=zero, residual=0.0)

    def witness_of(fa: np.ndarray, fb: np.ndarray) -> CommutatorWitness:
        # the residual is released before the factors are copied
        r = fb @ fa
        r -= fa @ fb
        r += full
        residual = b_norm(matrix_to_extension(spec, r)).total
        del r
        a, b = matrix_to_extension(spec, fa), matrix_to_extension(spec, fb)
        return CommutatorWitness(a=a, b=b, residual=residual)

    full = extension_to_matrix(BElement(t, aj_zero(spec)))
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
