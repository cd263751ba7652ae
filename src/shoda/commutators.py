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
finish the job.  The similarity is one loop of blocked Householder steps:
like LAPACK's blocked reductions (Schreiber and Van Loan's compact WY form),
one reflector for b columns zeroes b diagonal entries of the r x r trailing
block at once, b up to r / 3.  A dense input takes O(log n) steps of matrix
products; a degenerate one (a Jordan block, a rank-one matrix) keeps b near
1 and takes up to n - 1 steps of O(n^2) work.  Either way a decomposition
costs O(n^3) time and a fixed number of n x n arrays, checked against the
memory budget before anything is allocated.  A step pivots on the standard
vector e_j with the largest off-diagonal column norm among those at least
twice |a_jj| and at least |a|_F / (4 sqrt(r)), which keeps the similarity
well conditioned without a random draw, and blocks it with the other
standard vectors that pass the same gates; when none qualifies, and at every
step of a retry, it takes the best of 16 seeded random unit vectors.
Diagonal inputs skip the similarity and use the shift / partial-sum factors
directly, which keeps integer inputs exactly decomposed.
In a multi-block algebra the per-block traces certify elements that are not
commutators; those decompose after passing to the completed algebra.
"""

from __future__ import annotations

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
    block_traces,
    _require_budget,
    commutator,
    frobenius,
    trace,
)
from .errors import NotShodaComplete, NotTraceless, NumericalFailure
from .norms import b_norm
from .sampling import random_element, random_idempotents
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
# dim complex entries at [1024], 9.3 at [1234] and 7.8 at (870, 870).  On
# many tiny blocks the stacked checks take about 320 bytes per block (wait4,
# one BLAS thread): `info` peaks at 73 MiB on (1,) * 112977, the most blocks
# admitted.  `check` writes the witness too, about 1500 bytes per block on
# blocks of 1, and peaks at 202 MiB there, so the term stays at 200 bytes per
# block of each of the eleven arrays.
_CHECK_ARRAYS = 11
_BLOCK_BYTES = 200


def _ideal_dim(spec: AlgebraSpec, ranks: np.ndarray) -> np.ndarray:
    """Dimension of the two-sided ideal generated by an element with these
    block ranks (the last axis; leading axes index a stack of elements).
    With matrix units, E_ab p E_cd = p_bc E_ad, so the ideal is the sum of
    the blocks where p is nonzero."""
    return np.sum(np.square(spec.block_dims) * (ranks > 0), axis=-1)


def _corner_dim(runs, tol: float) -> np.ndarray:
    """Dimension of the corner p A p of a projection p given by its runs, as
    _block_ranks takes them: the map x -> p_i x p_i of a block has rank
    rank(p_i)^2, so one SVD call per run decides it."""
    return np.sum(_block_ranks(runs, tol) ** 2, axis=-1)


def is_shoda_complete(spec: AlgebraSpec, tol: float = 1e-9, seed: int = 42) -> ShodaReport:
    """Evaluate all completeness criteria and the canonical witness.

    The witness, present when the verdict is negative, is the per-block
    scalar element with zero total trace but nonzero block traces, which the
    per-block trace certificate shows cannot be a commutator.  A spec whose
    checks would exceed the memory budget raises TooLarge before allocating.
    """
    dim, dims = spec.dim, np.array(spec.block_dims)
    nbytes = _CHECK_ARRAYS * (dim * _COMPLEX_BYTES + spec.num_blocks * _BLOCK_BYTES)
    _require_budget(f"the completeness check of {spec.describe()}", nbytes)
    # Each projection lives in the algebra of the blocks where it is nonzero,
    # since a zero block adds nothing and draws nothing.  The blocks of one
    # size are checked as one stack of one-block elements, each block with
    # its own projection, with one SVD call per size and criterion.  The
    # block ranks of a canonical projection give the ideal it generates and,
    # as rank-one idempotents split into one similarity class per minimal
    # ideal, its class.
    ideal_dims, classes, rank_one, rank_two = np.zeros((4, len(dims)), dtype=int)
    rng = np.random.default_rng(seed)
    for n in dict.fromkeys(spec.block_dims):
        where = np.flatnonzero(dims == n)
        units = np.zeros((len(where), 1, n, n), dtype=complex)
        units[..., 0, 0] = 1.0
        ranks = _block_ranks([units], tol)
        ideal_dims[where] = _ideal_dim(AlgebraSpec((n,)), ranks)
        classes[where] = where + _rank_one_block(ranks)
        rank_one[where] = _corner_dim([random_idempotents(rng, len(where), n, 1)[:, None]], tol)
        if n >= 2:
            rank_two[where] = _corner_dim([random_idempotents(rng, len(where), n, 2)[:, None]], tol)
    criterion_minimal = bool(np.all(ideal_dims == dim))
    criterion_single = bool(np.any(ideal_dims == dim))
    criterion_connectivity = len(set(classes.tolist())) == 1

    # the blocks 0 and i, each of rank one, for every block i after 0
    pairs = np.zeros(len(dims) - 1, dtype=int)
    for n in dict.fromkeys(spec.block_dims[1:]):
        where = np.flatnonzero(dims[1:] == n)
        pair = [random_idempotents(rng, len(where), m, 1)[:, None] for m in (dims[0], n)]
        pairs[where] = _corner_dim(pair, tol)
    corner_samples = []
    for n, one, two in zip(spec.block_dims, rank_one.tolist(), rank_two.tolist()):
        corner_samples += [(1, one), (2, two)] if n >= 2 else [(1, one)]
    corner_samples += [(2, d) for d in pairs.tolist()]
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
        vector = np.zeros(dim, dtype=complex)
        vector[: n0 * n0] = (float(n1) * np.eye(n0, dtype=complex)).ravel()
        vector[n0 * n0 : n0 * n0 + n1 * n1] = (-float(n0) * np.eye(n1, dtype=complex)).ravel()
        witness = Element(spec, vector=vector)

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
    return block_traces(t)


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
    a: np.ndarray,
    rng: np.random.Generator,
    standard: bool = True,
    gates: Optional[np.ndarray] = None,
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
    gives None.  gates, when given, is a (2, r) array that receives beta_j
    where e_j qualifies and 0 elsewhere, and the floor
    max(2 |a_jj|, |a|_F / (4 sqrt(r))) of each e_j.
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
    eligible, floor = np.empty((2, r)) if gates is None else gates
    np.maximum(2.0 * np.abs(diagonal), scale / (4.0 * math.sqrt(r)), out=floor)
    beta = np.sqrt(column_sq)
    np.multiply(beta, beta >= floor, out=eligible)
    if standard:
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


def _compact_wy(h: np.ndarray, tau: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(R, V, T) with x = Q [R; 0] and Q = I - V T V^H from the Householder
    QR (h, tau) = np.linalg.qr(x, mode="raw"), where h is stored transposed.

    T comes by the forward recursion over the reflectors of LAPACK's geqrf,
    which stays finite when a reflector is the identity (tau = 0)."""
    b = len(tau)
    v = h.T.copy()
    head = v[:b]  # R on and above the diagonal, V below it
    upper = np.arange(b)[:, None] <= np.arange(b)
    r = np.where(upper, head, 0.0)
    np.copyto(head, np.eye(b), where=upper)
    gram = v.conj().T @ v
    t = np.diag(tau)
    for i in range(1, b):
        t[:i, i] = -tau[i] * (t[:i, :i] @ gram[:i, i])
    return r, v, t


# float64 entries of the scratch of _subtract_product (300 KB, and at most
# one n x n complex array): a chunk of the product is subtracted while it is
# still in cache
_CHUNK_ENTRIES = 38400
# inner dimensions up to which _subtract_product multiplies in real arithmetic
_REAL_K = 4


def _subtract_product(
    source: np.ndarray, x: np.ndarray, y: np.ndarray, out: np.ndarray, scratch: np.ndarray
):
    """out = source - x @ y for complex x (m, k) and y (k, p), with source
    and out (possibly the same array) of contiguous rows, a chunk of rows at
    a time through the float64 buffer scratch.  Up to k = _REAL_K the product
    is the real product [Re x, Im x] [y; i y] on float64 views: BLAS runs
    complex products with k = 1 several times slower (2-4x at 150 x 300),
    and up to k = 4 the real one is about as fast or faster.  It copies x
    and y, which costs little memory only while k is small."""
    if x.shape[1] <= _REAL_K:
        x = np.concatenate((x.real, x.imag), axis=1)
        y = np.concatenate((y, 1j * y)).view(np.float64)
        source, out = source.view(np.float64), out.view(np.float64)
    else:
        scratch = scratch.view(complex)
    width = y.shape[1]
    chunk = max(1, len(scratch) // width)
    for lo in range(0, len(x), chunk):
        hi = min(lo + chunk, len(x))
        product = scratch[: (hi - lo) * width].reshape(hi - lo, width)
        np.matmul(x[lo:hi], y, out=product)
        np.subtract(source[lo:hi], product, out=out[lo:hi])


def _conjugate(
    a: np.ndarray, v: np.ndarray, t: np.ndarray, drop: int, out: np.ndarray, scratch: np.ndarray
) -> np.ndarray:
    """Write rows and columns drop: of Q^H a Q into out for Q = I - V T V^H,
    as one product of rank 2b; return T^H V^H, with which Q^H acts on
    further rows."""
    b = len(t)
    vh = v.conj().T
    th_vh = t.conj().T @ vh
    # Q^H a Q = a - [V, Y - V T^H V^H Y] [T^H V^H a; T V^H] with Y = a V
    w = np.empty((len(v), 2 * b), dtype=complex)
    z = np.empty((2 * b, len(v)), dtype=complex)
    w[:, :b] = v
    y = a @ v
    np.subtract(y, v @ (th_vh @ y), out=w[:, b:])
    del y
    np.matmul(th_vh, a, out=z[:b])
    np.matmul(t, vh, out=z[b:])
    _subtract_product(a[drop:, drop:], w[drop:], z[:, drop:], out, scratch)
    return th_vh


def _to_front(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Places and sources of the indices that move when block goes to the
    front in order and the leading indices it displaces go to the places
    block vacates; at most 2 len(block) move."""
    front = block.tolist()
    b, inside = len(front), set(front)
    places = list(range(b)) + [j for j in front if j >= b]
    sources = front + [i for i in range(b) if i not in inside]
    moved = [(p, s) for p, s in zip(places, sources) if p != s]
    places, sources = np.array(moved, dtype=np.intp).reshape(-1, 2).T
    return places, sources


def _front_block(
    a: np.ndarray, block: np.ndarray, floors: np.ndarray
) -> tuple[tuple[np.ndarray, np.ndarray], list[tuple[np.ndarray, np.ndarray]]]:
    """Swap the standard vectors block to the front of a and return the raw
    QR of a[b:, :b] with the swaps made, as (places, sources) pairs.

    |R_ii| must reach floors[i].  When it does not, the passing candidates
    are swapped to the front of that layout and the QR taken once more; when
    that fails too, or none passed, the block is its first vector alone,
    first in the first layout, where R_00 is its whole off-diagonal column.
    """
    tried, swaps = len(block), []
    while True:
        b = len(block)
        places, sources = _to_front(block)
        if len(places):
            a[places] = a[sources]
            a[:, places] = a[:, sources]
            swaps.append((places, sources))
        qr = np.linalg.qr(a[b:, :b], mode="raw")
        if b == 1:
            return qr, swaps
        passed = np.abs(qr[0].diagonal()) >= floors
        if passed.all():
            return qr, swaps
        if b == tried and passed.any():
            block, floors = np.flatnonzero(passed), floors[passed]
            continue
        if b < tried and len(places):
            swaps.pop()
            a[:, sources] = a[:, places]
            a[sources] = a[places]
        block = np.zeros(1, dtype=np.intp)


def _zero_diagonal_similarity(
    m: np.ndarray, rng: np.random.Generator, standard: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """Invertible S and its inverse such that S m S^{-1} has (numerically)
    zero diagonal.

    One loop over k on a contiguous copy a of the r x r trailing block
    t[k:, k:] of t = S m S^{-1}; each step zeroes the leading b diagonal
    entries of a and drops them.  _pick_pivot gives the first pivot e_j; the
    block J is j followed by the other standard vectors that pass its gates,
    in decreasing beta, at most r // 3 of them, and at most 2 b after a block
    of b fell short.  With J swapped to the front and the QR factorization
    a[J^c, J] = Q [R; 0], column i of diag(I, Q)^H a diag(I, Q) holds
    a_{j_i j_i} at row i, R_ii at row b + i and zeros below it, so |R_ii|
    takes the role of beta_j and must pass the same gates (_front_block).
    The factors P_i = [[1, p0_i], [0, p1_i]] on the pairs (i, b + i), with
    (p0_i, p1_i) proportional to (a_{j_i j_i}, R_ii), then zero the entries
    (i, i) together.  Q is compact WY, I - V T V^H, so a step is a few products of
    rank 2b, and a dense input takes O(log n) steps.  A random pivot v (when
    no standard vector qualifies, and at every step when standard is False)
    is a block of one whose Q comes from the QR of [v, a v].  The rows of S
    and of S^{-H} take the same swaps, Q^H and factors, so S is never
    inverted.  The loop stops early when no pivot is found; in particular a
    scalar trailing block, being traceless, is already zero.
    """
    n = m.shape[0]
    # the trailing block alternates between two flat buffers, so that it is
    # contiguous at every size
    flat = (np.array(m, dtype=complex).reshape(-1), np.empty(n * n, dtype=complex))
    a, free = flat[0].reshape(n, n), 1
    # the rows of S beside those of S^-H, so that one Q^H updates both
    both = np.hstack([np.eye(n, dtype=complex)] * 2)
    gates = np.empty((2, n))
    scratch = np.empty(max(min(_CHUNK_ENTRIES, 2 * n * n), 4 * n))
    k, cap = 0, n
    while k < n - 1:
        r = n - k
        eligible, floor = gate = gates[:, :r]
        pivot = _pick_pivot(a, rng, standard, gate)
        if pivot is None:
            break
        count = np.count_nonzero(eligible) if standard else 0
        if count:
            block = np.argsort(-eligible, kind="stable")[: min(count, cap, max(1, r // 3))]
            (h, tau), swaps = _front_block(a, block, floor[block])
            below, v, t = _compact_wy(h, tau)
            b = lo = len(tau)
            cap = 2 * b if b < len(block) else n
            for places, sources in swaps:
                both[k + places] = both[k + sources]
            c0 = a.diagonal()[:b]
        else:
            # [v, a v] = Q R: column 0 of Q^H a Q is (R_01, R_11, 0, ...) / R_00
            rv, v, t = _compact_wy(*np.linalg.qr(np.stack(pivot, axis=1), mode="raw"))
            c0, below = rv[0, 1:] / rv[0, 0], rv[1:, 1:] / rv[0, 0]
            b, lo = 1, 0
        # (p0, p1) = c / |c| for c = (a_jj, R_ii) zeroes (i, i) of P^-1 a P
        c1 = below.diagonal().real
        norm = np.hypot(np.abs(c0), c1)
        p0, p1 = c0 / norm, c1 / norm
        # rows and columns b: of Q^H a Q, then of P^-1 . P
        kept = flat[free][: (r - b) ** 2].reshape(r - b, r - b)
        th_vh = _conjugate(a[lo:, lo:], v, t, b - lo, kept, scratch)
        kept[:, :b] *= p1
        kept[:b, :b] += below * p0
        kept[:b] /= p1[:, None]
        a, free = kept, 1 - free
        rows = both[k + lo :]
        _subtract_product(rows, v, th_vh @ rows, rows, scratch)
        # rows of S: P^-1 on the pairs;  rows of S^-H: P^H
        lead, pair = both[k : k + b], both[k + b : k + 2 * b]
        lead[:, :n] -= (p0 / p1)[:, None] * pair[:, :n]
        pair[:, :n] /= p1[:, None]
        pair[:, n:] *= p1[:, None]
        pair[:, n:] += p0.conj()[:, None] * lead[:, n:]
        k += b
    np.conjugate(both[:, n:], out=both[:, n:])
    return both[:, :n], both[:, n:].T


# the decomposition's measured peak, in n x n complex arrays, the input
# included.  Besides the input, tracemalloc saw 7.7 (n = 128) and 6.9
# (n = 256) arrays on the single-block path and 8.6 and 7.9 on the
# completion path, where the similarity's two buffers, [S | S^-H], the N x N
# image and the temporaries of the first block step meet; a child process's
# peak RSS at n = 1295, the largest size admitted, was 8.6 and 8.9 arrays,
# the interpreter included (one BLAS thread)
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
        # the residual is scored in place and released before the factors
        # are copied
        r = fb @ fa
        r -= fa @ fb
        r += t.blocks[0]
        residual = float(np.linalg.norm(r))
        del r
        a, b = (Element(t.spec, vector=f.reshape(-1)) for f in (fa, fb))
        return CommutatorWitness(a=a, b=b, residual=residual)

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
    t_vec = t.vector
    best = np.inf
    for _ in range(pairs):
        c_vec = commutator(random_element(spec, rng), random_element(spec, rng)).vector
        denom = np.vdot(c_vec, c_vec).real
        coeff = np.vdot(c_vec, t_vec) / denom if denom > 0 else 0.0
        best = min(best, float(np.linalg.norm(t_vec - coeff * c_vec)))
    return best
