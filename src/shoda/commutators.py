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
finish the job.  The similarity is unitary, as Fillmore ("On similarity
and the diagonal of a matrix", 1969) shows it can be, and halves: each
level gives every traceless block of size s one closed-form rotation, with
a common angle and phase on all pairs of coordinates (j, ceil(s/2) + j),
that leaves both halves traceless, so ceil(log2 n) levels reach blocks of
one coordinate.  An odd block that no such rotation halves is first
conjugated by the similarity of its top half less the mean, which makes
every top entry equal and so a halving exist: the similarity cannot fail,
and a decomposition is one attempt whose residual is checked.  A level acts
on stacks of equal-size blocks with a fixed number of numpy calls, and S is
assembled from the last level up in O(n^2); S^-1 = S^H, so nothing is
inverted and cond(S) = 1.  A decomposition costs
O(n^3) time in the products that form its factors and a fixed number of
n x n arrays, checked against the memory budget before anything is
allocated.  Diagonal inputs skip the similarity and use the shift /
partial-sum factors directly, which keeps integer inputs exactly decomposed
and forms their commutator in O(n).  In a multi-block algebra the per-block
traces certify elements that are not commutators; those decompose in the
completion, where block Frobenius norms bound the residual's extension norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .algebra import (
    _COMPLEX_BYTES,
    _GRAM_SAFE_EXPONENT,
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
from .norms import _b_norm_bound
from .norms import b_norm  # unused here, but perfbench/tracing.py binds it by name
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
    # Frobenius-based upper bound of the residual: algebra norm (one block) or extension norm
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
    scale = frobenius(t)
    return bool(abs(traces.sum()) <= tol * scale and np.any(np.abs(traces) > tol * scale))


def _diagonal_shift_factors(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decompose a traceless diagonal matrix as [shift, partial-sum] factors."""
    n = m.shape[0]
    partial = np.cumsum(np.diag(m).astype(complex))[:-1]
    return np.eye(n, k=1, dtype=complex), np.diag(partial, k=-1)


def _rotate(x: np.ndarray, z: np.ndarray, c: np.ndarray, sw: np.ndarray):
    """(x, z) <- (c x + sw z, c z - conj(sw) x) in place."""
    rotated = c * x
    rotated += sw * z
    z *= c
    z -= sw.conj() * x
    x[...] = rotated


def _dot(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    return np.einsum("...i,...i->...", x, z)


def _unit_solutions(c: np.ndarray, y: np.ndarray, noise: float) -> tuple[np.ndarray, np.ndarray]:
    """Real unit vectors u with c . u = y for complex c (..., 3) and y (...),
    and the squared norm of the minimum-norm solution u0 (inf where none
    exists); a unit solution exists exactly where that is at most 1.

    c . u = y is two real equations L u = (Re y, Im y), L = [Re c; Im c].
    Gram-Schmidt on the rows, the larger first, gives orthonormal e1, e2
    with u0 = z1 e1 + z2 e2, and u adds sqrt(1 - |u0|^2) e1 x e2.  A second
    row within noise of the span of the first counts as zero, which leaves a
    residual of at most twice noise; e2 is then e_3 (e_1 when e1 is near e_3)
    orthogonalized, so that a real L gives a real u."""
    with np.errstate(divide="ignore", invalid="ignore"):
        # multiplying both sides by -i swaps the rows, up to sign
        turn = np.where(_dot(c.imag, c.imag) > _dot(c.real, c.real), -1j, 1.0)
        c, y = c * turn[..., None], y * turn
        norm = np.sqrt(_dot(c.real, c.real))
        e1, z1 = c.real / norm[..., None], y.real / norm
        g = _dot(c.imag, e1)
        q, y2 = c.imag - g[..., None] * e1, y.imag - g * z1
        rank_one = _dot(q, q) <= noise**2
        infeasible = rank_one & (np.abs(y2) > noise)
        fallback = np.where(e1[..., 2:] ** 2 <= 0.5, np.eye(3)[2], np.eye(3)[0])
        q = np.where(rank_one[..., None], fallback, q)
        # a second pass keeps e2 orthogonal to e1 when the rows are close
        g = _dot(q, e1)
        q, y2 = q - g[..., None] * e1, np.where(rank_one, 0.0, y2 - g * z1)
        norm = np.sqrt(_dot(q, q))
        e2, z2 = q / norm[..., None], y2 / norm
        slack = np.where(infeasible, np.inf, z1**2 + z2**2)
        normal = e1[..., [1, 2, 0]] * e2[..., [2, 0, 1]] - e1[..., [2, 0, 1]] * e2[..., [1, 2, 0]]
        lift = np.sqrt(np.maximum(1.0 - slack, 0.0))
        u = z1[..., None] * e1 + z2[..., None] * e2 + lift[..., None] * normal
    return u, slack


def _odd_rotation(a: np.ndarray, top: np.ndarray, noise: float):
    """(cos, sw, r, slack) of _halve for a stack of odd blocks: for each
    block, over the choices r of the unpaired top coordinate, the unit
    solution of c . u = -x_rr/2 with the smallest minimum-norm solution,
    whose squared norm slack is at most 1 where the block is solvable.
    Candidate r swaps r with h - 1, which then pairs with h + r."""
    k, s = a.shape[:2]
    h = (s + 1) // 2
    p = s - h
    lower = a[:, h:, :p].diagonal(axis1=1, axis2=2)
    upper = a[:, :p, h:].diagonal(axis1=1, axis2=2)
    zero = np.zeros((k, 1))
    low = lower.sum(axis=1)[:, None] + np.concatenate([a[:, h:, p] - lower, zero], axis=1)
    up = upper.sum(axis=1)[:, None] + np.concatenate([a[:, p, h:] - upper, zero], axis=1)
    half = a.diagonal(axis1=1, axis2=2)[:, :h] / 2
    c = np.stack([top[:, None] - half, (low + up) / 2, 0.5j * (low - up)], axis=-1)
    u, slack = _unit_solutions(c, -half, noise)
    r = slack.argmin(axis=1)
    u, slack = u[np.arange(k), r], slack[np.arange(k), r]
    angle = 0.5 * np.arctan2(np.hypot(u[:, 1], u[:, 2]), u[:, 0])
    return np.cos(angle), np.sin(angle) * np.exp(1j * np.arctan2(u[:, 2], u[:, 1])), r, slack


def _even_rotation(top: np.ndarray, low: np.ndarray, up: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cos, sw) of _halve for even blocks, in closed form, from the top
    traces and the sums a = low, b = up: with t = top / |top|, the phase
    w of conj(g), g = conj(t) a - t conj(b), makes
    conj(t) (w a + conj(w) b) a real mu, and 2 theta = atan2(2 |top|, -mu)
    then zeroes top cos 2 theta + sin 2 theta (w a + conj(w) b) / 2.  A zero
    top trace gives the identity."""
    size = np.abs(top)
    unit = top / np.where(size > 0.0, size, 1.0)
    w = np.exp(-1j * np.angle(unit.conj() * low - unit * up.conj()))
    mu = np.where(size > 0.0, (unit.conj() * (w * low + w.conj() * up)).real, -1.0)
    angle = 0.5 * np.arctan2(2.0 * size, -mu)
    return np.cos(angle), np.sin(angle) * w


def _mixers(a: np.ndarray) -> np.ndarray:
    """Unitary pre-mixes M = diag(S, I) (k, s, s) for odd blocks a (k, s, s)
    that no pair rotation halves.  S is the zero-diagonal similarity of the
    top h = ceil(s/2) coordinates less their mean tau/h, so every top entry
    of M a M^H is tau/h, x_rr among them, and u = (-1/(2h - 1), 0, 0) solves
    c . u = -x_rr/2 (see _halve): the halving exists, with slack at most
    1/(2h - 1)^2.  For s = 3 S rotates coordinates 0 and 1 to their mean."""
    k, s = a.shape[:2]
    h = (s + 1) // 2
    top = a[:, :h, :h] - np.trace(a[:, :h, :h], axis1=1, axis2=2)[:, None, None] / h * np.eye(h)
    mix = np.zeros((k, s, s), dtype=complex)
    mix[:, :h, :h] = _zero_diagonal_similarity(top)[0]
    mix[:, h:, h:] = np.eye(s - h)
    return mix


def _halve(a: np.ndarray, noise: float):
    """Rotate each traceless block of the stack a (k, s, s), in place, so
    that its leading h = ceil(s/2) coordinates are traceless too; return the
    rotation and the views of the two halves.  The rotation is
    (cos, sw, moved, r, mixed, mix): the rotation
    [[cos, sw], [-conj(sw), cos]] of block i on every pair (j, h + j),
    j < s - h, after the blocks `moved` swapped coordinates r and h - 1 and
    the blocks `mixed` were conjugated by the unitaries mix (_mixers).
    Blocks whose top trace is within noise of 0 are left as they are.

    The rotation [[cos t, sin t w], [-sin t conj(w), cos t]], w = e^(i phi),
    makes the top trace
    x_rr/2 + (tr - x_rr/2) cos 2t + sin 2t (w a + conj(w) b) / 2, with tr the
    top trace, a and b the sums of x_{h+j,j} and x_{j,h+j}, and x_rr the
    unpaired top entry h - 1 (0 for even s).  That is x_rr/2 + c . u for u =
    (cos 2t, sin 2t cos phi, sin 2t sin phi) on the unit sphere, so the
    rotation is a unit solution of c . u = -x_rr/2: for even s a null vector
    of the real 2 x 3 matrix [Re c; Im c], which always exists and
    _even_rotation gives in closed form; for odd s, over the choices of the
    unpaired coordinate r, the one with the smallest minimum-norm solution.
    When no r has one (diag(1, w, w^2) with w^3 = 1 has none) the block is
    pre-mixed (_mixers), after which one always exists."""
    k, s = a.shape[:2]
    h = (s + 1) // 2
    p = s - h
    r = moved = mixed = np.zeros(0, dtype=np.intp)
    mix = np.zeros((0, s, s), dtype=complex)
    for attempt in range(2):
        top = a.diagonal(axis1=1, axis2=2)[:, :h].sum(axis=1)
        active = np.abs(top) > noise
        if not active.any():
            return (np.ones(k), np.zeros(k, dtype=complex), moved, r, mixed, mix), (
                a[:, :h, :h], a[:, h:, h:])
        if p == h:
            low = a[:, h:, :h].diagonal(axis1=1, axis2=2).sum(axis=1)
            up = a[:, :h, h:].diagonal(axis1=1, axis2=2).sum(axis=1)
            cos, sw = _even_rotation(top, low, up)
            break
        cos, sw, unpaired, slack = _odd_rotation(a, top, noise)
        failed = np.flatnonzero(active & ~(slack <= 1.0))
        if not len(failed):
            moved = np.flatnonzero(active & (unpaired < p))
            r = unpaired[moved]
            break
        if attempt:
            raise NumericalFailure(f"no traceless halving of a block of size {s}")
        mixed, mix = failed, _mixers(a[failed])
        a[mixed] = mix @ a[mixed] @ mix.conj().swapaxes(1, 2)
    if len(moved):
        a[moved, r], a[moved, p] = a[moved, p], a[moved, r]
        a[moved, :, r], a[moved, :, p] = a[moved, :, p], a[moved, :, r]
    cos, sw = np.where(active, cos, 1.0), np.where(active, sw, 0.0)
    c, w = cos[:, None, None], sw[:, None, None]
    _rotate(a[:, :p], a[:, h:], c, w)
    _rotate(a[:, :, :p], a[:, :, h:], c, w.conj())
    return (cos, sw, moved, r, mixed, mix), (a[:, :h, :h], a[:, h:, h:])


def _unhalve(top: np.ndarray, bottom: np.ndarray, halving) -> np.ndarray:
    """The blocks V (k, s, s) of a level from those of its halves, top
    (k, h, h) and bottom (k, s - h, s - h), and the level's rotation as
    _halve returned it: V = diag(top, bottom) U, where U is the rotation
    after the swaps after the pre-mixes."""
    cos, sw, moved, r, mixed, mix = halving
    k, h = top.shape[:2]
    p = bottom.shape[1]
    c, w = cos[:, None, None], sw[:, None, None]
    v = np.zeros((k, h + p, h + p), dtype=complex)
    v[:, :h, :h] = top
    v[:, :h, :p] *= c
    np.multiply(top[:, :, :p], w, out=v[:, :h, h:])
    np.multiply(bottom, -w.conj(), out=v[:, h:, :p])
    np.multiply(bottom, c, out=v[:, h:, h:])
    if len(moved):
        v[moved, :, r], v[moved, :, p] = v[moved, :, p], v[moved, :, r]
    if len(mixed):
        v[mixed] = v[mixed] @ mix
    return v


def _zero_diagonal_similarity(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unitary S and S^-1 = S^H such that S m S^H has (numerically) zero
    diagonal, for a traceless m (n, n), or for each of a stack m (k, n, n);
    a stack shares one scale and one noise level, as the blocks of one level
    of a single matrix do.

    Each level halves every block: _halve rotates a traceless block of size s
    so that its leading ceil(s/2) coordinates are traceless, and both halves
    go on as blocks of the next level, so ceil(log2 n) levels leave blocks of
    one coordinate, each with zero diagonal.  Only the diagonal blocks of
    S m S^H are kept, as one stack per block size, and the rotations of each
    level act on them with a few stacked numpy calls.  S is then built from
    the last level up: the product of the rotations of the levels from l on
    is block-diagonal on the blocks of level l, so each level costs O(n s)
    for its block size s and S costs O(n^2).  The pre-mix of an odd block
    calls this function on half the block, so the calls nest at most
    log2(n) deep.
    """
    n = m.shape[-1]
    # S does not depend on the scale of m: a power of two, exactly, brings the
    # real and imaginary parts below 1
    a = np.array(m, dtype=complex)
    a *= 2.0 ** -np.frexp(np.abs(a.view(float)).max())[1]
    noise = 16 * np.finfo(float).eps * np.linalg.norm(a)
    # each level: (size, count, rotation, where the halves went) per stack
    levels, stacks = [], {n: a.reshape(-1, n, n)}
    while stacks:
        level, halves = [], {}
        for s, a in stacks.items():
            if s == 1:
                level.append((s, len(a), None, None))
                continue
            halving, pair = _halve(a, noise)
            slots = []
            for half in pair:
                parts = halves.setdefault(half.shape[1], [])
                slots.append(sum(map(len, parts)))
                parts.append(half)
            level.append((s, len(a), halving, slots))
        levels.append(level)
        stacks = {s: np.concatenate(parts) for s, parts in halves.items()}
    below = {}
    for level in reversed(levels):
        above = {}
        for s, k, halving, slots in level:
            if halving is None:
                above[s] = np.ones((k, 1, 1), dtype=complex)
                continue
            h = (s + 1) // 2
            top = below[h][slots[0] : slots[0] + k]
            bottom = below[s - h][slots[1] : slots[1] + k]
            above[s] = _unhalve(top, bottom, halving)
        below = above
    sim = below[n].reshape(m.shape)
    inverse = np.empty_like(sim)
    np.conjugate(sim.swapaxes(-1, -2), out=inverse)
    return sim, inverse


# the decomposition's measured peak, in n x n complex arrays, the input
# included.  Besides the input, tracemalloc saw 4.0 arrays (n = 128 and 256)
# on the single-block path, set by the products that form the factors (the
# similarity alone holds 2.6), and 6.0 on the completion path (two blocks).
# A child process's peak RSS (wait4, one BLAS thread, the interpreter
# included) at n = 1295, the largest size admitted, was 7.5 arrays on one
# block, 8.5 on two blocks and 9.1 on (5,) * 259 in the completion, so nine
# would not do
_DECOMPOSE_ARRAYS = 10


def _decompose_matrix(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factors (a, b) with a b - b a = m for a traceless square matrix."""
    n = m.shape[0]
    off_mass = np.linalg.norm(m - np.diag(np.diag(m)))
    if off_mass <= 1e-12 * np.linalg.norm(m):
        return _diagonal_shift_factors(m)
    sim, sim_inv = _zero_diagonal_similarity(m)
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
    if abs(trace(t)) > tol * frobenius(t):
        raise NotTraceless(f"trace is {trace(t)}")


def _commutator(fa: np.ndarray, fb: np.ndarray) -> np.ndarray:
    """fa fb - fb fa, in O(n) as diag(fb[i+1, i] - fb[i, i-1]) when the factors are seen to be
    the exact unit shift and a matrix zero off its subdiagonal (_diagonal_shift_factors)."""
    sub = np.diagonal(fb, -1)
    if (np.all(np.diagonal(fa, 1) == 1.0) and np.count_nonzero(fa) == len(sub)
            and np.count_nonzero(fb) == np.count_nonzero(sub)):
        return np.diag(np.append(sub, 0.0) - np.insert(sub, 0, 0.0))
    c = fa @ fb
    c -= fb @ fa
    return c


def _checked_factors(m: np.ndarray, scale: float, norm: Callable[[np.ndarray], float],
                     accept: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Factors (a, b) of m and the norm of their residual m - (a b - b a),
    which must be at most accept.  When scale, |m|_F, lies outside 2**-481 to
    2**480, m is first scaled exactly by the power of two that brings it into
    [1/2, 1), so that no norm overflows, and b and the residual scaled back."""
    e = math.frexp(scale)[1]
    e = e if abs(e) > _GRAM_SAFE_EXPONENT else 0
    m = np.ldexp(m.view(float), -e).view(complex) if e else m
    fa, fb = _decompose_matrix(m)
    # the residual, in place in one array, is gone before the factors are copied
    r = _commutator(fa, fb)
    np.subtract(m, r, out=r)
    residual = math.ldexp(norm(r), e)
    if not residual <= accept:
        raise NumericalFailure(f"witness residual {residual} exceeds {accept}")
    if e:
        np.ldexp(fb.view(float), e, out=fb.view(float))
    return fa, fb, residual


def commutator_decompose(t: Element, tol: float = 1e-9) -> CommutatorWitness:
    """Constructive decomposition t = a b - b a inside a single-block algebra.

    Multi-block algebras are rejected; use the per-block trace certificate
    and, for certified elements, the decomposition in the completion.
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
    fa, fb, residual = _checked_factors(t.blocks[0], scale, np.linalg.norm, tol * max(1.0, scale))
    a, b = (Element(t.spec, vector=f.reshape(-1)) for f in (fa, fb))
    return CommutatorWitness(a=a, b=b, residual=residual)


def decompose_in_completion(t: Element, tol: float = 1e-9) -> CommutatorWitness:
    """Decompose a traceless element after embedding it into the completion.

    The element embeds as the pair (t, 0), maps through the full-matrix
    identification, decomposes there, and the factors pull back to extension
    elements.  The residual is bounded in the extension norm by block Frobenius norms.
    """
    _require_decomposable_size(t.spec.matrix_size)
    _require_traceless(t, tol)
    spec, scale = t.spec, frobenius(t)
    if scale == 0.0:
        zero = BElement(spec.zero(), aj_zero(spec))
        return CommutatorWitness(a=zero, b=zero, residual=0.0)
    full = extension_to_matrix(BElement(t, aj_zero(spec)))  # the entries of t: |full|_F = scale
    fa, fb, residual = _checked_factors(full, scale, lambda r: _b_norm_bound(spec, r), tol * max(1.0, scale))
    a, b = matrix_to_extension(spec, fa), matrix_to_extension(spec, fb)
    return CommutatorWitness(a=a, b=b, residual=residual)


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
