"""Assembly of the completed algebra and its full-matrix identification.

The extension of a block algebra by its off-diagonal trace-pairing tensors
has total dimension (sum of block sizes) squared.  This module emits its
structure constants on the basis of block matrix units and tensor units,
computes the radical (verified zero, not assumed), identifies the Wedderburn
structure, and checks the explicit isomorphism witness onto one full matrix
block, kept as the matrix unit of each basis element: algebra block i sits
at diagonal position i, the tensor pair (i, j) at off-diagonal position (i, j).
It also checks multiply_B, the matmul of that picture, against the paper's
trace-pairing product on seeded elementary tensors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import _COMPLEX_BYTES, AlgebraSpec, Element, _chunk_size, _require_budget, frobenius, multiply, trace
from .errors import NumericalFailure
from .structure import (
    RECORD,
    StructureConstantAlgebra,
    _accumulate,
    _join,
    quotient,  # unused here, but perfbench/tracing.py binds it by name
    radical,
    wedderburn_identify,
)
from .tensor import AJElement, BElement, aj_zero, extension_to_matrix, multiply_B

# seeded random pairs checked against the witness on top of every basis pair
_CHECK_PAIRS = 100
# seeded pairs of elementary tensors checked against the trace pairing
_PAIRING_CHECKS = 8
# complete() counts this many bytes per structure-constant record (N**3 of
# them) against the memory budget, so N <= 86.  A child process's peak RSS
# (getrusage, one BLAS thread), the interpreter included, over the record
# count was 409 bytes at (86,), 400 at (43, 43), (2,) * 43 and (1,) * 86, and
# 407 at (87,), which peaked at 255.5 MiB.
_RECORD_BYTES = 410


def extension_positions(spec: AlgebraSpec) -> tuple[np.ndarray, np.ndarray]:
    """Row and column in M_N of each basis element, in coordinate order.

    The order is the one basis order of the extension: the block matrix
    units block by block, then the tensor units pair by pair in aj_pairs
    order, each block row-major.
    """
    size = spec.matrix_size
    block = np.repeat(np.arange(spec.num_blocks), spec.block_dims)
    bi, bj = block[:, None], block[None, :]
    # diagonal blocks sort first, then the pairs (i, j) lexicographically;
    # the stable sort keeps each block row-major
    key = np.where(bi == bj, bi, spec.num_blocks * (1 + bi) + bj)
    return np.divmod(np.argsort(key, axis=None, kind="stable"), size)


def _place(positions: tuple[np.ndarray, np.ndarray], coords: np.ndarray) -> np.ndarray:
    """N x N matrix with the coordinates at their positions; leading axes of
    coords index a stack."""
    rows, cols = positions
    size = math.isqrt(rows.size)
    out = np.zeros(np.shape(coords)[:-1] + (size, size), dtype=complex)
    out[..., rows, cols] = coords
    return out


def build_B(spec: AlgebraSpec) -> StructureConstantAlgebra:
    """Structure constants of the extension on matrix-unit and tensor-unit basis.

    Each basis element is one matrix unit E_pq of M_N, so the only nonzero
    constants are the N**3 ones of E_pq E_qr = E_pr, stored as records.
    """
    size = spec.matrix_size
    d = size**2
    row, col = extension_positions(spec)
    pos = np.empty((size, size), dtype=np.intp)
    pos[row, col] = np.arange(d)
    a = np.repeat(np.arange(d), size)
    r = np.tile(np.arange(size), d)
    table = np.empty(a.size, dtype=RECORD)
    table["a"], table["b"], table["c"], table["v"] = a, pos[col[a], r], pos[row[a], r], 1.0
    return StructureConstantAlgebra(table, (row == col).astype(complex))


def _basis_residual(alg: StructureConstantAlgebra, rows: np.ndarray, cols: np.ndarray) -> float:
    """Worst entry of table-image minus image-product over every basis pair,
    for the witness sending basis element a to the matrix unit at
    (rows[a], cols[a]).

    Both sides are keyed by (a, b, row, col): each record (a, b, c, v) gives
    v at the unit of c, and the units of a and b multiply to the unit at
    (rows[a], cols[b]) when cols[a] == rows[b].  A wrong, missing or extra
    record leaves an unmatched key.
    """
    d = rows.size
    size = math.isqrt(d)
    t = alg.table

    def key(a, b, row, col):
        return ((a * d + b) * size + row) * size + col

    c = t["c"]
    lhs_key = key(t["a"], t["b"], rows[c], cols[c])
    i, j = _join(cols, rows)
    rhs_key = key(i, j, rows[i], cols[j])
    keys, slot = np.unique(np.concatenate([lhs_key, rhs_key]), return_inverse=True)
    diff = _accumulate(slot, np.concatenate([t["v"], -np.ones(i.size)]), keys.size)
    return float(np.abs(diff).max(initial=0.0))


def _pairing_residual(spec: AlgebraSpec, rng: np.random.Generator) -> float:
    """Worst relative gap between multiply_B and the paper's product
    (a (x) b)(c (x) d) = Tr(bc) a (x) d, formed with the algebra's multiply
    and trace, on seeded elementary tensors: a, c in the minimal left ideals
    (column 0) of drawn blocks i, j and b, d in the right ideals (row 0) of
    blocks j, l, c in b's block so that Tr(bc) is generically not 0."""

    def ideal(block: int, column: bool) -> Element:
        n = spec.block_dims[block]
        z = rng.normal(size=(2, n))
        vector = np.zeros(spec.dim, dtype=complex)
        vector[spec.offset(block) + np.arange(n) * (n if column else 1)] = z[0] + 1j * z[1]
        return Element(spec, vector=vector)

    def tensor(a: Element, i: int, b: Element, j: int) -> BElement:
        # ab in the algebra when i == j, else (column of a)(row of b) at (i, j)
        if i == j:
            return BElement(multiply(a, b), aj_zero(spec))
        return BElement(spec.zero(), AJElement(spec, {(i, j): np.outer(a.block(i)[:, 0], b.block(j)[0])}))

    worst = 0.0
    for _ in range(_PAIRING_CHECKS):
        i, j, l = rng.integers(spec.num_blocks, size=3).tolist()
        a, b, c, d = ideal(i, True), ideal(j, False), ideal(j, True), ideal(l, False)
        want = complex(trace(multiply(b, c))) * tensor(a, i, d, l)
        gap = multiply_B(tensor(a, i, b, j), tensor(c, j, d, l)) - want
        scale = 1.0 + frobenius(want.a) + np.linalg.norm(want.u.matrix)
        worst = max(worst, max(np.abs(gap.a.vector).max(), np.abs(gap.u.matrix).max()) / scale)
    return float(worst)


@dataclass(frozen=True, eq=False)
class CompletionResult:
    """Outcome of the completion pipeline, with the identification witness."""

    spec: AlgebraSpec
    total_dim: int
    radical_dim: int
    block_structure: tuple[int, ...]
    iso_residual: float
    positions: tuple[np.ndarray, np.ndarray] = field(repr=False)  # extension_positions

    @property
    def matrix_size(self) -> int:
        return self.spec.matrix_size

    @property
    def witness_images(self) -> np.ndarray:
        """Dense (dim, size, size) stack of the witness: the image of each
        basis element, built on each read.  The d x d identity and the stack
        it is placed into, two d x d arrays, are checked against the budget."""
        _require_budget(f"the witness images of {self.spec.describe()}",
                        2 * self.total_dim**2 * _COMPLEX_BYTES)
        return _place(self.positions, np.eye(self.total_dim))

    def embed_matrix(self, a: Element) -> np.ndarray:
        """Full-matrix image of the base algebra's embedding a |-> (a, 0)."""
        return extension_to_matrix(BElement(a, aj_zero(self.spec)))


def complete(spec: AlgebraSpec, tol: float = 1e-9, seed: int = 42) -> CompletionResult:
    """Run the whole pipeline: structure constants, radical, Wedderburn
    identification, and the verified full-matrix witness."""
    d = spec.matrix_size**2
    _require_budget(f"the completion of {spec.describe()}", _RECORD_BYTES * spec.matrix_size**3)
    alg = build_B(spec)
    radical_dim = int(radical(alg, tol).shape[0])
    if radical_dim != 0:
        raise NumericalFailure(
            f"extension of {spec.block_dims} reported radical dimension {radical_dim}"
        )
    components = wedderburn_identify(alg, tol, seed=seed)

    positions = extension_positions(spec)
    basis_residual = _basis_residual(alg, *positions)

    # seeded pairs in stacks, each pair about four complex entries per record
    # and nine per coordinate
    rng = np.random.default_rng(seed)
    chunk = _chunk_size((4 * alg.table.size + 9 * d) * _COMPLEX_BYTES)
    random_residual = 0.0
    for lo in range(0, _CHECK_PAIRS, chunk):
        draw = rng.normal(size=(min(chunk, _CHECK_PAIRS - lo), 4, d))
        x, y = draw[:, 0] + 1j * draw[:, 1], draw[:, 2] + 1j * draw[:, 3]
        lhs = _place(positions, alg.product(x, y))
        rhs = _place(positions, x) @ _place(positions, y)
        worst = np.abs(lhs - rhs).max(axis=(1, 2))
        denom = 1.0 + np.linalg.norm(lhs, axis=(1, 2))
        random_residual = max(random_residual, float((worst / denom).max()))
    residual = _pairing_residual(spec, rng)
    if residual > tol:
        raise NumericalFailure(f"multiply_B is off the trace pairing by {residual}")

    iso_residual = max(basis_residual, random_residual)
    if not iso_residual <= tol:
        raise NumericalFailure(f"the witness is off the table by {iso_residual}")
    return CompletionResult(
        spec=spec,
        total_dim=d,
        radical_dim=radical_dim,
        block_structure=tuple(components),
        iso_residual=iso_residual,
        positions=positions,
    )
