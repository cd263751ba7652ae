"""Assembly of the completed algebra and its full-matrix identification.

The extension of a block algebra by its off-diagonal trace-pairing tensors
has total dimension (sum of block sizes) squared.  This module emits its
structure constants on the basis of block matrix units and tensor units,
computes the radical (verified zero, not assumed), identifies the Wedderburn
structure, and checks the explicit isomorphism witness onto one full matrix
block, kept as the matrix unit of each basis element: algebra block i sits
at diagonal position i, the tensor pair (i, j) at off-diagonal position (i, j).
The witness check compares every record with the product of the matrix
units of its basis pair, exactly; by bilinearity that covers every pair of
elements.  It also checks multiply_B, the matmul of that picture, against
the paper's trace-pairing product on seeded elementary tensors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import _COMPLEX_BYTES, AlgebraSpec, Element, _require_budget
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

# seeded pairs of elementary tensors checked against the trace pairing
_PAIRING_CHECKS = 8
# complete() counts this many bytes per structure-constant record (N**3 of
# them) against the memory budget, so N <= 86.  A child process's peak RSS
# (wait4, one BLAS thread), the interpreter included, over the record count
# was 401 to 411 bytes (243 to 249 MiB) at (86,), (43, 43), (2,) * 43 and
# (1,) * 86.  The peak is the centre solve's in wedderburn_identify, whose
# arrays sit on the heap; tracemalloc reads 198.6 MiB there at (86,), and the
# 6 MiB spread is how much freed heap the allocator can reuse.
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
    (a (x) b)(c (x) d) = Tr(bc) a (x) d on seeded elementary tensors, formed
    and compared in coordinates: a, c in the minimal left ideals (column 0)
    of drawn blocks i, j and b, d in the right ideals (row 0) of blocks j, l,
    so that Tr(bc) = b . c is generically not 0.  a (x) b is outer(a, b) in
    block i of the algebra part if i == j, else the tensor term (i, j)."""
    dims = spec.block_dims
    keys = rng.integers(spec.num_blocks, size=(_PAIRING_CHECKS, 3)).tolist()
    z = rng.normal(size=(2, _PAIRING_CHECKS, 4, max(dims)))

    def tensor(i: int, j: int, m: np.ndarray) -> BElement:
        if i != j:
            return BElement(spec.zero(), AJElement(spec, {(i, j): m}))
        vector = np.zeros(spec.dim, dtype=complex)
        vector[spec.offset(i) : spec.offset(i) + m.size] = m.ravel()
        return BElement(Element(spec, vector=vector), aj_zero(spec))

    worst = 0.0
    for (i, j, l), (a, b, c, d) in zip(keys, z[0] + 1j * z[1]):
        a, b, c, d = a[: dims[i]], b[: dims[j]], c[: dims[j]], d[: dims[l]]
        got = multiply_B(tensor(i, j, np.outer(a, b)), tensor(j, l, np.outer(c, d)))
        want = tensor(i, l, (b @ c) * np.outer(a, d))
        gap = max(np.abs(got.a.vector - want.a.vector).max(), np.abs(got.u.matrix - want.u.matrix).max())
        worst = max(worst, gap / (1.0 + np.linalg.norm(want.a.vector) + np.linalg.norm(want.u.matrix)))
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
    iso_residual = _basis_residual(alg, *positions)
    residual = _pairing_residual(spec, np.random.default_rng(seed))
    if residual > tol:
        raise NumericalFailure(f"multiply_B is off the trace pairing by {residual}")
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
