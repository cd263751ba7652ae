"""Assembly of the completed algebra and its full-matrix identification.

The extension of a block algebra by its off-diagonal trace-pairing tensors
has total dimension (sum of block sizes) squared.  This module emits its
structure constants on the basis of block matrix units and tensor units,
computes the radical (verified zero, not assumed), forms the quotient,
identifies the Wedderburn structure, and produces the explicit isomorphism
witness onto one full matrix block: algebra block i sits at diagonal
position i, and the tensor coordinate for the pair (i, j) at off-diagonal
position (i, j).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import _COMPLEX_BYTES, AlgebraSpec, Element, _chunk_size, _require_budget
from .errors import NumericalFailure
from .structure import (
    RECORD,
    StructureConstantAlgebra,
    _accumulate,
    _join,
    quotient,
    radical,
    wedderburn_identify,
)
from .tensor import AJElement, BElement, _full_coordinates, aj_pairs, aj_zero, multiply_B

# seeded random pairs checked against the witness on top of every basis pair
_CHECK_PAIRS = 100
# seeded dense pairs on which multiply_B itself is checked against the matrix product
_PRODUCT_PAIRS = 8
# complete() counts seven d x d complex arrays (d = N**2) against the memory
# budget, so N <= 39; one of them is the (d, N, N) witness images, and the
# rest is headroom for the component blocks (at most N**2 x N entries each),
# the O(N**3) records of the witness check and the LAPACK workspaces.
_DENSE_ARRAYS = 7


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


def extension_coordinates(x: BElement) -> np.ndarray:
    """Coordinate vector of an extension element in the basis order above."""
    return extension_to_matrix(x)[extension_positions(x.spec)]


def extension_from_coordinates(spec: AlgebraSpec, vec: np.ndarray) -> BElement:
    size = spec.matrix_size
    mat = np.zeros((size, size), dtype=complex)
    mat[extension_positions(spec)] = vec
    return matrix_to_extension(spec, mat)


def extension_to_matrix(x: BElement) -> np.ndarray:
    """Image of an extension element under the full-matrix identification."""
    return _full_matrix(x.spec, x.a.blocks, x.u.terms)


def _full_matrix(spec: AlgebraSpec, blocks, terms: dict) -> np.ndarray:
    """extension_to_matrix of coordinate arrays; leading axes index a stack."""
    size = spec.matrix_size
    off = spec.offsets()
    out = np.zeros(np.shape(blocks[0])[:-2] + (size, size), dtype=complex)
    for (i, j), m in _full_coordinates(blocks, terms).items():
        out[..., off[i] : off[i] + m.shape[-2], off[j] : off[j] + m.shape[-1]] = m
    return out


def matrix_to_extension(spec: AlgebraSpec, mat: np.ndarray) -> BElement:
    mat = np.asarray(mat, dtype=complex)
    size = spec.matrix_size
    if mat.shape != (size, size):
        raise ValueError(f"expected a {size} x {size} matrix, got {mat.shape}")
    off = spec.offsets()
    blocks = [
        mat[o : o + n, o : o + n] for o, n in zip(off, spec.block_dims)
    ]
    terms = {}
    for i, j in aj_pairs(spec):
        terms[(i, j)] = mat[
            off[i] : off[i] + spec.block_dims[i], off[j] : off[j] + spec.block_dims[j]
        ]
    return BElement(Element(spec, tuple(blocks)), AJElement(spec, terms))


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
    unit = extension_coordinates(BElement(spec.identity(), aj_zero(spec)))
    return StructureConstantAlgebra(table, unit)


def _basis_residual(alg: StructureConstantAlgebra, images: np.ndarray) -> float:
    """Worst entry of table-image minus image-product over every basis pair.

    Both sides are sums of products of nonzeros keyed by (a, b, row, col):
    each record (a, b, c, v) gives v * images[c], and images[a] @ images[b]
    joins the nonzeros of the two images on the inner index.  A wrong,
    missing or extra record leaves an unmatched key.
    """
    d, size, _ = images.shape
    k, x, y = np.nonzero(images)
    w = images[k, x, y]
    t = alg.table

    def key(a, b, row, col):
        return ((a * d + b) * size + row) * size + col

    i, j = _join(t["c"], k)
    lhs_key, lhs = key(t["a"][i], t["b"][i], x[j], y[j]), t["v"][i] * w[j]
    i, j = _join(y, x)
    rhs_key, rhs = key(k[i], k[j], x[i], y[j]), w[i] * w[j]
    keys, slot = np.unique(np.concatenate([lhs_key, rhs_key]), return_inverse=True)
    diff = _accumulate(slot, np.concatenate([lhs, -rhs]), keys.size)
    return float(np.abs(diff).max(initial=0.0))


@dataclass(frozen=True, eq=False)
class CompletionResult:
    """Outcome of the completion pipeline, with the identification witness."""

    spec: AlgebraSpec
    total_dim: int
    radical_dim: int
    block_structure: tuple[int, ...]
    iso_residual: float
    witness_images: np.ndarray = field(repr=False)  # (dim, size, size)

    @property
    def matrix_size(self) -> int:
        return self.spec.matrix_size

    def embed_matrix(self, a: Element) -> np.ndarray:
        """Full-matrix image of the base algebra's embedding a |-> (a, 0)."""
        return extension_to_matrix(BElement(a, aj_zero(self.spec)))


def complete(spec: AlgebraSpec, tol: float = 1e-9, seed: int = 42) -> CompletionResult:
    """Run the whole pipeline: structure constants, radical, quotient,
    Wedderburn identification, and the verified full-matrix witness."""
    d = spec.matrix_size**2
    _require_budget(f"the completion of {spec.block_dims}", _DENSE_ARRAYS * d**2 * _COMPLEX_BYTES)
    alg = build_B(spec)
    rad = radical(alg, tol)
    radical_dim = int(rad.shape[0])
    semisimple = quotient(alg, rad, tol)
    components = wedderburn_identify(semisimple, tol, seed=seed)
    if radical_dim != 0:
        raise NumericalFailure(
            f"extension of {spec.block_dims} reported radical dimension {radical_dim}"
        )

    size = spec.matrix_size
    rows, cols = extension_positions(spec)
    images = np.zeros((d, size, size), dtype=complex)
    images[np.arange(d), rows, cols] = 1.0
    basis_residual = _basis_residual(alg, images)

    def witness(coords: np.ndarray) -> np.ndarray:
        out = np.zeros(coords.shape[:-1] + (size, size), dtype=complex)
        out[..., rows, cols] = coords
        return out

    # seeded pairs in stacks, each pair about four complex entries per record
    # and nine per coordinate
    rng = np.random.default_rng(seed)
    chunk = _chunk_size((4 * alg.table.size + 9 * d) * _COMPLEX_BYTES)
    random_residual = 0.0
    for lo in range(0, _CHECK_PAIRS, chunk):
        draw = rng.normal(size=(min(chunk, _CHECK_PAIRS - lo), 4, d))
        x, y = draw[:, 0] + 1j * draw[:, 1], draw[:, 2] + 1j * draw[:, 3]
        lhs = witness(alg.product(x, y))
        worst = np.abs(lhs - witness(x) @ witness(y)).max(axis=(1, 2))
        denom = 1.0 + np.linalg.norm(lhs, axis=(1, 2))
        random_residual = max(random_residual, float((worst / denom).max()))

    # the table is not built from multiply_B, so the product is checked on its own
    for _ in range(_PRODUCT_PAIRS):
        x, y = (
            extension_from_coordinates(spec, rng.normal(size=d) + 1j * rng.normal(size=d))
            for _ in range(2)
        )
        lhs = extension_to_matrix(multiply_B(x, y))
        rhs = extension_to_matrix(x) @ extension_to_matrix(y)
        product_residual = float(np.abs(lhs - rhs).max()) / (1.0 + np.linalg.norm(lhs))
        if product_residual > tol:
            raise NumericalFailure(
                f"multiply_B is off the matrix product by {product_residual}"
            )

    iso_residual = max(basis_residual, random_residual)
    if not iso_residual <= tol:
        raise NumericalFailure(f"the witness is off the table by {iso_residual}")
    return CompletionResult(
        spec=spec,
        total_dim=d,
        radical_dim=radical_dim,
        block_structure=tuple(components),
        iso_residual=iso_residual,
        witness_images=images,
    )
