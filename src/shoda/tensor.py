"""Trace-pairing tensor extension of a block algebra.

The socle of a block algebra decomposes into minimal ideals, one per block,
each generated by a canonical rank-one projection.  Tensors between the
corresponding minimal left and right ideals multiply through the trace
pairing, (a (x) b)(c (x) d) = Tr(bc) a (x) d.  With the column basis of each
left ideal and the row basis of each right ideal, an off-diagonal tensor is
a coordinate matrix per ordered block pair (i, j), i != j, and the trace
pairing becomes plain matrix multiplication of coordinates:

    unit(i,k (x) j,l) * unit(j',k' (x) j'',l')
        = delta(j, j') delta(l, k') unit(i,k (x) j'',l').

Diagonal tensors (pair (i, i)) are the coordinate picture of the socle
itself; collapsing them back into the algebra is the identity on coordinate
matrices, placed in block i.  The extension pairs an algebra element with an
off-diagonal tensor part and multiplies by

    (x, u)(y, v) = (xy + collapse([uv]_diag), uy + xv + [uv]_off).

Block i of x is the diagonal coordinate (i, i), so the algebra acts on
tensors through the same pairing: placing every coordinate block at its
block pair in one N x N matrix (N the sum of the block sizes) identifies the
extension with M_N, and the product is the matmul of the two images; a
tensor is held as its image, with zero diagonal blocks.  This module owns
the block layout: _assemble places coordinate blocks, _cut reads them back,
the diagonal ones as one view per run of equal blocks and the off-diagonal
ones gathered once per block shape, and extension_to_matrix and
matrix_to_extension are the identification.  The socle-plus-tensor algebra
A_J' needs no type of its own: in finite dimensions the socle is the whole
algebra and the isomorphism A_J' -> B is the identity on coordinates.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraSpec, Element
from .errors import ShapeMismatch


@dataclass(frozen=True, eq=False, init=False)
class AJElement:
    """Off-diagonal tensor: one read-only complex N x N matrix with the
    coordinate matrix of each ordered block pair (i, j), i != j, at its
    block position and zero diagonal blocks (those coordinates live in the
    algebra itself).  The representation by coordinate matrices is unique.
    """

    spec: AlgebraSpec
    matrix: np.ndarray

    def __init__(self, spec: AlgebraSpec, terms=None, matrix=None):
        """The tensor with these coordinate matrices keyed by block pair,
        placed into one matrix, or with this matrix, kept without a copy."""
        if matrix is None:
            dims, rows = spec.block_dims, _block_slices(spec.block_dims)
            matrix = np.zeros((spec.matrix_size,) * 2, dtype=complex)
            for (i, j), m in (terms or {}).items():
                if i == j:
                    raise ValueError("diagonal pairs do not belong to the off-diagonal part")
                if np.shape(m) != (dims[i], dims[j]):
                    raise ValueError(f"pair ({i}, {j}) needs shape ({dims[i]}, {dims[j]}), got {np.shape(m)}")
                matrix[rows[i], rows[j]] = m
        matrix.setflags(write=False)
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "matrix", matrix)

    @functools.cached_property
    def terms(self) -> dict[tuple[int, int], np.ndarray]:
        """The nonzero coordinate matrices as read-only views of matrix,
        keyed by block pair in aj_pairs order; the diagonal blocks are zero."""
        rows = _block_slices(self.spec.block_dims)
        starts = np.array([r.start for r in rows])
        nonzero = np.logical_or.reduceat(self.matrix.view(float) != 0, starts, axis=0)  # re, im columns
        nonzero = np.logical_or.reduceat(nonzero, 2 * starts, axis=1)
        pairs = zip(*(axis.tolist() for axis in np.nonzero(nonzero)))
        return {(i, j): self.matrix[rows[i], rows[j]] for i, j in pairs}


def aj_zero(spec: AlgebraSpec) -> AJElement:
    return AJElement(spec, matrix=np.zeros((spec.matrix_size,) * 2, dtype=complex))


def aj_pairs(spec: AlgebraSpec) -> list[tuple[int, int]]:
    """All ordered block pairs (i, j) with i != j."""
    k = spec.num_blocks
    return [(i, j) for i in range(k) for j in range(k) if i != j]


@functools.lru_cache(maxsize=16)
def _block_slices(dims: tuple[int, ...]) -> tuple[slice, ...]:
    """Rows (and columns) of each block in the N x N block matrix."""
    ends = tuple(itertools.accumulate(dims))
    return tuple(slice(end - n, end) for end, n in zip(ends, dims))


@functools.lru_cache(maxsize=8)
def _pair_layout(spec: AlgebraSpec) -> tuple[tuple[np.ndarray, int, int, np.ndarray, np.ndarray], ...]:
    """The pairs of aj_pairs grouped by block shape, in order of first
    appearance, each group of r x c blocks as (places in aj_pairs, r, c, the
    first row and the first column of each block in the N x N matrix)."""
    dims = np.array(spec.block_dims)
    k, base, starts = len(dims), dims.max() + 1, np.cumsum(dims) - dims
    i, j = np.repeat(np.arange(k), k - 1), np.tile(np.arange(k - 1), k)
    j += j >= i
    shape = dims[i] * base + dims[j]
    groups = []
    for key in shape[np.sort(np.unique(shape, return_index=True)[1])]:
        places = np.flatnonzero(shape == key)
        groups.append((places, *divmod(int(key), int(base)), starts[i[places]], starts[j[places]]))
    return tuple(groups)


def _windows(mat: np.ndarray, r: int, c: int) -> np.ndarray:
    """Every r x c block of a C-contiguous (..., N, N) block matrix as a
    (..., N - r + 1, N - c + 1, r, c) view indexed by its first row and
    column, writable when mat is."""
    *lead, size, _ = mat.shape
    *outer, row, col = mat.strides
    return np.ndarray((*lead, size - r + 1, size - c + 1, r, c), mat.dtype, mat, 0, (*outer, row, col, row, col))


def _diagonal_runs(spec: AlgebraSpec, mat: np.ndarray) -> list[np.ndarray]:
    """The diagonal blocks of a C-contiguous (..., N, N) block matrix as one
    (..., count, n, n) view per run of the spec, writable when mat is."""
    step = mat.strides[-2] + mat.strides[-1]  # from one diagonal entry to the next
    views, row = [], 0
    for _, count, n, _ in spec.runs:
        shape, strides = (*mat.shape[:-2], count, n, n), (*mat.strides[:-2], n * step, *mat.strides[-2:])
        views.append(np.ndarray(shape, mat.dtype, mat, row * step, strides))
        row += count * n
    return views


def _assemble(spec: AlgebraSpec, runs, groups=()) -> np.ndarray:
    """The (..., N, N) block matrix with the (..., count, n, n) runs on the
    diagonal and the coordinate blocks of groups of _cut's form at their
    pairs; absent blocks are zero.  Leading axes index a stack."""
    lead = (runs[0] if len(runs) else groups[0][1]).shape[:-3]
    size = spec.matrix_size
    out = np.zeros(lead + (size, size), dtype=complex)
    for view, run in zip(_diagonal_runs(spec, out), runs):
        view[...] = run
    for (_, r, c, rows, cols), (_, blocks) in zip(_pair_layout(spec), groups):
        _windows(out, r, c)[..., rows, cols, :, :] = blocks
    return out


def _cut(spec: AlgebraSpec, mat: np.ndarray, present=None) -> tuple[list[np.ndarray], list[tuple[np.ndarray, np.ndarray]]]:
    """The diagonal blocks of a C-contiguous (..., N, N) block matrix as
    _diagonal_runs views, and its off-diagonal coordinate blocks gathered
    per shape group of _pair_layout as (places, (..., P, r, c) stack); with
    a boolean mask over aj_pairs, only the pairs it marks, and no empty
    group."""
    layout = _pair_layout(spec)
    keep = [slice(None) if present is None else present[p] for p, *_ in layout]
    return _diagonal_runs(spec, mat), [(p[m], _windows(mat, r, c)[..., rows[m], cols[m], :, :])
                                       for (p, r, c, rows, cols), m in zip(layout, keep) if p[m].size]


@dataclass(frozen=True, eq=False)
class BElement:
    """Extension element: an algebra part paired with an off-diagonal tensor part."""

    a: Element
    u: AJElement

    def __post_init__(self):
        if self.a.spec != self.u.spec:
            raise ShapeMismatch("algebra part and tensor part disagree on the algebra")

    @property
    def spec(self) -> AlgebraSpec:
        return self.a.spec

    def __add__(self, other: "BElement") -> "BElement":
        return BElement(self.a + other.a, AJElement(self.spec, matrix=self.u.matrix + other.u.matrix))

    def __sub__(self, other: "BElement") -> "BElement":
        return BElement(self.a - other.a, AJElement(self.spec, matrix=self.u.matrix - other.u.matrix))

    def __rmul__(self, scalar) -> "BElement":
        return BElement(complex(scalar) * self.a, AJElement(self.spec, matrix=complex(scalar) * self.u.matrix))

    def __mul__(self, other):
        if isinstance(other, BElement):
            return multiply_B(self, other)
        return complex(other) * self


def extension_to_matrix(x: BElement) -> np.ndarray:
    """Image of an extension element under the full-matrix identification."""
    out = x.u.matrix.copy()
    for view, run in zip(_diagonal_runs(x.spec, out), x.a.runs):
        view[...] = run
    return out


def matrix_to_extension(spec: AlgebraSpec, mat: np.ndarray) -> BElement:
    """The extension element with this full-matrix image: one copy of mat,
    its diagonal runs read into the algebra part and zeroed."""
    size = spec.matrix_size
    if np.shape(mat) != (size, size):
        raise ValueError(f"expected a {size} x {size} matrix, got {np.shape(mat)}")
    mat = np.array(mat, dtype=complex, order="C")
    vector = np.empty(spec.dim, dtype=complex)
    for out, run in zip(spec.run_views(vector), _diagonal_runs(spec, mat)):
        out[...] = run
        run[...] = 0.0
    return BElement(Element(spec, vector=vector), AJElement(spec, matrix=mat))


def multiply_B(x: BElement, y: BElement) -> BElement:
    """Extension product (a, u)(b, v) = (ab + [uv]_diag, ub + av + [uv]_off).

    The algebra parts are the diagonal coordinates, so block i acts on a
    tensor coordinate for the pair (i, j) from the left and block j from the
    right, and the product is the matmul of the two images in M_N.
    """
    if x.spec != y.spec:
        raise ShapeMismatch("operands belong to different algebras")
    return matrix_to_extension(x.spec, extension_to_matrix(x) @ extension_to_matrix(y))
