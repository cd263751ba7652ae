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
extension with M_N, and the product is the matmul of the two images.  This
module owns that block layout: _assemble places coordinate blocks and _cut
reads them back as views, and extension_to_matrix and matrix_to_extension
are the identification.  The socle-plus-tensor algebra A_J' needs no type of
its own, because in finite dimensions the socle is the whole algebra and the
isomorphism A_J' -> B is the identity on coordinates.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraSpec, Element
from .errors import ShapeMismatch


@dataclass(frozen=True, eq=False)
class AJElement:
    """Off-diagonal tensor: coordinate matrices keyed by ordered block pairs.

    An absent key means a zero coordinate block; diagonal keys are forbidden
    (those coordinates live in the algebra itself).  The representation by
    coordinate matrices is unique.
    """

    spec: AlgebraSpec
    terms: dict[tuple[int, int], np.ndarray]

    def __post_init__(self):
        frozen = {}
        dims = self.spec.block_dims
        for (i, j), m in self.terms.items():
            if i == j:
                raise ValueError("diagonal pairs do not belong to the off-diagonal part")
            arr = np.array(m, dtype=complex)
            if arr.shape != (dims[i], dims[j]):
                raise ValueError(
                    f"pair ({i}, {j}) needs shape ({dims[i]}, {dims[j]}), got {arr.shape}"
                )
            if np.count_nonzero(arr):
                arr.setflags(write=False)
                frozen[(i, j)] = arr
        object.__setattr__(self, "terms", frozen)

    def _require_same_spec(self, other):
        if self.spec != other.spec:
            raise ShapeMismatch(f"{self.spec.block_dims} vs {other.spec.block_dims}")

    def coordinate(self, i: int, j: int) -> np.ndarray:
        """Dense coordinate matrix of the (i, j) pair (zeros when absent)."""
        if (i, j) in self.terms:
            return self.terms[(i, j)]
        return np.zeros((self.spec.block_dims[i], self.spec.block_dims[j]), dtype=complex)

    def __add__(self, other: "AJElement") -> "AJElement":
        self._require_same_spec(other)
        # in aj_pairs order, so that b_norm adds the same terms in the same order
        keys = sorted(set(self.terms) | set(other.terms))
        return AJElement(
            self.spec, {k: self.coordinate(*k) + other.coordinate(*k) for k in keys}
        )

    def __sub__(self, other: "AJElement") -> "AJElement":
        return self + (-1.0) * other

    def __rmul__(self, scalar) -> "AJElement":
        return AJElement(self.spec, {k: complex(scalar) * m for k, m in self.terms.items()})

    def __neg__(self) -> "AJElement":
        return (-1.0) * self


def aj_zero(spec: AlgebraSpec) -> AJElement:
    return AJElement(spec, {})


def tensor_unit(spec: AlgebraSpec, i: int, j: int, k: int, l: int) -> AJElement:
    """The elementary off-diagonal tensor with a single unit coordinate."""
    m = np.zeros((spec.block_dims[i], spec.block_dims[j]), dtype=complex)
    m[k, l] = 1.0
    return AJElement(spec, {(i, j): m})


def aj_pairs(spec: AlgebraSpec) -> list[tuple[int, int]]:
    """All ordered block pairs (i, j) with i != j."""
    k = spec.num_blocks
    return [(i, j) for i in range(k) for j in range(k) if i != j]


def aj_frobenius(u: AJElement) -> float:
    return float(np.sqrt(sum(np.sum(np.abs(m) ** 2) for m in u.terms.values())))


def aj_allclose(u: AJElement, v: AJElement, tol: float = 1e-12) -> bool:
    u._require_same_spec(v)
    keys = set(u.terms) | set(v.terms)
    return all(
        np.allclose(u.coordinate(*k), v.coordinate(*k), rtol=0.0, atol=tol) for k in keys
    )


@functools.lru_cache(maxsize=16)
def _block_slices(dims: tuple[int, ...]) -> tuple[slice, ...]:
    """Rows (and columns) of each block in the N x N block matrix."""
    ends = tuple(itertools.accumulate(dims))
    return tuple(slice(end - n, end) for end, n in zip(ends, dims))


def _assemble(dims: tuple[int, ...], blocks, terms: dict) -> np.ndarray:
    """The (..., N, N) block matrix with algebra block i at (i, i) and the
    tensor coordinate of each pair (i, j) at (i, j); absent blocks are zero.

    Leading axes of the arrays, if any, index a stack; the stack shape is
    taken from the first array.
    """
    rows = _block_slices(dims)
    first = next(itertools.chain(blocks, terms.values()))
    out = np.zeros(np.shape(first)[:-2] + (sum(dims),) * 2, dtype=complex)
    for r, m in zip(rows, blocks):
        out[..., r, r] = m
    for (i, j), m in terms.items():
        out[..., rows[i], rows[j]] = m
    return out


def _cut(dims: tuple[int, ...], mat: np.ndarray) -> tuple[list[np.ndarray], dict]:
    """Views of a (..., N, N) block matrix: the diagonal blocks, and the
    block of every ordered pair (i, j), i != j, in aj_pairs order."""
    rows = _block_slices(dims)
    pairs = itertools.permutations(range(len(dims)), 2)
    off = {(i, j): mat[..., rows[i], rows[j]] for i, j in pairs}
    return [mat[..., r, r] for r in rows], off


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
        return BElement(self.a + other.a, self.u + other.u)

    def __sub__(self, other: "BElement") -> "BElement":
        return BElement(self.a - other.a, self.u - other.u)

    def __rmul__(self, scalar) -> "BElement":
        return BElement(complex(scalar) * self.a, complex(scalar) * self.u)

    def __mul__(self, other):
        if isinstance(other, BElement):
            return multiply_B(self, other)
        return BElement(complex(other) * self.a, complex(other) * self.u)


def b_identity(spec: AlgebraSpec) -> BElement:
    return BElement(spec.identity(), aj_zero(spec))


def b_allclose(x: BElement, y: BElement, tol: float = 1e-12) -> bool:
    from .algebra import allclose

    return allclose(x.a, y.a, tol) and aj_allclose(x.u, y.u, tol)


def extension_to_matrix(x: BElement) -> np.ndarray:
    """Image of an extension element under the full-matrix identification."""
    return _assemble(x.spec.block_dims, x.a.blocks, x.u.terms)


def matrix_to_extension(spec: AlgebraSpec, mat: np.ndarray) -> BElement:
    mat = np.asarray(mat, dtype=complex)
    size = spec.matrix_size
    if mat.shape != (size, size):
        raise ValueError(f"expected a {size} x {size} matrix, got {mat.shape}")
    blocks, terms = _cut(spec.block_dims, mat)
    return BElement(Element(spec, tuple(blocks)), AJElement(spec, terms))


def multiply_B(x: BElement, y: BElement) -> BElement:
    """Extension product (a, u)(b, v) = (ab + [uv]_diag, ub + av + [uv]_off).

    The algebra parts are the diagonal coordinates, so block i acts on a
    tensor coordinate for the pair (i, j) from the left and block j from the
    right, and the product is the matmul of the two images in M_N.
    """
    if x.spec != y.spec:
        raise ShapeMismatch("operands belong to different algebras")
    return matrix_to_extension(x.spec, extension_to_matrix(x) @ extension_to_matrix(y))
