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
tensors through the same pairing: the product is one contraction over every
ordered block pair, diagonal included.  The socle-plus-tensor algebra A_J'
needs no type of its own, because in finite dimensions the socle is the whole
algebra and the isomorphism A_J' -> B is the identity on coordinates.
"""

from __future__ import annotations

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
            if np.any(arr):
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
        keys = set(self.terms) | set(other.terms)
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


def _full_coordinates(blocks, terms: dict) -> dict[tuple[int, int], np.ndarray]:
    """Coordinate blocks of every ordered pair: algebra block i at (i, i).

    Leading axes of the arrays, if any, index a stack of elements.
    """
    coords = dict(terms)
    for i, m in enumerate(blocks):
        coords[(i, i)] = m
    return coords


def _pair_contract(
    dims: tuple[int, ...], left: dict, right: dict
) -> tuple[list[np.ndarray], dict[tuple[int, int], np.ndarray]]:
    """Trace-pairing product of coordinate blocks keyed by block pairs.

    The pairing contracts inner block indices, so the (i, j) output is the
    sum over m of left (i, m) times right (m, j); diagonal outputs are
    collapsed into the algebra blocks, off-diagonal ones form the tensor
    terms.  Leading axes of the coordinate arrays index a stack of operand
    pairs, multiplied pair by pair, and a stack sums in the same key order as
    a single pair.
    """
    soc_blocks = [np.zeros((n, n), dtype=complex) for n in dims]
    off: dict[tuple[int, int], np.ndarray] = {}
    for (i, m), lmat in left.items():
        for (m2, j), rmat in right.items():
            if m != m2:
                continue
            prod = lmat @ rmat
            if i == j:
                soc_blocks[i] = soc_blocks[i] + prod
            elif (i, j) in off:
                off[(i, j)] = off[(i, j)] + prod
            else:
                off[(i, j)] = prod
    return soc_blocks, off


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


def multiply_B(x: BElement, y: BElement) -> BElement:
    """Extension product (a, u)(b, v) = (ab + [uv]_diag, ub + av + [uv]_off).

    The algebra parts enter the trace-pairing contraction as the diagonal
    coordinates, so block i acts on a tensor coordinate for the pair (i, j)
    from the left and block j from the right.
    """
    if x.spec != y.spec:
        raise ShapeMismatch("operands belong to different algebras")
    soc_blocks, off = _pair_contract(
        x.spec.block_dims,
        _full_coordinates(x.a.blocks, x.u.terms),
        _full_coordinates(y.a.blocks, y.u.terms),
    )
    return BElement(Element(x.spec, tuple(soc_blocks)), AJElement(x.spec, off))
