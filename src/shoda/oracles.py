"""Deliberately naive reference implementations used by the tests.

Everything here works term by term on elementary tensors and raw block
matrices, with no coordinate compression and no reuse of the main
multiplication paths, so agreement between an oracle and the corresponding
fast path is evidence, not circularity.  The dense solves (`dense_radical`,
`dense_center`, on `dense_table`) and the dense completeness criteria
(`dense_ideal_dim`, `dense_corner_dim`) span whole systems where the fast
paths use components or block ranks.  Performance is a non-goal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .algebra import AlgebraSpec, Element, multiply
from .structure import StructureConstantAlgebra, records
from .tensor import AJElement

_ZERO_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class ElementaryTensorList:
    """Uncompressed sum of elementary tensors (left member) (x) (right member).

    Each left member is an element of a minimal left ideal: nonzero only in
    the first column of one block.  Each right member lives in a minimal
    right ideal: nonzero only in the first row of one block.
    """

    spec: AlgebraSpec
    terms: tuple[tuple[Element, Element], ...]

    def __post_init__(self):
        for left, right in self.terms:
            if left.spec != self.spec or right.spec != self.spec:
                raise ValueError("tensor factors belong to a different algebra")
            if _support_column(left) is None:
                raise ValueError("left factor is not supported on one first column")
            if _support_row(right) is None:
                raise ValueError("right factor is not supported on one first row")


def _support_column(x: Element) -> int | None:
    """Block index if x is nonzero exactly in the first column of one block."""
    hit = None
    for i, m in enumerate(x.blocks):
        if not np.any(m):
            continue
        if np.any(m[:, 1:]):
            return None
        if hit is not None:
            return None
        hit = i
    return hit


def _support_row(x: Element) -> int | None:
    hit = None
    for i, m in enumerate(x.blocks):
        if not np.any(m):
            continue
        if np.any(m[1:, :]):
            return None
        if hit is not None:
            return None
        hit = i
    return hit


def elementary_tensor(x: Element, i: int, j: int, y: Element) -> tuple[Element, Element]:
    """The elementary tensor (x p_i) (x) (p_j y) built with raw block arithmetic."""
    spec = x.spec
    left_blocks = [np.zeros((n, n), dtype=complex) for n in spec.block_dims]
    left_blocks[i][:, 0] = x.blocks[i][:, 0]
    right_blocks = [np.zeros((n, n), dtype=complex) for n in spec.block_dims]
    right_blocks[j][0, :] = y.blocks[j][0, :]
    return Element(spec, tuple(left_blocks)), Element(spec, tuple(right_blocks))


def _naive_product(x: Element, y: Element) -> Element:
    return Element(x.spec, tuple(a @ b for a, b in zip(x.blocks, y.blocks)))


def _naive_trace(x: Element) -> complex:
    return complex(sum(np.trace(m) for m in x.blocks))


def naive_tensor_multiply(
    s: ElementaryTensorList, t: ElementaryTensorList
) -> tuple[ElementaryTensorList, Element]:
    """Term-by-term trace-pairing product, diagonal output collapsed separately.

    (a (x) b)(c (x) d) contributes Tr(bc) a (x) d; when a and d sit in the
    same block the collapsed value Tr(bc) a d is returned as part of the
    socle overflow element instead.
    """
    spec = s.spec
    out_terms: list[tuple[Element, Element]] = []
    overflow = spec.zero()
    for left_s, right_s in s.terms:
        for left_t, right_t in t.terms:
            coeff = _naive_trace(_naive_product(right_s, left_t))
            if coeff == 0:
                continue
            i = _support_column(left_s)
            j = _support_row(right_t)
            if i == j:
                overflow = overflow + coeff * _naive_product(left_s, right_t)
            else:
                out_terms.append((coeff * left_s, right_t))
    return ElementaryTensorList(spec, tuple(out_terms)), overflow


def compress(etl: ElementaryTensorList) -> AJElement:
    """Coordinate form of an elementary tensor list: the (i, j) coordinate
    matrix accumulates the outer product of first-column and first-row data."""
    spec = etl.spec
    coords: dict[tuple[int, int], np.ndarray] = {}
    for left, right in etl.terms:
        i = _support_column(left)
        j = _support_row(right)
        if i is None or j is None or i == j:
            raise ValueError("only off-diagonal elementary tensors can be compressed")
        add = np.outer(left.blocks[i][:, 0], right.blocks[j][0, :])
        if (i, j) in coords:
            coords[(i, j)] = coords[(i, j)] + add
        else:
            coords[(i, j)] = add
    return AJElement(spec, coords)


def sampled_rank(a: Element, trials: int = 200, seed: int = 42) -> int:
    """Lower bound for the spectral rank: the largest number of distinct
    nonzero eigenvalues of x a over seeded random x.  Attains the rank with
    overwhelming probability once trials reach a few dozen."""
    if trials < 1:
        raise ValueError("trials must be positive")
    rng = np.random.default_rng(seed)
    best = 0
    for _ in range(trials):
        eigs = []
        for m in a.blocks:
            n = m.shape[0]
            x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            eigs.extend(np.linalg.eigvals(x @ m))
        eigs = np.array(eigs)
        scale = float(np.abs(eigs).max()) if eigs.size else 0.0
        if scale == 0.0:
            continue
        nonzero = [z for z in eigs if abs(z) > _ZERO_TOL * scale]
        distinct: list[complex] = []
        for z in nonzero:
            if all(abs(z - w) > _ZERO_TOL * scale for w in distinct):
                distinct.append(z)
        best = max(best, len(distinct))
    return best


def _naive_b_basis(spec: AlgebraSpec):
    """Basis of the extension as (algebra part, elementary tensor list) pairs."""
    basis = []
    for i, n in enumerate(spec.block_dims):
        for k in range(n):
            for l in range(n):
                blocks = [np.zeros((d, d), dtype=complex) for d in spec.block_dims]
                blocks[i][k, l] = 1.0
                basis.append((Element(spec, tuple(blocks)), ElementaryTensorList(spec, ())))
    k_blocks = spec.num_blocks
    for i in range(k_blocks):
        for j in range(k_blocks):
            if i == j:
                continue
            for k in range(spec.block_dims[i]):
                for l in range(spec.block_dims[j]):
                    left_blocks = [np.zeros((d, d), dtype=complex) for d in spec.block_dims]
                    left_blocks[i][k, 0] = 1.0
                    right_blocks = [np.zeros((d, d), dtype=complex) for d in spec.block_dims]
                    right_blocks[j][0, l] = 1.0
                    term = (Element(spec, tuple(left_blocks)), Element(spec, tuple(right_blocks)))
                    basis.append((spec.zero(), ElementaryTensorList(spec, (term,))))
    return basis


def _naive_b_multiply(x, y, spec: AlgebraSpec):
    """Extension product evaluated entirely through elementary tensors."""
    xa, xu = x
    ya, yu = y
    tensor_part, overflow = naive_tensor_multiply(xu, yu)
    a_part = _naive_product(xa, ya) + overflow
    # tensor acted on by algebra elements from either side, term by term;
    # terms killed by the action are dropped
    acted: list[tuple[Element, Element]] = []
    for left, right in xu.terms:
        moved = _naive_product(right, ya)
        if any(np.any(m) for m in moved.blocks):
            acted.append((left, moved))
    for left, right in yu.terms:
        moved = _naive_product(xa, left)
        if any(np.any(m) for m in moved.blocks):
            acted.append((moved, right))
    u_part = ElementaryTensorList(spec, tuple(acted) + tensor_part.terms)
    return a_part, u_part


def _naive_b_coordinates(x, spec: AlgebraSpec) -> np.ndarray:
    xa, xu = x
    parts = [m.ravel() for m in xa.blocks]
    coords: dict[tuple[int, int], np.ndarray] = {}
    for left, right in xu.terms:
        i = _support_column(left)
        j = _support_row(right)
        add = np.outer(left.blocks[i][:, 0], right.blocks[j][0, :])
        key = (i, j)
        coords[key] = coords.get(key, 0) + add
    k_blocks = spec.num_blocks
    for i in range(k_blocks):
        for j in range(k_blocks):
            if i == j:
                continue
            ni, nj = spec.block_dims[i], spec.block_dims[j]
            parts.append(np.asarray(coords.get((i, j), np.zeros((ni, nj)))).ravel())
    return np.concatenate(parts)


def exhaustive_basis_products(spec: AlgebraSpec) -> float:
    """Exhaustive audit for small algebras: associativity of the extension
    product over every basis triple, and orthogonality of distinct minimal
    ideals under the algebra product.  Products are integer structured, so
    the expected residual is exactly zero.
    """
    if spec.matrix_size > 6:
        raise ValueError("exhaustive audit is limited to total size at most 6")
    basis = _naive_b_basis(spec)
    d = len(basis)
    table = np.zeros((d, d, d), dtype=complex)
    for a in range(d):
        for b in range(d):
            table[a, b] = _naive_b_coordinates(
                _naive_b_multiply(basis[a], basis[b], spec), spec
            )
    worst = 0.0
    for a in range(d):
        left = np.einsum("bd,dce->bce", table[a], table)
        right = np.einsum("bcd,de->bce", table, table[a])
        worst = max(worst, float(np.abs(left - right).max()))

    for i in range(spec.num_blocks):
        for j in range(spec.num_blocks):
            if i == j:
                continue
            for x in _block_units(spec, i):
                for y in _block_units(spec, j):
                    worst = max(
                        worst,
                        float(max(np.abs(m).max() for m in _naive_product(x, y).blocks)),
                    )
    return worst


def _block_units(spec: AlgebraSpec, i: int):
    n = spec.block_dims[i]
    for k in range(n):
        for l in range(n):
            blocks = [np.zeros((d, d), dtype=complex) for d in spec.block_dims]
            blocks[i][k, l] = 1.0
            yield Element(spec, tuple(blocks))


def block_algebra(spec: AlgebraSpec) -> StructureConstantAlgebra:
    """Structure constants of the block algebra itself on its matrix-unit basis."""
    basis = list(spec.basis())
    table = np.array([[multiply(x, y).vector for y in basis] for x in basis])
    return StructureConstantAlgebra(records(table), spec.identity().vector)


def dense_table(alg: StructureConstantAlgebra) -> np.ndarray:
    """The (d, d, d) table T[a, b, c] of alg's records, repeated keys added."""
    d, t = alg.dim, alg.table
    table = np.zeros((d, d, d), dtype=complex)
    np.add.at(table, (t["a"], t["b"], t["c"]), t["v"])
    return table


def associativity_residual(alg: StructureConstantAlgebra) -> float:
    """Worst deviation between the two association orders over all basis triples."""
    table = dense_table(alg)
    worst = 0.0
    for a in range(alg.dim):
        left = np.einsum("bd,dce->bce", table[a], table)
        right = np.einsum("bcd,de->bce", table, table[a])
        worst = max(worst, float(np.abs(left - right).max()))
    return worst


def unit_residual(alg: StructureConstantAlgebra) -> float:
    """Worst deviation of unit * e_b and e_b * unit from e_b over the basis."""
    worst = 0.0
    for b in range(alg.dim):
        e = np.zeros(alg.dim, dtype=complex)
        e[b] = 1.0
        worst = max(worst, float(np.abs(alg.product(alg.unit, e) - e).max()))
        worst = max(worst, float(np.abs(alg.product(e, alg.unit) - e).max()))
    return worst


def dense_radical(alg: StructureConstantAlgebra, tol: float = 1e-9) -> np.ndarray:
    """Rows spanning the radical: the null space of the whole trace-form Gram
    matrix G[a, b] = sum over e, c of T[a, e, c] T[b, c, e], built from the
    dense table and cut at tol times its largest singular value."""
    table = dense_table(alg)
    _, s, vh = np.linalg.svd(np.einsum("aec,bce->ab", table, table))
    return vh[s <= tol * s[0]].conj()


def dense_center(alg: StructureConstantAlgebra, tol: float = 1e-9) -> np.ndarray:
    """Rows spanning the centre: the null space of the whole commutator
    system, the matrices of z |-> z e_b - e_b z for every basis element e_b
    stacked, cut at tol times the larger of 1 and its largest singular value."""
    table = dense_table(alg)
    d = alg.dim
    # row (b, c), column a: (z e_b)_c has T[a, b, c], (e_b z)_c has T[b, a, c]
    system = (table.transpose(1, 2, 0) - table.transpose(0, 2, 1)).reshape(d * d, d)
    _, s, vh = np.linalg.svd(system, full_matrices=False)
    return vh[s <= tol * max(s[0], 1.0)].conj()


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


def dense_ideal_dim(spec: AlgebraSpec, p: Element, tol: float) -> int:
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


def dense_corner_dim(spec: AlgebraSpec, p: Element, tol: float) -> int:
    """Dimension of the corner p A p, as the span of p * basis * p."""
    corners = np.zeros((spec.dim, spec.dim), dtype=complex)
    for (span, units), m in zip(_unit_stacks(spec), p.blocks):
        n = m.shape[0]
        np.matmul(m @ units, m, out=corners[span, span].reshape(n * n, n, n))
    return _span_dim(corners, tol)
