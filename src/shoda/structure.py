"""Generic finite-dimensional associative algebras given by structure constants.

A table is a RECORD array, one record per nonzero constant, for the
extension algebra and, in the tests, the base block algebra and hand-built
negative controls.  Provides the radical by the characteristic-zero
trace-form criterion, quotients by a verified ideal, and Wedderburn
identification of a semisimple table through its center; the radical, the
centre and the central eigenvalues are solved one component at a time.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .algebra import _COMPLEX_BYTES, _cluster, _require_budget
from .errors import (
    IllConditioned,
    NonSquareComponent,
    NotAnIdeal,
    NotSemisimple,
    NumericalFailure,
)

_GAP_FACTOR = 1e3
# quotient() counts this many complex entries per k d**2 for the closure check
# of k candidates in dimension d, and per m**2 d for the table on a complement
# of dimension m.  tracemalloc peaks were 2.0-2.7 of either unit on block
# upper-triangular tables of matrix units up to d = 192 (85 and 98 MiB there)
# and 4.3-5.2 on such tables on a random unitary basis, every record nonzero
# (d <= 31).  The table's slot layout, about one more copy of its records made
# once per table, is not counted.
_QUOTIENT_ENTRIES = 6

_log = logging.getLogger("shoda")


# one nonzero structure constant: e_a e_b has coefficient v on e_c
RECORD = np.dtype([("a", np.intp), ("b", np.intp), ("c", np.intp), ("v", complex)])


def records(dense: np.ndarray) -> np.ndarray:
    """The nonzeros of a dense (d, d, d) table[a, b, c] as a RECORD array."""
    dense = np.asarray(dense, dtype=complex)
    nonzero = np.nonzero(dense)
    table = np.empty(nonzero[0].size, dtype=RECORD)
    table["a"], table["b"], table["c"] = nonzero
    table["v"] = dense[nonzero]
    return table


@dataclass(frozen=True, eq=False)
class StructureConstantAlgebra:
    """Multiplication table as nonzeros: basis_a * basis_b = sum v basis_c over
    the records (a, b, c, v) of table, a RECORD array (records() converts a
    dense one); repeated keys add up.  The dimension d is the length of unit.
    """

    table: np.ndarray
    unit: np.ndarray

    def __post_init__(self):
        unit = np.asarray(self.unit, dtype=complex)
        if unit.ndim != 1:
            raise ValueError("unit coordinates must be a vector")
        d = unit.size
        table = np.asarray(self.table)
        if table.dtype != RECORD:
            raise ValueError(f"table must be a RECORD array, got dtype {table.dtype}")
        table = table.reshape(-1).copy()
        if table.size and not all(0 <= table[k].min() and table[k].max() < d for k in "abc"):
            raise ValueError("table records index outside the unit's coordinates")
        table.setflags(write=False)
        unit.setflags(write=False)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "unit", unit)

    @property
    def dim(self) -> int:
        return self.unit.shape[0]

    @functools.cached_property
    def _slots(self) -> np.ndarray:
        """The records as (K, d) slots: column c holds the records of output
        coordinate c in record order, padded to the largest count K with a
        zero record."""
        t, d = self.table, self.dim
        pos, counts = _positions(t["c"], d)
        index = np.full((counts.max(initial=0), d), t.size)
        index[pos, t["c"]] = np.arange(t.size)
        return np.append(t, np.zeros(1, RECORD))[index]

    @functools.cached_property
    def _radicals(self) -> dict:
        """radical's bases of this table, keyed by tol."""
        return {}

    def product(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Product of coordinate vectors, summed slot by slot: each output
        coordinate adds its records' terms in record order, as alone for
        each pair of a stack indexed by the leading axes of x and y."""
        out = np.zeros(np.broadcast_shapes(x.shape, y.shape), dtype=complex)
        for s in self._slots:
            out += s["v"] * x.take(s["a"], axis=-1) * y.take(s["b"], axis=-1)
        return out


def _accumulate(index: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """Complex vector of length size holding the sum of values at each index."""
    values = np.asarray(values, dtype=complex)
    real = np.bincount(index, weights=values.real, minlength=size)
    return real + 1j * np.bincount(index, weights=values.imag, minlength=size)


def _join(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every index pair (i, j) with left[i] == right[j], for integer keys."""
    order = np.argsort(right, kind="stable")
    lo = np.searchsorted(right, left, side="left", sorter=order)
    counts = np.searchsorted(right, left, side="right", sorter=order) - lo
    i = np.repeat(np.arange(left.size), counts)
    # the k-th match of left[i] is the k-th of its run of equal keys in right
    run_start = np.repeat(lo - np.cumsum(counts) + counts, counts)
    return i, order[run_start + np.arange(i.size)]


def _labels(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """Smallest node id of each node's connected component, in the graph on
    n nodes with one edge (u[i], v[i]) per i.

    Each round hooks the larger root of every edge across two trees onto the
    smaller one, then jumps pointers until every node points at its root.
    Pointers only ever go down, so no cycle can form.
    """
    label = np.arange(n)
    while True:
        lu, lv = label[u], label[v]
        across = lu != lv
        if not across.any():
            return label
        lu, lv = lu[across], lv[across]
        np.minimum.at(label, np.maximum(lu, lv), np.minimum(lu, lv))
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped


def _positions(group: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Index of each item among the items of its group, in item order, and
    the number of items in each of the size groups."""
    counts = np.bincount(group, minlength=size)
    order = np.argsort(group, kind="stable")
    pos = np.empty_like(order)
    pos[order] = np.arange(group.size) - np.repeat(np.cumsum(counts) - counts, counts)
    return pos, counts


def _components(
    row: np.ndarray, col: np.ndarray, val: np.ndarray, n_cols: int, shared: bool = False
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Connected components of the matrix with n_cols columns that holds the
    sum of val at each (row, col), as dense blocks stacked by shape.

    Every record is an edge between its row and its column.  Returns one
    (cols, blocks) per block shape (r, c): the column ids (k, c) and the
    blocks (k, r, c) of its k components.  Row ids are compressed to the
    rows that occur, so a column without records is a component with no
    rows.  With shared=True a row and the column with the same id are one
    node, and every block is square with its rows in the order of its cols.
    The matrix is block-diagonal under the permutation that lists the
    components one after another, so its singular values, null vectors and
    eigenvalues are those of the blocks.
    """
    if shared:
        row_node, n = row, n_cols
    else:
        row_ids, row_node = np.unique(row, return_inverse=True)
        row_node, n = row_node + n_cols, n_cols + row_ids.size
    comp_ids, comp = np.unique(_labels(col, row_node, n), return_inverse=True)
    col_pos, n_c = _positions(comp[:n_cols], comp_ids.size)
    row_pos, n_r = _positions(comp[n_cols:], comp_ids.size) if not shared else (col_pos, n_c)
    shapes, shape_of = np.unique(n_r * (n_cols + 1) + n_c, return_inverse=True)
    slot, per_shape = _positions(shape_of, len(shapes))
    rec_comp, rec_row = comp[col], row_pos[row_node - (0 if shared else n_cols)]
    out = []
    for s, (shape, k) in enumerate(zip(shapes, per_shape)):
        r, c = divmod(int(shape), n_cols + 1)
        cols = np.empty((k, c), dtype=np.intp)
        in_s = np.flatnonzero(shape_of[comp[:n_cols]] == s)
        cols[slot[comp[in_s]], col_pos[in_s]] = in_s
        rec = np.flatnonzero(shape_of[rec_comp] == s)
        index = (slot[rec_comp[rec]] * r + rec_row[rec]) * c + col_pos[col[rec]]
        out.append((cols, _accumulate(index, val[rec], k * r * c).reshape(k, r, c)))
    return out


def _block_svds(components) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """Singular values of all blocks in one array, with a zero for every
    column beyond a block's rows, and (cols, s, vh) per stack: s padded so,
    vh holding the right singular vectors of every column."""
    parts = []
    for cols, blocks in components:
        k, r, c = blocks.shape
        # a tall block needs only its thin factors, which hold every column
        _, s, vh = np.linalg.svd(blocks, full_matrices=r < c)
        parts.append((cols, np.concatenate([s, np.zeros((k, c - s.shape[1]))], axis=1), vh))
    return np.concatenate([s.ravel() for _, s, _ in parts]), parts


def _null_space(parts, d: int, thr: float) -> np.ndarray:
    """Rows spanning the null space of the matrix whose block SVDs are parts:
    the conjugated right singular vectors with value at most thr, each put
    at its block's columns of a length-d vector."""
    vectors = []
    for cols, s, vh in parts:
        g, i = np.nonzero(s <= thr)
        vec = np.zeros((g.size, d), dtype=complex)
        vec[np.arange(g.size)[:, None], cols[g]] = vh[g, i].conj()
        vectors.append(vec)
    return np.concatenate(vectors)


def _log_solve(stage: str, components, margin: str, value: float, gate: float):
    shapes = [blocks.shape for _, blocks in components]
    largest = max((s[1:] for s in shapes), key=np.prod)
    _log.debug("%s: %d blocks, largest %s, %s %.3g against %.3g",
               stage, sum(s[0] for s in shapes), largest, margin, value, gate)


def radical(alg: StructureConstantAlgebra, tol: float = 1e-9) -> np.ndarray:
    """Orthonormal basis of the radical, found as the nullspace of the
    trace-form Gram matrix G[a, b] = trace(L_a L_b), one connected component
    at a time.  The rank split over all blocks' singular values must show a
    clean gap (factor 1000) between kept and discarded ones, otherwise the
    decision would be unreliable and IllConditioned is raised.  The basis is
    read-only and kept on the table, so a second call with the same tol
    returns it again.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if tol in alg._radicals:
        return alg._radicals[tol]
    d = alg.dim
    t = alg.table
    # G[a, b] sums table[a, e, c] table[b, c, e]: records (a, e, c) and
    # (b, c', e') meet where e == e' and c == c'
    i, j = _join(t["b"] * d + t["c"], t["c"] * d + t["b"])
    components = _components(t["a"][i], t["a"][j], t["v"][i] * t["v"][j], d)
    s, parts = _block_svds(components)
    thr = tol * s.max()  # zero for the zero algebra, where everything is radical
    kept, null = s[s > thr], s[s <= thr]
    null_max = null.max(initial=0.0)
    gap = kept.min(initial=np.inf) / null_max if null_max > 0 else np.inf
    _log_solve("radical", components, "gap", gap, _GAP_FACTOR)
    if gap < _GAP_FACTOR:
        raise IllConditioned(f"singular values cluster at the threshold: {kept.min()} vs {null_max}")
    basis = alg._radicals[tol] = _null_space(parts, d, thr)
    basis.setflags(write=False)
    return basis


def _in_span(prods: np.ndarray, span: np.ndarray, tol: float) -> bool:
    """Whether each row of prods lies in the span of the orthonormal rows of
    span, within tol relative to its norm; prods is overwritten."""
    bound = tol * (1.0 + np.linalg.norm(prods, axis=-1))
    prods -= prods @ span.conj().T @ span
    return not np.any(np.linalg.norm(prods, axis=-1) > bound)


def quotient(
    alg: StructureConstantAlgebra, radical_basis: np.ndarray, tol: float = 1e-9
) -> StructureConstantAlgebra:
    """Quotient by the span of radical_basis, on the orthogonal complement basis.

    The basis must span a two-sided ideal: two stacked products check that
    the candidates times every basis vector, on either side, stay in the
    span.  One more forms the table on the complement, kept as records.
    """
    radical_basis = np.asarray(radical_basis, dtype=complex)
    if radical_basis.size == 0:
        return alg
    # rows: orthonormal bases of the radical span and of its complement
    _, s, vh = np.linalg.svd(radical_basis)
    rank_r = int(np.sum(s > tol * s[0]))
    span, comp = vh[:rank_r], vh[rank_r:]
    d, k, m = alg.dim, len(radical_basis), len(comp)
    _require_budget(f"the closure check of {k} candidates in dimension {d}",
                    _QUOTIENT_ENTRIES * k * d * d * _COMPLEX_BYTES)
    _require_budget(f"the complement table of dimension {m} in dimension {d}",
                    _QUOTIENT_ENTRIES * m * m * d * _COMPLEX_BYTES)
    basis, candidates = np.eye(d), radical_basis[:, None]
    for x, y in ((candidates, basis), (basis, candidates)):
        if not _in_span(alg.product(x, y), span, tol):
            raise NotAnIdeal("candidate radical is not closed under multiplication")
    table = alg.product(comp[:, None], comp) @ comp.conj().T
    return StructureConstantAlgebra(records(table), comp.conj() @ alg.unit)


def _center_basis(alg: StructureConstantAlgebra, tol: float) -> np.ndarray:
    """Orthonormal basis of the centre: the null space of the system
    z e_b - e_b z = 0 over every basis element e_b, one connected component
    at a time.

    The candidate is accepted only when the system, applied to it, stays
    within the gate; otherwise NumericalFailure is raised.
    """
    d = alg.dim
    a, b, c, v = (alg.table[k] for k in "abcv")
    # z e_b puts z_a v on e_c, in row (b, c) and column a; e_b z, for the
    # basis element e_a, puts z_b v on e_c, in row (a, c) and column b
    row = np.concatenate([b * d + c, a * d + c])
    components = _components(row, np.concatenate([a, b]), np.concatenate([v, -v]), d)
    s, parts = _block_svds(components)
    center = _null_space(parts, d, tol * max(s.max(), 1.0))
    residual = max(
        float(np.abs(blocks @ np.moveaxis(center[:, cols], 0, -1)).max(initial=0.0))
        for cols, blocks in components
    )
    accept = tol * max(float(np.abs(v).max(initial=0.0)), 1.0)
    _log_solve("centre", components, "residual", residual, accept)
    if not residual <= accept:
        raise NumericalFailure(
            f"{len(center)} centre vectors are off the centralizer system by {residual} > {accept}"
        )
    return center


def wedderburn_identify(
    alg: StructureConstantAlgebra, tol: float = 1e-9, seed: int = 7
) -> list[int]:
    """Dimensions of the simple components of a semisimple table.

    A random central element z acts on the algebra with one eigenvalue per
    simple component; the eigenvalue multiplicities are the component
    dimensions, each a perfect square over the complex field.  The
    eigenvalues of L_z are taken one connected component of its nonzero
    pattern at a time.
    """
    rad = radical(alg, tol)
    if rad.shape[0] > 0:
        raise NotSemisimple(f"radical has dimension {rad.shape[0]}")
    center = _center_basis(alg, tol)
    m = center.shape[0]
    if m == 0:
        raise NotSemisimple("unital algebra must have a nonzero center")
    rng = np.random.default_rng(seed)
    t = alg.table
    for _ in range(8):
        coeffs = rng.normal(size=m) + 1j * rng.normal(size=m)
        # L_z[c, b] sums z_a v over the records (a, b, c, v)
        lz = (coeffs @ center)[t["a"]] * t["v"]
        nonzero = lz != 0
        components = _components(
            t["c"][nonzero], t["b"][nonzero], lz[nonzero], alg.dim, shared=True
        )
        eigs = np.concatenate([np.linalg.eigvals(blocks).ravel() for _, blocks in components])
        scale = max(float(np.abs(eigs).max()), 1.0)
        clusters = _cluster(eigs, 1e-6 * scale)
        gap = min((abs(a - b) for (a, _), (b, _) in combinations(clusters, 2)), default=np.inf)
        _log_solve("central eigenvalues", components, "separation", gap, 1e-3 * scale)
        if gap > 1e-3 * scale:
            dims = sorted(cnt for _, cnt in clusters)
            for cnt in dims:
                root = round(np.sqrt(cnt))
                if root * root != cnt:
                    raise NonSquareComponent(f"component dimension {cnt}")
            return dims
    raise NonSquareComponent("central eigenvalues stayed clustered across retries")
