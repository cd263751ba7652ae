"""Generic finite-dimensional associative algebras given by structure constants.

Used for the extension algebra, for the base block algebra, and for
hand-built negative controls in tests.  Provides the radical by the
characteristic-zero trace-form criterion, quotients by a verified ideal,
and Wedderburn identification of a semisimple table through its center.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .algebra import AlgebraSpec, _cluster, flatten, multiply
from .errors import (
    IllConditioned,
    NonSquareComponent,
    NotAnIdeal,
    NotSemisimple,
    NumericalFailure,
)

_GAP_FACTOR = 1e3
_CENTER_DRAWS = 4

_log = logging.getLogger("shoda")


# one nonzero structure constant: e_a e_b has coefficient v on e_c
RECORD = np.dtype([("a", np.intp), ("b", np.intp), ("c", np.intp), ("v", complex)])


@dataclass(frozen=True, eq=False)
class StructureConstantAlgebra:
    """Multiplication table as nonzeros: basis_a * basis_b = sum v basis_c over
    the records (a, b, c, v) of table, a RECORD array; repeated keys add up.

    A dense (d, d, d) array table[a, b, c] is accepted too and converted
    through its nonzeros.  The dimension d is the length of unit.
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
            dense = table.astype(complex)
            if dense.shape != (d, d, d):
                raise ValueError(f"table must be {d} x {d} x {d} like the unit, got {dense.shape}")
            nonzero = np.nonzero(dense)
            table = np.empty(nonzero[0].size, dtype=RECORD)
            table["a"], table["b"], table["c"] = nonzero
            table["v"] = dense[nonzero]
        else:
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

    def dense(self) -> np.ndarray:
        """The (d, d, d) table; it has d**3 entries, so make it only on request."""
        d = self.dim
        t = self.table
        return _accumulate((t["a"] * d + t["b"]) * d + t["c"], t["v"], d**3).reshape(d, d, d)

    def product(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        t = self.table
        return _accumulate(t["c"], t["v"] * x[t["a"]] * y[t["b"]], self.dim)

    def left_matrix(self, x: np.ndarray) -> np.ndarray:
        """Matrix of left multiplication by x on the coordinate space."""
        d = self.dim
        t = self.table
        return _accumulate(t["c"] * d + t["b"], t["v"] * x[t["a"]], d * d).reshape(d, d)

    def associativity_residual(self) -> float:
        """Worst deviation between the two association orders over all basis triples."""
        table = self.dense()
        worst = 0.0
        for a in range(self.dim):
            left = np.einsum("bd,dce->bce", table[a], table)
            right = np.einsum("bcd,de->bce", table, table[a])
            worst = max(worst, float(np.abs(left - right).max()))
        return worst

    def unit_residual(self) -> float:
        worst = 0.0
        for b in range(self.dim):
            e = np.zeros(self.dim, dtype=complex)
            e[b] = 1.0
            worst = max(worst, float(np.abs(self.product(self.unit, e) - e).max()))
            worst = max(worst, float(np.abs(self.product(e, self.unit) - e).max()))
        return worst


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


def block_algebra(spec: AlgebraSpec) -> StructureConstantAlgebra:
    """Structure constants of the block algebra itself on its matrix-unit basis."""
    basis = list(spec.basis())
    table = np.array([[flatten(multiply(x, y)) for y in basis] for x in basis])
    return StructureConstantAlgebra(table, flatten(spec.identity()))


def _trace_form_gram(alg: StructureConstantAlgebra) -> np.ndarray:
    """Gram matrix of the regular-representation trace form,
    G[a, b] = trace(L_a L_b) = sum over c, e of table[a, e, c] table[b, c, e]."""
    d = alg.dim
    t = alg.table
    # records (a, e, c) and (b, c', e') meet where e == e' and c == c'
    i, j = _join(t["b"] * d + t["c"], t["c"] * d + t["b"])
    return _accumulate(t["a"][i] * d + t["a"][j], t["v"][i] * t["v"][j], d * d).reshape(d, d)


def radical(alg: StructureConstantAlgebra, tol: float = 1e-9) -> np.ndarray:
    """Orthonormal basis of the radical, found as the nullspace of the
    trace-form Gram matrix.  The rank split must show a clean gap (factor
    1000) between kept and discarded singular values, otherwise the decision
    would be unreliable and IllConditioned is raised.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    gram = _trace_form_gram(alg)
    u, s, vh = np.linalg.svd(gram)
    if s[0] == 0.0:
        return vh  # the zero algebra direction: everything is radical
    thr = tol * s[0]
    null_mask = s <= thr
    if null_mask.any() and not null_mask.all():
        kept_min = s[~null_mask].min()
        null_max = s[null_mask].max()
        if null_max > 0 and kept_min / null_max < _GAP_FACTOR:
            raise IllConditioned(
                f"singular values cluster at the threshold: {kept_min} vs {null_max}"
            )
    return vh[null_mask].conj()


def quotient(
    alg: StructureConstantAlgebra, radical_basis: np.ndarray, tol: float = 1e-9
) -> StructureConstantAlgebra:
    """Quotient by the span of radical_basis, on the orthogonal complement basis.

    The basis must span a two-sided ideal; products of the candidate vectors
    with every basis vector are checked to stay in the span.
    """
    radical_basis = np.asarray(radical_basis, dtype=complex)
    if radical_basis.size == 0:
        return alg
    d = alg.dim
    q_rad, _ = np.linalg.qr(radical_basis.T)
    proj_rad = q_rad @ q_rad.conj().T

    for r_vec in radical_basis:
        for b in range(d):
            e = np.zeros(d, dtype=complex)
            e[b] = 1.0
            for prod in (alg.product(r_vec, e), alg.product(e, r_vec)):
                out = prod - proj_rad @ prod
                if np.linalg.norm(out) > tol * (1.0 + np.linalg.norm(prod)):
                    raise NotAnIdeal("candidate radical is not closed under multiplication")

    # orthogonal complement of the radical span
    u, s, vh = np.linalg.svd(radical_basis)
    rank_r = int(np.sum(s > tol * s[0]))
    comp = vh[rank_r:]  # rows: orthonormal basis, orthogonal to every radical vector
    m = comp.shape[0]
    table = np.zeros((m, m, m), dtype=complex)
    for a in range(m):
        for b in range(m):
            prod = alg.product(comp[a], comp[b])
            table[a, b] = comp.conj() @ prod
    unit = comp.conj() @ alg.unit
    return StructureConstantAlgebra(table, unit)


def _generators(alg: StructureConstantAlgebra, rng: np.random.Generator) -> np.ndarray:
    """Two random elements; for a semisimple algebra over C their
    centralizer is the centre."""
    return rng.normal(size=(2, alg.dim)) + 1j * rng.normal(size=(2, alg.dim))


def _commutator_maps(alg: StructureConstantAlgebra, xs: np.ndarray) -> np.ndarray:
    """For each row x of xs, the matrix of z |-> z x - x z on coordinates."""
    d = alg.dim
    t = alg.table
    a, b, c, v = t["a"], t["b"], t["c"], t["v"]
    g = np.arange(xs.shape[0])[:, None] * d * d
    # z x puts z_a x_b v on c; x z puts x_a z_b v on c
    index = np.concatenate([g + c * d + a, g + c * d + b], axis=1)
    values = np.concatenate([v * xs[:, b], -v * xs[:, a]], axis=1)
    return _accumulate(index.ravel(), values.ravel(), xs.shape[0] * d * d).reshape(-1, d, d)


def _center_basis(
    alg: StructureConstantAlgebra, tol: float, rng: np.random.Generator
) -> np.ndarray:
    """Orthonormal basis of the centre, the centralizer of two random elements.

    The candidate is accepted only when every vector commutes with every
    basis element; otherwise the generators are redrawn, at most
    _CENTER_DRAWS times in all.
    """
    d = alg.dim
    accept = tol * max(float(np.abs(alg.table["v"]).max(initial=0.0)), 1.0)
    for draw in range(_CENTER_DRAWS):
        stacked = _commutator_maps(alg, _generators(alg, rng)).reshape(2 * d, d)
        _, s, vh = np.linalg.svd(stacked, full_matrices=False)
        thr = tol * max(s[0], 1.0)
        n_null = int(np.sum(s <= thr))
        center = vh[d - n_null :].conj()
        residual = float(np.abs(_commutator_maps(alg, center)).max(initial=0.0))
        if residual <= accept:
            return center
        _log.debug(
            "centre draw %d: %d candidate vectors fail to commute (residual %.3g > %.3g)",
            draw, n_null, residual, accept,
        )
    raise NumericalFailure(f"no verified centre after {_CENTER_DRAWS} draws of generators")


def wedderburn_identify(
    alg: StructureConstantAlgebra, tol: float = 1e-9, seed: int = 7
) -> list[int]:
    """Dimensions of the simple components of a semisimple table.

    A random central element acts on the algebra with one eigenvalue per
    simple component; the eigenvalue multiplicities are the component
    dimensions, each a perfect square over the complex field.
    """
    rad = radical(alg, tol)
    if rad.shape[0] > 0:
        raise NotSemisimple(f"radical has dimension {rad.shape[0]}")
    rng = np.random.default_rng(seed)
    center = _center_basis(alg, tol, rng)
    m = center.shape[0]
    if m == 0:
        raise NotSemisimple("unital algebra must have a nonzero center")
    for _ in range(8):
        coeffs = rng.normal(size=m) + 1j * rng.normal(size=m)
        z = coeffs @ center
        lz = alg.left_matrix(z)
        eigs = np.linalg.eigvals(lz)
        scale = max(float(np.abs(eigs).max()), 1.0)
        clusters = _cluster(eigs, 1e-6 * scale)
        gaps = [abs(a - b) for (a, _), (b, _) in combinations(clusters, 2)]
        if not gaps or min(gaps) > 1e-3 * scale:
            dims = sorted(cnt for _, cnt in clusters)
            for cnt in dims:
                root = round(np.sqrt(cnt))
                if root * root != cnt:
                    raise NonSquareComponent(f"component dimension {cnt}")
            return dims
    raise NonSquareComponent("central eigenvalues stayed clustered across retries")
