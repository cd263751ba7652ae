from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shoda.structure
from shoda import (
    AlgebraSpec,
    build_B,
    frobenius,
    multiply_B,
    quotient,
    radical,
    rank,
    wedderburn_identify,
)
from shoda.oracles import (
    ElementaryTensorList,
    block_algebra,
    compress,
    dense_center,
    dense_radical,
    dense_table,
    elementary_tensor,
    exhaustive_basis_products,
    naive_tensor_multiply,
    sampled_rank,
)
from shoda.sampling import random_element
from shoda.structure import StructureConstantAlgebra, _center_basis, records
from shoda.tensor import BElement

from test_structure import upper_triangular_2x2
from test_tensor import aj_allclose


def _random_tensor_list(spec, rng, n_terms=3):
    pairs = [(i, j) for i in range(spec.num_blocks) for j in range(spec.num_blocks) if i != j]
    terms = []
    for _ in range(n_terms):
        i, j = pairs[rng.integers(len(pairs))]
        terms.append(elementary_tensor(random_element(spec, rng), i, j, random_element(spec, rng)))
    return ElementaryTensorList(spec, tuple(terms))


def _as_b(spec, etl):
    return BElement(spec.zero(), compress(etl))


def test_single_matching_term(spec23, rng):
    # inner blocks match: one output term scaled by the trace pairing
    s = ElementaryTensorList(
        spec23, (elementary_tensor(random_element(spec23, rng), 0, 1, random_element(spec23, rng)),)
    )
    t = ElementaryTensorList(
        spec23, (elementary_tensor(random_element(spec23, rng), 1, 0, random_element(spec23, rng)),)
    )
    out_terms, overflow = naive_tensor_multiply(s, t)
    assert len(out_terms.terms) == 0  # 0 -> 1 -> 0 is diagonal: all overflow
    assert frobenius(overflow) > 0

    t2 = ElementaryTensorList(
        spec23, (elementary_tensor(random_element(spec23, rng), 1, 0, random_element(spec23, rng)),)
    )
    s2 = ElementaryTensorList(
        spec23, (elementary_tensor(random_element(spec23, rng), 1, 0, random_element(spec23, rng)),)
    )
    out_terms2, overflow2 = naive_tensor_multiply(t2, s2)  # 1->0 then 1->0: mismatch
    assert len(out_terms2.terms) == 0
    assert frobenius(overflow2) == 0.0


def test_mismatched_inner_blocks_yield_nothing():
    spec = AlgebraSpec((1, 1, 1))
    rng = np.random.default_rng(0)
    s = ElementaryTensorList(
        spec, (elementary_tensor(random_element(spec, rng), 0, 1, random_element(spec, rng)),)
    )
    t = ElementaryTensorList(
        spec, (elementary_tensor(random_element(spec, rng), 2, 0, random_element(spec, rng)),)
    )
    out_terms, overflow = naive_tensor_multiply(s, t)
    assert not out_terms.terms
    assert frobenius(overflow) == 0.0


def test_naive_multiply_agrees_with_coordinate_path(spec23):
    rng = np.random.default_rng(42)
    for _ in range(100):
        s = _random_tensor_list(spec23, rng)
        t = _random_tensor_list(spec23, rng)
        naive_terms, naive_soc = naive_tensor_multiply(s, t)
        fast = multiply_B(_as_b(spec23, s), _as_b(spec23, t))
        scale = 1 + frobenius(fast.a)
        assert frobenius(naive_soc - fast.a) < 1e-12 * scale
        if naive_terms.terms:
            assert aj_allclose(compress(naive_terms), fast.u, tol=1e-12 * scale)
        else:
            assert not fast.u.terms


def test_redundant_representations_compress_identically(spec23, rng):
    # the same tensor written with split coefficients: coordinates must agree
    x, y = random_element(spec23, rng), random_element(spec23, rng)
    one_term = ElementaryTensorList(spec23, (elementary_tensor(x, 0, 1, y),))
    split_terms = ElementaryTensorList(
        spec23,
        (
            elementary_tensor(0.25 * x, 0, 1, y),
            elementary_tensor(0.75 * x, 0, 1, y),
        ),
    )
    assert aj_allclose(compress(one_term), compress(split_terms), tol=1e-13)


def test_sampled_rank_examples(spec23):
    assert sampled_rank(spec23.zero(), trials=10, seed=0) == 0
    assert sampled_rank(spec23.identity(), trials=200, seed=0) == 5
    assert sampled_rank(spec23.matrix_unit(0, 0, 1), trials=200, seed=1) == 1


def test_sampled_rank_never_exceeds_main_rank(spec23):
    rng = np.random.default_rng(3)
    for _ in range(25):
        a = random_element(spec23, rng)
        assert sampled_rank(a, trials=50, seed=7) <= rank(a)


@pytest.mark.parametrize("dims", [(1, 1), (2, 3), (2, 2, 2)])
def test_exhaustive_basis_products_are_exact(dims):
    assert exhaustive_basis_products(AlgebraSpec(dims)) == 0.0


def test_exhaustive_audit_rejects_large_specs():
    with pytest.raises(ValueError):
        exhaustive_basis_products(AlgebraSpec((4, 4)))


def test_tensor_list_validation(spec23, rng):
    bad_left = random_element(spec23, rng)  # dense, not a first-column element
    good = elementary_tensor(random_element(spec23, rng), 0, 1, random_element(spec23, rng))
    with pytest.raises(ValueError):
        ElementaryTensorList(spec23, ((bad_left, good[1]),))


def _span(rows: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the span of orthonormal rows."""
    return rows.T @ rows.conj()


def _triangular_quotient():
    alg = upper_triangular_2x2()
    return quotient(alg, radical(alg))


_EXTENSIONS = [(1, 2), (2, 3), (1, 1, 1), (2, 2, 3)]


@pytest.mark.parametrize(
    "make",
    [
        *(lambda dims=dims: build_B(AlgebraSpec(dims)) for dims in _EXTENSIONS),
        lambda: block_algebra(AlgebraSpec((2, 3))),
        upper_triangular_2x2,
        _triangular_quotient,
    ],
    ids=[f"B{dims}" for dims in _EXTENSIONS] + ["A(2, 3)", "triangular", "triangular-quotient"],
)
def test_component_solves_match_dense_oracles(make):
    alg = make()
    pairs = ((radical(alg), dense_radical(alg)), (_center_basis(alg, 1e-9), dense_center(alg)))
    for fast, oracle in pairs:
        assert fast.shape == oracle.shape
        assert np.abs(_span(fast) - _span(oracle)).max() < 1e-10


def _conjugated(alg: StructureConstantAlgebra, rng: np.random.Generator) -> StructureConstantAlgebra:
    """The same algebra on the basis f_i = sum_j p[i, j] e_j, for a seeded
    invertible p with condition number at most e**2."""
    d = alg.dim
    q1, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    q2, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    p = q1 @ np.diag(np.exp(rng.uniform(-1.0, 1.0, size=d))) @ q2
    inv = np.linalg.inv(p)
    table = np.einsum("ai,bj,ijk,kc->abc", p, p, dense_table(alg), inv)
    return StructureConstantAlgebra(records(table), alg.unit @ inv)


def _block_triangular(sizes: tuple[int, ...]) -> StructureConstantAlgebra:
    """Block upper-triangular n x n matrices, diagonal blocks of the given
    sizes, on their matrix units; the radical is the strictly upper blocks."""
    block = np.repeat(np.arange(len(sizes)), sizes)
    units = [(r, c) for r in range(block.size) for c in range(block.size) if block[r] <= block[c]]
    index = {u: i for i, u in enumerate(units)}
    table = np.zeros((len(units),) * 3, dtype=complex)
    for a, (r, c) in enumerate(units):
        for b, (r2, c2) in enumerate(units):
            if c == r2:
                table[a, b, index[(r, c2)]] = 1.0
    return StructureConstantAlgebra(records(table), np.array([float(r == c) for r, c in units]))


@pytest.mark.parametrize("sizes, seed", [((1, 1), None), ((1, 2), 1), ((2, 1, 1), 2)])
def test_stacked_quotient_matches_a_dense_quotient(sizes, seed):
    # the triangular control, and block-triangular tables on seeded bases
    if seed is None:
        alg = upper_triangular_2x2()
    else:
        alg = _conjugated(_block_triangular(sizes), np.random.default_rng(seed))
    rad = radical(alg)
    q = quotient(alg, rad)
    # the reference on the same complement basis, each product by einsum on the dense table
    _, s, vh = np.linalg.svd(rad)
    comp = vh[int(np.sum(s > 1e-9 * s[0])):]
    table = np.einsum("ai,bj,ijk,ck->abc", comp, comp, dense_table(alg), comp.conj())
    assert q.dim == comp.shape[0] == sum(n * n for n in sizes)
    assert np.abs(dense_table(q) - table).max() < 1e-12
    assert np.abs(q.unit - comp.conj() @ alg.unit).max() < 1e-12
    assert wedderburn_identify(q) == sorted(n * n for n in sizes)


@settings(max_examples=25, deadline=None)
@given(dims=st.lists(st.integers(1, 2), min_size=1, max_size=3), seed=st.integers(0, 2**32 - 1))
def test_conjugated_table_is_one_component(dims, seed):
    spec = AlgebraSpec(tuple(dims))
    alg = _conjugated(block_algebra(spec), np.random.default_rng(seed))
    d = alg.dim
    log_solve = shoda.structure._log_solve
    with mock.patch.object(shoda.structure, "_log_solve", wraps=log_solve) as log:
        rad = radical(alg)
    # a basis change mixes every coordinate, so the Gram matrix is one block
    stage, components = log.call_args.args[:2]
    assert stage == "radical" and [b.shape for _, b in components] == [(1, d, d)]
    assert rad.shape[0] == dense_radical(alg).shape[0] == 0
    assert _center_basis(alg, 1e-9).shape[0] == dense_center(alg).shape[0] == len(dims)
    assert wedderburn_identify(alg) == sorted(n * n for n in dims)
