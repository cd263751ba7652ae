from itertools import combinations_with_replacement

import numpy as np
import pytest

import shoda.algebra
import shoda.completion
import shoda.tensor
from shoda import AlgebraSpec, build_B, complete, multiply
from shoda.algebra import Element
from shoda.completion import _basis_residual, _place, extension_positions
from shoda.errors import NumericalFailure, TooLarge
from shoda.oracles import _naive_b_basis, compress
from shoda.sampling import random_b, random_element
from shoda.structure import StructureConstantAlgebra
from shoda.tensor import BElement, extension_to_matrix, matrix_to_extension, multiply_B

from test_structure import upper_triangular_2x2
from test_tensor import b_allclose


def test_complete_two_by_three(spec23):
    result = complete(spec23)
    assert result.matrix_size == 5
    assert result.total_dim == 25
    assert result.radical_dim == 0
    assert result.block_structure == (25,)
    assert result.iso_residual == 0.0


def test_complete_two_scalars_gives_full_two_by_two():
    spec = AlgebraSpec((1, 1))
    result = complete(spec)
    assert result.block_structure == (4,)
    # the traceless pair (1, -1) turns into E11 - E22 ...
    t = Element(spec, (np.eye(1), -np.eye(1)))
    image = result.embed_matrix(t)
    assert np.array_equal(image, np.diag([1.0 + 0j, -1.0 + 0j]))
    # ... which is the commutator of the off-diagonal units
    e12 = np.zeros((2, 2), dtype=complex)
    e12[0, 1] = 1.0
    e21 = e12.T.copy()
    assert np.array_equal(e12 @ e21 - e21 @ e12, image)


def test_complete_single_block_is_identity():
    spec = AlgebraSpec((3,))
    result = complete(spec)
    assert result.total_dim == 9
    assert result.block_structure == (9,)
    rng = np.random.default_rng(0)
    a = random_element(spec, rng)
    assert np.array_equal(result.embed_matrix(a), a.blocks[0])


@pytest.mark.parametrize("dims", [(1, 1), (1, 2), (2, 2), (1, 1, 2), (2, 3)])
def test_completion_metrics_small_sweep(dims):
    spec = AlgebraSpec(dims)
    n_total = spec.matrix_size
    result = complete(spec)
    assert result.total_dim == n_total**2
    assert result.radical_dim == 0
    assert result.block_structure == (n_total**2,)
    assert result.iso_residual == 0.0


def test_embedding_is_multiplicative_and_unital(spec23):
    result = complete(spec23)
    rng = np.random.default_rng(21)
    assert np.array_equal(result.embed_matrix(spec23.identity()), np.eye(5, dtype=complex))
    for unit_a in spec23.basis():
        for unit_b in spec23.basis():
            lhs = result.embed_matrix(multiply(unit_a, unit_b))
            rhs = result.embed_matrix(unit_a) @ result.embed_matrix(unit_b)
            assert np.array_equal(lhs, rhs)
    for _ in range(100):
        a, b = random_element(spec23, rng), random_element(spec23, rng)
        lhs = result.embed_matrix(multiply(a, b))
        rhs = result.embed_matrix(a) @ result.embed_matrix(b)
        assert np.abs(lhs - rhs).max() < 1e-10 * (1 + np.abs(lhs).max())


def test_embedding_is_injective(spec23):
    result = complete(spec23)
    rng = np.random.default_rng(2)
    a = random_element(spec23, rng)
    assert np.abs(result.embed_matrix(a)).max() > 0
    back = matrix_to_extension(spec23, result.embed_matrix(a))
    assert all(np.array_equal(x, y) for x, y in zip(back.a.blocks, a.blocks))


def test_canonical_projections_stay_rank_one(spec23):
    # socle preservation: images of the canonical projections in the full
    # matrix picture are rank-one idempotents
    result = complete(spec23)
    for p in spec23.canonical_projections():
        image = result.embed_matrix(p)
        assert np.array_equal(image @ image, image)
        assert np.linalg.matrix_rank(image) == 1


def test_witness_images_match_coordinates(spec23):
    # the oracle writes the basis order down on its own, sharing no code
    # with extension_positions
    result = complete(spec23)
    for a, (elt, tensors) in enumerate(_naive_b_basis(spec23)):
        image = extension_to_matrix(BElement(elt, compress(tensors)))
        assert np.array_equal(result.witness_images[a], image)


@pytest.mark.parametrize("dims", [(2, 3), (1, 1, 1), (2, 3, 3), (1, 2, 1, 3)])
def test_extension_coordinates_round_trip(dims):
    spec = AlgebraSpec(dims)
    size = spec.matrix_size
    rows, cols = extension_positions(spec)
    assert np.array_equal(np.sort(rows * size + cols), np.arange(size * size))
    rng = np.random.default_rng(4)
    x = random_b(spec, rng)
    vec = extension_to_matrix(x)[rows, cols]
    assert vec.shape == (size * size,)
    back = matrix_to_extension(spec, _place((rows, cols), vec))
    assert b_allclose(back, x, tol=0.0)


def test_matrix_round_trip(spec23):
    rng = np.random.default_rng(8)
    mat = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    x = matrix_to_extension(spec23, mat)
    assert np.array_equal(extension_to_matrix(x), mat)


@pytest.mark.parametrize("dims", [(2, 3), (1, 1, 1), (2, 3, 3), (1, 2, 1, 3)])
def test_extension_product_matches_matrix_product(dims):
    spec = AlgebraSpec(dims)
    rng = np.random.default_rng(13)
    from shoda.sampling import random_b

    for _ in range(50):
        x, y = random_b(spec, rng), random_b(spec, rng)
        lhs = extension_to_matrix(multiply_B(x, y))
        rhs = extension_to_matrix(x) @ extension_to_matrix(y)
        assert np.abs(lhs - rhs).max() < 1e-10 * (1 + np.abs(lhs).max())


def _swap_two_pairs(monkeypatch, modules):
    """Make the layout of (2, 2) trade the tensor pairs (0, 1) and (1, 0) in
    M_N on the way in and on the way out, in each of the modules' names of
    the two maps, so the maps still round-trip and multiply_B is still a
    matmul."""

    def swap(mat):
        out = np.array(mat)
        out[:2, 2:], out[2:, :2] = mat[2:, :2], mat[:2, 2:]
        return out

    to_matrix, to_extension = extension_to_matrix, matrix_to_extension
    for module in modules:
        monkeypatch.setattr(module, "extension_to_matrix", lambda x: swap(to_matrix(x)), raising=False)
        monkeypatch.setattr(module, "matrix_to_extension", lambda spec, m: to_extension(spec, swap(m)), raising=False)
    spec = AlgebraSpec((2, 2))
    mat = np.arange(16.0).reshape(4, 4)
    for module in modules:
        assert np.array_equal(module.extension_to_matrix(module.matrix_to_extension(spec, mat)), mat)
    return spec


def test_complete_catches_a_layout_that_swaps_two_pairs(monkeypatch):
    # only the trace pairing tells
    spec = _swap_two_pairs(monkeypatch, [shoda.tensor])
    with pytest.raises(NumericalFailure, match="trace pairing"):
        complete(spec)


def test_complete_catches_the_swap_in_the_names_completion_imports(monkeypatch):
    # the same swap in shoda.completion's names of the maps too (its
    # multiply_B is shoda.tensor's, which reads the swapped maps), so placing
    # the operands or reading the product back through them would round-trip;
    # the pairing check forms both from coordinates and still tells
    assert shoda.completion.multiply_B is multiply_B
    spec = _swap_two_pairs(monkeypatch, [shoda.tensor, shoda.completion])
    with pytest.raises(NumericalFailure, match="trace pairing"):
        complete(spec)


def test_complete_checks_the_trace_pairing_on_eight_products(monkeypatch):
    calls = []

    def counting(x, y):
        calls.append(x.spec)
        return multiply_B(x, y)

    monkeypatch.setattr(shoda.completion, "multiply_B", counting)
    for dims in [(1,), (2, 3), (1,) * 8]:
        calls.clear()
        assert complete(AlgebraSpec(dims)).iso_residual == 0.0
        assert len(calls) == 8


def test_radical_vectors_would_have_zero_algebra_part(spec23):
    # the radical of the extension is zero here; the location statement is
    # that any radical vector has no algebra-part coordinates at all
    from shoda import build_B, radical

    alg = build_B(spec23)
    rad = radical(alg)
    a_dim = spec23.dim
    assert rad.shape[0] == 0 or np.abs(rad[:, :a_dim]).max() < 1e-9


def test_minimality_by_dimension_count():
    """No semisimple algebra smaller than one full block absorbs a two-block
    algebra while making all its traceless elements commutators.

    A unital embedding sends each block pair (n, k) into a component of size
    m = a*n + b*k with multiplicities a, b >= 0, a + b >= 1.  Every traceless
    element gains block trace a*t - b*t, which must vanish for all t, forcing
    a = b and hence m a positive multiple of n + k.
    """
    for n, k in combinations_with_replacement(range(1, 4), 2):
        target = (n + k) ** 2
        feasible_smaller = []
        max_m = n + k  # components larger than n + k already exceed the target
        for count in range(1, target):
            for sizes in combinations_with_replacement(range(1, max_m + 1), count):
                if sum(m * m for m in sizes) >= target:
                    continue
                ok = all(
                    any(m == a * (n + k) for a in range(1, m // (n + k) + 1))
                    for m in sizes
                )
                if ok:
                    feasible_smaller.append(sizes)
            if count > 4:
                break
        assert not feasible_smaller


def test_complete_rejects_extension_with_radical(monkeypatch, spec23):
    # negative control of the radical gate: it refuses a table with a nonzero
    # radical before wedderburn_identify runs on it
    def unreachable(*args, **kwargs):
        raise AssertionError("wedderburn_identify ran on a table with a radical")

    monkeypatch.setattr(shoda.completion, "build_B", lambda spec: upper_triangular_2x2())
    monkeypatch.setattr(shoda.completion, "wedderburn_identify", unreachable)
    with pytest.raises(NumericalFailure, match="radical dimension 1"):
        complete(spec23)


def test_complete_checks_multiply_B(monkeypatch, spec23):
    # the table is built without multiply_B, so a wrong product must still
    # be caught by complete()
    def wrong_product(x, y):
        return multiply_B(y, x)

    monkeypatch.setattr(shoda.completion, "multiply_B", wrong_product)
    with pytest.raises(NumericalFailure, match="multiply_B is off the trace pairing"):
        complete(spec23)


def test_complete_refuses_table_over_budget():
    # 410 bytes for each of the N**3 records at N = 87 need 270 MB, over 256 MiB
    with pytest.raises(TooLarge):
        complete(AlgebraSpec((87,)))


def test_complete_admits_forty_one():
    # its 41**3 records need 28 MB, well inside the budget
    result = complete(AlgebraSpec((20, 21)))
    assert result.radical_dim == 0 and result.block_structure == (41**2,)


def test_witness_images_check_the_budget(monkeypatch, spec23):
    # the d x d identity and the (d, N, N) stack: 2 * 25**2 complex entries
    result = complete(spec23)
    monkeypatch.setattr(shoda.algebra, "_BUDGET_BYTES", 2 * 25**2 * 16)
    assert result.witness_images.shape == (25, 5, 5)
    monkeypatch.setattr(shoda.algebra, "_BUDGET_BYTES", 2 * 25**2 * 16 - 1)
    with pytest.raises(TooLarge, match="witness images"):
        result.witness_images


def test_complete_never_forms_a_table_product(monkeypatch):
    # the witness is checked on the records themselves, so complete() makes
    # no call to the table's product; tests/test_structure.py checks that
    # product against the witness on seeded pairs
    def unreachable(self, x, y):
        raise AssertionError("complete() called StructureConstantAlgebra.product")

    monkeypatch.setattr(StructureConstantAlgebra, "product", unreachable)
    for dims in [(1,), (2, 3), (1,) * 8, (5, 5)]:
        result = complete(AlgebraSpec(dims))
        assert result.radical_dim == 0 and result.iso_residual == 0.0


def test_complete_thirty_two():
    result = complete(AlgebraSpec((16, 16)))
    assert result.block_structure == (1024,)
    assert result.iso_residual == 0.0


def _moved(table):
    table = table.copy()
    table["c"][7] += 1
    return table


@pytest.mark.parametrize(
    "corrupt",
    [_moved, lambda table: table[1:], lambda table: np.append(table, table[:1])],
    ids=["moved", "missing", "extra"],
)
def test_basis_residual_sees_every_wrong_record(spec23, corrupt):
    result = complete(spec23)
    alg = build_B(spec23)
    assert _basis_residual(alg, *result.positions) == 0.0
    bad = StructureConstantAlgebra(corrupt(alg.table), alg.unit)
    assert _basis_residual(bad, *result.positions) == 1.0


def test_complete_gates_the_witness_residual(monkeypatch, spec23):
    # negative control: record 7 sent to the next basis element plus one extra
    # record still passes the radical and Wedderburn checks, so only the
    # witness residual can refuse this table
    alg = build_B(spec23)
    table = _moved(np.append(alg.table, alg.table[7]))
    table["c"][-1] += 2
    monkeypatch.setattr(
        shoda.completion, "build_B", lambda spec: StructureConstantAlgebra(table, alg.unit)
    )
    with pytest.raises(NumericalFailure, match="witness is off the table"):
        complete(spec23)
