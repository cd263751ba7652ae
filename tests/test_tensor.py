import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shoda import AlgebraSpec, frobenius, multiply_B
from shoda.algebra import Element, allclose
from shoda.completion import extension_positions, extension_to_matrix
from shoda.errors import ShapeMismatch
from shoda.oracles import (
    ElementaryTensorList,
    _naive_b_coordinates,
    _naive_b_multiply,
    compress,
    elementary_tensor,
)
from shoda.sampling import random_aj, random_b
from shoda.tensor import (
    AJElement,
    BElement,
    _full_coordinates,
    _pair_contract,
    aj_allclose,
    aj_pairs,
    aj_zero,
    b_allclose,
    b_identity,
    tensor_unit,
)


def _parts_norm(x):
    from shoda.tensor import aj_frobenius

    return frobenius(x.a) + aj_frobenius(x.u)


def _off_tensor(spec, u):
    return BElement(spec.zero(), u)


# ---------------------------------------------------------------------------
# trace-pairing products


def test_opposite_projection_tensors_collapse(spec23):
    # (p1 (x) p2)(p2 (x) p1): inner trace pairing Tr(p2 p2) = 1, diagonal output
    s = _off_tensor(spec23, tensor_unit(spec23, 0, 1, 0, 0))
    t = _off_tensor(spec23, tensor_unit(spec23, 1, 0, 0, 0))
    out = multiply_B(s, t)
    assert allclose(out.a, spec23.matrix_unit(0, 0, 0))
    assert not out.u.terms


def test_parallel_projection_tensors_annihilate(spec23):
    s = _off_tensor(spec23, tensor_unit(spec23, 0, 1, 0, 0))
    out = multiply_B(s, s)
    assert frobenius(out.a) == 0.0
    assert not out.u.terms


def test_basis_trace_pairing_reduction_exhaustive():
    # unit (i,k (x) j,l) times unit (j',k' (x) j'',l') collapses by the deltas
    for dims in [(1, 1), (2, 3), (2, 2, 2)]:
        spec = AlgebraSpec(dims)
        pairs = aj_pairs(spec)
        units = [
            (i, j, k, l)
            for i, j in pairs
            for k in range(spec.block_dims[i])
            for l in range(spec.block_dims[j])
        ]
        for i, j, k, l in units:
            for i2, j2, k2, l2 in units:
                out = multiply_B(
                    _off_tensor(spec, tensor_unit(spec, i, j, k, l)),
                    _off_tensor(spec, tensor_unit(spec, i2, j2, k2, l2)),
                )
                if j != i2 or l != k2:
                    assert _parts_norm(out) == 0.0
                elif i == j2:
                    assert allclose(out.a, spec.matrix_unit(i, k, l2))
                    assert not out.u.terms
                else:
                    assert frobenius(out.a) == 0.0
                    assert aj_allclose(out.u, tensor_unit(spec, i, j2, k, l2))


def test_bracket_operations_are_bilinear(spec23):
    # integer-valued tensors keep the arithmetic exact
    rng = np.random.default_rng(3)

    def integer_aj():
        return AJElement(
            spec23,
            {
                (i, j): rng.integers(-3, 4, size=(spec23.block_dims[i], spec23.block_dims[j])).astype(
                    complex
                )
                for i, j in aj_pairs(spec23)
            },
        )

    for _ in range(20):
        u, v, w = integer_aj(), integer_aj(), integer_aj()
        alpha = 3.0
        scaled = multiply_B(_off_tensor(spec23, alpha * u), _off_tensor(spec23, v))
        plain = multiply_B(_off_tensor(spec23, u), _off_tensor(spec23, v))
        assert allclose(scaled.a, alpha * plain.a, tol=0.0)
        assert aj_allclose(scaled.u, alpha * plain.u, tol=0.0)
        dist = multiply_B(_off_tensor(spec23, u), _off_tensor(spec23, v + w))
        sum_of = multiply_B(_off_tensor(spec23, u), _off_tensor(spec23, v)) + multiply_B(
            _off_tensor(spec23, u), _off_tensor(spec23, w)
        )
        assert allclose(dist.a, sum_of.a, tol=0.0)
        assert aj_allclose(dist.u, sum_of.u, tol=0.0)


# ---------------------------------------------------------------------------
# extension multiplication


def test_extension_unit_is_neutral(spec23, rng):
    x = random_b(spec23, rng)
    assert b_allclose(multiply_B(b_identity(spec23), x), x, tol=0.0)
    assert b_allclose(multiply_B(x, b_identity(spec23)), x, tol=0.0)


def test_cross_tensor_product_collapses_to_projection(spec23):
    x = BElement(spec23.zero(), tensor_unit(spec23, 0, 1, 0, 0))
    y = BElement(spec23.zero(), tensor_unit(spec23, 1, 0, 0, 0))
    out = multiply_B(x, y)
    assert allclose(out.a, spec23.matrix_unit(0, 0, 0), tol=0.0)
    assert not out.u.terms


def _assert_associative(spec, seed):
    from shoda.norms import b_norm

    rng = np.random.default_rng(seed)
    for _ in range(100):
        x, y, z = (random_b(spec, rng) for _ in range(3))
        lhs = multiply_B(multiply_B(x, y), z)
        rhs = multiply_B(x, multiply_B(y, z))
        assert _parts_norm(lhs - rhs) < 1e-10 * (1 + _parts_norm(lhs))
        assert b_norm(lhs - rhs).total < 1e-10 * (1 + b_norm(lhs).total)


def test_tensor_multiply_associative(spec23):
    _assert_associative(spec23, 5)


def test_extension_product_associative(spec23):
    _assert_associative(spec23, 9)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31), st.sampled_from([(2, 3), (1, 1), (1, 2, 1)]))
def test_extension_product_distributes(seed, dims):
    spec = AlgebraSpec(dims)
    rng = np.random.default_rng(seed)
    x, y, z = (random_b(spec, rng) for _ in range(3))
    from shoda.norms import b_norm

    lhs = multiply_B(x, y + z)
    rhs = multiply_B(x, y) + multiply_B(x, z)
    assert b_norm(lhs - rhs).total < 1e-10 * (1 + b_norm(lhs).total)


@pytest.mark.parametrize(
    "dims", [(2, 3), (1, 2, 1), (1,) * 5, (2, 1, 2, 3, 1), (1,) * 9]
)
def test_extension_product_matches_naive_oracle_exactly(dims):
    # integer operands with nonzero algebra parts keep the arithmetic exact,
    # so the term-by-term oracle pins the algebra action on tensors bit for
    # bit; 1 x 1 blocks put k^2 keys on each side of the contraction, and
    # (2, 1, 2, 3, 1) has size classes whose members are not adjacent
    spec = AlgebraSpec(dims)
    positions = extension_positions(spec)
    rng = np.random.default_rng(21)

    def integer_element():
        return Element(
            spec, tuple(rng.choice([-3, -2, -1, 1, 2, 3], size=(n, n)).astype(complex) for n in dims)
        )

    def operand():
        a = integer_element()
        terms = tuple(
            elementary_tensor(integer_element(), i, j, integer_element())
            for i, j in aj_pairs(spec)
            for _ in range(2)
        )
        tensors = ElementaryTensorList(spec, terms)
        return BElement(a, compress(tensors)), (a, tensors)

    # the oracle is quadratic in the terms, so nine blocks take two rounds
    for _ in range(2 if spec.num_blocks > 5 else 20):
        (x, x_naive), (y, y_naive) = operand(), operand()
        fast = extension_to_matrix(multiply_B(x, y))[positions]
        naive = _naive_b_coordinates(_naive_b_multiply(x_naive, y_naive, spec), spec)
        assert np.array_equal(fast, naive)


def test_stacked_contraction_equals_the_pair_by_pair_calls():
    # leading axes index operand pairs, each multiplied as a single pair
    spec = AlgebraSpec((1, 2, 1, 3))
    rng = np.random.default_rng(17)
    pairs = [(random_b(spec, rng), random_b(spec, rng)) for _ in range(5)]

    def coords(operands):
        blocks = [np.array([z.a.blocks[i] for z in operands]) for i in range(spec.num_blocks)]
        terms = {key: np.array([z.u.terms[key] for z in operands]) for key in aj_pairs(spec)}
        return _full_coordinates(blocks, terms)

    soc, off = _pair_contract(spec.block_dims, coords([x for x, _ in pairs]), coords([y for _, y in pairs]))
    for k, (x, y) in enumerate(pairs):
        one_soc, one_off = _pair_contract(
            spec.block_dims,
            _full_coordinates(x.a.blocks, x.u.terms),
            _full_coordinates(y.a.blocks, y.u.terms),
        )
        assert all(np.array_equal(m[k], one) for m, one in zip(soc, one_soc))
        assert list(off) == list(one_off) == aj_pairs(spec)
        assert all(np.array_equal(off[key][k], one_off[key]) for key in off)


def _loop_contract(left, right):
    """The trace-pairing contraction as one matmul per (i, m, j) triple."""
    soc, off = {}, {}
    for (i, m), lmat in left.items():
        for (inner, j), rmat in right.items():
            if inner == m:
                target = soc if i == j else off
                target[(i, j)] = target.get((i, j), 0) + lmat @ rmat
    return soc, off


@pytest.mark.parametrize(
    "dims, lead",
    [((4, 4), ()), ((2, 1, 2, 3, 1), ()), ((1,) * 6, ()), ((2, 1, 2, 3, 1), (3,))],
    ids=["dims0", "dims1", "dims2", "stacked"],
)
def test_contraction_matches_the_triple_loop_on_sparse_keys(dims, lead):
    # about half the keys of each side are absent: the emitted keys are the
    # ones the loop reaches, in aj_pairs order, and unreached blocks are zero;
    # a stack of operand pairs keeps its leading axes, also in the last two
    # rounds, where one side has no keys at all
    k = len(dims)
    rng = np.random.default_rng(11)
    keys = [(i, j) for i in range(k) for j in range(k)]
    for r in range(10):
        left, right = (
            {(i, j): rng.normal(size=lead + (dims[i], dims[j])) for i, j in keys if rng.random() < 0.5}
            for _ in range(2)
        )
        if lead and r >= 8:
            left, right = ({}, right) if r == 8 else (left, {})
        soc, off = _pair_contract(dims, left, right)
        loop_soc, loop_off = _loop_contract(left, right)
        assert list(off) == sorted(loop_off)
        assert all(off[i, j].shape == lead + (dims[i], dims[j]) for i, j in off)
        assert all(np.allclose(off[key], loop_off[key], rtol=0, atol=1e-12) for key in off)
        for i, m in enumerate(soc):
            assert m.shape == lead + (dims[i], dims[i])
            assert np.allclose(m, loop_soc.get((i, i), 0), rtol=0, atol=1e-12)


def test_tensor_products_reach_no_off_diagonal_key():
    # (0, 1)(1, 0) and (1, 0)(0, 1) land on the diagonal: with tensor-only
    # operands no product reaches an off-diagonal key, so none is emitted
    spec = AlgebraSpec((4, 4))
    rng = np.random.default_rng(3)
    u, v = random_aj(spec, rng), random_aj(spec, rng)
    soc, off = _pair_contract(spec.block_dims, u.terms, v.terms)
    assert off == {}
    assert all(np.any(m) for m in soc)
    assert multiply_B(_off_tensor(spec, u), _off_tensor(spec, v)).u.terms == {}


def _assert_rejects_foreign(spec, other):
    with pytest.raises(ShapeMismatch):
        multiply_B(b_identity(spec), b_identity(other))
    with pytest.raises(ShapeMismatch):
        multiply_B(_off_tensor(spec, aj_zero(spec)), _off_tensor(other, aj_zero(other)))


def test_tensor_multiply_rejects_foreign_operands(spec23):
    _assert_rejects_foreign(spec23, AlgebraSpec((2, 2)))


def test_extension_product_rejects_foreign_operands(spec23):
    _assert_rejects_foreign(spec23, AlgebraSpec((5,)))


# ---------------------------------------------------------------------------
# representation validation


def test_aj_element_rejects_diagonal_keys(spec23):
    with pytest.raises(ValueError):
        AJElement(spec23, {(0, 0): np.zeros((2, 2))})


def test_aj_element_rejects_wrong_shape(spec23):
    with pytest.raises(ValueError):
        AJElement(spec23, {(0, 1): np.zeros((3, 2))})


def test_aj_addition_and_scaling(spec23, rng):
    u, v = random_aj(spec23, rng), random_aj(spec23, rng)
    w = 2.0 * u + v
    for key in w.terms:
        expected = 2.0 * u.coordinate(*key) + v.coordinate(*key)
        assert np.allclose(w.coordinate(*key), expected, atol=0.0)
