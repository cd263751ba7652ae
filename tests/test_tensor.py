import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shoda import AlgebraSpec, frobenius, multiply_B
from shoda.algebra import Element, allclose
from shoda.completion import extension_positions
from shoda.errors import ShapeMismatch
from shoda.norms import NormReport, _key_order_sum, _nuclear_norms, a_norm, b_norm
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
    aj_pairs,
    aj_zero,
    extension_to_matrix,
    matrix_to_extension,
)


def tensor_unit(spec, i, j, k, l):
    """The elementary off-diagonal tensor with a single unit coordinate."""
    m = np.zeros((spec.block_dims[i], spec.block_dims[j]), dtype=complex)
    m[k, l] = 1.0
    return AJElement(spec, {(i, j): m})


def aj_allclose(u, v, tol=1e-12):
    return u.spec == v.spec and np.allclose(u.matrix, v.matrix, rtol=0.0, atol=tol)


def b_identity(spec):
    return BElement(spec.identity(), aj_zero(spec))


def b_allclose(x, y, tol=1e-12):
    return allclose(x.a, y.a, tol) and aj_allclose(x.u, y.u, tol)


def _parts_norm(x):
    return frobenius(x.a) + float(np.linalg.norm(x.u.matrix))


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
        u, v, w = (_off_tensor(spec23, integer_aj()) for _ in range(3))
        alpha = 3.0
        scaled = multiply_B(alpha * u, v)
        plain = multiply_B(u, v)
        assert allclose(scaled.a, alpha * plain.a, tol=0.0)
        assert aj_allclose(scaled.u, (alpha * plain).u, tol=0.0)
        dist = multiply_B(u, v + w)
        sum_of = multiply_B(u, v) + multiply_B(u, w)
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


def _loop_contract(left, right):
    """The trace-pairing contraction as one matmul per (i, m, j) triple."""
    soc, off = {}, {}
    for (i, m), lmat in left.items():
        for (inner, j), rmat in right.items():
            if inner == m:
                target = soc if i == j else off
                target[(i, j)] = target.get((i, j), 0) + lmat @ rmat
    return soc, off


@pytest.mark.parametrize("dims", [(4, 4), (2, 1, 2, 3, 1), (1,) * 6])
def test_contraction_matches_the_triple_loop_on_sparse_keys(dims):
    # about half the keys of each side are absent: the product's tensor keys
    # are the ones the loop reaches, in aj_pairs order, and unreached algebra
    # blocks are zero; in the last two rounds one side has no keys at all
    spec = AlgebraSpec(dims)
    k = len(dims)
    rng = np.random.default_rng(11)
    keys = [(i, j) for i in range(k) for j in range(k)]

    def operand(coords):
        blocks = tuple(coords.get((i, i), np.zeros((n, n))) for i, n in enumerate(dims))
        terms = {key: m for key, m in coords.items() if key[0] != key[1]}
        return BElement(Element(spec, blocks), AJElement(spec, terms))

    for r in range(10):
        left, right = (
            {(i, j): rng.normal(size=(dims[i], dims[j])) for i, j in keys if rng.random() < 0.5}
            for _ in range(2)
        )
        if r >= 8:
            left, right = ({}, right) if r == 8 else (left, {})
        out = multiply_B(operand(left), operand(right))
        loop_soc, loop_off = _loop_contract(left, right)
        assert list(out.u.terms) == sorted(loop_off)
        for key, m in loop_off.items():
            assert np.allclose(out.u.terms[key], m, rtol=0, atol=1e-12)
        for i, m in enumerate(out.a.blocks):
            assert np.allclose(m, loop_soc.get((i, i), 0), rtol=0, atol=1e-12)


def test_tensor_products_reach_no_off_diagonal_key():
    # (0, 1)(1, 0) and (1, 0)(0, 1) land on the diagonal: with tensor-only
    # operands no product reaches an off-diagonal key, so none is emitted
    spec = AlgebraSpec((4, 4))
    rng = np.random.default_rng(3)
    u, v = random_aj(spec, rng), random_aj(spec, rng)
    out = multiply_B(_off_tensor(spec, u), _off_tensor(spec, v))
    assert out.u.terms == {}
    assert all(np.any(m) for m in out.a.blocks)


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
    w = (2.0 * _off_tensor(spec23, u) + _off_tensor(spec23, v)).u
    assert list(w.terms) == aj_pairs(spec23)
    for key, m in w.terms.items():
        assert np.array_equal(m, 2.0 * u.terms[key] + v.terms[key])


def test_terms_are_read_only_views_of_the_matrix(spec23, rng):
    u = random_aj(spec23, rng)
    assert list(u.terms) == aj_pairs(spec23)
    for m in u.terms.values():
        assert np.shares_memory(m, u.matrix)
        assert not m.flags.writeable
    assert not u.matrix.flags.writeable
    # a zero pair has no term; the matrix keeps its zero blocks
    single = AJElement(spec23, {(1, 0): u.terms[(1, 0)]})
    assert list(single.terms) == [(1, 0)]
    assert np.array_equal(single.matrix[:2, :2], np.zeros((2, 2)))


def test_a_term_written_after_construction_leaves_the_element_alone(spec23):
    m = np.arange(6, dtype=complex).reshape(2, 3)
    u = AJElement(spec23, {(0, 1): m})
    m[0, 0] = 99.0
    assert u.terms[(0, 1)][0, 0] == 0.0
    matrix = np.zeros((5, 5), dtype=complex)
    kept = AJElement(spec23, matrix=matrix)
    assert kept.matrix is matrix and not matrix.flags.writeable


# ---------------------------------------------------------------------------
# the array arithmetic against a per-pair dict reference


def _dict_terms(u):
    """A tensor's nonzero coordinate matrices as a plain dict of copies."""
    return {key: np.array(m) for key, m in u.terms.items()}


def _dict_combine(spec, u, v, op):
    """The tensor arithmetic as a dict of coordinate matrices: keys in
    aj_pairs order, all-zero results dropped."""
    dims = spec.block_dims
    out = {}
    for key in sorted(set(u) | set(v)):
        zero = np.zeros((dims[key[0]], dims[key[1]]), dtype=complex)
        m = op(u.get(key, zero), v.get(key, zero))
        if np.count_nonzero(m):
            out[key] = m
    return out


def _dict_norm(spec, a, terms):
    """b_norm over a dict of terms: the present pairs stacked by shape, one
    nuclear norm per pair, the norms added in key order."""
    pairs, shapes = aj_pairs(spec), {}
    for place, key in enumerate(pairs):
        if key in terms:
            shapes.setdefault(terms[key].shape, []).append(place)
    groups = [(np.array(places), np.array([terms[pairs[p]] for p in places])) for places in shapes.values()]
    norms = _nuclear_norms(groups)
    per_pair = {p: norm for p, norm in zip(pairs, norms.tolist()) if p in terms}
    u_l1 = float(_key_order_sum(norms))
    an = a_norm(a)
    return NormReport(a_norm=an, u_l1=u_l1, total=an + u_l1, per_pair=per_pair)


def _dict_product(x, y):
    """multiply_B on dict operands: both placed block by block into M_N,
    one matmul, the product cut back into blocks."""
    spec = x.spec
    rows, start = [], 0
    for n in spec.block_dims:
        rows.append(slice(start, start + n))
        start += n

    def place(a, terms):
        out = np.zeros((start, start), dtype=complex)
        for r, m in zip(rows, a.blocks):
            out[r, r] = m
        for (i, j), m in terms.items():
            out[rows[i], rows[j]] = m
        return out

    mat = place(x.a, _dict_terms(x.u)) @ place(y.a, _dict_terms(y.u))
    a = Element(spec, [mat[r, r] for r in rows])
    terms = {(i, j): mat[rows[i], rows[j]] for i, j in aj_pairs(spec) if np.count_nonzero(mat[rows[i], rows[j]])}
    return a, terms


def _assert_same(x, a, terms):
    assert np.array_equal(x.a.vector, a.vector)
    assert list(x.u.terms) == list(terms)
    for key, m in terms.items():
        assert np.array_equal(x.u.terms[key], m)


def _sparse_b(spec, rng, keep):
    """A random extension element with about a share keep of its pairs."""
    terms = {key: m for key, m in random_aj(spec, rng).terms.items() if rng.random() < keep}
    return BElement(random_b(spec, rng).a, AJElement(spec, terms))


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([(2, 3, 2), (1, 1, 1, 3, 1), (1,) * 6]),
    st.integers(0, 2**31),
    st.sampled_from([0.0, 0.5, 1.0]),
    st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
)
def test_array_arithmetic_equals_the_dict_arithmetic(dims, seed, keep, alpha):
    spec = AlgebraSpec(dims)
    rng = np.random.default_rng(seed)
    x, y = _sparse_b(spec, rng, keep), _sparse_b(spec, rng, keep)
    xu, yu = _dict_terms(x.u), _dict_terms(y.u)
    _assert_same(x + y, x.a + y.a, _dict_combine(spec, xu, yu, np.add))
    negated = _dict_combine(spec, {}, yu, lambda p, q: complex(-1.0) * q)
    _assert_same(x - y, x.a - y.a, _dict_combine(spec, xu, negated, np.add))
    scaled = {key: complex(alpha) * m for key, m in xu.items() if np.count_nonzero(complex(alpha) * m)}
    _assert_same(alpha * x, complex(alpha) * x.a, scaled)
    _assert_same(multiply_B(x, y), *_dict_product(x, y))
    for z in (x, y, x - y, multiply_B(x, y)):
        assert b_norm(z) == _dict_norm(spec, z.a, _dict_terms(z.u))
