import numpy as np
import pytest

import shoda.algebra
import shoda.norms
from shoda import AlgebraSpec, a_norm, b_norm, isometry_check, pair_nuclear_norm
from shoda import submultiplicativity_audit
from shoda.algebra import Element, block_operator_norm, multiply
from shoda.errors import TooLarge
from shoda.norms import A_NORM_MODEL, NormAudit, _audit_chunk, _ratio
from shoda.sampling import random_aj, random_b, random_element
from shoda.tensor import BElement, aj_zero, extension_to_matrix, matrix_to_extension, multiply_B

from test_tensor import tensor_unit


def test_a_norm_of_identity(spec23):
    assert a_norm(spec23.identity()) == 1.0


def test_a_norm_takes_block_maximum(spec23):
    x = Element(spec23, (3.0 * np.eye(2), -2.0 * np.eye(3)))
    assert a_norm(x) == 3.0


def test_a_norm_is_submultiplicative(spec23, rng):
    for _ in range(200):
        x, y = random_element(spec23, rng), random_element(spec23, rng)
        assert a_norm(multiply(x, y)) <= a_norm(x) * a_norm(y) * (1 + 1e-12)


def test_nuclear_norm_of_outer_product(rng):
    x = rng.normal(size=4) + 1j * rng.normal(size=4)
    y = rng.normal(size=3) + 1j * rng.normal(size=3)
    m = np.outer(x, y.conj())
    expected = np.linalg.norm(x) * np.linalg.norm(y)
    assert abs(pair_nuclear_norm(m) - expected) < 1e-12 * expected


def test_nuclear_norm_of_diagonal():
    assert pair_nuclear_norm(np.diag([3.0, 4.0])) == 7.0


def test_nuclear_norm_of_zero():
    assert pair_nuclear_norm(np.zeros((2, 3))) == 0.0


def test_nuclear_dominates_operator_norm(rng):
    for _ in range(50):
        m = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        svals = np.linalg.svd(m, compute_uv=False)
        assert pair_nuclear_norm(m) >= svals[0] - 1e-12
    # equality exactly on rank one
    m1 = np.outer(rng.normal(size=3), rng.normal(size=2))
    svals = np.linalg.svd(m1, compute_uv=False)
    assert abs(pair_nuclear_norm(m1) - svals[0]) < 1e-12 * svals[0]


# ---------------------------------------------------------------------------
# Gram eigenvalues against an SVD oracle

# the last four lie just inside the shape cuts of pair_nuclear_norm, where
# the Gram's rounding error is largest; 16 x 16 takes the SVD
ORACLE_SHAPES = [(1, 6), (6, 1), (2, 2), (4, 4), (5, 3), (3, 5), (16, 16),
                 (10, 10), (10, 2828), (1, 9000), (9000, 1)]
ORACLE_KINDS = ["gaussian", "rank_deficient", "ill_conditioned", "zero"]


def _cmatrix(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _oracle_matrix(kind, shape, rng):
    r, c = shape
    k = min(r, c)
    if kind == "gaussian":
        return _cmatrix(rng, shape)
    if kind == "rank_deficient":  # a thin product, of rank k // 2 (one for a vector)
        return _cmatrix(rng, (r, max(1, k // 2))) @ _cmatrix(rng, (max(1, k // 2), c))
    if kind == "ill_conditioned":  # singular values from 1 down to 1e-9 exactly by construction
        u, _ = np.linalg.qr(_cmatrix(rng, (r, k)))
        v, _ = np.linalg.qr(_cmatrix(rng, (c, k)))
        return (u * np.geomspace(1.0, 1e-9, k)) @ v.conj().T
    return np.zeros(shape, dtype=complex)


@pytest.mark.parametrize("shape", ORACLE_SHAPES)
@pytest.mark.parametrize("kind", ORACLE_KINDS)
def test_norms_agree_with_the_svd(kind, shape, monkeypatch):
    rng = np.random.default_rng([ORACLE_KINDS.index(kind), *shape])
    stack = np.array([_oracle_matrix(kind, shape, rng) for _ in range(8)])
    svals = np.linalg.svd(stack, compute_uv=False)
    top = block_operator_norm([stack[:, None]])
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda m, **kw: calls.append(len(m)) or svd(m, **kw))
    nuclear = pair_nuclear_norm(stack)
    assert np.all(np.abs(nuclear - svals.sum(axis=-1)) <= 1e-12 * svals.sum(axis=-1))
    assert np.all(np.abs(top - svals[:, 0]) <= 1e-14 * svals[:, 0])
    if kind == "zero":
        assert np.all(nuclear == 0.0) and np.all(top == 0.0)
    # a matrix with a zero or tiny singular value takes the SVD, unless its
    # Gram is of order 1, whose one eigenvalue is the squared Frobenius norm
    if min(shape) == 1:
        assert calls == []
    elif kind in ("rank_deficient", "ill_conditioned"):
        assert calls == [len(stack)]
    # alone or in a stack, a matrix gets the same norms
    assert [pair_nuclear_norm(m) for m in stack] == nuclear.tolist()
    assert [block_operator_norm([m[None]]) for m in stack] == top.tolist()


def test_shapes_past_the_cuts_take_the_svd(monkeypatch):
    # sqrt(k) (long + 2 k) u exceeds 1e-12 from 1 x 9006 and from 10 x 2829
    # on, and a block whose shorter side exceeds 10 takes the SVD anyway
    rng = np.random.default_rng(4)
    gram, seen = shoda.norms._gram_eigenvalues, []
    monkeypatch.setattr(shoda.norms, "_gram_eigenvalues", lambda m: seen.append(m.shape[-2:]) or gram(m))
    monkeypatch.setattr(shoda.algebra, "_gram_eigenvalues", lambda m: seen.append(m.shape[-2:]) or gram(m))
    for shape in [(1, 9005), (1, 9006), (10, 2828), (10, 2829), (10, 10), (11, 11)]:
        m = _cmatrix(rng, shape)
        svals = np.linalg.svd(m, compute_uv=False)
        assert abs(pair_nuclear_norm(m) - svals.sum()) <= 1e-12 * svals.sum()
    assert seen == [(1, 9005), (10, 2828), (10, 10)]
    seen.clear()
    for shape in [(10, 10), (11, 11), (11, 30)]:
        m = _cmatrix(rng, shape)
        assert abs(block_operator_norm([m[None]]) - np.linalg.norm(m, 2)) <= 1e-14 * np.linalg.norm(m, 2)
    assert seen == [(10, 10)]


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_norms_agree_with_the_svd_at_the_ends_of_the_range(scale):
    # each matrix is scaled by a power of two before its Gram is formed,
    # whose entries would otherwise overflow or underflow; half the stack
    # is of order 1, and scaling with its chunk changes none of its bits
    stack = _cmatrix(np.random.default_rng(9), (8, 4, 5))
    stack[::2] *= scale
    svals = np.linalg.svd(stack, compute_uv=False)
    nuclear, top = pair_nuclear_norm(stack), block_operator_norm([stack[:, None]])
    assert np.all(np.abs(nuclear - svals.sum(axis=-1)) <= 1e-12 * svals.sum(axis=-1))
    assert np.all(np.abs(top - svals[:, 0]) <= 1e-14 * svals[:, 0])
    assert [pair_nuclear_norm(m) for m in stack] == nuclear.tolist()
    assert [block_operator_norm([m[None]]) for m in stack] == top.tolist()
    x = Element(AlgebraSpec((4,)), (stack[0, :, :4],))
    assert abs(a_norm(x) - np.linalg.norm(x.blocks[0], 2)) <= 1e-14 * a_norm(x)


def test_exact_norms_stay_exact(spec23):
    assert pair_nuclear_norm(np.diag([3.0, 4.0])) == 7.0
    assert block_operator_norm([np.diag([3.0, -4.0])[None]]) == 4.0
    assert a_norm(spec23.identity()) == 1.0


# ---------------------------------------------------------------------------
# the pair norm


def test_pair_norm_of_unit(spec23):
    report = b_norm(BElement(spec23.identity(), aj_zero(spec23)))
    assert report.total == 1.0
    assert report.u_l1 == 0.0


def test_pair_norm_of_unit_tensor(spec23):
    report = b_norm(BElement(spec23.zero(), tensor_unit(spec23, 0, 1, 0, 0)))
    assert report.total == 1.0
    assert report.a_norm == 0.0
    assert report.per_pair == {(0, 1): 1.0}


def test_pair_norm_adds_parts(spec23):
    p1 = spec23.canonical_projections()[0]
    report = b_norm(BElement(p1, tensor_unit(spec23, 0, 1, 0, 0)))
    assert report.total == 2.0
    assert report.total == report.a_norm + report.u_l1


def test_pair_norm_triangle_and_homogeneity(spec23, rng):
    for _ in range(100):
        x, y = random_b(spec23, rng), random_b(spec23, rng)
        nx, ny, nxy = b_norm(x).total, b_norm(y).total, b_norm(x + y).total
        assert nxy <= (nx + ny) * (1 + 1e-12)
        assert abs(b_norm((-2.5 + 1j) * x).total - abs(-2.5 + 1j) * nx) < 1e-12 * (1 + nx)
        assert b_norm(x).total >= 0.0
    zero = BElement(spec23.zero(), aj_zero(spec23))
    assert b_norm(zero).total == 0.0


# ---------------------------------------------------------------------------
# audits


def test_submultiplicativity_audit(spec23):
    audit = submultiplicativity_audit(spec23, samples=1000, seed=42)
    bound = 1 + 1e-9
    assert audit.tensor_times_algebra <= bound
    assert audit.algebra_times_tensor <= bound
    assert audit.tensor_times_tensor <= bound
    assert audit.full_pairs <= bound
    assert audit.worst_ratio <= bound


def test_equality_case_ratio_is_one(spec23):
    x = BElement(spec23.zero(), tensor_unit(spec23, 0, 1, 0, 0))
    y = BElement(spec23.zero(), tensor_unit(spec23, 1, 0, 0, 0))
    prod = multiply_B(x, y)
    assert b_norm(prod).total == 1.0
    assert b_norm(x).total * b_norm(y).total == 1.0


@pytest.mark.parametrize("dims", [(2, 3), (1, 2, 2)])
def test_each_family_reaches_ratio_one(dims):
    # every family's supremum is 1, reached by these pairs; a mis-scaled norm
    # that stays submultiplicative passes a random audit but not these: a
    # doubled tensor part reads 1/4 on the unit tensors, a doubled algebra
    # norm 1/2 on the mixed pairs
    spec = AlgebraSpec(dims)
    one = BElement(spec.identity(), aj_zero(spec))
    tensors = [BElement(spec.zero(), random_aj(spec, np.random.default_rng(3))),
               BElement(spec.zero(), tensor_unit(spec, 0, 1, 0, 0))]
    for u in tensors:
        u_l1 = b_norm(u).u_l1
        assert abs(b_norm(multiply_B(u, one)).u_l1 / (u_l1 * a_norm(one.a)) - 1) <= 1e-12
        assert abs(b_norm(multiply_B(one, u)).u_l1 / (u_l1 * a_norm(one.a)) - 1) <= 1e-12
    u = BElement(spec.zero(), tensor_unit(spec, 0, 1, 0, 0))
    v = BElement(spec.zero(), tensor_unit(spec, 1, 0, 0, 0))
    uv = b_norm(multiply_B(u, v)).total / (b_norm(u).u_l1 * b_norm(v).u_l1)
    assert abs(uv - 1) <= 1e-12
    assert abs(b_norm(multiply_B(one, one)).total / b_norm(one).total ** 2 - 1) <= 1e-12


def test_b_norm_does_not_depend_on_how_the_element_was_built():
    # a sum keeps its tensor keys in aj_pairs order, as the matrix picture
    # does, so the l1 sum adds the same nuclear norms in the same order
    spec = AlgebraSpec((1, 2, 3, 1, 2))
    rng = np.random.default_rng(5)
    for _ in range(200):
        z = random_b(spec, rng) + random_b(spec, rng)
        assert b_norm(z) == b_norm(matrix_to_extension(spec, extension_to_matrix(z)))


def test_zero_factor_convention(spec23):
    assert _ratio(0.0, 0.0, 1.0) == 0.0


def test_isometry_of_embedding(spec23):
    assert isometry_check(spec23, samples=100, seed=1) < 1e-12
    one = BElement(spec23.identity(), aj_zero(spec23))
    assert b_norm(one).total == a_norm(spec23.identity())
    zero = BElement(spec23.zero(), aj_zero(spec23))
    assert b_norm(zero).total == 0.0


@pytest.mark.parametrize("dims", [(2, 3), (1, 2, 1)])
def test_isometry_check_sees_a_misplaced_witness(dims, monkeypatch):
    # the check reads the algebra through the full-matrix witness, so a
    # placement that doubles block 0 moves the operator norm of the image
    place = shoda.norms._assemble

    def doubled(dims, blocks, terms):
        return place(dims, [2.0 * blocks[0], *blocks[1:]], terms)

    monkeypatch.setattr(shoda.norms, "_assemble", doubled)
    assert isometry_check(AlgebraSpec(dims), samples=100, seed=1) > 1e-12


def test_norm_model_is_flagged():
    assert A_NORM_MODEL == "max-block-operator-norm"


# ---------------------------------------------------------------------------
# the audits on sample stacks against the one-sample-at-a-time loop


def _loop_audits(spec, samples, seed, checkpoints):
    """Both audits drawn and checked one sample at a time, through b_norm and
    multiply_B or through extension_to_matrix, as the audits did before they
    ran on stacks; the worst ratios seen after each checkpoint sample count,
    which are the results of an audit of that many samples, since the draws
    of fewer samples are a prefix."""

    def ratio(product_norm, left, right):
        return 0.0 if left == 0.0 or right == 0.0 else product_norm / (left * right)

    rng = np.random.default_rng(seed)
    zero = spec.zero()
    worst_ub = worst_av = worst_uv = worst_full = 0.0
    audits = {}
    for k in range(1, samples + 1):
        u = BElement(zero, random_aj(spec, rng))
        v = BElement(zero, random_aj(spec, rng))
        x = BElement(random_element(spec, rng), aj_zero(spec))
        y = BElement(random_element(spec, rng), aj_zero(spec))
        u_l1, v_l1 = b_norm(u).u_l1, b_norm(v).u_l1
        worst_ub = max(worst_ub, ratio(b_norm(multiply_B(u, x)).u_l1, u_l1, a_norm(x.a)))
        worst_av = max(worst_av, ratio(b_norm(multiply_B(y, v)).u_l1, v_l1, a_norm(y.a)))
        worst_uv = max(worst_uv, ratio(b_norm(multiply_B(u, v)).total, u_l1, v_l1))
        s, t = random_b(spec, rng), random_b(spec, rng)
        full = ratio(b_norm(multiply_B(s, t)).total, b_norm(s).total, b_norm(t).total)
        worst_full = max(worst_full, full)
        if k in checkpoints:
            audits[k] = NormAudit(worst_ub, worst_av, worst_uv, worst_full)
    rng = np.random.default_rng(seed)
    worst, isometry = 0.0, {}
    for k in range(1, samples + 1):
        x = random_element(spec, rng)
        nx = a_norm(x)
        image = extension_to_matrix(BElement(x, aj_zero(spec)))
        embedded = np.linalg.svd(image, compute_uv=False)[0]
        worst = max(worst, abs(embedded - nx) / max(nx, 1e-300))
        if k in checkpoints:
            isometry[k] = worst
    return audits, isometry


@pytest.mark.parametrize("dims", [(8,), (4, 4), (5, 3), (2, 3, 3), (1, 1, 1)])
@pytest.mark.parametrize("seed", [7, 42])
def test_stacked_audits_equal_the_sample_loop(dims, seed):
    # the chunk edges and the layout of each chunk's draws are pinned by
    # exact equality at one sample, one chunk, one chunk and one, and 1000
    spec = AlgebraSpec(dims)
    chunk = _audit_chunk(spec)
    counts = sorted({1, chunk, chunk + 1, 1000})
    audits, isometry = _loop_audits(spec, max(counts), seed, set(counts))
    for samples in counts:
        assert submultiplicativity_audit(spec, samples, seed) == audits[samples]
        assert isometry_check(spec, samples, seed) == isometry[samples]


def test_audit_chunks_stay_small():
    # a few dozen samples of an N = 8 spec, and one at a time when one sample is large
    assert 32 <= _audit_chunk(AlgebraSpec((4, 4))) <= 256
    assert _audit_chunk(AlgebraSpec((300, 300))) == 1


@pytest.mark.parametrize("dims", [(1183,), (30000,), (592, 592), (100000, 3), (1,) * 959])
def test_audits_over_budget_raise_before_drawing(dims):
    spec = AlgebraSpec(dims)
    with pytest.raises(TooLarge):
        submultiplicativity_audit(spec, 1)
    with pytest.raises(TooLarge):
        isometry_check(spec, 1)


def test_largest_audited_block_is_within_budget():
    assert _audit_chunk(AlgebraSpec((1182,))) == 1
    assert _audit_chunk(AlgebraSpec((1,) * 958)) == 1
