import numpy as np
import pytest

import shoda.completion
from shoda import AlgebraSpec, a_norm, b_norm, isometry_check, pair_nuclear_norm
from shoda import submultiplicativity_audit
from shoda.algebra import Element, multiply
from shoda.completion import extension_to_matrix
from shoda.errors import TooLarge
from shoda.norms import A_NORM_MODEL, NormAudit, _audit_chunk, _ratio
from shoda.sampling import random_aj, random_b, random_element
from shoda.tensor import BElement, aj_zero, multiply_B, tensor_unit


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
    # witness that doubles block 0 moves the operator norm of the image
    full = shoda.completion._full_coordinates

    def doubled(blocks, terms):
        coords = full(blocks, terms)
        coords[(0, 0)] = 2.0 * coords[(0, 0)]
        return coords

    monkeypatch.setattr(shoda.completion, "_full_coordinates", doubled)
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


@pytest.mark.parametrize("dims", [(1183,), (30000,), (592, 592), (100000, 3), (1,) * 350])
def test_audits_over_budget_raise_before_drawing(dims):
    spec = AlgebraSpec(dims)
    with pytest.raises(TooLarge):
        submultiplicativity_audit(spec, 1)
    with pytest.raises(TooLarge):
        isometry_check(spec, 1)


def test_largest_audited_block_is_within_budget():
    assert _audit_chunk(AlgebraSpec((1182,))) == 1
    assert _audit_chunk(AlgebraSpec((1,) * 349)) == 1
