import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shoda.algebra
from shoda import (
    AlgebraSpec,
    Element,
    frobenius,
    multiply,
    projection_path,
    rank,
    riesz_projection,
    spectrum,
    trace,
)
from shoda.algebra import _block_ranks, _rank_one_block, allclose, largest_singular_value
from shoda.errors import (
    DifferentMinimalIdeal,
    NoSuchSpectralValue,
    NotAProjection,
    PathDegenerate,
    ShapeMismatch,
    TooLarge,
)
from shoda.sampling import random_element, random_rank_one_projection

SMALL_SPECS = [(2, 3), (1, 1), (3,), (2, 2, 2), (1, 2)]


def _random(spec, seed):
    return random_element(AlgebraSpec(spec), np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# multiplication


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31), st.sampled_from(SMALL_SPECS))
def test_identity_is_neutral(seed, dims):
    spec = AlgebraSpec(dims)
    a = _random(dims, seed)
    assert allclose(multiply(spec.identity(), a), a)
    assert allclose(multiply(a, spec.identity()), a)


def test_canonical_projections_multiply_to_zero(spec23):
    p1, p2 = spec23.canonical_projections()
    assert frobenius(multiply(p1, p2)) == 0.0
    assert frobenius(multiply(p2, p1)) == 0.0


def test_matrix_unit_multiplication_table(spec23):
    # E_{kl} E_{k'l'} = delta(l, k') E_{kl'}, within one block
    e12 = spec23.matrix_unit(0, 0, 1)
    e21 = spec23.matrix_unit(0, 1, 0)
    assert allclose(multiply(e12, e21), spec23.matrix_unit(0, 0, 0))
    assert allclose(multiply(e21, e12), spec23.matrix_unit(0, 1, 1))
    assert frobenius(multiply(e12, e12)) == 0.0


def test_multiply_rejects_foreign_elements(spec23):
    other = AlgebraSpec((5,))
    with pytest.raises(ShapeMismatch):
        multiply(spec23.identity(), other.identity())


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31), st.sampled_from(SMALL_SPECS))
def test_multiply_associative_and_bilinear(seed, dims):
    rng = np.random.default_rng(seed)
    spec = AlgebraSpec(dims)
    a, b, c = (random_element(spec, rng) for _ in range(3))
    lhs = multiply(multiply(a, b), c)
    rhs = multiply(a, multiply(b, c))
    assert allclose(lhs, rhs, tol=1e-10 * (1 + frobenius(lhs)))
    lin = multiply(a + 2.0 * b, c)
    assert allclose(lin, multiply(a, c) + 2.0 * multiply(b, c), tol=1e-10 * (1 + frobenius(lin)))


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_of_identity(spec23):
    report = spectrum(spec23.identity())
    assert report.eigenvalues == ((1 + 0j, 5),)
    assert sum(m for _, m in report.eigenvalues) == 5


def test_spectrum_of_partial_diagonal(spec23):
    a = 2.0 * spec23.matrix_unit(0, 0, 0)
    report = spectrum(a)
    as_dict = {v: m for v, m in report.eigenvalues}
    assert as_dict == {2 + 0j: 1, 0j: 4}
    assert report.nonzero == ((2 + 0j, 1),)


def test_spectrum_of_nilpotent_block_has_empty_nonzero_part(spec23, rng):
    blocks = [np.triu(rng.normal(size=(n, n)), k=1).astype(complex) for n in spec23.block_dims]
    a = Element(spec23, tuple(blocks))
    # independent check that the element is genuinely nilpotent
    power = a
    for _ in range(max(spec23.block_dims) - 1):
        power = multiply(power, a)
    assert frobenius(power) < 1e-12
    assert spectrum(a).nonzero == ()


def test_spectrum_zero_detects_singular_blocks(spec23, rng):
    a = random_element(spec23, rng)  # generically invertible in every block
    values = [v for v, _ in spectrum(a).eigenvalues]
    assert all(abs(v) > 1e-9 for v in values)


def test_spectrum_counts_tiny_values_like_rank():
    # merged within tol but cut at tol times the scale, these three values
    # used to read as one nonzero value of multiplicity 3 at rank 2
    a = Element(AlgebraSpec((3,)), [np.diag([0.0, 1e-12, 2e-12])])
    assert sum(m for _, m in spectrum(a).nonzero) == rank(a) == 2


def test_spectrum_is_scale_invariant(spec23):
    rng = np.random.default_rng(5)
    s = rng.normal(size=(3, 3))
    x = Element(spec23, [np.diag([2.0, 0.0]), s @ np.diag([1.0, 1.0, 3.0]) @ np.linalg.inv(s)])
    expected, scaled = spectrum(x), spectrum(1e-12 * x)
    assert [m for _, m in expected.eigenvalues] == [1, 1, 2, 1]
    assert [m for _, m in scaled.eigenvalues] == [m for _, m in expected.eigenvalues]
    assert [m for _, m in scaled.nonzero] == [m for _, m in expected.nonzero]


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_spectrum_keeps_values_at_the_ends_of_the_range(scale):
    # the merge radius is tol times the operator norm, from a Gram that must
    # neither overflow nor underflow on finite entries
    a = Element(AlgebraSpec((1,)), [np.array([[scale]])])
    assert largest_singular_value(a) == scale
    assert spectrum(a).nonzero == ((scale, 1),)
    assert allclose(riesz_projection(a, scale), a.spec.identity())


def test_nonzero_spectrum_invariant_under_swap(spec23):
    # sigma'(xy) = sigma'(yx) as multisets
    rng = np.random.default_rng(99)
    for _ in range(100):
        x, y = random_element(spec23, rng), random_element(spec23, rng)
        left = sorted(
            (v for v, m in spectrum(multiply(x, y)).nonzero for _ in range(m)),
            key=lambda z: (z.real, z.imag),
        )
        right = sorted(
            (v for v, m in spectrum(multiply(y, x)).nonzero for _ in range(m)),
            key=lambda z: (z.real, z.imag),
        )
        assert len(left) == len(right)
        scale = largest_singular_value(multiply(x, y))
        assert all(abs(l - r) < 1e-7 * (1 + scale) for l, r in zip(left, right))


# ---------------------------------------------------------------------------
# trace


def test_trace_of_canonical_projection(spec23):
    p1 = spec23.canonical_projections()[0]
    assert trace(p1) == 1.0


def test_trace_of_per_block_scalars(spec23):
    # block traces 3*2 and (-2)*3 cancel
    a = Element(spec23, (3.0 * np.eye(2), -2.0 * np.eye(3)))
    assert trace(a) == 0.0


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31))
def test_trace_is_linear(seed):
    spec = AlgebraSpec((2, 3))
    rng = np.random.default_rng(seed)
    a, b = random_element(spec, rng), random_element(spec, rng)
    assert abs(trace(a + b) - trace(a) - trace(b)) < 1e-12 * (1 + abs(trace(a)))


def test_trace_agrees_with_eigenvalue_sum(spec23):
    rng = np.random.default_rng(7)
    for _ in range(100):
        a = random_element(spec23, rng)
        by_eigs = sum(v * m for v, m in spectrum(a).eigenvalues)
        assert abs(trace(a) - by_eigs) < 1e-9 * (1.0 + frobenius(a))


# ---------------------------------------------------------------------------
# rank


def test_rank_examples(spec23):
    assert rank(spec23.zero()) == 0
    assert rank(spec23.identity()) == 2 + 3  # block rank sum
    assert rank(spec23.matrix_unit(0, 0, 0)) == 1


def test_rank_is_subadditive(spec23, rng):
    for _ in range(25):
        a, b = random_element(spec23, rng), random_element(spec23, rng)
        assert rank(a + b) <= rank(a) + rank(b)


# ---------------------------------------------------------------------------
# Riesz projections


def test_riesz_projection_of_isolated_value(spec23):
    a = 2.0 * spec23.matrix_unit(0, 0, 0)
    p = riesz_projection(a, 2.0)
    assert allclose(p, spec23.matrix_unit(0, 0, 0), tol=1e-12)
    assert rank(p) == 1


def test_riesz_projection_of_identity(spec23):
    p = riesz_projection(spec23.identity(), 1.0)
    assert allclose(p, spec23.identity(), tol=1e-12)


def test_riesz_rejects_absent_value(spec23):
    nilpotent = spec23.matrix_unit(0, 0, 1)
    with pytest.raises(NoSuchSpectralValue):
        riesz_projection(nilpotent, 1.0)


def test_riesz_rejects_too_tight_contour():
    from shoda.errors import ContourTooTight

    # gap wide enough to keep two spectral values apart, narrower than the
    # four-tolerance guard band for the contour radius
    m3 = AlgebraSpec((3,))
    a = Element(m3, [np.diag([2.0, 2.0 + 1.2e-8, 5.0])])
    with pytest.raises(ContourTooTight):
        riesz_projection(a, 2.0)


def test_riesz_family_properties(spec23):
    from shoda.sampling import random_diagonalizable

    rng = np.random.default_rng(11)
    for _ in range(10):
        a = random_diagonalizable(spec23, rng, min_gap=0.1)
        report = spectrum(a)
        projections = [(riesz_projection(a, v), m) for v, m in report.nonzero]
        total = 0
        for p, m in projections:
            assert frobenius(multiply(p, p) - p) < 1e-9
            assert frobenius(multiply(p, a) - multiply(a, p)) < 1e-9
            assert rank(p) == m
            total += m
        for i, (p, _) in enumerate(projections):
            for q, _ in projections[i + 1 :]:
                assert frobenius(multiply(p, q)) < 1e-9
        assert total == sum(m for _, m in report.nonzero)


@pytest.mark.parametrize("dims", [(1,), (2, 3), (16,), (256,)])
def test_riesz_equals_the_eigenvector_projection(dims):
    # the reference is V[:, S] (V^-1)[S, :] over the eigenvalues S at the value
    from shoda.sampling import random_diagonalizable

    a = random_diagonalizable(AlgebraSpec(dims), np.random.default_rng(len(dims)))
    value = spectrum(a).nonzero[0][0]
    expected = []
    for m in a.blocks:
        w, v = np.linalg.eig(m)
        at = np.abs(w - value) < 1e-6
        expected.append(v[:, at] @ np.linalg.inv(v)[at, :])
    p = riesz_projection(a, value)
    assert frobenius(p - Element(a.spec, tuple(expected))) <= 1e-9 * frobenius(p)


# ---------------------------------------------------------------------------
# minimal ideal index of a rank-one element, as is_shoda_complete finds it


def test_minimal_ideal_index_rejections(spec23):
    two_blocks = spec23.matrix_unit(0, 0, 0) + spec23.matrix_unit(1, 0, 0)
    with pytest.raises(NotAProjection, match="rank is 2, need 1"):
        _rank_one_block(_block_ranks(two_blocks.runs, 1e-9))
    with pytest.raises(NotAProjection, match="rank is 0, need 1"):
        _rank_one_block(_block_ranks(spec23.zero().runs, 1e-9))


@pytest.mark.parametrize("dims", [(8,), (2, 8), (3, 5, 8)])
def test_minimal_ideal_index_at_large_tol(dims):
    # no entry of these projections exceeds half their norm, yet their
    # block is found: it is the one of rank 1
    last = len(dims) - 1
    p = random_rank_one_projection(AlgebraSpec(dims), last, np.random.default_rng(42))
    assert _rank_one_block(_block_ranks(p.runs, 0.5)) == last


@pytest.mark.parametrize("dims", [(64,), (64, 3), (2,) * 50])
def test_endpoints_take_one_svd_per_block(dims, monkeypatch):
    # each endpoint is checked and located from one SVD call per run of
    # blocks, of its nonzero blocks only, and split by one more of its
    # rank-one block; both endpoints lie in block 0, and every other block is zero
    spec = AlgebraSpec(dims)
    rng = np.random.default_rng(5)
    p, q = (random_rank_one_projection(spec, 0, rng) for _ in range(2))
    svd, calls = np.linalg.svd, []

    def counting_svd(m, *args, **kwargs):
        calls.append(np.shape(m))
        return svd(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    projection_path(p, q, 5)
    assert calls == [(1, dims[0], dims[0]), (dims[0], dims[0])] * 2


# ---------------------------------------------------------------------------
# projection paths


def test_rank_one_projection_in_high_dimension():
    # random vectors in C^1024 are nearly orthogonal, so the pairing test
    # alone almost never passes
    n = 1024
    start = time.perf_counter()
    p = random_rank_one_projection(AlgebraSpec((n,)), 0, np.random.default_rng(42)).blocks[0]
    assert time.perf_counter() - start < 1.0
    assert np.linalg.norm(p @ p - p) < 1e-12
    assert abs(np.trace(p) - 1.0) < 1e-12  # the rank of an idempotent is its trace
    assert np.linalg.norm(p) <= 5.0  # |v||w| / |w^H v| <= 5


def test_projection_path_constant_for_equal_endpoints(spec23):
    p = spec23.canonical_projections()[0]
    arc = projection_path(p, p, 17)
    assert all(allclose(e, p, tol=1e-12) for e in arc)


def test_projection_path_samples_are_rank_one_idempotents():
    m2 = AlgebraSpec((2,))
    p, q = m2.matrix_unit(0, 0, 0), m2.matrix_unit(0, 1, 1)
    arc = projection_path(p, q, 101)
    for e in arc:
        assert frobenius(multiply(e, e) - e) < 1e-9
        assert rank(e) == 1


def test_projection_path_endpoints_exact():
    m2 = AlgebraSpec((2,))
    p, q = m2.matrix_unit(0, 0, 0), m2.matrix_unit(0, 1, 1)
    arc = projection_path(p, q, 1000)
    assert all((x == y).all() for x, y in zip(arc[0].blocks, p.blocks))
    assert all((x == y).all() for x, y in zip(arc[-1].blocks, q.blocks))


def test_projection_path_pairing_test_ignores_tol():
    # tol is the endpoint rank cut only: at tol=0.5 the pencil's pairing
    # |w^H v| still only has to clear a fixed floor, so an arc that exists
    # is found and every sample is a rank-one idempotent
    from shoda.sampling import random_rank_one_projection

    spec = AlgebraSpec((8,))
    rng = np.random.default_rng(42)
    p = random_rank_one_projection(spec, 0, rng)
    q = random_rank_one_projection(spec, 0, rng)
    arc = projection_path(p, q, 1000, tol=0.5, seed=42)
    assert len(arc) == 1000
    assert max(frobenius(multiply(e, e) - e) for e in arc) < 1e-9
    assert all(rank(e) == 1 for e in arc)


def test_projection_path_rejects_cross_block(spec23):
    p1, p2 = spec23.canonical_projections()
    with pytest.raises(DifferentMinimalIdeal):
        projection_path(p1, p2, 10)


@pytest.mark.parametrize(
    "diagonal, detail",
    [([2, 0, 0], "idempotency residual"), ([1, 1, 0], "rank is 2")],
    ids=["not-idempotent", "rank-two"],
)
def test_projection_path_rejects_non_projections(spec23, diagonal, detail):
    # 2 E_11 fails the idempotency check; E_11 + E_22 passes it and fails
    # the rank check
    x = Element(spec23, [np.zeros((2, 2)), np.diag(diagonal)])
    p = spec23.canonical_projections()[1]
    for start, end in ((x, p), (p, x)):
        with pytest.raises(NotAProjection, match=detail):
            projection_path(start, end, 5)


def _loop_arc(start, end, samples, sample_at, seed):
    """Arc sampling as done before it was stacked: one sample at a time."""
    rng = np.random.default_rng(seed)
    grid = np.linspace(0.0, 1.0, samples)
    path = [start]
    for s_idx in range(1, samples - 1):
        e = sample_at(grid[s_idx])
        retries = 0
        while e is None and retries < 16:
            e = sample_at(grid[s_idx] + 1j * (rng.uniform(0.05, 0.5) / samples))
            retries += 1
        assert e is not None
        path.append(e)
    return path + [end] if samples > 1 else path


def _loop_projection_path(p, q, samples, tol=1e-9, seed=0):
    ip = int(np.argmax(_block_ranks(p.runs, tol)))
    v_p, v_q = (np.linalg.svd(x.blocks[ip])[0][:, 0] for x in (p, q))
    w_p, w_q = v_p.conj() @ p.blocks[ip], v_q.conj() @ q.blocks[ip]

    def sample_at(t):
        v = (1.0 - t) * v_p + t * v_q
        w = (1.0 - t) * w_p + t * w_q
        denom = w @ v
        if abs(denom) <= tol * max(np.linalg.norm(v) * np.linalg.norm(w), 1e-300):
            return None
        blocks = [np.zeros((n, n), dtype=complex) for n in p.spec.block_dims]
        blocks[ip] = np.outer(v, w) / denom
        return Element(p.spec, tuple(blocks))

    return _loop_arc(p, q, samples, sample_at, seed)


def _exceptional_endpoints(spec):
    # the endpoints of test_projection_path_dodges_exceptional_set, in the
    # leading 2 x 2 block of spec: the pencil trace vanishes at t = 1/2
    theta, shear = 1.05, -1.15844016457873
    x = np.array([np.cos(theta), np.sin(theta)])
    y = x + shear * np.array([-np.sin(theta), np.cos(theta)])
    return spec.matrix_unit(0, 0, 0), Element(spec, (np.outer(x, y),) + spec.zero().blocks[1:])


def _assert_same_arcs(arc, expected):
    assert len(arc) == len(expected)
    for e, f in zip(arc, expected):
        assert all(np.array_equal(x, y) for x, y in zip(e.blocks, f.blocks))


def test_projection_path_dodges_exceptional_set(monkeypatch):
    # q = x y^T with y^T x = 1 is a rank-one idempotent; for this angle and
    # shear (found by bisection) the pencil trace vanishes at t = 1/2, so the
    # midpoint sample must be pushed off the real axis
    theta, shear = 1.05, -1.15844016457873
    x = np.array([np.cos(theta), np.sin(theta)])
    y = x + shear * np.array([-np.sin(theta), np.cos(theta)])
    m2 = AlgebraSpec((2,))
    p = m2.matrix_unit(0, 0, 0)
    q = Element(m2, (np.outer(x, y),))
    assert frobenius(multiply(q, q) - q) < 1e-12
    arc = projection_path(p, q, 3)
    middle = arc[1]
    assert frobenius(multiply(middle, middle) - middle) < 1e-9
    assert rank(middle) == 1
    monkeypatch.setattr(shoda.algebra, "_PERTURB_RETRIES", 0)
    with pytest.raises(PathDegenerate):
        projection_path(p, q, 3)


def test_path_chunks_stay_small():
    # most of 1000 samples of an N = 8 spec per chunk, one at a time when a
    # sample is large, and none at all over the budget
    assert 64 <= shoda.algebra._path_chunk(AlgebraSpec((8,))) <= 1000
    assert shoda.algebra._path_chunk(AlgebraSpec((1295,))) == 1
    for dims in [(1296,), (1365,), (1448,), (30000,), (1100, 1100)]:
        with pytest.raises(TooLarge):
            shoda.algebra._path_chunk(AlgebraSpec(dims))


def test_path_budget_counts_each_block():
    # many tiny blocks cost no more than their entries: 10 complex entries per
    # coordinate admit (1,) * 1677721 and (2,) * 419430, and not one block more
    for n, most in ((1, 1677721), (2, 419430)):
        assert shoda.algebra._path_chunk(AlgebraSpec((n,) * most)) >= 1
        with pytest.raises(TooLarge):
            shoda.algebra._path_chunk(AlgebraSpec((n,) * (most + 1)))


@pytest.mark.parametrize("dims", [(2,), (2, 30)])
def test_stacked_projection_path_equals_the_sample_loop(dims):
    # stacks are sized by the arc's 2 x 2 block, so t = 1/2 of 2 chunk + 1
    # samples, which is on the exceptional set, is the first sample of the
    # second chunk; the grid, made one stack at a time, is the loop's linspace
    spec = AlgebraSpec(dims)
    chunk = shoda.algebra._path_chunk(AlgebraSpec((2,)))
    p, q = _exceptional_endpoints(spec)
    rng = np.random.default_rng(3)
    r, s = random_rank_one_projection(spec, 0, rng), random_rank_one_projection(spec, 0, rng)
    for samples in (1, 2, 3, 5, chunk, chunk + 1, 2 * chunk + 1):
        for start, end in ((p, q), (r, s)):
            _assert_same_arcs(
                projection_path(start, end, samples, seed=5),
                _loop_projection_path(start, end, samples, seed=5),
            )
    _, _, stacks = shoda.algebra._projection_arc(p, q, 2 * chunk + 1, 1e-9, 5)
    assert [len(stack) for stack in stacks] == [chunk, chunk, 1]


def _block_projections(spec, block, rng):
    """Two random rank-one projections of the given block of spec."""
    n = spec.block_dims[block]
    out = []
    for _ in range(2):
        v, w = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
        blocks = list(spec.zero().blocks)
        blocks[block] = np.outer(v, w) / (w @ v)
        out.append(Element(spec, tuple(blocks)))
    return out


def test_projection_path_in_the_last_block_equals_the_sample_loop():
    spec = AlgebraSpec((1, 2, 3))
    p, q = _block_projections(spec, 2, np.random.default_rng(4))
    for samples in (1, 2, 3, 101):
        _assert_same_arcs(
            projection_path(p, q, samples, seed=5),
            _loop_projection_path(p, q, samples, seed=5),
        )


def test_projection_arc_stacks_only_the_arc_block():
    # one stack of the 2 x 2 block holds all 1000 samples, sized by that
    # block and not by the 50 blocks of the algebra; the residuals are the
    # endpoints' own
    spec = AlgebraSpec((2,) * 50)
    p, q = _block_projections(spec, 7, np.random.default_rng(7))
    ip, residuals, stacks = shoda.algebra._projection_arc(p, q, 1000, 1e-9, 0)
    assert ip == 7
    assert residuals == [frobenius(multiply(x, x) - x) for x in (p, q)]
    assert [stack.shape for stack in stacks] == [(1000, 2, 2)]


# ---------------------------------------------------------------------------
# exact orthogonality of the minimal ideals


@pytest.mark.parametrize("dims", [(1, 1), (2, 3), (2, 2, 2)])
def test_minimal_ideals_are_orthogonal_exactly(dims):
    spec = AlgebraSpec(dims)
    units = list(spec.basis())
    blocks_of = [i for i, n in enumerate(dims) for _ in range(n * n)]  # basis() order
    for x, bx in zip(units, blocks_of):
        for y, by in zip(units, blocks_of):
            if bx != by:
                assert frobenius(multiply(x, y)) == 0.0
                assert frobenius(multiply(y, x)) == 0.0


# ---------------------------------------------------------------------------
# one coordinate vector, one numpy call per run, against a per-block reference


_RUN_SPECS = st.one_of(
    st.sampled_from([(2, 3, 2), (1, 1, 1, 3, 1), (3, 3, 1, 3), (2,)]),
    st.lists(st.integers(1, 4), min_size=1, max_size=6).map(tuple),
)


@settings(max_examples=40, deadline=None)
@given(_RUN_SPECS, st.integers(0, 2**32 - 1))
def test_run_operations_equal_a_per_block_reference(dims, seed):
    spec, rng = AlgebraSpec(dims), np.random.default_rng(seed)
    x, y = random_element(spec, rng), random_element(spec, rng)
    # a rank-one block in every other block, so ranks are not all full, and
    # block 0 far below the rank threshold of the element, though not of
    # its own run when it is one
    blocks = [m if i % 2 else m[:, :1] @ m[:1, :] for i, m in enumerate(random_element(spec, rng).blocks)]
    blocks[0] = blocks[0] * (1e-12 if len(blocks) > 1 else 1.0)
    z = Element(spec, blocks)
    xs, ys = [np.array(m) for m in x.blocks], [np.array(m) for m in y.blocks]
    for got, want in [(x + y, [a + b for a, b in zip(xs, ys)]),
                      (x - y, [a - b for a, b in zip(xs, ys)]),
                      (x * (2 - 1j), [(2 - 1j) * a for a in xs]),
                      (multiply(x, y), [a @ b for a, b in zip(xs, ys)])]:
        assert all(np.array_equal(g, w) for g, w in zip(got.blocks, want))
    assert trace(x) == complex(sum(np.trace(a) for a in xs))
    assert frobenius(x) == float(np.sqrt(sum(np.sum(np.abs(a) ** 2) for a in xs)))
    top = max(np.linalg.svd(a, compute_uv=False)[0] for a in xs)
    assert abs(largest_singular_value(x) - top) <= 1e-14 * top
    svals = [np.linalg.svd(m, compute_uv=False) for m in blocks]
    thr = 1e-9 * max(s[0] for s in svals)
    assert rank(z) == sum(int(np.sum(s > thr)) for s in svals)
    values = np.sort_complex(np.concatenate([np.linalg.eigvals(a) for a in xs]))
    got = np.sort_complex(np.array([v for v, m in spectrum(x).eigenvalues for _ in range(m)]))
    assert np.allclose(got, values, rtol=0.0, atol=1e-9 * (1 + top))


def test_blocks_are_read_only_views_of_one_vector():
    spec = AlgebraSpec((2, 3, 2))
    mats = [np.full((n, n), float(n)) for n in spec.block_dims]
    x = Element(spec, mats)
    assert x.vector.shape == (spec.dim,) and not x.vector.flags.writeable
    for m in (*x.blocks, *x.runs):
        assert np.shares_memory(m, x.vector) and not m.flags.writeable
    with pytest.raises(ValueError):
        x.blocks[0][0, 0] = 1.0
    # the caller's arrays were copied once
    mats[0][0, 0] = -1.0
    assert x.blocks[0][0, 0] == 2.0
    assert [run.shape for run in x.runs] == [(1, 2, 2), (1, 3, 3), (1, 2, 2)]
