import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shoda.algebra
from shoda import (
    AlgebraSpec,
    Element,
    conjugate_projections,
    frobenius,
    left_ideal_isomorphism,
    minimal_ideal_index,
    multiply,
    projection_path,
    rank,
    rank_preserving_path,
    riesz_projection,
    separating_element,
    spectrum,
    trace,
)
from shoda.algebra import allclose, largest_singular_value
from shoda.errors import (
    DependentInputs,
    DifferentMinimalIdeal,
    NoSuchSpectralValue,
    NotRankOne,
    NotShodaComplete,
    PathDegenerate,
    RankMismatch,
    ShapeMismatch,
    TooLarge,
    ZeroElement,
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
    assert report.total_multiplicity == 5


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
    a = AlgebraSpec((3,)).from_blocks([np.diag([0.0, 1e-12, 2e-12])])
    assert sum(m for _, m in spectrum(a).nonzero) == rank(a) == 2


def test_spectrum_is_scale_invariant(spec23):
    rng = np.random.default_rng(5)
    s = rng.normal(size=(3, 3))
    x = spec23.from_blocks([np.diag([2.0, 0.0]), s @ np.diag([1.0, 1.0, 3.0]) @ np.linalg.inv(s)])
    expected, scaled = spectrum(x), spectrum(1e-12 * x)
    assert [m for _, m in expected.eigenvalues] == [1, 1, 2, 1]
    assert [m for _, m in scaled.eigenvalues] == [m for _, m in expected.eigenvalues]
    assert [m for _, m in scaled.nonzero] == [m for _, m in expected.nonzero]


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
    a = m3.from_blocks([np.diag([2.0, 2.0 + 1.2e-8, 5.0])])
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


def _loop_riesz(a, value, clusters):
    """The quadrature as computed before it was stacked: one solve per node,
    added in node order."""
    centers = [c for c, _ in clusters]
    center = centers[int(np.argmin([abs(value - c) for c in centers]))]
    others = [c for c in centers if c != center]
    radius = min(abs(center - c) for c in others) / 2.0 if others else max(abs(center) / 2.0, 1.0)
    nodes = center + radius * np.exp(1j * 2.0 * np.pi * np.arange(256) / 256)
    out = []
    for m in a.blocks:
        n = m.shape[0]
        acc = np.zeros((n, n), dtype=complex)
        eye = np.eye(n)
        for z in nodes:
            acc += np.linalg.solve(z * eye - m, eye) * (z - center)
        out.append(acc / 256)
    return out


@pytest.mark.parametrize("dims", [(1,), (2, 3), (16,), (256,)])
def test_stacked_riesz_equals_the_node_loop(dims):
    # (16,) ends on a one-node chunk; (256,) takes one node per chunk
    from shoda.algebra import _NODE_ARRAYS, _chunk_size, _riesz_from_clusters
    from shoda.sampling import random_diagonalizable

    assert _chunk_size(_NODE_ARRAYS * 16 * 16 * 16) == 85
    assert _chunk_size(_NODE_ARRAYS * 256 * 256 * 16) == 1
    a = random_diagonalizable(AlgebraSpec(dims), np.random.default_rng(len(dims)))
    report = spectrum(a)
    value = report.nonzero[0][0]
    p = _riesz_from_clusters(a, value, 1e-9, report.eigenvalues)
    expected = _loop_riesz(a, value, report.eigenvalues)
    assert all(np.array_equal(x, y) for x, y in zip(p.blocks, expected))


# ---------------------------------------------------------------------------
# separating elements


def test_separating_element_linear_solve():
    m2 = AlgebraSpec((2,))
    b = m2.matrix_unit(0, 0, 0)
    a1 = m2.matrix_unit(0, 0, 1)
    y = separating_element(b, [a1])
    assert allclose(y, m2.matrix_unit(0, 0, 0), tol=1e-12)
    assert abs(trace(multiply(b, y)) - 1.0) < 1e-12
    assert abs(trace(multiply(a1, y))) < 1e-12
    # rank-one c: sigma(c y) = {0} exactly when Tr(c y) = 0
    assert spectrum(multiply(a1, y)).nonzero == ()
    assert spectrum(multiply(b, y)).nonzero != ()


def test_separating_element_without_constraints(spec23):
    p1 = spec23.canonical_projections()[0]
    y = separating_element(p1, [])
    assert allclose(y, p1, tol=1e-12)


def test_separating_element_rejects_dependent_inputs(spec23):
    p1 = spec23.canonical_projections()[0]
    with pytest.raises(DependentInputs):
        separating_element(p1, [p1])


def test_separating_element_rejects_higher_rank(spec23):
    with pytest.raises(NotRankOne):
        separating_element(spec23.identity(), [])


# ---------------------------------------------------------------------------
# minimal ideal index


def test_minimal_ideal_index_of_unit(spec23):
    assert minimal_ideal_index(spec23.matrix_unit(1, 0, 0)) == 1


def test_minimal_ideal_index_by_construction(spec23, rng):
    p1 = spec23.canonical_projections()[0]
    for _ in range(10):
        x, y = random_element(spec23, rng), random_element(spec23, rng)
        q = multiply(multiply(x, p1), y)
        assert frobenius(q) > 0
        assert minimal_ideal_index(q) == 0


def test_minimal_ideal_index_rejections(spec23):
    two_blocks = spec23.matrix_unit(0, 0, 0) + spec23.matrix_unit(1, 0, 0)
    with pytest.raises(NotRankOne):
        minimal_ideal_index(two_blocks)
    with pytest.raises(ZeroElement):
        minimal_ideal_index(spec23.zero())


@pytest.mark.parametrize("dims", [(8,), (2, 8), (3, 5, 8)])
def test_minimal_ideal_index_at_large_tol(dims):
    # no entry of these projections exceeds half their norm, yet their
    # block is found: it is the one of rank 1
    last = len(dims) - 1
    p = random_rank_one_projection(AlgebraSpec(dims), last, np.random.default_rng(42))
    assert minimal_ideal_index(p, 0.5) == last


@pytest.mark.parametrize("dims", [(64,), (64, 3)])
def test_endpoints_take_one_svd_per_block(dims, monkeypatch):
    # each endpoint is checked, located and split from one SVD per block
    spec = AlgebraSpec(dims)
    rng = np.random.default_rng(5)
    p, q = (random_rank_one_projection(spec, 0, rng) for _ in range(2))
    a, b = (random_element(spec, rng) for _ in range(2))
    svd, calls = np.linalg.svd, []

    def counting_svd(m, *args, **kwargs):
        if np.ndim(m) == 2:  # samples are ranked as stacks
            calls.append(np.shape(m))
        return svd(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    for run in (
        lambda: projection_path(p, q, 5),
        lambda: conjugate_projections(p, q),
        lambda: rank_preserving_path(a, b, sum(dims), 5),
    ):
        calls.clear()
        run()
        assert len(calls) == 2 * len(dims)


# ---------------------------------------------------------------------------
# similarity orbits of projections


def test_conjugate_projection_to_itself(spec23):
    p = spec23.canonical_projections()[0]
    u = conjugate_projections(p, p)
    assert allclose(u, spec23.identity(), tol=0.0)
    u_inv = Element(spec23, tuple(np.linalg.inv(m) for m in u.blocks))
    assert frobenius(p - multiply(multiply(u, p), u_inv)) < 1e-12


def test_conjugate_diagonal_units_in_one_block():
    m2 = AlgebraSpec((2,))
    p, q = m2.matrix_unit(0, 0, 0), m2.matrix_unit(0, 1, 1)
    u = conjugate_projections(p, q)
    u_inv = Element(m2, (np.linalg.inv(u.blocks[0]),))
    assert frobenius(q - multiply(multiply(u, p), u_inv)) < 1e-12
    assert np.linalg.cond(u.blocks[0]) < 1e6


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


def test_conjugate_random_projections_same_block(spec23, rng):
    for _ in range(10):
        p = random_rank_one_projection(spec23, 1, rng)
        q = random_rank_one_projection(spec23, 1, rng)
        u = conjugate_projections(p, q)
        u_inv = Element(spec23, tuple(np.linalg.inv(m) for m in u.blocks))
        moved = multiply(multiply(u, p), u_inv)
        assert frobenius(q - moved) < 1e-9 * (1 + frobenius(q))
        assert frobenius(multiply(moved, moved) - moved) < 1e-9
        assert rank(moved) == 1


def test_conjugate_projections_across_blocks_fails(spec23):
    p1, p2 = spec23.canonical_projections()
    with pytest.raises(DifferentMinimalIdeal):
        conjugate_projections(p1, p2)


# ---------------------------------------------------------------------------
# projection paths


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
    ip = minimal_ideal_index(p, tol)
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
    assert shoda.algebra._path_chunk(AlgebraSpec((1448,))) == 1
    for dims in [(1449,), (30000,), (1100, 1100)]:
        with pytest.raises(TooLarge):
            shoda.algebra._path_chunk(AlgebraSpec(dims))


@pytest.mark.parametrize("dims", [(2,), (2, 30)])
def test_stacked_projection_path_equals_the_sample_loop(dims):
    # on (2, 30) a chunk holds 9 samples, so t = 1/2 of 19 samples, which is
    # on the exceptional set, is the first sample of the second chunk
    spec = AlgebraSpec(dims)
    chunk = shoda.algebra._path_chunk(spec)
    p, q = _exceptional_endpoints(spec)
    rng = np.random.default_rng(3)
    r, s = random_rank_one_projection(spec, 0, rng), random_rank_one_projection(spec, 0, rng)
    for samples in sorted({1, 2, 3, 5, chunk, chunk + 1, 2 * chunk + 1}):
        for start, end in ((p, q), (r, s)):
            _assert_same_arcs(
                projection_path(start, end, samples, seed=5),
                _loop_projection_path(start, end, samples, seed=5),
            )
    if len(dims) == 2:
        assert chunk == 9


# ---------------------------------------------------------------------------
# minimal left ideal isomorphisms


def test_left_ideal_isomorphism_identity(spec23):
    p = spec23.canonical_projections()[0]
    iso = left_ideal_isomorphism(p, p)
    xp = multiply(spec23.matrix_unit(0, 1, 0), p)
    assert allclose(iso(xp), xp, tol=1e-12)


def test_left_ideal_isomorphism_is_multiplicative(spec23, rng):
    p = spec23.canonical_projections()[1]
    q = random_rank_one_projection(spec23, 1, rng)
    iso = left_ideal_isomorphism(p, q)
    for _ in range(20):
        xp = multiply(random_element(spec23, rng), p)
        yp = multiply(random_element(spec23, rng), p)
        lhs = iso(multiply(xp, yp))
        rhs = multiply(iso(xp), iso(yp))
        assert frobenius(lhs - rhs) < 1e-10 * (1 + frobenius(lhs))


def test_left_ideal_isomorphism_preserves_dimension(spec23, rng):
    p = spec23.canonical_projections()[1]
    q = random_rank_one_projection(spec23, 1, rng)
    iso = left_ideal_isomorphism(p, q)
    n = spec23.block_dims[1]
    images = []
    for k in range(n):
        xp = multiply(spec23.matrix_unit(1, k, 0), p)
        images.append(np.concatenate([m.ravel() for m in iso(xp).blocks]))
    s = np.linalg.svd(np.stack(images), compute_uv=False)
    assert int(np.sum(s > 1e-9 * s[0])) == n


# ---------------------------------------------------------------------------
# rank preserving paths


def test_rank_path_constant_for_equal_endpoints():
    m3 = AlgebraSpec((3,))
    a = m3.from_blocks([np.diag([1.0, 2.0, 0.0])])
    arc = rank_preserving_path(a, a, 2, 9)
    assert all(allclose(e, a, tol=1e-12) for e in arc)


def test_rank_path_keeps_rank_two():
    m3 = AlgebraSpec((3,))
    a = m3.from_blocks([np.diag([1.0, 2.0, 0.0])])
    b = m3.from_blocks([np.diag([0.0, 3.0, 4.0])])
    arc = rank_preserving_path(a, b, 2, 101)
    for e in arc:
        svals = np.linalg.svd(e.blocks[0], compute_uv=False)
        assert int(np.sum(svals > 1e-9 * svals[0])) == 2
    assert all((x == y).all() for x, y in zip(arc[0].blocks, a.blocks))
    assert all((x == y).all() for x, y in zip(arc[-1].blocks, b.blocks))


def test_rank_path_rejects_cross_block_endpoints():
    spec = AlgebraSpec((2, 2))
    a = spec.matrix_unit(0, 0, 0)
    b = spec.matrix_unit(1, 0, 0)
    with pytest.raises(NotShodaComplete):
        rank_preserving_path(a, b, 1, 10)


def test_rank_path_rejects_rank_mismatch():
    m3 = AlgebraSpec((3,))
    a = m3.from_blocks([np.diag([1.0, 2.0, 0.0])])
    b = m3.identity()
    with pytest.raises(RankMismatch):
        rank_preserving_path(a, b, 2, 10)


def test_rank_path_uses_the_given_tol():
    # at tol 1e-12 the singular value 1e-10 counts, so both endpoints have rank 2
    m3 = AlgebraSpec((3,))
    a = m3.from_blocks([np.diag([1.0, 1e-10, 0.0])])
    arc = rank_preserving_path(a, a, 2, 5, tol=1e-12)
    assert len(arc) == 5
    assert all(rank(e, 1e-12) == 2 for e in arc)


def test_rank_path_dodges_deficient_rank(monkeypatch):
    # the straight segment from a to -a passes through zero at t = 1/2
    m3 = AlgebraSpec((3,))
    a = m3.from_blocks([np.diag([1.0, 0.0, 0.0])])
    arc = rank_preserving_path(a, -a, 1, 3)
    assert rank(arc[1]) == 1
    monkeypatch.setattr(shoda.algebra, "_PERTURB_RETRIES", 0)
    with pytest.raises(PathDegenerate):
        rank_preserving_path(a, -a, 1, 3)


def _loop_rank_path(a, b, samples, tol=1e-9, seed=0):
    ranks = shoda.algebra._block_ranks(a.blocks, tol)
    factors = []
    for m_a, m_b, r in zip(a.blocks, b.blocks, ranks):
        ua, sa, vha = np.linalg.svd(m_a)
        ub, sb, vhb = np.linalg.svd(m_b)
        factors.append((
            ua[:, :r] * np.sqrt(sa[:r]), (vha[:r, :].conj().T) * np.sqrt(sa[:r]),
            ub[:, :r] * np.sqrt(sb[:r]), (vhb[:r, :].conj().T) * np.sqrt(sb[:r]),
        ))

    def sample_at(t):
        blocks = []
        for n, (xa, ya, xb, yb), r in zip(a.spec.block_dims, factors, ranks):
            if r == 0:
                blocks.append(np.zeros((n, n), dtype=complex))
                continue
            x = (1.0 - t) * xa + t * xb
            y = (1.0 - t) * ya + t * yb
            blocks.append(x @ y.conj().T)
        e = Element(a.spec, tuple(blocks))
        return e if np.array_equal(shoda.algebra._block_ranks(e.blocks, tol), ranks) else None

    return _loop_arc(a, b, samples, sample_at, seed)


@pytest.mark.parametrize("dims", [(3,), (3, 30)])
def test_stacked_rank_path_equals_the_sample_loop(dims):
    # on (3, 30) a chunk holds 9 samples, so t = 1/2 of 19 samples, where the
    # segment from a to -a has rank zero, is the first sample of the second chunk
    spec = AlgebraSpec(dims)
    chunk = shoda.algebra._path_chunk(spec)
    a = spec.matrix_unit(0, 0, 0)
    rng = np.random.default_rng(4)
    c, d = (random_element(spec, rng) for _ in range(2))
    n = rank(c)
    for samples in sorted({1, 2, 3, 5, chunk, chunk + 1, 2 * chunk + 1}):
        _assert_same_arcs(rank_preserving_path(a, -a, 1, samples, seed=7),
                          _loop_rank_path(a, -a, samples, seed=7))
        _assert_same_arcs(rank_preserving_path(c, d, n, samples, seed=7),
                          _loop_rank_path(c, d, samples, seed=7))
    if len(dims) == 2:
        assert chunk == 9


# ---------------------------------------------------------------------------
# exact orthogonality of the minimal ideals


@pytest.mark.parametrize("dims", [(1, 1), (2, 3), (2, 2, 2)])
def test_minimal_ideals_are_orthogonal_exactly(dims):
    spec = AlgebraSpec(dims)
    units = list(spec.basis())
    blocks_of = [minimal_ideal_index(u) for u in units]
    for x, bx in zip(units, blocks_of):
        for y, by in zip(units, blocks_of):
            if bx != by:
                assert frobenius(multiply(x, y)) == 0.0
                assert frobenius(multiply(y, x)) == 0.0
