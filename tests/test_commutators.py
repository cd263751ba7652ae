import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shoda.commutators
import shoda.oracles
from shoda import (
    AlgebraSpec,
    Element,
    commutator_decompose,
    decompose_in_completion,
    frobenius,
    infeasibility_certificate,
    is_shoda_complete,
    multiply,
    trace,
)
from shoda.algebra import _block_ranks, allclose
from shoda.commutators import (
    _commutator,
    _corner_dim,
    _diagonal_shift_factors,
    _ideal_dim,
    _odd_rotation,
    _require_decomposable_size,
    _zero_diagonal_similarity,
    certifies_non_commutator,
    random_commutator_search,
)
from shoda.completion import extension_to_matrix
from shoda.errors import NotShodaComplete, NotTraceless, NumericalFailure, TooLarge
from shoda.norms import b_norm
from shoda.oracles import dense_corner_dim, dense_ideal_dim
from shoda.sampling import random_idempotent, random_rank_one_projection, random_traceless
from shoda.tensor import BElement, aj_zero, multiply_B


# ---------------------------------------------------------------------------
# the completeness report


def test_single_block_is_complete():
    report = is_shoda_complete(AlgebraSpec((5,)))
    assert report.verdict
    assert report.criterion_minimal_ideal
    assert report.criterion_single_generator
    assert report.criterion_connectivity
    assert all(d == r * r for r, d in report.criterion_corner)
    assert report.witness is None


def test_two_blocks_are_incomplete_with_witness(spec23):
    report = is_shoda_complete(spec23)
    assert not report.verdict
    expected = Element(spec23, (3.0 * np.eye(2), -2.0 * np.eye(3)))
    assert allclose(report.witness, expected, tol=0.0)
    assert any(d != r * r for r, d in report.criterion_corner)


def test_two_scalars_are_incomplete():
    spec = AlgebraSpec((1, 1))
    report = is_shoda_complete(spec)
    assert not report.verdict
    assert allclose(report.witness, Element(spec, (np.eye(1), -np.eye(1))), tol=0.0)


@pytest.mark.parametrize("dims", [(4,), (1, 3), (2, 2), (1, 1, 1), (2, 3, 1), (8,)])
def test_criteria_always_agree(dims):
    report = is_shoda_complete(AlgebraSpec(dims))
    corner_ok = all(d == r * r for r, d in report.criterion_corner)
    assert (
        report.verdict
        == report.criterion_minimal_ideal
        == report.criterion_single_generator
        == corner_ok
        == report.criterion_connectivity
    )
    assert report.verdict == (len(dims) == 1)


def _loop_stacks(spec, p, tol):
    """The criteria stacks as built before they were stacked: one Element
    product per basis element (left multiples, corners) or per pair of a
    reduced left multiple and a basis element (the ideal)."""
    def element_of(row):
        chunks = np.split(row, np.cumsum([n * n for n in spec.block_dims])[:-1])
        return Element(spec, tuple(c.reshape(n, n) for c, n in zip(chunks, spec.block_dims)))

    left = np.stack([multiply(x, p).vector for x in spec.basis()])
    _, s, vh = np.linalg.svd(left, full_matrices=False)
    reduced = vh[s > tol * s[0]]
    ideal = np.stack(
        [multiply(element_of(row), y).vector for row in reduced for y in spec.basis()]
    )
    corner = np.stack([multiply(multiply(p, x), p).vector for x in spec.basis()])
    return left, ideal, corner


@pytest.mark.parametrize("dims", [(8,), (4, 4), (5, 3), (2, 3, 3), (1, 1, 1)])
def test_stacked_criteria_equal_the_element_loop(monkeypatch, dims):
    spec = AlgebraSpec(dims)
    rng = np.random.default_rng(sum(dims))
    seen = []

    def recording_span_dim(stacked, tol):
        seen.append(stacked.copy())
        return span_dim(stacked, tol)

    span_dim = shoda.oracles._span_dim
    monkeypatch.setattr(shoda.oracles, "_span_dim", recording_span_dim)
    projections = list(spec.canonical_projections())
    projections += [random_rank_one_projection(spec, i, rng) for i in range(len(dims))]
    projections.append(random_idempotent(spec, tuple(min(2, n) for n in dims), rng))
    for p in projections:
        left, ideal, corner = _loop_stacks(spec, p, 1e-9)
        seen.clear()
        assert dense_ideal_dim(spec, p, 1e-9) == span_dim(ideal, 1e-9)
        assert dense_corner_dim(spec, p, 1e-9) == span_dim(corner, 1e-9)
        assert np.array_equal(seen[0], ideal) and np.array_equal(seen[1], corner)


def _criteria_projections(spec, rng):
    """Canonical projections, a random rank-one projection per block and
    random idempotents of every rank pattern up to 2 per block."""
    out = list(spec.canonical_projections())
    out += [random_rank_one_projection(spec, i, rng) for i in range(spec.num_blocks)]
    for pattern in itertools.product(range(3), repeat=spec.num_blocks):
        if any(pattern) and all(r <= n for r, n in zip(pattern, spec.block_dims)):
            out.append(random_idempotent(spec, pattern, rng))
    return out


def _assert_block_ranks_match_the_oracles(spec, rng):
    for p in _criteria_projections(spec, rng):
        ranks = _block_ranks(p.runs, 1e-9)
        assert _ideal_dim(spec, ranks) == dense_ideal_dim(spec, p, 1e-9)
        assert _corner_dim(p.runs, 1e-9) == dense_corner_dim(spec, p, 1e-9)


@pytest.mark.parametrize("dims", [(1,), (6,), (2, 3), (1, 1, 1), (3, 1, 2)])
def test_block_rank_dims_equal_the_dense_stacks(dims):
    _assert_block_ranks_match_the_oracles(AlgebraSpec(dims), np.random.default_rng(len(dims)))


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(1, 4), min_size=1, max_size=4).filter(lambda d: sum(d) <= 6),
    st.integers(0, 2**32 - 1),
)
def test_block_rank_dims_equal_the_dense_stacks_on_random_specs(dims, seed):
    _assert_block_ranks_match_the_oracles(AlgebraSpec(tuple(dims)), np.random.default_rng(seed))


def test_corner_dims_are_squares_at_large_tol():
    # the dense rank cut over the n^2 x n^2 corner used to report corner
    # dimension 3 for a rank-2 idempotent here, and the criteria disagreed
    report = is_shoda_complete(AlgebraSpec((5,)), tol=0.1)
    assert report.verdict and report.criterion_corner == ((1, 1), (2, 4))


def test_disagreeing_criteria_raise(monkeypatch):
    # negative control of the disagreement gate: a non-square corner dimension
    monkeypatch.setattr(shoda.commutators, "_corner_dim", lambda p, tol: 3)
    with pytest.raises(NumericalFailure, match="criteria disagree"):
        is_shoda_complete(AlgebraSpec((4,)))


def test_projections_span_only_their_own_blocks(monkeypatch):
    # every criterion depends on the one or two blocks where its projection
    # is nonzero, so no element but the witness spans all fifty blocks
    widths = []
    init = Element.__init__

    def recording_init(self, spec, *args, **kwargs):
        widths.append(spec.num_blocks)
        init(self, spec, *args, **kwargs)

    monkeypatch.setattr(Element, "__init__", recording_init)
    report = is_shoda_complete(AlgebraSpec((1,) * 50))
    assert not report.verdict and len(report.witness.blocks) == 50
    assert [w for w in widths if w > 2] == [50]


# ---------------------------------------------------------------------------
# decomposition inside one block


def test_decompose_zero():
    m2 = AlgebraSpec((2,))
    witness = commutator_decompose(m2.zero())
    assert frobenius(witness.a) == 0.0
    assert frobenius(witness.b) == 0.0
    assert witness.residual == 0.0


def test_decompose_diagonal_difference_gives_shift_factors():
    m2 = AlgebraSpec((2,))
    t = m2.matrix_unit(0, 0, 0) - m2.matrix_unit(0, 1, 1)
    witness = commutator_decompose(t)
    assert allclose(witness.a, m2.matrix_unit(0, 0, 1), tol=0.0)
    assert allclose(witness.b, m2.matrix_unit(0, 1, 0), tol=0.0)
    recomposed = multiply(witness.a, witness.b) - multiply(witness.b, witness.a)
    assert allclose(recomposed, t, tol=0.0)
    assert witness.residual < 1e-12


def test_decompose_random_traceless_in_m5():
    m5 = AlgebraSpec((5,))
    rng = np.random.default_rng(31)
    for _ in range(100):
        t = random_traceless(m5, rng)
        witness = commutator_decompose(t)
        assert witness.residual < 1e-9 * frobenius(t)
        comm = multiply(witness.a, witness.b) - multiply(witness.b, witness.a)
        assert frobenius(t - comm) < 1e-9 * frobenius(t)
        assert abs(trace(comm)) < 1e-10 * (1 + frobenius(t))


def _bidiagonal_inputs():
    rng = np.random.default_rng(43)
    for n in (2, 5, 32, 256):
        # a scalar witness of (n, n), an integer diagonal, and a near-diagonal
        # input whose off-diagonal mass is under the 1e-12 shortcut
        yield np.diag(np.repeat([1.0, -1.0], n)).astype(complex)
        d = rng.integers(-9, 10, size=n).astype(complex)
        d[-1] -= d.sum()
        yield np.diag(d)
        m = np.diag(rng.normal(size=n) + 1j * rng.normal(size=n))
        m -= np.trace(m) / n * np.eye(n)
        yield m + 1e-14 * np.linalg.norm(m) / n * np.triu(rng.normal(size=(n, n)), 1)
    # the witness of (1,) * 431, the most blocks a decompose report admits
    yield np.diag(np.r_[430.0, -np.ones(430)]).astype(complex)


def test_bidiagonal_commutator_equals_the_two_products():
    # bit for bit, up to the sign of zero entries
    for m in _bidiagonal_inputs():
        fa, fb = shoda.commutators._decompose_matrix(m)
        assert np.array_equal(fa, _diagonal_shift_factors(m)[0])
        assert (_commutator(fa, fb) + 0.0).tobytes() == (fa @ fb - fb @ fa + 0.0).tobytes()
    # factors of any other form take the products
    fa, fb = _diagonal_shift_factors(np.diag([1.0, 2.0, -3.0]).astype(complex))
    for a, b in [(fa, fb + np.diag([1.0, 2.0, 3.0])), (fa + np.eye(3, k=2), fb), (2 * fa, fb)]:
        assert np.array_equal(_commutator(a, b), a @ b - b @ a)


def test_decompose_rejects_nonzero_trace():
    m3 = AlgebraSpec((3,))
    with pytest.raises(NotTraceless):
        commutator_decompose(m3.identity())


def test_decompose_rejects_multi_block(spec23):
    t = Element(spec23, (np.eye(2), np.zeros((3, 3))))
    with pytest.raises(NotShodaComplete):
        commutator_decompose(t - (2.0 / 5.0) * spec23.identity())


def test_decomposition_size_guard():
    _require_decomposable_size(1024)
    with pytest.raises(TooLarge):
        _require_decomposable_size(100_000)


# ---------------------------------------------------------------------------
# the zero-diagonal similarity


def _random_traceless_matrix(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return m - np.trace(m) / n * np.eye(n)


@pytest.mark.parametrize("n", [2, 3, 17, 300])
def test_similarity_zeroes_the_diagonal(n):
    m = _random_traceless_matrix(n, n)
    sim, sim_inv = _zero_diagonal_similarity(m)
    assert np.abs(np.diag(sim @ m @ sim_inv)).max() <= 1e-12 * np.linalg.norm(m)
    assert np.abs(sim @ sim_inv - np.eye(n)).max() <= 1e-12
    assert np.linalg.cond(sim) < 1e8


def _traceless_family(family, n):
    rng = np.random.default_rng(n)
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    ramp = np.diag(np.linspace(-1.0, 1.0, n))
    if family == "gaussian":
        m = g
    elif family == "upper_triangular":
        m = np.triu(g)
    elif family == "jordan":
        m = np.eye(n, k=1)
    elif family == "cyclic_shift":
        m = np.roll(np.eye(n), 1, axis=0)
    elif family == "rank_one":
        x, y = g[:, 0], g[:, 1]
        m = np.outer(x, (y - np.vdot(x, y) / np.vdot(x, x) * x).conj())
    elif family == "real":
        m = g.real
    elif family == "two_scalar_blocks":
        p = n // 3
        m = np.zeros((n, n), dtype=complex)
        m[:p, :p] = (n - p) * np.eye(p)
        m[p:, p:] = -p * np.eye(n - p)
        m[:p, p:] = g[:p, p:]
    elif family == "diagonal_small_noise":
        m = ramp + 1e-6 * g
    elif family == "block_diagonal":
        # the benchmark's three-block completion images: blocks of n // 3,
        # n // 3 and the rest, shifted below to total trace zero
        p = n // 3
        m = np.zeros((n, n), dtype=complex)
        for lo, hi in [(0, p), (p, 2 * p), (2 * p, n)]:
            m[lo:hi, lo:hi] = g[lo:hi, lo:hi]
    else:
        m = ramp + g
    m = np.array(m, dtype=complex)
    return m - np.trace(m) / n * np.eye(n)


@pytest.mark.parametrize("n", [17, 128, 300])
@pytest.mark.parametrize(
    "family",
    [
        "gaussian", "upper_triangular", "jordan", "cyclic_shift", "rank_one", "real",
        "two_scalar_blocks", "diagonal_small_noise", "diagonal_large_noise", "block_diagonal",
    ],
)
def test_similarity_is_well_conditioned(monkeypatch, family, n):
    m = _traceless_family(family, n)
    similarities = []
    similarity = shoda.commutators._zero_diagonal_similarity

    def recording_similarity(*args):
        similarities.append(similarity(*args))
        return similarities[-1]

    monkeypatch.setattr(shoda.commutators, "_zero_diagonal_similarity", recording_similarity)
    a, b = shoda.commutators._decompose_matrix(m)
    # the pre-mix of an odd block calls the similarity too; the call on m
    # returns last
    sim, _ = similarities[-1]
    assert sim.shape == m.shape
    assert np.linalg.cond(sim) < 20
    assert np.linalg.norm(a @ b - b @ a - m) <= 1e-12 * max(1.0, np.linalg.norm(m))


_FAMILIES = [
    "gaussian", "upper_triangular", "jordan", "cyclic_shift", "rank_one", "real",
    "two_scalar_blocks", "diagonal_small_noise", "diagonal_large_noise", "block_diagonal",
]


def _assert_unitary_zero_diagonal(m, sim, sim_inv):
    n = m.shape[0]
    assert np.array_equal(sim_inv, sim.conj().T)
    assert np.abs(sim @ sim_inv - np.eye(n)).max() <= 1e-13
    assert np.abs(np.diag(sim @ m @ sim_inv)).max() <= 1e-12 * np.linalg.norm(m)


@pytest.mark.parametrize("n", [2, 3, 17, 128, 300])
@pytest.mark.parametrize("family", _FAMILIES)
def test_similarity_is_unitary(family, n):
    m = _traceless_family(family, n)
    _assert_unitary_zero_diagonal(m, *_zero_diagonal_similarity(m))


@pytest.mark.parametrize("n", [17, 128])
@pytest.mark.parametrize("family", ["jordan", "cyclic_shift"])
def test_similarity_leaves_a_balanced_zero_diagonal_alone(family, n):
    # every top half of every level is already traceless: no rotation
    m = _traceless_family(family, n)
    sim, sim_inv = _zero_diagonal_similarity(m)
    assert np.array_equal(sim, np.eye(n)) and np.array_equal(sim_inv, np.eye(n))


@pytest.mark.parametrize("s", [3, 7])
def test_similarity_pre_mixes_a_block_no_pair_rotation_can_split(s):
    # diag(1, w, ..., w^(s-1)), w^s = 1: whichever top coordinate stays
    # unpaired, no common rotation of the other top coordinates with the
    # bottom ones makes the top traceless, so the block is pre-mixed first
    roots = np.diag(np.exp(2j * np.pi * np.arange(s) / s))
    top = np.array([np.trace(roots[: (s + 1) // 2, : (s + 1) // 2])])
    _, _, _, slack = _odd_rotation(roots[None], top, 1e-15)
    assert not slack[0] <= 1.0
    m = roots + 1e-8 * _random_traceless_matrix(s, 8)
    _assert_unitary_zero_diagonal(m, *_zero_diagonal_similarity(m))


def _top_slack(a):
    h = (a.shape[1] + 1) // 2
    return _odd_rotation(a, np.trace(a[:, :h, :h], axis1=1, axis2=2), 1e-14)[3]


def test_odd_blocks_always_split_after_the_pre_mix():
    # random normal blocks, and the roots of unity of their order in random
    # unitary coordinates: after the pre-mix every top entry is the top
    # trace over h, so the halving exists with slack at most 1/(2h - 1)^2
    rng = np.random.default_rng(3)
    for s in (3, 5, 7, 9):
        g = rng.normal(size=(2000, s, s)) + 1j * rng.normal(size=(2000, s, s))
        q, _ = np.linalg.qr(g)
        eig = rng.normal(size=(2000, s)) + 1j * rng.normal(size=(2000, s))
        eig -= eig.mean(axis=1, keepdims=True)
        eig[-100:] = np.exp(2j * np.pi * np.arange(s) / s)
        a = q @ (eig[:, :, None] * q.conj().swapaxes(1, 2))
        if s == 3:
            # without the pre-mix about one random normal 3 x 3 block in five
            # has no traceless pair rotation
            assert np.mean(~(_top_slack(a) <= 1.0)) > 0.1
        mix = shoda.commutators._mixers(a)
        assert np.abs(mix @ mix.conj().swapaxes(1, 2) - np.eye(s)).max() <= 1e-13
        h = (s + 1) // 2
        assert _top_slack(mix @ a @ mix.conj().swapaxes(1, 2)).max() <= 1.0 / (2 * h - 1) ** 2 + 1e-9
    # entries 0 and 1 already at their mean: the pre-mix is the identity
    equal = np.array([[[1.0, 2.0, 3.0], [0.5, 1.0, 1j], [2.0, 1.0, -2.0]]])
    assert np.array_equal(shoda.commutators._mixers(equal)[0], np.eye(3))


def test_five_by_five_blocks_the_dft_left_unsplit_decompose_in_one_attempt(monkeypatch):
    # of 100000 random normal 5 x 5 blocks (seed 0), these three had no
    # halving after a DFT pre-mix, so the similarity raised and the
    # decomposition started over with a random permutation
    rng = np.random.default_rng(0)
    picked = [45436, 52707, 61295]
    g = rng.normal(size=(100_000, 5, 5))[picked] + 1j * rng.normal(size=(100_000, 5, 5))[picked]
    eig = rng.normal(size=(100_000, 5))[picked] + 1j * rng.normal(size=(100_000, 5))[picked]
    eig -= eig.mean(axis=1, keepdims=True)
    q, _ = np.linalg.qr(g)
    blocks = q @ (eig[:, :, None] * q.conj().swapaxes(1, 2))
    calls = []
    decompose = shoda.commutators._decompose_matrix
    monkeypatch.setattr(shoda.commutators, "_decompose_matrix", lambda m: calls.append(m) or decompose(m))
    for m in blocks:
        _assert_unitary_zero_diagonal(m, *_zero_diagonal_similarity(m))
        t = Element(AlgebraSpec((5,)), (m,))
        assert commutator_decompose(t).residual <= 1e-12 * frobenius(t)
    assert len(calls) == len(picked)


@pytest.mark.parametrize("family", ["gaussian", "diagonal_small_noise", "real", "rank_one"])
def test_similarity_splits_odd_blocks_at_every_level(family):
    # 75 -> 38, 37 -> 19, 19, 19, 18 -> ... -> 3, 2: every level but the last
    # has blocks of odd size, each with one unpaired coordinate
    m = _traceless_family(family, 75)
    _assert_unitary_zero_diagonal(m, *_zero_diagonal_similarity(m))


# ---------------------------------------------------------------------------
# certificates


def test_certificate_for_per_block_scalars(spec23):
    t = Element(spec23, (3.0 * np.eye(2), -2.0 * np.eye(3)))
    traces = infeasibility_certificate(t)
    assert np.allclose(traces, [6.0, -6.0], atol=0.0)
    assert certifies_non_commutator(t)


def test_no_certificate_for_blockwise_traceless(spec23):
    t = Element(spec23, (np.diag([1.0, -1.0]), np.zeros((3, 3))))
    traces = infeasibility_certificate(t)
    assert np.allclose(traces, [0.0, 0.0], atol=1e-14)
    assert not certifies_non_commutator(t)


def test_certificate_for_scalar_pair():
    spec = AlgebraSpec((1, 1))
    t = Element(spec, (np.eye(1), -np.eye(1)))
    assert np.allclose(infeasibility_certificate(t), [1.0, -1.0], atol=0.0)
    assert certifies_non_commutator(t)


def test_certified_elements_resist_random_search():
    spec = AlgebraSpec((1, 2))
    t = Element(spec, (2.0 * np.eye(1), -1.0 * np.eye(2)))
    assert certifies_non_commutator(t)
    best = random_commutator_search(t, pairs=2000, seed=5)
    assert best > 1e-6


# ---------------------------------------------------------------------------
# decomposition in the completion


def test_scalar_pair_decomposes_in_completion():
    spec = AlgebraSpec((1, 1))
    t = Element(spec, (np.eye(1), -np.eye(1)))
    witness = decompose_in_completion(t)
    assert witness.residual < 1e-12
    image_a = extension_to_matrix(witness.a)
    image_b = extension_to_matrix(witness.b)
    # factors are multiples of the off-diagonal units
    e12 = np.zeros((2, 2), dtype=complex)
    e12[0, 1] = 1.0
    assert np.abs(image_a - image_a[0, 1] * e12).max() < 1e-12
    assert np.abs(image_b - image_b[1, 0] * e12.T).max() < 1e-12
    assert abs(image_a[0, 1] * image_b[1, 0] - 1.0) < 1e-12


def test_certified_witness_decomposes_in_completion(spec23):
    t = Element(spec23, (3.0 * np.eye(2), -2.0 * np.eye(3)))
    assert certifies_non_commutator(t)
    witness = decompose_in_completion(t)
    assert witness.residual < 1e-9
    comm = multiply_B(witness.a, witness.b) - multiply_B(witness.b, witness.a)
    target = BElement(t, aj_zero(spec23))
    assert b_norm(target - comm).total < 1e-9


def test_odd_completion_with_unequal_block_traces_decomposes(spec23):
    # N = 5: the similarity splits 5 -> 3, 2 -> 2, 1, 1, 1, with odd blocks
    # at the first two levels; the blocks are not scalar and their traces are
    # 3 and -3
    rng = np.random.default_rng(23)
    x2, x3 = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for n in (2, 3))
    x2 += (3.0 - np.trace(x2)) / 2 * np.eye(2)
    x3 += (-3.0 - np.trace(x3)) / 3 * np.eye(3)
    t = Element(spec23, (x2, x3))
    assert certifies_non_commutator(t)
    witness = decompose_in_completion(t)
    assert witness.residual <= 1e-12 * frobenius(t)
    # the dense picture: the N x N images commute to the image of t
    a, b = extension_to_matrix(witness.a), extension_to_matrix(witness.b)
    image = np.zeros((5, 5), dtype=complex)
    image[:2, :2], image[2:, 2:] = x2, x3
    assert np.linalg.norm(a @ b - b @ a - image) <= 1e-12 * frobenius(t)


def test_zero_decomposes_to_zero_in_completion(spec23):
    witness = decompose_in_completion(spec23.zero())
    assert witness.residual == 0.0
    assert b_norm(witness.a).total == 0.0
    assert b_norm(witness.b).total == 0.0


def test_completion_closes_the_gap_for_small_specs():
    rng = np.random.default_rng(77)
    for dims in [(1, 1), (1, 2), (2, 2), (1, 1, 1)]:
        spec = AlgebraSpec(dims)
        report = is_shoda_complete(spec)
        assert not report.verdict
        witness = decompose_in_completion(report.witness)
        assert witness.residual < 1e-8
        for _ in range(5):
            t = random_traceless(spec, rng)
            assert decompose_in_completion(t).residual < 1e-8 * max(1.0, frobenius(t))


def test_decompose_in_completion_rejects_nonzero_trace(spec23):
    with pytest.raises(NotTraceless):
        decompose_in_completion(spec23.identity())


def test_decomposers_raise_when_every_attempt_fails(monkeypatch):
    # one attempt: a failure of the similarity reaches the caller as it was
    # raised, and factors whose residual is over tol are refused, not
    # returned
    t = Element(AlgebraSpec((3,)), (np.diag([1.0, 2.0, -3.0]) + np.triu(np.ones((3, 3)), 1),))
    x2, x3 = (np.diag(d) + np.triu(np.ones((len(d), len(d))), 1) for d in ([3.0, 0.0], [-1.0] * 3))
    u = Element(AlgebraSpec((2, 3)), (x2, x3))
    cases = [(commutator_decompose, t), (decompose_in_completion, u)]
    # the (2, 3) scalar witness takes the shift / partial-sum factors, whose
    # commutator is formed in O(N) from the factors themselves
    witness = (decompose_in_completion, Element(AlgebraSpec((2, 3)), (3.0 * np.eye(2), -2.0 * np.eye(3))))

    def failing_similarity(m):
        raise NumericalFailure("no traceless halving of a block of size 5")

    monkeypatch.setattr(shoda.commutators, "_zero_diagonal_similarity", failing_similarity)
    for decompose, x in cases:
        with pytest.raises(NumericalFailure, match="^no traceless halving of a block of size 5$"):
            decompose(x)
    monkeypatch.undo()
    factors = shoda.commutators._decompose_matrix
    monkeypatch.setattr(
        shoda.commutators, "_decompose_matrix", lambda m: tuple(f + 1e-3 for f in factors(m))
    )
    for decompose, x in [*cases, witness]:
        with pytest.raises(NumericalFailure, match="residual .* exceeds"):
            decompose(x)
