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
from shoda.algebra import _block_ranks, allclose, flatten
from shoda.commutators import (
    _corner_dim,
    _ideal_dim,
    _pick_pivot,
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

    left = np.stack([flatten(multiply(x, p)) for x in spec.basis()])
    _, s, vh = np.linalg.svd(left, full_matrices=False)
    reduced = vh[s > tol * s[0]]
    ideal = np.stack(
        [flatten(multiply(element_of(row), y)) for row in reduced for y in spec.basis()]
    )
    corner = np.stack([flatten(multiply(multiply(p, x), p)) for x in spec.basis()])
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
        ranks = _block_ranks(p.blocks, 1e-9)
        assert _ideal_dim(spec, ranks) == dense_ideal_dim(spec, p, 1e-9)
        assert _corner_dim(p, 1e-9) == dense_corner_dim(spec, p, 1e-9)


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
    post_init = Element.__post_init__

    def recording_post_init(self):
        widths.append(len(self.blocks))
        post_init(self)

    monkeypatch.setattr(Element, "__post_init__", recording_post_init)
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


def _reference_pivot(m, rng, standard=True):
    """The pivot rule scored one vector at a time."""
    n = m.shape[0]
    scale = np.linalg.norm(m)

    def orthogonal_part(v: np.ndarray) -> float:
        mv = m @ v
        return float(np.linalg.norm(mv - (v.conj() @ mv) * v))

    best, best_beta = None, 0.0
    for j in range(n if standard else 0):
        v = np.zeros(n, dtype=complex)
        v[j] = 1.0
        beta = orthogonal_part(v)
        if beta >= 2.0 * abs(m[j, j]) and beta >= scale / (4.0 * np.sqrt(n)) and beta > best_beta:
            best, best_beta = v, beta
    if best is not None:
        return best
    best_score = 0.0
    for _ in range(16):
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        v /= np.linalg.norm(v)
        score = orthogonal_part(v) / scale
        if score > best_score:
            best, best_score = v, score
    return best


def _random_traceless_matrix(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return m - np.trace(m) / n * np.eye(n)


def _off_diagonal_column_norms(m):
    return np.linalg.norm(m - np.diag(np.diag(m)), axis=0)


def test_pivot_takes_the_largest_passing_standard_vector():
    m = _random_traceless_matrix(40, 4)
    expected = _reference_pivot(m, np.random.default_rng(9))
    v, mv = _pick_pivot(m, np.random.default_rng(9))
    # the largest off-diagonal column passes both gates here, and it is not the first
    assert np.flatnonzero(expected).tolist() == [int(np.argmax(_off_diagonal_column_norms(m)))]
    assert np.flatnonzero(expected)[0] > 0
    assert np.array_equal(v, expected)
    assert np.allclose(mv, m @ v, rtol=0.0, atol=1e-15)
    # retries take the random rule on the same block
    expected = _reference_pivot(m, np.random.default_rng(9), standard=False)
    v, mv = _pick_pivot(m, np.random.default_rng(9), standard=False)
    assert np.allclose(v, expected, rtol=0.0, atol=1e-14)
    assert np.allclose(mv, m @ v, rtol=0.0, atol=1e-12)


def test_pivot_takes_the_best_random_vector_on_a_near_diagonal_block():
    noise = _random_traceless_matrix(40, 4)
    m = np.diag(np.resize([1.0, -1.0], 40)) + 0.12 * (noise - np.diag(np.diag(noise)))
    # every column passes the norm floor, and only the diagonal gate refuses it
    off_diagonal = _off_diagonal_column_norms(m)
    assert np.all(off_diagonal >= np.linalg.norm(m) / (4.0 * np.sqrt(40)))
    assert np.all(off_diagonal < 2.0 * np.abs(np.diag(m)))
    expected = _reference_pivot(m, np.random.default_rng(9))
    v, mv = _pick_pivot(m, np.random.default_rng(9))
    assert np.count_nonzero(v) == 40
    assert np.allclose(v, expected, rtol=0.0, atol=1e-14)
    assert np.allclose(mv, m @ v, rtol=0.0, atol=1e-12)


def test_similarity_stops_when_the_trailing_block_is_scalar(monkeypatch):
    # after one step the trailing 4 x 4 block is zero: the pass ends there
    m = np.zeros((5, 5), dtype=complex)
    m[:2, :2] = [[1.0, 2.0], [3.0, -1.0]]
    pivots = []

    def recording_pivot(*args):
        pivots.append(_pick_pivot(*args))
        return pivots[-1]

    monkeypatch.setattr(shoda.commutators, "_pick_pivot", recording_pivot)
    sim, sim_inv = _zero_diagonal_similarity(m, np.random.default_rng(0))
    assert len(pivots) == 2 and pivots[-1] is None
    assert np.abs(np.diag(sim @ m @ sim_inv)).max() <= 1e-12 * np.linalg.norm(m)


@pytest.mark.parametrize("n", [2, 3, 17, 300])
def test_similarity_zeroes_the_diagonal(n):
    m = _random_traceless_matrix(n, n)
    sim, sim_inv = _zero_diagonal_similarity(m, np.random.default_rng(0))
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
    else:
        m = ramp + g
    m = np.array(m, dtype=complex)
    return m - np.trace(m) / n * np.eye(n)


@pytest.mark.parametrize("n", [17, 128, 300])
@pytest.mark.parametrize(
    "family",
    [
        "gaussian", "upper_triangular", "jordan", "cyclic_shift", "rank_one", "real",
        "two_scalar_blocks", "diagonal_small_noise", "diagonal_large_noise",
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
    a, b = shoda.commutators._decompose_matrix(m, np.random.default_rng(0))
    [(sim, _)] = similarities
    assert np.linalg.cond(sim) < 20
    assert np.linalg.norm(a @ b - b @ a - m) <= 1e-12 * max(1.0, np.linalg.norm(m))


def test_a_retry_is_not_a_copy_of_the_refused_attempt(monkeypatch):
    t = Element(AlgebraSpec((40,)), (_random_traceless_matrix(40, 5),))
    similarities = []
    similarity = shoda.commutators._zero_diagonal_similarity

    def recording_similarity(*args):
        # a limit below 1 refuses every similarity: attempt 0 fails the gate
        monkeypatch.setattr(shoda.commutators, "_COND_LIMIT", 1e8 if similarities else 0.5)
        similarities.append(similarity(*args))
        return similarities[-1]

    monkeypatch.setattr(shoda.commutators, "_zero_diagonal_similarity", recording_similarity)
    witness = commutator_decompose(t)
    assert len(similarities) == 2
    assert not np.allclose(similarities[0][0], similarities[1][0])
    assert witness.residual <= 1e-9 * frobenius(t)


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


def test_decomposers_raise_when_every_attempt_fails(monkeypatch, spec23):
    # every seeded attempt fails: no best witness exists, so both decomposers
    # must raise instead of returning an unchecked result
    def always_ill_conditioned(*args, **kwargs):
        raise NumericalFailure("zero-diagonal similarity is ill-conditioned")

    monkeypatch.setattr(shoda.commutators, "_decompose_matrix", always_ill_conditioned)
    m3 = AlgebraSpec((3,))
    t = Element(m3, (np.diag([1.0, 2.0, -3.0]) + np.triu(np.ones((3, 3)), 1),))
    message = "all decomposition attempts were ill-conditioned"
    with pytest.raises(NumericalFailure, match=message):
        commutator_decompose(t)
    witness = Element(spec23, (3.0 * np.eye(2), -2.0 * np.eye(3)))
    with pytest.raises(NumericalFailure, match=message):
        decompose_in_completion(witness)
