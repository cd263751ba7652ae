import numpy as np
import pytest

import shoda.commutators
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
from shoda.algebra import allclose, flatten, unflatten
from shoda.commutators import (
    _corner_dim,
    _generated_ideal_dim,
    _pick_pivot,
    _require_decomposable_size,
    _zero_diagonal_similarity,
    certifies_non_commutator,
    random_commutator_search,
)
from shoda.completion import extension_to_matrix
from shoda.errors import NotShodaComplete, NotTraceless, NumericalFailure, TooLarge
from shoda.norms import b_norm
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
    left = np.stack([flatten(multiply(x, p)) for x in spec.basis()])
    _, s, vh = np.linalg.svd(left, full_matrices=False)
    reduced = vh[s > tol * s[0]]
    ideal = np.stack(
        [flatten(multiply(unflatten(spec, row), y)) for row in reduced for y in spec.basis()]
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

    span_dim = shoda.commutators._span_dim
    monkeypatch.setattr(shoda.commutators, "_span_dim", recording_span_dim)
    projections = list(spec.canonical_projections())
    projections += [random_rank_one_projection(spec, i, rng) for i in range(len(dims))]
    projections.append(random_idempotent(spec, tuple(min(2, n) for n in dims), rng))
    for p in projections:
        left, ideal, corner = _loop_stacks(spec, p, 1e-9)
        seen.clear()
        assert _generated_ideal_dim(spec, p, 1e-9) == span_dim(ideal, 1e-9)
        assert _corner_dim(spec, p, 1e-9) == span_dim(corner, 1e-9)
        assert np.array_equal(seen[0], ideal) and np.array_equal(seen[1], corner)


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


def _reference_pivot(m, rng):
    """The pivot rule scored one vector at a time."""
    n = m.shape[0]
    scale = np.linalg.norm(m)

    def score(v: np.ndarray) -> float:
        mv = m @ v
        v_unit = v / np.linalg.norm(v)
        residual = mv - (v_unit.conj() @ mv) * v_unit
        return float(np.linalg.norm(residual) / scale)

    for i in range(n):
        v = np.zeros(n, dtype=complex)
        v[i] = 1.0
        if score(v) >= 0.25:
            return v
    best, best_score = None, 0.0
    for _ in range(16):
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        v /= np.linalg.norm(v)
        sc = score(v)
        if sc > best_score:
            best, best_score = v, sc
    return best


def _random_traceless_matrix(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return m - np.trace(m) / n * np.eye(n)


def test_pivot_takes_the_first_passing_standard_vector():
    m = _random_traceless_matrix(6, 3)
    m[:, :2] *= 0.01  # columns 0 and 1 score below 0.25
    expected = _reference_pivot(m, np.random.default_rng(0))
    v, mv = _pick_pivot(m, np.random.default_rng(0))
    assert np.flatnonzero(expected).tolist() == [2]
    assert np.array_equal(v, expected)
    assert np.allclose(mv, m @ v, rtol=0.0, atol=1e-15)


def test_pivot_takes_the_best_random_vector_on_a_dense_block():
    m = _random_traceless_matrix(40, 4)
    off_diagonal = np.linalg.norm(m - np.diag(np.diag(m)), axis=0)
    assert np.all(off_diagonal < 0.25 * np.linalg.norm(m))  # no standard vector passes
    expected = _reference_pivot(m, np.random.default_rng(9))
    v, mv = _pick_pivot(m, np.random.default_rng(9))
    assert np.allclose(v, expected, rtol=0.0, atol=1e-14)
    assert np.allclose(mv, m @ v, rtol=0.0, atol=1e-12)


def test_similarity_stops_when_the_trailing_block_is_scalar(monkeypatch):
    # after one step the trailing 4 x 4 block is zero: the pass ends there
    m = np.zeros((5, 5), dtype=complex)
    m[:2, :2] = [[1.0, 2.0], [3.0, -1.0]]
    pivots = []

    def recording_pivot(a, rng):
        pivots.append(_pick_pivot(a, rng))
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
    def always_ill_conditioned(m, rng, cond_limit=1e8):
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
