"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; plain `pytest` runs the same assertions silently.
"""

import math
import time

import numpy as np

from shoda import (
    AlgebraSpec,
    Element,
    complete,
    decompose_in_completion,
    frobenius,
    is_shoda_complete,
    isometry_check,
    multiply,
    multiply_B,
    projection_path,
    rank,
    riesz_projection,
    spectrum,
    submultiplicativity_audit,
)
from shoda.commutators import certifies_non_commutator, random_commutator_search
from shoda.oracles import (
    ElementaryTensorList,
    compress,
    elementary_tensor,
    exhaustive_basis_products,
    naive_tensor_multiply,
    sampled_rank,
)
from shoda.sampling import (
    random_diagonalizable,
    random_element,
    random_rank_one_projection,
    random_traceless,
)
from shoda.tensor import BElement

from completion_survey import compositions
from test_tensor import aj_allclose


def _announce(number: int, name: str):
    print(f"\nACCEPTANCE {number} ({name}): PASS", flush=True)


RANK_SPECS = [(2, 3), (1, 1), (3,), (2, 2, 1), (1, 2, 3), (4, 4)]


def test_acceptance_1_wedderburn_target():
    started = time.perf_counter()
    for n in range(1, 5):
        for k in range(1, 5):
            result = complete(AlgebraSpec((n, k)))
            size = n + k
            assert result.total_dim == size**2
            assert result.radical_dim == 0
            assert result.block_structure == (size**2,)
            assert result.iso_residual < 1e-10
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"completions took {elapsed:.2f}s"
    _announce(1, "wedderburn target for two blocks up to 4+4")


def test_acceptance_2_multi_block_generalization():
    verdict_cache: dict[int, bool] = {}
    for dims in compositions(8, max_blocks=4):
        spec = AlgebraSpec(dims)
        size = spec.matrix_size
        result = complete(spec)
        assert result.total_dim == size**2
        assert result.radical_dim == 0
        assert result.block_structure == (size**2,)
        assert result.iso_residual < 1e-10
        component = result.block_structure[0]
        identified = math.isqrt(component)
        assert identified * identified == component
        if identified not in verdict_cache:
            verdict_cache[identified] = is_shoda_complete(AlgebraSpec((identified,))).verdict
        assert verdict_cache[identified]
    _announce(2, "completion of every spec with <= 4 blocks and total size <= 8")


def test_acceptance_3_commutator_closure():
    for dims in compositions(6):
        spec = AlgebraSpec(dims)
        rng = np.random.default_rng(sum(dims) * 1000 + len(dims))
        for _ in range(100):
            t = random_traceless(spec, rng)
            witness = decompose_in_completion(t)
            assert witness.residual < 1e-8, (dims, witness.residual)
    for dims in compositions(3):
        if len(dims) < 2:
            continue
        spec = AlgebraSpec(dims)
        report = is_shoda_complete(spec)
        certified = [report.witness]
        rng = np.random.default_rng(11)
        while len(certified) < 3:
            scalars = rng.normal(size=len(dims)) + 1j * rng.normal(size=len(dims))
            scalars[-1] = -sum(s * n for s, n in zip(scalars[:-1], dims[:-1])) / dims[-1]
            candidate = Element(
                spec, tuple(s * np.eye(n, dtype=complex) for s, n in zip(scalars, dims))
            )
            if certifies_non_commutator(candidate):
                certified.append(candidate)
        for t in certified:
            assert certifies_non_commutator(t)
            best = random_commutator_search(t, pairs=10_000, seed=99)
            assert best > 1e-6, (dims, best)
    _announce(3, "traceless elements decompose in the completion; certificates resist search")


def test_acceptance_4_orthogonality_exactness():
    for dims in compositions(6):
        residual = exhaustive_basis_products(AlgebraSpec(dims))
        assert residual == 0.0, (dims, residual)
    _announce(4, "exhaustive basis products exactly zero for total size <= 6")


def test_acceptance_5_rank_oracle_agreement():
    for dims in RANK_SPECS:
        spec = AlgebraSpec(dims)
        rng = np.random.default_rng(sum(dims))
        for idx in range(100):
            a = random_element(spec, rng)
            assert rank(a) == sampled_rank(a, trials=200, seed=idx), dims
    _announce(5, "spectral rank equals the 200-trial sampling oracle")


def test_acceptance_6_norm_suite():
    bound = 1 + 1e-9
    for dims in [(2, 3), (1, 2, 1)]:
        spec = AlgebraSpec(dims)
        audit = submultiplicativity_audit(spec, samples=1000, seed=42)
        assert audit.tensor_times_algebra <= bound
        assert audit.algebra_times_tensor <= bound
        assert audit.tensor_times_tensor <= bound
        assert audit.full_pairs <= bound
        assert audit.worst_ratio <= bound
        assert isometry_check(spec, samples=100, seed=42) < 1e-12
    _announce(6, "extension norm submultiplicative, embedding isometric")


def test_acceptance_7_tensor_isomorphism():
    for dims in [(2, 3), (1, 2, 1)]:
        spec = AlgebraSpec(dims)
        rng = np.random.default_rng(5)
        pairs = [(i, j) for i in range(len(dims)) for j in range(len(dims)) if i != j]

        def tensor_list():
            terms = []
            for _ in range(3):
                i, j = pairs[rng.integers(len(pairs))]
                terms.append(
                    elementary_tensor(random_element(spec, rng), i, j, random_element(spec, rng))
                )
            return ElementaryTensorList(spec, tuple(terms))

        for _ in range(100):
            s, t = tensor_list(), tensor_list()
            naive_terms, naive_soc = naive_tensor_multiply(s, t)
            fast = multiply_B(
                BElement(spec.zero(), compress(s)),
                BElement(spec.zero(), compress(t)),
            )
            scale = 1 + frobenius(fast.a)
            assert frobenius(naive_soc - fast.a) < 1e-12 * scale
            if naive_terms.terms:
                assert aj_allclose(compress(naive_terms), fast.u, tol=1e-12 * scale)
            else:
                assert not fast.u.terms
    _announce(7, "naive tensor products agree with the coordinate path")


def test_acceptance_8_spectral_suite():
    rng = np.random.default_rng(123)
    specs = [AlgebraSpec((2, 3)), AlgebraSpec((4,)), AlgebraSpec((1, 2, 2))]
    checked = 0
    while checked < 50:
        spec = specs[checked % len(specs)]
        a = random_diagonalizable(spec, rng, min_gap=0.1)
        report = spectrum(a)
        total = 0
        projections = []
        for value, mult in report.nonzero:
            p = riesz_projection(a, value)
            assert frobenius(multiply(p, p) - p) < 1e-9
            assert frobenius(multiply(p, a) - multiply(a, p)) < 1e-9
            assert rank(p) == mult
            projections.append(p)
            total += mult
        for i, p in enumerate(projections):
            for q in projections[i + 1 :]:
                assert frobenius(multiply(p, q)) < 1e-9
        assert total == spec.matrix_size
        checked += 1

    for dims in [(3,), (2, 3)]:
        spec = AlgebraSpec(dims)
        block = len(dims) - 1
        for trial in range(5):
            p = random_rank_one_projection(spec, block, rng)
            q = random_rank_one_projection(spec, block, rng)
            for e in projection_path(p, q, 101, seed=trial):
                assert frobenius(multiply(e, e) - e) < 1e-9
                assert rank(e) == 1

    for dims in compositions(8, max_blocks=4):
        report = is_shoda_complete(AlgebraSpec(dims), seed=3)
        corner_ok = all(d == r * r for r, d in report.criterion_corner)
        assert (
            report.verdict
            == report.criterion_minimal_ideal
            == report.criterion_single_generator
            == corner_ok
            == report.criterion_connectivity
        )
    _announce(8, "Riesz projections, projection paths, and criterion agreement")
