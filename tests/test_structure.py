import logging

import numpy as np
import pytest

import shoda.structure
from shoda import AlgebraSpec, block_algebra, build_B, multiply_B, quotient, radical, wedderburn_identify
from shoda.completion import extension_coordinates, extension_from_coordinates
from shoda.errors import NotAnIdeal, NotSemisimple, NumericalFailure
from shoda.structure import StructureConstantAlgebra, _center_basis


def upper_triangular_2x2() -> StructureConstantAlgebra:
    """Non-semisimple control: span{E11, E12, E22} inside the 2x2 matrices."""
    units = [(0, 0), (0, 1), (1, 1)]
    index = {u: i for i, u in enumerate(units)}
    table = np.zeros((3, 3, 3), dtype=complex)
    for a, (r, c) in enumerate(units):
        for b, (r2, c2) in enumerate(units):
            if c == r2:
                table[a, b, index[(r, c2)]] = 1.0
    unit = np.zeros(3, dtype=complex)
    unit[index[(0, 0)]] = 1.0
    unit[index[(1, 1)]] = 1.0
    return StructureConstantAlgebra(table, unit)


# ---------------------------------------------------------------------------
# extension tables


def test_extension_dimension_two_singletons():
    alg = build_B(AlgebraSpec((1, 1)))
    assert alg.dim == 4
    assert alg.associativity_residual() == 0.0


def test_extension_dimension_two_plus_three():
    alg = build_B(AlgebraSpec((2, 3)))
    assert alg.dim == 25  # (2 + 3) squared
    assert alg.associativity_residual() == 0.0
    assert alg.unit_residual() == 0.0


def reference_table(spec: AlgebraSpec) -> np.ndarray:
    """The extension table from multiply_B over every pair of basis elements."""
    d = spec.matrix_size**2
    basis = [extension_from_coordinates(spec, e) for e in np.eye(d)]
    return np.array([[extension_coordinates(multiply_B(x, y)) for y in basis] for x in basis])


@pytest.mark.parametrize("dims", [(1,), (3,), (1, 1), (2, 3), (1, 1, 1), (2, 3, 3)])
def test_extension_table_matches_multiply_B(dims):
    spec = AlgebraSpec(dims)
    assert np.array_equal(build_B(spec).dense(), reference_table(spec))


def test_table_records_must_index_the_unit_coordinates():
    alg = build_B(AlgebraSpec((2, 3)))
    table = alg.table.copy()
    table["c"][0] = alg.dim
    with pytest.raises(ValueError, match="outside"):
        StructureConstantAlgebra(table, alg.unit)


def test_extension_table_is_integer_structured():
    table = build_B(AlgebraSpec((2, 2))).dense()
    assert np.all(table.imag == 0.0)
    assert set(np.unique(table.real)) <= {0.0, 1.0}


# ---------------------------------------------------------------------------
# radical


def test_radical_of_extension_is_zero():
    alg = build_B(AlgebraSpec((2, 3)))
    assert radical(alg).shape[0] == 0


def test_radical_of_scalars_is_zero():
    alg = block_algebra(AlgebraSpec((1,)))
    assert radical(alg).shape[0] == 0


def test_radical_of_triangular_control():
    alg = upper_triangular_2x2()
    rad = radical(alg)
    assert rad.shape[0] == 1
    # spanned by the strictly upper unit: coordinates concentrate on index 1
    vec = np.abs(rad[0])
    assert vec[1] > 0.99
    assert vec[0] < 1e-12 and vec[2] < 1e-12


def test_radical_refuses_blurred_rank_gap():
    from shoda.errors import IllConditioned

    # three scaled orthogonal idempotents: f_i f_i = s_i f_i; the trace-form
    # singular values s_i^2 straddle the threshold without a factor-1000 gap
    scales = np.array([1.0, np.sqrt(0.9e-9), np.sqrt(1.1e-9)])
    table = np.zeros((3, 3, 3), dtype=complex)
    for i, s in enumerate(scales):
        table[i, i, i] = s
    unit = 1.0 / scales
    alg = StructureConstantAlgebra(table, unit.astype(complex))
    with pytest.raises(IllConditioned):
        radical(alg, tol=1e-9)


# ---------------------------------------------------------------------------
# quotient


def test_quotient_by_empty_radical_is_identity():
    alg = build_B(AlgebraSpec((1, 2)))
    assert quotient(alg, radical(alg)) is alg


def test_quotient_of_triangular_control_is_two_scalars():
    alg = upper_triangular_2x2()
    rad = radical(alg)
    q = quotient(alg, rad)
    assert q.dim == 2
    assert q.associativity_residual() < 1e-12
    assert q.unit_residual() < 1e-12
    # commutative: x y = y x on the basis
    for a in range(2):
        for b in range(2):
            ea = np.eye(2, dtype=complex)[a]
            eb = np.eye(2, dtype=complex)[b]
            assert np.allclose(q.product(ea, eb), q.product(eb, ea), atol=1e-12)
    assert wedderburn_identify(q) == [1, 1]


def test_semisimplification_is_idempotent():
    alg = upper_triangular_2x2()
    q = quotient(alg, radical(alg))
    assert radical(q).shape[0] == 0


def test_quotient_rejects_non_ideal():
    alg = upper_triangular_2x2()
    # span{E11} is not an ideal: E11 * E12 = E12 leaves it
    candidate = np.zeros((1, 3), dtype=complex)
    candidate[0, 0] = 1.0
    with pytest.raises(NotAnIdeal):
        quotient(alg, candidate)


# ---------------------------------------------------------------------------
# Wedderburn identification


def test_wedderburn_of_completed_extension():
    alg = build_B(AlgebraSpec((2, 3)))
    assert wedderburn_identify(quotient(alg, radical(alg))) == [25]


def test_wedderburn_of_base_block_algebra():
    assert wedderburn_identify(block_algebra(AlgebraSpec((2, 3)))) == [4, 9]


def test_wedderburn_of_two_scalars():
    assert wedderburn_identify(block_algebra(AlgebraSpec((1, 1)))) == [1, 1]


def test_center_of_extension_is_the_scalars():
    alg = build_B(AlgebraSpec((2, 3)))
    center = _center_basis(alg, 1e-9, np.random.default_rng(0))
    assert center.shape == (1, 25)
    # the centre of M_5 is spanned by the unit
    assert abs(abs(np.vdot(center[0], alg.unit)) - np.linalg.norm(alg.unit)) < 1e-12


def test_center_rejects_unverified_candidate(monkeypatch, caplog):
    # negative control: the centralizer of the unit is the whole algebra, so
    # this candidate must fail the check against every basis element and the
    # algebra must not be identified from it
    monkeypatch.setattr(
        shoda.structure, "_generators", lambda alg, rng: np.stack([alg.unit, alg.unit])
    )
    alg = build_B(AlgebraSpec((2, 3)))
    with caplog.at_level(logging.DEBUG, logger="shoda"):
        with pytest.raises(NumericalFailure, match="no verified centre"):
            wedderburn_identify(alg)
    retries = [r for r in caplog.records if r.name == "shoda" and "centre draw" in r.message]
    assert len(retries) == shoda.structure._CENTER_DRAWS


def test_wedderburn_rejects_non_semisimple_input():
    with pytest.raises(NotSemisimple):
        wedderburn_identify(upper_triangular_2x2())


def test_block_algebra_matches_extension_for_single_block():
    spec = AlgebraSpec((3,))
    base = block_algebra(spec)
    ext = build_B(spec)
    assert base.dim == ext.dim == 9
    assert np.array_equal(base.dense(), ext.dense())
    assert np.array_equal(base.unit, ext.unit)
