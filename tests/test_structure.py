import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shoda.algebra
import shoda.structure
from shoda import AlgebraSpec, build_B, multiply_B, quotient, radical, wedderburn_identify
from shoda.completion import _place, extension_positions
from shoda.tensor import extension_to_matrix, matrix_to_extension
from shoda.errors import NotAnIdeal, NotSemisimple, NumericalFailure, TooLarge
from shoda.oracles import associativity_residual, block_algebra, dense_table, unit_residual
from shoda.structure import StructureConstantAlgebra, _center_basis, _components, records


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
    return StructureConstantAlgebra(records(table), unit)


# ---------------------------------------------------------------------------
# extension tables


def test_extension_dimension_two_singletons():
    alg = build_B(AlgebraSpec((1, 1)))
    assert alg.dim == 4
    assert associativity_residual(alg) == 0.0


def test_extension_dimension_two_plus_three():
    alg = build_B(AlgebraSpec((2, 3)))
    assert alg.dim == 25  # (2 + 3) squared
    assert associativity_residual(alg) == 0.0
    assert unit_residual(alg) == 0.0


def reference_table(spec: AlgebraSpec) -> np.ndarray:
    """The extension table from multiply_B over every pair of basis elements."""
    d = spec.matrix_size**2
    positions = extension_positions(spec)
    basis = [matrix_to_extension(spec, _place(positions, e)) for e in np.eye(d)]
    return np.array(
        [[extension_to_matrix(multiply_B(x, y))[positions] for y in basis] for x in basis]
    )


@pytest.mark.parametrize("dims", [(1,), (3,), (1, 1), (2, 3), (1, 1, 1), (2, 3, 3)])
def test_extension_table_matches_multiply_B(dims):
    spec = AlgebraSpec(dims)
    assert np.array_equal(dense_table(build_B(spec)), reference_table(spec))


@pytest.mark.parametrize("dims", [(2, 3), (1, 1, 1)])
def test_stacked_product_equals_each_product(dims):
    alg = build_B(AlgebraSpec(dims))
    rng = np.random.default_rng(3)
    draw = rng.normal(size=(4, 2, 3, alg.dim))
    x, y = draw[0] + 1j * draw[1], draw[2] + 1j * draw[3]
    stacked = alg.product(x, y)
    assert stacked.shape == x.shape
    for k in np.ndindex(x.shape[:-1]):
        assert stacked[k].tobytes() == alg.product(x[k], y[k]).tobytes()


def _bincount_product(alg: StructureConstantAlgebra, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The product as one scatter of all record terms, real and imaginary
    parts by np.bincount, each coordinate's terms added in record order."""
    t, d = alg.table, alg.dim
    values = t["v"] * x[..., t["a"]] * y[..., t["b"]]
    lead = values.shape[:-1]
    index = (np.arange(int(np.prod(lead)))[:, None] * d + t["c"]).ravel()
    size = int(np.prod(lead)) * d
    real = np.bincount(index, weights=values.real.ravel(), minlength=size)
    imag = np.bincount(index, weights=values.imag.ravel(), minlength=size)
    return (real + 1j * imag).reshape(lead + (d,))


def _random_table(rng, d: int, records: int, crowd: bool = False) -> StructureConstantAlgebra:
    """Records with complex constants on output coordinates 2 and up, so
    that coordinate 1 has none; with crowd=True nine in ten go to 0."""
    table = np.zeros(records, dtype=shoda.structure.RECORD)
    table["a"], table["b"] = rng.integers(d, size=(2, records))
    table["c"] = np.where(rng.random(records) < (0.9 if crowd else 0.0), 0, rng.integers(2, d, size=records))
    table["v"] = rng.normal(size=records) + 1j * rng.normal(size=records)
    return StructureConstantAlgebra(table, np.ones(d))


_BLOCK_SPECS = [(5, 5), (4, 6), (3, 3, 4), (1,) * 8, (4, 4), (5, 3), (2, 3, 3)]
_PRODUCT_TABLES = {
    **{str(dims): lambda rng, dims=dims: build_B(AlgebraSpec(dims)) for dims in _BLOCK_SPECS},
    "dense": lambda rng: StructureConstantAlgebra(
        records(rng.normal(size=(7, 7, 7)) + 1j * rng.normal(size=(7, 7, 7))), np.ones(7)),
    "empty coordinate": lambda rng: _random_table(rng, 9, 200),
    "crowded": lambda rng: _random_table(rng, 9, 200, crowd=True),
}


@pytest.mark.parametrize("name", list(_PRODUCT_TABLES))
def test_slot_product_equals_the_bincount_scatter(name):
    # each coordinate adds its terms in record order, so the bits match
    rng = np.random.default_rng(35)
    alg = _PRODUCT_TABLES[name](rng)
    draw = rng.normal(size=(4, 5, alg.dim))
    x, y = draw[0] + 1j * draw[1], draw[2] + 1j * draw[3]
    stacked = alg.product(x, y)
    assert stacked.tobytes() == _bincount_product(alg, x, y).tobytes()
    for k in range(len(x)):
        assert stacked[k].tobytes() == alg.product(x[k], y[k]).tobytes()


@pytest.mark.parametrize("dims", _BLOCK_SPECS, ids=str)
def test_table_product_matches_the_witness(dims):
    # the extension's product, placed by the witness, is the matrix product
    # of the placed operands on seeded pairs
    spec = AlgebraSpec(dims)
    alg, positions = build_B(spec), extension_positions(spec)
    draw = np.random.default_rng(42).normal(size=(4, 20, alg.dim))
    x, y = draw[0] + 1j * draw[1], draw[2] + 1j * draw[3]
    lhs = _place(positions, alg.product(x, y))
    rhs = _place(positions, x) @ _place(positions, y)
    assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(rhs).max()


def test_slots_pad_each_coordinate_to_the_largest_count():
    alg = _random_table(np.random.default_rng(1), 9, 200, crowd=True)
    slots, counts = alg._slots, np.bincount(alg.table["c"], minlength=9)
    assert slots.shape == (counts.max(), 9) and counts[1] == 0
    assert np.count_nonzero(slots["v"]) == alg.table.size
    # build_B's table has N records per coordinate and no padding
    assert build_B(AlgebraSpec((2, 3)))._slots.shape == (5, 25)


def test_table_records_must_index_the_unit_coordinates():
    alg = build_B(AlgebraSpec((2, 3)))
    table = alg.table.copy()
    table["c"][0] = alg.dim
    with pytest.raises(ValueError, match="outside"):
        StructureConstantAlgebra(table, alg.unit)


def test_table_must_be_records():
    # a dense table is converted by records(), never by the constructor
    dense = dense_table(build_B(AlgebraSpec((1, 1))))
    with pytest.raises(ValueError, match="RECORD"):
        StructureConstantAlgebra(dense, np.ones(4))
    assert not hasattr(StructureConstantAlgebra, "dense")
    assert np.array_equal(dense_table(StructureConstantAlgebra(records(dense), np.ones(4))), dense)


def test_extension_table_is_integer_structured():
    table = dense_table(build_B(AlgebraSpec((2, 2))))
    assert np.all(table.imag == 0.0)
    assert set(np.unique(table.real)) <= {0.0, 1.0}


# ---------------------------------------------------------------------------
# connected components


# (row, col, value) records of an 8 x 6 integer matrix
_records = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 5), st.integers(-3, 3)), max_size=20
).map(lambda records: np.array(records, dtype=int).reshape(-1, 3).T)


@settings(max_examples=60, deadline=None)
@given(records=_records)
def test_components_reassemble_the_matrix(records):
    row, col, val = records
    dense = np.zeros((8, 6), dtype=complex)
    np.add.at(dense, (row, col), val)
    gram = np.zeros((6, 6), dtype=complex)
    seen = []
    for cols, blocks in _components(row * 3 + 1, col, val.astype(complex), 6):
        seen.extend(cols.ravel())
        for c, b in zip(cols, blocks):
            gram[np.ix_(c, c)] += b.conj().T @ b
    # each column in one block, and no product of columns across blocks
    assert sorted(seen) == list(range(6))
    assert np.array_equal(gram, dense.conj().T @ dense)


@settings(max_examples=60, deadline=None)
@given(records=_records)
def test_shared_components_are_square_diagonal_blocks(records):
    row, col, val = records
    row = row % 6
    dense = np.zeros((6, 6), dtype=complex)
    np.add.at(dense, (row, col), val)
    rebuilt = np.zeros_like(dense)
    for cols, blocks in _components(row, col, val.astype(complex), 6, shared=True):
        for c, b in zip(cols, blocks):
            rebuilt[np.ix_(c, c)] = b
    assert np.array_equal(rebuilt, dense)


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


def test_radical_is_computed_once_per_table_and_tol():
    alg = upper_triangular_2x2()
    first = radical(alg)
    assert radical(alg) is first and not first.flags.writeable
    assert radical(alg, tol=1e-6) is not first
    assert radical(upper_triangular_2x2()) is not first


def test_radical_refuses_blurred_rank_gap():
    from shoda.errors import IllConditioned

    # three scaled orthogonal idempotents: f_i f_i = s_i f_i; the trace-form
    # singular values s_i^2 straddle the threshold without a factor-1000 gap
    scales = np.array([1.0, np.sqrt(0.9e-9), np.sqrt(1.1e-9)])
    table = np.zeros((3, 3, 3), dtype=complex)
    for i, s in enumerate(scales):
        table[i, i, i] = s
    unit = 1.0 / scales
    alg = StructureConstantAlgebra(records(table), unit.astype(complex))
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
    assert associativity_residual(q) < 1e-12
    assert unit_residual(q) < 1e-12
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


def test_quotient_checks_the_budget_before_any_product(monkeypatch):
    # the triangular control: k = 1 candidate in dimension d = 3, and a
    # complement of dimension m = 2
    alg = upper_triangular_2x2()
    rad = radical(alg)
    closure = shoda.structure._QUOTIENT_ENTRIES * 1 * 3**2 * 16
    complement = shoda.structure._QUOTIENT_ENTRIES * 2**2 * 3 * 16
    product, calls = StructureConstantAlgebra.product, []

    def counting(self, x, y):
        calls.append(x.shape)
        return product(self, x, y)

    monkeypatch.setattr(StructureConstantAlgebra, "product", counting)
    for budget, what in [(closure - 1, "closure check"), (complement - 1, "complement table")]:
        monkeypatch.setattr(shoda.algebra, "_BUDGET_BYTES", budget)
        with pytest.raises(TooLarge, match=what):
            quotient(alg, rad)
    assert calls == []
    monkeypatch.setattr(shoda.algebra, "_BUDGET_BYTES", max(closure, complement))
    assert quotient(alg, rad).dim == 2 and len(calls) == 3


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
    center = _center_basis(alg, 1e-9)
    assert center.shape == (1, 25)
    # the centre of M_5 is spanned by the unit
    assert abs(abs(np.vdot(center[0], alg.unit)) - np.linalg.norm(alg.unit)) < 1e-12


def test_center_rejects_unverified_candidate(monkeypatch, caplog):
    # negative control: the block null-space step hands back the first basis
    # unit, E11, which does not commute with E12; the system applied to the
    # candidate must refuse it
    def not_central(parts, d, thr):
        return np.eye(d, dtype=complex)[:1]

    monkeypatch.setattr(shoda.structure, "_null_space", not_central)
    alg = build_B(AlgebraSpec((2, 3)))
    with caplog.at_level(logging.DEBUG, logger="shoda"):
        with pytest.raises(NumericalFailure, match="off the centralizer system"):
            _center_basis(alg, 1e-9)
    # the system has one block per off-diagonal coordinate (2N rows, one
    # column) and one for the N diagonal coordinates (N**2 rows)
    logged = [r.getMessage() for r in caplog.records if r.name == "shoda"]
    assert logged == [f"centre: 21 blocks, largest (25, 5), residual 1 against {1e-9:.3g}"]


def test_each_solve_logs_its_blocks_and_margin(caplog):
    # the Gram matrix pairs E_pq with E_qp only, and L_z of a central z is
    # diagonal: every block is 1 x 1 except the centre's diagonal block
    with caplog.at_level(logging.DEBUG, logger="shoda"):
        assert wedderburn_identify(build_B(AlgebraSpec((2, 3)))) == [25]
    radical_line, centre_line, eigen_line = [
        r.getMessage() for r in caplog.records if r.name == "shoda"
    ]
    assert radical_line == "radical: 25 blocks, largest (1, 1), gap inf against 1e+03"
    assert eigen_line == (
        "central eigenvalues: 25 blocks, largest (1, 1), separation inf against 0.001"
    )
    head, residual = centre_line.split(", residual ")
    assert head == "centre: 21 blocks, largest (25, 5)"
    assert float(residual.split(" against ")[0]) < 1e-14


def test_wedderburn_rejects_non_semisimple_input():
    with pytest.raises(NotSemisimple):
        wedderburn_identify(upper_triangular_2x2())


def test_block_algebra_matches_extension_for_single_block():
    spec = AlgebraSpec((3,))
    base = block_algebra(spec)
    ext = build_B(spec)
    assert base.dim == ext.dim == 9
    assert np.array_equal(dense_table(base), dense_table(ext))
    assert np.array_equal(base.unit, ext.unit)
