"""JSON forms for specs, elements, tensors, structure constants and reports.

Complex numbers are two-element [re, im] arrays; matrices are flat row-major
lists of such pairs, with shapes recovered from the algebra spec; block pair
keys are 1-based "i,j" strings; a table is its records [a, b, c, [re, im]].
The encoding is deterministic so that equal inputs produce byte-identical
reports.
"""

from __future__ import annotations

import itertools
import json
from typing import Any

import numpy as np

from .algebra import AlgebraSpec, Element
from .structure import StructureConstantAlgebra
from .tensor import AJElement, BElement


def complex_to_pair(z: complex) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def matrix_to_flat(m: np.ndarray) -> list[list[float]]:
    return [complex_to_pair(z) for z in np.asarray(m, dtype=complex).ravel()]


def flat_to_matrix(flat: Any, rows: int, cols: int) -> np.ndarray:
    try:
        pairs = np.array(flat, dtype=float)
    except OverflowError as exc:  # a JSON integer beyond the float range
        raise ValueError(f"matrix entries must be finite: {exc}") from None
    if pairs.shape != (rows * cols, 2):
        raise ValueError(f"expected {rows * cols} [re, im] entries, got shape {pairs.shape}")
    # numpy reads strings such as "1" and booleans as numbers too; JSON numbers only
    kinds = set(map(type, itertools.chain.from_iterable(flat)))
    if not kinds <= {int, float}:
        raise ValueError(f"matrix entries must be numbers, got {sorted(t.__name__ for t in kinds)}")
    # the (re, im) rows viewed as complex keep every value's bits
    m = pairs.view(complex).reshape(rows, cols)
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def spec_to_json(spec: AlgebraSpec) -> dict:
    return {"blocks": list(spec.block_dims)}

def spec_from_json(data: Any) -> AlgebraSpec:
    if not isinstance(data, dict) or "blocks" not in data:
        raise ValueError('algebra spec JSON needs a "blocks" key')
    dims = data["blocks"]
    if not isinstance(dims, list) or not all(
        isinstance(n, int) and not isinstance(n, bool) for n in dims
    ):
        raise ValueError(f"block sizes must be a list of integers, got {dims!r}")
    return AlgebraSpec(tuple(dims))


def element_to_json(x: Element) -> dict:
    return {"blocks": [matrix_to_flat(m) for m in x.blocks]}

def element_from_json(spec: AlgebraSpec, data: Any) -> Element:
    if not isinstance(data, dict) or "blocks" not in data:
        raise ValueError('element JSON needs a "blocks" key')
    flats = data["blocks"]
    if len(flats) != spec.num_blocks:
        raise ValueError(f"expected {spec.num_blocks} blocks, got {len(flats)}")
    blocks = [flat_to_matrix(flat, n, n) for flat, n in zip(flats, spec.block_dims)]
    return Element(spec, tuple(blocks))


def aj_to_json(u: AJElement) -> dict:
    terms = {}
    for (i, j), m in sorted(u.terms.items()):
        terms[f"{i + 1},{j + 1}"] = matrix_to_flat(m)
    return {"terms": terms}


def b_to_json(x: BElement) -> dict:
    return {"a": element_to_json(x.a), "u": aj_to_json(x.u)}


def table_to_json(alg: StructureConstantAlgebra) -> dict:
    records = [[a, b, c, [v.real, v.imag]] for a, b, c, v in alg.table.tolist()]
    return {"dim": alg.dim, "unit": matrix_to_flat(alg.unit), "records": records}


def dumps(report: dict) -> str:
    """Strict JSON: a NaN or infinite value raises ValueError."""
    return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"


def load_json_file(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)
