"""Independent output checks, run on every op outside the timed interval.

Each check returns None when the output is correct and a short reason
otherwise.  The arithmetic here is plain numpy on the raw blocks and
coordinates; it does not call back into shoda.  Bounds are the ones the
repository's acceptance and CLI tests use.
"""

from __future__ import annotations

import json
import math
from typing import Optional

import numpy as np

TOL = 1e-9  # the library's and the CLI's default --tol
ISO_BOUND = 1e-10
RATIO_BOUND = 1.0 + 1e-9
ISOMETRY_BOUND = 1e-12
PROJECTION_BOUND = 1e-9


def _offsets(dims) -> list[int]:
    return [0, *np.cumsum(dims)[:-1].tolist()]


def block_diag(blocks) -> np.ndarray:
    dims = [b.shape[0] for b in blocks]
    out = np.zeros((sum(dims), sum(dims)), dtype=complex)
    for o, b in zip(_offsets(dims), blocks):
        out[o : o + b.shape[0], o : o + b.shape[0]] = b
    return out


def extension_matrix(x, dims) -> np.ndarray:
    """Full-matrix picture of an extension element: algebra blocks on the
    diagonal, tensor coordinate (i, j) at block position (i, j)."""
    out = block_diag(x.a.blocks)
    off = _offsets(dims)
    for (i, j), m in x.u.terms.items():
        out[off[i] : off[i] + dims[i], off[j] : off[j] + dims[j]] = m
    return out


def _commutator_residual(a: np.ndarray, b: np.ndarray, t: np.ndarray) -> float:
    return float(np.linalg.norm(a @ b - b @ a - t))


def _residual_bound(t_blocks) -> float:
    return TOL * max(1.0, math.sqrt(sum(float(np.linalg.norm(m)) ** 2 for m in t_blocks)))


def check_completion(result, dims) -> Optional[str]:
    n = sum(dims)
    if result.total_dim != n * n:
        return f"total_dim {result.total_dim} != {n * n}"
    if result.radical_dim != 0:
        return f"radical_dim {result.radical_dim} != 0"
    if tuple(result.block_structure) != (n * n,):
        return f"block_structure {result.block_structure} != ({n * n},)"
    if not result.iso_residual < ISO_BOUND:
        return f"iso_residual {result.iso_residual} not below {ISO_BOUND}"
    images = np.asarray(result.witness_images).reshape(n * n, n * n)
    if np.linalg.matrix_rank(images) != n * n:
        return "witness images do not span M_N"
    return None


def check_decomposition(witness, t_blocks, in_completion: bool) -> Optional[str]:
    """Recompute ab - ba - t in the full-matrix picture and bound it by
    tol * max(1, |t|_F); the residual the library reports must meet the
    same bound."""
    bound = _residual_bound(t_blocks)
    if not witness.residual <= bound:
        return f"reported residual {witness.residual} above {bound}"
    if in_completion:
        dims = [m.shape[0] for m in t_blocks]
        a, b = extension_matrix(witness.a, dims), extension_matrix(witness.b, dims)
    else:
        a, b = block_diag(witness.a.blocks), block_diag(witness.b.blocks)
    residual = _commutator_residual(a, b, block_diag(t_blocks))
    if not residual <= bound:
        return f"recomputed residual {residual} above {bound}"
    return None


# -- CLI reports ---------------------------------------------------------------


def _reject_constant(token: str):
    raise ValueError(f"non-finite JSON constant {token}")


def strict_json(text: str):
    """Parse JSON, rejecting NaN and Infinity, which json.dumps lets through."""
    return json.loads(text, parse_constant=_reject_constant)


def _matrix(flat, n: int) -> np.ndarray:
    return np.array([complex(re, im) for re, im in flat], dtype=complex).reshape(n, n)


def _element(data, dims) -> list[np.ndarray]:
    return [_matrix(flat, n) for flat, n in zip(data["blocks"], dims)]


def _pair(z) -> complex:
    return complex(z[0], z[1])


def _extension(data, dims) -> np.ndarray:
    out = block_diag(_element(data["a"], dims))
    off = _offsets(dims)
    for key, flat in data["u"]["terms"].items():
        i, j = (int(s) - 1 for s in key.split(","))
        m = np.array([complex(re, im) for re, im in flat]).reshape(dims[i], dims[j])
        out[off[i] : off[i] + dims[i], off[j] : off[j] + dims[j]] = m
    return out


def _cli_info(r, dims, _):
    n = sum(dims)
    expected = {
        "blocks": list(dims),
        "dim": sum(d * d for d in dims),
        "matrix_size": n,
        "extension_dim": n * n,
        "shoda_complete": len(dims) == 1,
    }
    return None if r == expected else f"info report {r} != {expected}"


def _cli_complete(r, dims, _):
    n = sum(dims)
    if r["N"] != n or r["radical_dim"] != 0 or r["components"] != [n * n]:
        return f"complete report {r}"
    if not r["iso_residual"] < ISO_BOUND:
        return f"iso_residual {r['iso_residual']}"
    return None


def _cli_check(r, dims, _):
    verdict = len(dims) == 1
    votes = [r["verdict"], r["criterion_minimal_ideal"], r["criterion_single_generator"],
             r["criterion_connectivity"]]
    if any(v is not verdict for v in votes):
        return f"criteria {votes} disagree with {verdict}"
    if verdict:
        return None if r["witness"] is None else "complete algebra reported a witness"
    traces = np.array([np.trace(m) for m in _element(r["witness"], dims)])
    if abs(traces.sum()) > TOL or not np.any(np.abs(traces) > TOL):
        return f"witness block traces {traces} do not certify a non-commutator"
    return None


def _cli_decompose(r, dims, element):
    t = element
    if len(dims) == 1:
        bound = _residual_bound(t)
        if not r["residual"] <= bound:
            return f"reported residual {r['residual']} above {bound}"
        a, b = _element(r["a"], dims)[0], _element(r["b"], dims)[0]
        residual = _commutator_residual(a, b, t[0])
        return None if residual <= bound else f"recomputed residual {residual} above {bound}"
    if r.get("in_completion") is not False:
        return "multi-block decompose without --in-completion must report a certificate"
    traces = np.array([np.trace(m) for m in t])
    reported = np.array([_pair(z) for z in r["block_traces"]])
    scale = 1.0 + math.sqrt(sum(float(np.linalg.norm(m)) ** 2 for m in t))
    if reported.shape != traces.shape or np.abs(reported - traces).max() > TOL * scale:
        return f"block traces {reported} != {traces}"
    certified = bool(abs(traces.sum()) <= TOL * scale and np.any(np.abs(traces) > TOL * scale))
    if r["certified_non_commutator"] is not certified or r["decomposable_in_algebra"] is certified:
        return f"certificate flags disagree with block traces {traces}"
    return None


def _cli_rank(r, dims, element):
    expected = sum(int(np.linalg.matrix_rank(m)) for m in element)
    return None if r["rank"] == expected else f"rank {r['rank']} != {expected}"


def _cli_trace(r, dims, element):
    expected = sum(np.trace(m) for m in element)
    got = _pair(r["trace"])
    return None if abs(got - expected) <= TOL * (1.0 + abs(expected)) else f"trace {got} != {expected}"


def _cli_spectrum(r, dims, element):
    eigs = np.concatenate([np.linalg.eigvals(m) for m in element])
    if sum(m for _, m in r["eigenvalues"]) != sum(dims):
        return "eigenvalue multiplicities do not sum to N"
    scale = max(1.0, float(np.abs(eigs).max()))
    for value, _ in r["eigenvalues"]:
        if np.abs(eigs - _pair(value)).min() > 1e-6 * scale:
            return f"reported eigenvalue {value} is not an eigenvalue"
    return None


def _cli_riesz(r, dims, element):
    n = sum(dims)
    total = np.zeros((n, n), dtype=complex)
    x = block_diag(element)
    for entry in r["projections"]:
        p = block_diag(_element(entry["projection"], dims))
        if not (entry["idempotency_residual"] < PROJECTION_BOUND
                and entry["commutation_residual"] < PROJECTION_BOUND):
            return f"reported projection residuals {entry['idempotency_residual']}, " \
                   f"{entry['commutation_residual']}"
        if np.linalg.norm(p @ p - p) >= PROJECTION_BOUND or np.linalg.norm(p @ x - x @ p) >= PROJECTION_BOUND:
            return "recomputed projection residual above bound"
        if entry["rank"] != entry["multiplicity"]:
            return f"projection rank {entry['rank']} != multiplicity {entry['multiplicity']}"
        total += p
    # every eigenvalue is nonzero, so the spectral projections sum to the unit
    if np.linalg.norm(total - np.eye(n)) >= PROJECTION_BOUND * n:
        return "spectral projections do not sum to the identity"
    return None


def _cli_norm_audit(r, dims, _):
    families = list(r["families"].values())
    if not (r["worst_ratio"] <= RATIO_BOUND and all(f <= RATIO_BOUND for f in families)):
        return f"norm ratio above 1: {r['worst_ratio']}"
    if r["worst_ratio"] != max(families):
        return "worst_ratio is not the largest family ratio"
    return None if r["isometry_dev"] < ISOMETRY_BOUND else f"isometry_dev {r['isometry_dev']}"


def _cli_path(r, dims, _):
    if r["samples"] != 1000 or r["max_rank_defect"] != 0 or r["endpoints_exact"] is not True:
        return f"path report {r}"
    bad = r["max_idempotency_residual"]
    return None if bad < PROJECTION_BOUND else f"max_idempotency_residual {bad}"


CLI_CHECKS = {
    "info": _cli_info,
    "complete": _cli_complete,
    "check": _cli_check,
    "decompose": _cli_decompose,
    "rank": _cli_rank,
    "trace": _cli_trace,
    "spectrum": _cli_spectrum,
    "riesz": _cli_riesz,
    "norm-audit": _cli_norm_audit,
    "path": _cli_path,
}


def check_cli(command: str, code: int, text: str, dims, element) -> Optional[str]:
    """Exit code 0, strict JSON, then the command's own fields."""
    if code != 0:
        return f"exit code {code}"
    try:
        report = strict_json(text)
    except ValueError as exc:
        return f"output is not strict JSON: {exc}"
    try:
        return CLI_CHECKS[command](report, dims, element)
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        return f"malformed {command} report: {exc!r}"
