"""Command-line front end.

Every command reads JSON inputs, writes a single JSON report to stdout or to
the --output path, and exits 0 on success, 1 on domain or numerical errors,
2 on parse or I/O errors.  Reports are deterministic for a fixed seed.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import serialize
from .algebra import (
    AlgebraSpec,
    Element,
    _block_ranks,
    _path_chunk,
    _projection_arc,
    _require_budget,
    _riesz_from_clusters,
    frobenius,
    multiply,
    projection_path,  # unused here, but perfbench/tracing.py binds it by name
    rank,
    riesz_projection,  # unused here, but perfbench/tracing.py binds it by name
    spectrum,
    trace,
)
from .commutators import (
    _require_traceless,
    certifies_non_commutator,
    commutator_decompose,
    decompose_in_completion,
    infeasibility_certificate,
    is_shoda_complete,
)
from .completion import complete
from .errors import AlgebraError, NumericalFailure
from .norms import A_NORM_MODEL, isometry_check, submultiplicativity_audit
from .sampling import random_rank_one_projection


@dataclass(frozen=True)
class CliConfig:
    command: str
    spec_path: str
    element_path: Optional[str] = None
    tol: float = 1e-9
    seed: int = 42
    samples: int = 1000
    output_path: Optional[str] = None
    in_completion: bool = False
    dump_table: bool = False

    def __post_init__(self):
        if not 0 < self.tol < 1:  # also refuses nan; from 1 on every rank is 0
            raise ValueError("tol must be above 0 and below 1")
        if self.samples < 1:
            raise ValueError("samples must be at least 1")


def _load_spec(config: CliConfig) -> AlgebraSpec:
    return serialize.spec_from_json(serialize.load_json_file(config.spec_path))


def _load_element(config: CliConfig, spec: AlgebraSpec) -> Element:
    if config.element_path is None:
        raise ValueError(f"command {config.command!r} needs an element file")
    return serialize.element_from_json(spec, serialize.load_json_file(config.element_path))


def _cmd_info(config: CliConfig) -> dict:
    spec = _load_spec(config)
    report = is_shoda_complete(spec, config.tol, config.seed)
    return {
        "blocks": list(spec.block_dims),
        "dim": spec.dim,
        "matrix_size": spec.matrix_size,
        "extension_dim": spec.matrix_size**2,
        "shoda_complete": report.verdict,
    }


# Peak memory per complex entry of a report written as [re, im] pairs: the
# array, its nested lists and the indented JSON text.  A child process's peak
# RSS (getrusage) over the entry count, the interpreter included, was 545
# bytes for the table dump at N = 9 and 639 for the witness of `check` on
# (362, 362).
_JSON_ENTRY_BYTES = 640
# `check`'s witness report per block beside its entries: a child process's
# peak RSS (wait4) less _JSON_ENTRY_BYTES per entry was 1550 bytes per block
# on (1,) * 60000 and 2020 on (2,) * 30000.  The most blocks admitted peak at
# 243 MiB on (2,) * 66117 and 241 MiB on (1, 2) * 43296.
_WITNESS_BLOCK_BYTES = 1500
# Peak memory of `decompose` per complex entry of its input and two factors,
# the decomposition and the JSON text included.  A child process's peak RSS
# over the entry count was 583 bytes at n = 256, 463 at 384 and 439 at 448;
# n = 431, the largest size admitted, peaked at 242 MiB.
_DECOMPOSE_ENTRY_BYTES = 480


def _cmd_complete(config: CliConfig) -> dict:
    spec = _load_spec(config)
    if config.dump_table:
        _require_budget(f"the table dump of {spec.describe()}",
                        spec.matrix_size**6 * _JSON_ENTRY_BYTES)
    result = complete(spec, config.tol, seed=config.seed)
    report = {
        "N": result.matrix_size,
        "radical_dim": result.radical_dim,
        "components": list(result.block_structure),
        "iso_residual": result.iso_residual,
    }
    if config.dump_table:
        from .completion import build_B

        table = build_B(spec).dense()
        report["table"] = [
            [[serialize.complex_to_pair(z) for z in row] for row in plane]
            for plane in table
        ]
    return report


def _cmd_check(config: CliConfig) -> dict:
    spec = _load_spec(config)
    if spec.num_blocks >= 2:
        _require_budget(f"the witness report of {spec.describe()}",
                        spec.dim * _JSON_ENTRY_BYTES + spec.num_blocks * _WITNESS_BLOCK_BYTES)
    report = is_shoda_complete(spec, config.tol, config.seed)
    return {
        "verdict": report.verdict,
        "criterion_minimal_ideal": report.criterion_minimal_ideal,
        "criterion_single_generator": report.criterion_single_generator,
        "criterion_corner": [[r, d] for r, d in report.criterion_corner],
        "criterion_connectivity": report.criterion_connectivity,
        "witness": None if report.witness is None else serialize.element_to_json(report.witness),
    }


def _cmd_decompose(config: CliConfig) -> dict:
    spec = _load_spec(config)
    # size first, before the element is parsed: the report holds the input and
    # both factors, N x N each, and is refused below the decomposition's bound
    if config.in_completion or spec.num_blocks == 1:
        _require_budget(f"the decompose report of {spec.describe()}",
                        3 * spec.matrix_size**2 * _DECOMPOSE_ENTRY_BYTES)
    t = _load_element(config, spec)
    if config.in_completion:
        witness = decompose_in_completion(t, config.tol)
        return {
            "in_completion": True,
            "a": serialize.b_to_json(witness.a),
            "b": serialize.b_to_json(witness.b),
            "residual": witness.residual,
        }
    if spec.num_blocks >= 2:
        _require_traceless(t, config.tol)
        traces = infeasibility_certificate(t)
        certified = certifies_non_commutator(t, config.tol)
        return {
            "in_completion": False,
            "decomposable_in_algebra": not certified,
            "certified_non_commutator": certified,
            "block_traces": [serialize.complex_to_pair(z) for z in traces],
            "note": "multi-block algebra; rerun with --in-completion for factors",
        }
    witness = commutator_decompose(t, config.tol)
    return {
        "in_completion": False,
        "a": serialize.element_to_json(witness.a),
        "b": serialize.element_to_json(witness.b),
        "residual": witness.residual,
    }


def _cmd_rank(config: CliConfig) -> dict:
    spec = _load_spec(config)
    x = _load_element(config, spec)
    return {"rank": rank(x, config.tol)}


def _cmd_trace(config: CliConfig) -> dict:
    spec = _load_spec(config)
    x = _load_element(config, spec)
    return {"trace": serialize.complex_to_pair(trace(x))}


def _cmd_spectrum(config: CliConfig) -> dict:
    spec = _load_spec(config)
    x = _load_element(config, spec)
    report = spectrum(x, config.tol)
    return {
        "eigenvalues": [[serialize.complex_to_pair(v), m] for v, m in report.eigenvalues],
        "nonzero": [[serialize.complex_to_pair(v), m] for v, m in report.nonzero],
    }


def _cmd_riesz(config: CliConfig) -> dict:
    spec = _load_spec(config)
    x = _load_element(config, spec)
    report = spectrum(x, config.tol)
    # one projection of dim entries per distinct nonzero eigenvalue: n**3 for one block
    _require_budget(f"the riesz report of {spec.describe()}",
                    len(report.nonzero) * spec.dim * _JSON_ENTRY_BYTES)
    out = []
    x_scale = 1.0 + frobenius(x)
    for value, mult in report.nonzero:
        p = _riesz_from_clusters(x, value, config.tol, report.eigenvalues)
        idem = frobenius(multiply(p, p) - p)
        comm = frobenius(multiply(p, x) - multiply(x, p))
        p_scale = 1.0 + frobenius(p)
        if not (idem <= config.tol * p_scale**2 and comm <= config.tol * p_scale * x_scale):
            raise NumericalFailure(
                f"the projection at {value} has idempotency residual {idem} "
                f"and commutation residual {comm}"
            )
        out.append(
            {
                "eigenvalue": serialize.complex_to_pair(value),
                "multiplicity": mult,
                "rank": rank(p, config.tol),
                "idempotency_residual": idem,
                "commutation_residual": comm,
                "projection": serialize.element_to_json(p),
            }
        )
    return {"projections": out}


# the isometry check of `norm-audit` takes at most this many samples
_ISOMETRY_SAMPLES = 200


def _cmd_norm_audit(config: CliConfig) -> dict:
    spec = _load_spec(config)
    audit = submultiplicativity_audit(spec, config.samples, config.seed)
    deviation = isometry_check(spec, min(config.samples, _ISOMETRY_SAMPLES), config.seed)
    return {
        "worst_ratio": audit.worst_ratio,
        "isometry_dev": deviation,
        "families": {
            "tensor_times_algebra": audit.tensor_times_algebra,
            "algebra_times_tensor": audit.algebra_times_tensor,
            "tensor_times_tensor": audit.tensor_times_tensor,
            "full_pairs": audit.full_pairs,
        },
        "a_norm_model": A_NORM_MODEL,
    }


def _cmd_path(config: CliConfig) -> dict:
    spec = _load_spec(config)
    # size first: a spec too large to sample never has its endpoints drawn or read
    _path_chunk(spec)
    if config.element_path is not None:
        # two endpoints of dim entries each as nested JSON lists, which cost
        # a few hundred bytes per entry and about 900 more per block to read
        _require_budget(f"the path endpoints of {spec.describe()}", 2 * spec.dim * _JSON_ENTRY_BYTES)
        data = serialize.load_json_file(config.element_path)
        if not isinstance(data, dict) or "p" not in data or "q" not in data:
            raise ValueError('path endpoints JSON needs "p" and "q" keys')
        p = serialize.element_from_json(spec, data["p"])
        q = serialize.element_from_json(spec, data["q"])
    else:
        rng = np.random.default_rng(config.seed)
        p = random_rank_one_projection(spec, 0, rng)
        q = random_rank_one_projection(spec, 0, rng)
    ip, residuals, stacks = _projection_arc(p, q, config.samples, config.tol, config.seed)
    # the endpoints' residuals are of the whole elements, so entries outside
    # block ip still count; q is a sample only when there are two or more
    worst_idem = max(residuals[: config.samples])
    count, worst_defect, start_exact = 0, 0, None
    for stack in stacks:
        if start_exact is None:
            start_exact = (stack[0] == p.block(ip)).all()
        count += len(stack)
        idem, defect = _check_path_stack(stack, config.tol)
        worst_idem, worst_defect = max(worst_idem, idem), max(worst_defect, defect)
    end_exact = count == 1 or (stack[-1] == q.block(ip)).all()
    return {
        "samples": count,
        "max_idempotency_residual": worst_idem,
        "max_rank_defect": worst_defect,
        "endpoints_exact": bool(start_exact and end_exact),
    }


def _check_path_stack(stack: np.ndarray, tol: float) -> tuple[float, int]:
    """Largest idempotency residual |e e - e|_F and rank defect |rank e - 1|
    over a stack of path samples of one block: one matmul and one SVD call."""
    square = stack @ stack
    square -= stack
    residual = np.sqrt(np.sum(np.abs(square.reshape(len(stack), -1)) ** 2, axis=1))
    ranks = _block_ranks([stack[:, None]], tol)[:, 0]
    return float(np.max(residual)), int(np.max(np.abs(ranks - 1)))


_COMMANDS = {
    "info": _cmd_info,
    "complete": _cmd_complete,
    "check": _cmd_check,
    "decompose": _cmd_decompose,
    "rank": _cmd_rank,
    "trace": _cmd_trace,
    "spectrum": _cmd_spectrum,
    "riesz": _cmd_riesz,
    "norm-audit": _cmd_norm_audit,
    "path": _cmd_path,
}


def run(config: CliConfig) -> tuple[int, dict]:
    """Dispatch a parsed config; returns (exit code, report)."""
    try:
        report = _COMMANDS[config.command](config)
        return 0, report
    except (AlgebraError, np.linalg.LinAlgError, MemoryError) as exc:
        return 1, {"error": type(exc).__name__, "detail": str(exc)}
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return 2, {"error": type(exc).__name__, "detail": str(exc)}


@functools.cache  # building the tree costs about 50 times parsing with it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shoda",
        description="Completion, completeness checks and commutator decomposition "
        "for block-diagonal complex semisimple algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    needs_element = {"decompose", "rank", "trace", "spectrum", "riesz"}
    optional_element = {"path"}
    for name in _COMMANDS:
        # an option a command lacks takes its CliConfig default
        cmd = sub.add_parser(name)
        cmd.add_argument("spec_path", help="algebra spec JSON file")
        if name in needs_element:
            cmd.add_argument("element_path", help="element JSON file")
        elif name in optional_element:
            cmd.add_argument("element_path", nargs="?", default=None,
                             help='JSON file with "p" and "q" endpoint elements')
        cmd.add_argument("--tol", type=float, default=CliConfig.tol)
        cmd.add_argument("--seed", type=int, default=CliConfig.seed)
        cmd.add_argument("--samples", type=int, default=CliConfig.samples, help=(
            f"samples of the submultiplicativity audit; the isometry check "
            f"draws min(samples, {_ISOMETRY_SAMPLES}) of its own"
            if name == "norm-audit" else None))
        cmd.add_argument("-o", "--output", dest="output_path", default=None)
        if name == "decompose":
            cmd.add_argument("--in-completion", action="store_true", dest="in_completion")
        if name == "complete":
            cmd.add_argument("--dump-table", action="store_true", dest="dump_table")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = CliConfig(**vars(args))
    except ValueError as exc:
        sys.stderr.write(serialize.dumps({"error": "ValueError", "detail": str(exc)}))
        return 2
    code, report = run(config)
    try:
        text = serialize.dumps(report)
    except ValueError as exc:  # a non-finite value is a numerical failure
        code, text = 1, serialize.dumps({"error": "NumericalFailure", "detail": str(exc)})
    if config.output_path:
        try:
            with open(config.output_path, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            sys.stderr.write(serialize.dumps({"error": "OSError", "detail": str(exc)}))
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
