"""Seeded inputs and ops for the three workloads.

A workload is one round: a fixed list of op slots, each with fixed block
sizes.  The seed draws the concrete input of every slot (element entries,
complete()'s own seed) and the order of the slots, so every seed runs the
same ops at the same sizes, and runs with different seeds compare.  A run
repeats the round, so each op's latency can be taken as the median of its
repeats.

Only the generated inputs reach shoda: specs, elements and JSON files are
built here with numpy and the json module.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

import checks
import shoda.cli
import shoda.commutators
import shoda.completion
from shoda import AlgebraSpec, Element

@dataclass
class Op:
    kind: str  # the slot class, the same for every seed
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]


@dataclass
class Plan:
    round: list[Op]
    warmup: Op  # run untimed at set-up
    peak: list[Op]  # the ops that set the peak allocation, for the tracemalloc pass
    round_s: float  # nominal time of one full-size round, which sets the round count
    min_rounds: int  # fewest rounds for which the layout below holds


# -- input generation ------------------------------------------------------


def _cnormal(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def random_traceless(rng: np.random.Generator, dims) -> list[np.ndarray]:
    """Standard complex normal blocks, shifted by one scalar to total trace zero."""
    blocks = [_cnormal(rng, (n, n)) for n in dims]
    shift = sum(np.trace(m) for m in blocks) / sum(dims)
    return [m - shift * np.eye(len(m)) for m in blocks]


def scalar_witness(rng: np.random.Generator, dims) -> list[np.ndarray]:
    """Per-block scalars c_i I with total trace zero and nonzero block traces:
    not a commutator in the block algebra, one in its completion."""
    c = _cnormal(rng, len(dims)) + 1.0
    c[-1] = -np.dot(c[:-1], dims[:-1]) / dims[-1]
    return [ci * np.eye(n, dtype=complex) for ci, n in zip(c, dims)]


def diagonalizable(rng: np.random.Generator, dims, gap: float = 0.1) -> list[np.ndarray]:
    """Blocks with eigenvalues at least `gap` apart and from zero, over the
    whole element, conjugated by a mildly non-normal similarity."""
    values: list[complex] = []
    while len(values) < sum(dims):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(z) >= gap and all(abs(z - w) >= gap for w in values):
            values.append(z)
    blocks, pos = [], 0
    for n in dims:
        q, _ = np.linalg.qr(_cnormal(rng, (n, n)))
        v = q @ (np.eye(n) + 0.2 * _cnormal(rng, (n, n)))
        blocks.append(v @ np.diag(values[pos : pos + n]) @ np.linalg.inv(v))
        pos += n
    return blocks


def _flat(m: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in m.ravel()]


def _write_json(path: Path, data) -> str:
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**31))


# -- completion ------------------------------------------------------------


def _completion_op(label: str, dims: tuple[int, ...], seed: int) -> Op:
    spec = AlgebraSpec(dims)
    return Op(
        kind=label,
        label=f"{label} {dims}",
        run=lambda: shoda.completion.complete(spec, seed=seed),
        check=lambda result: checks.check_completion(result, dims),
    )


def _completion_slots(tiny: bool):
    """(label, dims); the first slot is the largest op.

    At full size a run of four rounds has 32 timed ops in three latency
    bands: twelve N=8 ops with two and three blocks, eight all-ones N=8 ops
    (table build bound) and twelve N=10 ops with two and three blocks (centre
    bound).  The median then averages the two all-ones ops, and the tail op
    (ten ops beyond it) and every op beyond it are N=10 ops.  N=12 is left
    out: one such op takes about 8 s, so a run would hold too few repeats of
    it to take a steady median."""
    if tiny:
        return [("N4/2", (2, 2)), ("N3/2", (1, 2)), ("ones3", (1, 1, 1))]
    return [
        ("N10/2", (5, 5)),
        ("N10/2", (4, 6)),
        ("N10/3", (3, 3, 4)),
        ("ones8", (1,) * 8),
        ("ones8", (1,) * 8),
        ("N8/2", (4, 4)),
        ("N8/2", (5, 3)),
        ("N8/3", (2, 3, 3)),
    ]


def completion_plan(rng: np.random.Generator, workdir: Path, tiny: bool) -> Plan:
    ops = [_completion_op(label, dims, _seed(rng)) for label, dims in _completion_slots(tiny)]
    warmup = _completion_op("warm-up", (1, 1) if tiny else (2, 2), _seed(rng))
    peak = [ops[0]]
    rng.shuffle(ops)
    return Plan(ops, warmup, peak, round_s=10.0, min_rounds=4)


# -- decompose -------------------------------------------------------------


def _decompose_op(label: str, dims: tuple[int, ...], blocks: list[np.ndarray]) -> Op:
    element = Element(AlgebraSpec(dims), tuple(blocks))
    if len(dims) == 1:
        run = lambda: shoda.commutators.commutator_decompose(element)
    else:
        run = lambda: shoda.commutators.decompose_in_completion(element)
    return Op(
        kind=f"{label} N={sum(dims)}",
        label=f"{label} N={sum(dims)} k={len(dims)}",
        run=run,
        check=lambda w: checks.check_decomposition(w, blocks, in_completion=len(dims) > 1),
    )


def _decompose_slots(tiny: bool):
    """(label, dims, scalar witness); the first slot is the largest op.

    At full size a round has four ops of 0.1 s and less (the scalar
    witnesses at N=256 and N=64, a multi-block and a single block at N=64)
    and five N=128 ops of about 0.5 s.  Over the run's rounds the median op
    and the tail op are then both inside the N=128 band.  A random traceless
    element at N=256 is left out: one such op takes about 4 s, too few
    repeats in a run to take a steady median."""
    if tiny:
        return [("multi", (3, 5), False), ("witness", (2, 2, 4), True), ("single", (6,), False)]
    return [
        ("multi", (16,) * 8, False),
        ("multi", (64, 64), False),
        ("multi", (32, 32, 64), False),
        ("single", (128,), False),
        ("single", (128,), False),
        ("witness", (32,) * 8, True),
        ("witness", (24, 40), True),
        ("multi", (16, 16, 32), False),
        ("single", (64,), False),
    ]


def _decompose_draw(rng, label, dims, witness) -> Op:
    blocks = scalar_witness(rng, dims) if witness else random_traceless(rng, dims)
    return _decompose_op(label, dims, blocks)


def decompose_plan(rng: np.random.Generator, workdir: Path, tiny: bool) -> Plan:
    ops = [_decompose_draw(rng, *slot) for slot in _decompose_slots(tiny)]
    warmup = _decompose_draw(rng, "warm-up", (2, 3) if tiny else (8, 8), False)
    peak = [ops[0]]
    rng.shuffle(ops)
    return Plan(ops, warmup, peak, round_s=3.0, min_rounds=3)


# -- cli -------------------------------------------------------------------

COMMANDS = ("info", "complete", "check", "decompose", "rank", "trace", "spectrum",
            "riesz", "norm-audit", "path")
# Each spec's commands in a round.  `check` runs three times, so that the round's
# median op falls inside the band of `check` latencies rather than on the edge
# between two commands; `norm-audit` runs twice on the multi-block specs, so
# that the band of their audits, which holds op_s.tail, keeps at least eleven
# ops over three rounds.
ROUND_COMMANDS = COMMANDS + ("check", "check")
MULTI_BLOCK_EXTRA = ("norm-audit",)
_NEEDS_TRACELESS = {"decompose"}
_NEEDS_ELEMENT = {"rank", "trace", "spectrum", "riesz"}


def _cli_specs(tiny: bool) -> list[tuple[int, ...]]:
    """Specs of N = 8: one with one block and two with two."""
    if tiny:
        return [(2,), (1, 2)]
    return [(8,), (4, 4), (5, 3)]


def _cli_op(workdir: Path, tag: str, command: str, dims, files: dict) -> Op:
    argv = [command, files["spec"]]
    element = None
    if command in _NEEDS_TRACELESS:
        argv.append(files["traceless"])
        element = files["traceless_blocks"]
    elif command in _NEEDS_ELEMENT:
        argv.append(files["element"])
        element = files["element_blocks"]
    out = workdir / f"{tag}-{command}.out.json"
    argv += ["-o", str(out)]

    def check(code) -> Optional[str]:
        try:
            text = out.read_text(encoding="utf-8")
        except FileNotFoundError:
            return "no output written"
        finally:
            out.unlink(missing_ok=True)
        return checks.check_cli(command, code, text, dims, element)

    return Op(
        kind=f"{command} k={len(dims)}",
        label=f"{command} {dims}",
        run=lambda: shoda.cli.main(argv),
        check=check,
    )


def cli_plan(rng: np.random.Generator, workdir: Path, tiny: bool) -> Plan:
    ops = []
    for s, dims in enumerate(_cli_specs(tiny)):
        tag = f"s{s}"
        traceless = random_traceless(rng, dims)
        element = diagonalizable(rng, dims)
        files = {
            "spec": _write_json(workdir / f"{tag}-spec.json", {"blocks": list(dims)}),
            "traceless": _write_json(workdir / f"{tag}-traceless.json",
                                     {"blocks": [_flat(m) for m in traceless]}),
            "element": _write_json(workdir / f"{tag}-element.json",
                                   {"blocks": [_flat(m) for m in element]}),
            "traceless_blocks": traceless,
            "element_blocks": element,
        }
        commands = ROUND_COMMANDS + (MULTI_BLOCK_EXTRA if len(dims) > 1 else ())
        ops += [_cli_op(workdir, f"{tag}-{i}", command, dims, files)
                for i, command in enumerate(commands)]
        if s == 0:
            warmup = _cli_op(workdir, f"{tag}-warm-up", "check", dims, files)
    peak = [op for op in ops if op.kind.startswith("complete ")]
    rng.shuffle(ops)
    return Plan(ops, warmup, peak, round_s=7.5, min_rounds=3)


PLANS = {"completion": completion_plan, "decompose": decompose_plan, "cli": cli_plan}
