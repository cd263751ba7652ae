"""Extension norm: block operator norm plus an l1 sum of nuclear norms.

The base algebra carries the maximum over blocks of the operator norm (the
C*-direct-sum norm); this makes each minimal left ideal isometric to a
Euclidean column space, so the projective tensor norm of every off-diagonal
coordinate block has a closed form, the nuclear norm (sum of singular
values).  The pair norm of an extension element is the algebra norm of the
algebra part plus the l1 sum of the per-pair nuclear norms.  Every audit
here is seed-deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraSpec
from .algebra import largest_singular_value as a_norm
from .tensor import BElement, aj_zero, multiply_B
from .sampling import random_aj, random_b, random_element

A_NORM_MODEL = "max-block-operator-norm"


def pair_nuclear_norm(m: np.ndarray) -> float:
    """Sum of singular values, the projective norm between Euclidean factors."""
    return float(np.sum(np.linalg.svd(np.asarray(m, dtype=complex), compute_uv=False)))


@dataclass(frozen=True)
class NormReport:
    a_norm: float
    u_l1: float
    total: float
    per_pair: dict[tuple[int, int], float]


def b_norm(x: BElement) -> NormReport:
    """Pair norm of an extension element: algebra part plus l1 tensor part."""
    per_pair = {key: pair_nuclear_norm(m) for key, m in x.u.terms.items()}
    u_l1 = float(sum(per_pair.values()))
    an = a_norm(x.a)
    return NormReport(a_norm=an, u_l1=u_l1, total=an + u_l1, per_pair=per_pair)


def _ratio(product_norm: float, left: float, right: float) -> float:
    if left == 0.0 or right == 0.0:
        return 0.0
    return product_norm / (left * right)


@dataclass(frozen=True)
class NormAudit:
    """Worst observed ratios for the submultiplicativity obligations."""

    tensor_times_algebra: float  # |ub|_1 <= |u|_1 |b|_A
    algebra_times_tensor: float  # |av|_1 <= |v|_1 |a|_A
    tensor_times_tensor: float  # combined bound for pure tensor products
    full_pairs: float

    @property
    def worst_ratio(self) -> float:
        return max(
            self.tensor_times_algebra,
            self.algebra_times_tensor,
            self.tensor_times_tensor,
            self.full_pairs,
        )


def submultiplicativity_audit(
    spec: AlgebraSpec, samples: int = 1000, seed: int = 42
) -> NormAudit:
    """Draw seeded random pairs and report the worst norm ratio per family.

    Families: tensor times algebra element, algebra element times tensor,
    pure tensor products (their combined algebra-plus-tensor output norm),
    and unrestricted extension pairs.  A submultiplicative norm keeps every
    ratio at most one.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    rng = np.random.default_rng(seed)
    zero = spec.zero()
    worst_ub = worst_av = worst_uv = worst_full = 0.0
    for _ in range(samples):
        u = BElement(zero, random_aj(spec, rng))
        v = BElement(zero, random_aj(spec, rng))
        x = BElement(random_element(spec, rng), aj_zero(spec))
        y = BElement(random_element(spec, rng), aj_zero(spec))
        u_l1, v_l1 = b_norm(u).u_l1, b_norm(v).u_l1

        worst_ub = max(worst_ub, _ratio(b_norm(multiply_B(u, x)).u_l1, u_l1, a_norm(x.a)))
        worst_av = max(worst_av, _ratio(b_norm(multiply_B(y, v)).u_l1, v_l1, a_norm(y.a)))
        worst_uv = max(worst_uv, _ratio(b_norm(multiply_B(u, v)).total, u_l1, v_l1))

        s = random_b(spec, rng)
        t = random_b(spec, rng)
        worst_full = max(
            worst_full, _ratio(b_norm(multiply_B(s, t)).total, b_norm(s).total, b_norm(t).total)
        )
    return NormAudit(
        tensor_times_algebra=worst_ub,
        algebra_times_tensor=worst_av,
        tensor_times_tensor=worst_uv,
        full_pairs=worst_full,
    )


def isometry_check(spec: AlgebraSpec, samples: int = 100, seed: int = 42) -> float:
    """Max relative gap between the norm of an algebra element and the pair
    norm of its embedded image.  The radical of the finite-dimensional
    extension is zero, so the quotient norm is the pair norm itself and the
    embedding must be isometric."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        x = random_element(spec, rng)
        nx = a_norm(x)
        embedded = b_norm(BElement(x, aj_zero(spec))).total
        worst = max(worst, abs(embedded - nx) / max(nx, 1e-300))
    return worst
