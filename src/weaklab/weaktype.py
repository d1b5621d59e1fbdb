"""Weak-type quotients, the duality estimate, and bound checkers.

The central scalar quantity is the multiplier weak-type quotient

    Q = sup_lam  lam^q |{ x : |output(x)| > lam }| / ||f||_p^q,

where output is w^(1/p) T(f w^(-1/p)) (or a matrix-weighted analogue).  For
step outputs the supremum is exact: it is attained as lam increases to an
output value v, so Q = max over values v of v^q |{|output| >= v}|.  No
lambda grid is involved, and refining one can never change the result.

Bound checkers divide the quotient by the characteristic products of the
quantitative weak-type theorems and report the empirical constant; the
constants are reported, never assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grid import MeshFunction, _weak_exponent
from .operators import distribution, multiplier_apply
from .sparse import exceptional_set
from .weights import dual_exponent

__all__ = [
    "WeakTypeQuotient",
    "weak_quotient",
    "quotient_from_output",
    "DualEstimate",
    "dual_weak_estimate",
    "ProofConstants",
    "proof_constants",
    "BoundCheckReport",
    "bound_check",
]


@dataclass(frozen=True)
class WeakTypeQuotient:
    """sup_lam lam^q |{|output| > lam}| / ||f||_p^q with its witness threshold."""

    operator: str
    p: float
    q: float
    best_lambda: float
    quotient: float
    f_norm: float


def quotient_from_output(
    output: MeshFunction, f_norm: float, p: float, q: float | None = None, operator: str = "T"
) -> WeakTypeQuotient:
    """Exact weak-type quotient of a step output, normalized by ||f||_p^q."""
    if not f_norm > 0:
        raise ValueError("f must have positive norm")
    if not p >= 1:
        raise ValueError(f"weak-type quotients need p >= 1, got {p}")
    q = p if q is None else q
    if not p <= q < math.inf:
        raise ValueError(f"weak-type quotients need a finite q >= p, got p={p}, q={q}")
    curve = distribution(output)
    pos = curve.thresholds > 0
    if not np.any(pos):
        return WeakTypeQuotient(operator, p, q, 0.0, 0.0, f_norm)
    vals = curve.thresholds[pos]
    geq = curve.measures_geq[pos]
    scores = vals**q * geq
    i = int(np.argmax(scores))
    return WeakTypeQuotient(
        operator=operator,
        p=p,
        q=q,
        best_lambda=float(vals[i]),
        quotient=float(scores[i]) / f_norm**q,
        f_norm=f_norm,
    )


def weak_quotient(
    T: str,
    weight,
    p: float,
    f: MeshFunction,
    **op_kwargs,
) -> WeakTypeQuotient:
    """Quotient for the multiplier form of a tagged operator.

    ``T`` is a :func:`weaklab.operators.multiplier_apply` tag; matrix
    operators produce their output elsewhere and go through
    :func:`quotient_from_output`.  The quotient takes the weak-type
    exponent of ``grid._weak_exponent`` at the ``alpha`` it is given.
    """
    q = _weak_exponent(p, op_kwargs.get("alpha"))
    output = multiplier_apply(T, weight, p, f, **op_kwargs)
    return quotient_from_output(output.magnitude(), f.lp_norm(p), p, q, operator=T)


# ---------------------------------------------------------------------------
# duality estimate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DualEstimate:
    """|E|^(1/p - 1) <output, chi_E'> with E' = E minus the exceptional set."""

    value: float
    e_measure: float
    eprime_measure: float
    omega_measure: float


def dual_weak_estimate(
    T: str,
    weight,
    p: float,
    f: MeshFunction,
    e_cells: np.ndarray,
    K: float = 4.0,
    **op_kwargs,
) -> DualEstimate:
    """Duality functional bounding the weak norm from below.

    Requires ||f||_p = 1.  E' is constructed by removing the superlevel set
    of the dyadic maximal function of |f|^p at height K/|E| (K > 2), so
    |E'| > |E|/2 and the functional is a lower bound for the weak norm up
    to the standard factor.
    """
    output = multiplier_apply(T, weight, p, f, **op_kwargs)
    omega, eprime = exceptional_set(f.magnitude(), p, e_cells, K)
    h = f.mesh.h
    inner = float(output.values[eprime].sum() * h)
    e_measure = len(e_cells) * h
    return DualEstimate(
        value=e_measure ** (1.0 / p - 1.0) * abs(inner),
        e_measure=e_measure,
        eprime_measure=len(eprime) * h,
        omega_measure=len(omega) * h,
    )


# ---------------------------------------------------------------------------
# proof-exponent bookkeeping
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProofConstants:
    """The exponents nu and r with r' = p nu' + 1, plus derived conjugates.

    Invariants (validated on construction):
      1 < r < nu;  (pr)' = r (p nu)' to relative 1e-12;  (r')^r finite.
    """

    p: float
    nu: float
    r: float
    r_prime: float
    p_nu_prime: float
    p_r_prime: float

    @property
    def r_prime_power(self) -> float:
        return self.r_prime**self.r

    def validate(self) -> None:
        if not (1.0 < self.r < self.nu * (1 + 1e-9)):
            raise ValueError(f"r = {self.r} outside (1, nu = {self.nu})")
        lhs = self.p_r_prime
        rhs = self.r * self.p_nu_prime
        if abs(lhs - rhs) > 1e-12 * abs(rhs):
            raise ValueError(f"conjugate identity (pr)' = r (p nu)' fails: {lhs} vs {rhs}")
        if not math.isfinite(self.r_prime_power):
            raise ValueError("(r')^r overflows")


def proof_constants(nu: float, p: float) -> ProofConstants:
    """Exponent bookkeeping for the sparse weak-type argument at L^p (the
    fractional argument takes it at L^q, r' = q nu' + 1)."""
    if not 1 < nu < math.inf:
        raise ValueError(f"sharp reverse-Holder exponent requires nu > 1 and finite, got {nu}")
    if not 1 <= p < math.inf:
        raise ValueError(f"p must be >= 1 and finite, got {p}")
    nu_prime = nu / (nu - 1.0)
    r_prime = p * nu_prime + 1.0
    r = r_prime / (r_prime - 1.0)
    pc = ProofConstants(
        p=p,
        nu=nu,
        r=r,
        r_prime=r_prime,
        p_nu_prime=dual_exponent(p * nu),
        p_r_prime=dual_exponent(p * r),
    )
    pc.validate()
    return pc


# ---------------------------------------------------------------------------
# bound checkers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundCheckReport:
    """Empirical constants quotient / characteristic-product over a family."""

    theorem: str
    constants: tuple[float, ...]
    quotients: tuple[float, ...]
    product: float

    @property
    def max_constant(self) -> float:
        return max(self.constants)


def bound_check(
    theorem: str,
    product: float,
    outputs: Sequence[MeshFunction],
    f_norms: Sequence[float],
    p: float,
) -> BoundCheckReport:
    """Empirical constants C = quotient / product over a family of outputs,
    one norm ||f||_p per output, each quotient taken at q = p.

    ``product`` is the characteristic product of the theorem being checked
    (for the sparse weak-type bound: [w]_{A_p} [w]_{A_inf}^p; matrix
    maximal: [W]_{A_p} [W]_{A_inf^sc}^p).
    """
    if not product > 0:
        raise ValueError("characteristic product must be positive")
    if len(outputs) == 0:
        raise ValueError("empty family")
    if len(outputs) != len(f_norms):
        raise ValueError(f"one norm per output: got {len(outputs)} outputs and {len(f_norms)} norms")
    quotients = []
    constants = []
    for out, fn in zip(outputs, f_norms):
        wq = quotient_from_output(out.magnitude(), fn, p, operator=theorem)
        quotients.append(wq.quotient)
        constants.append(wq.quotient / product)
    return BoundCheckReport(
        theorem=theorem,
        constants=tuple(constants),
        quotients=tuple(quotients),
        product=product,
    )
