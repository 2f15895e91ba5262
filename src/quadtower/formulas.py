"""Exact calculators for 2-class-number formulas of multiquadratic steps.

Two calculators drive the tower bounds: the ambiguous class number formula
#Am_2 = 2^(t-1)/(E:H) for a ramified quadratic extension, and the growth
ratio of the main chain, composed from the Kuroda prefactors of its two
reduction steps.  Kuroda's class number formula itself, over Q, is
`units.multiquadratic_h2`.  Proof-level inputs (unit indices, numbers of
ramified places) are never derived here; callers pass them in.  Everything
is an exact rational identity, so all arithmetic uses Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "AmbiguousInput",
    "MainChainResult",
    "ambiguous_number",
    "main_chain",
    "ELL_BY_TYPE",
]


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and n & (n - 1) == 0


@dataclass(frozen=True)
class AmbiguousInput:
    """Data for #Am_2 = 2^(t-1)/(E:H), t = t_fin + t_inf ramified places."""

    t_fin: int
    t_inf: int
    unit_index: int

    def __post_init__(self):
        if self.t_fin < 0 or self.t_inf < 0:
            raise ValueError("place counts must be nonnegative")
        if self.t_fin + self.t_inf < 1:
            raise ValueError("the extension must ramify somewhere")
        if not _is_power_of_two(self.unit_index):
            raise ValueError(f"unit index {self.unit_index} is not a power of 2")


def ambiguous_number(inp: AmbiguousInput) -> int:
    t = inp.t_fin + inp.t_inf
    num = 2 ** (t - 1)
    if num % inp.unit_index:
        raise ValueError(
            f"inconsistent inputs: (E:H) = {inp.unit_index} does not divide 2^{t - 1}"
        )
    return num // inp.unit_index


# Kuroda prefactor ell of the first reduction step, by Galois type of the
# order-32 quotient; the second step contributes 1/(8 ell), so the
# composition is type-independent.
ELL_BY_TYPE = {
    "Qg": Fraction(1, 4),
    "D": Fraction(1, 8),
    "S": Fraction(1, 8),
}


@dataclass(frozen=True)
class MainChainResult:
    ratio: Fraction
    conclusion: str


def main_chain(g_type: str, h2_M: int) -> MainChainResult:
    """Composed growth ratio h2(L)/h2(k+^1) = h2(M)^2 / 8.

    A ratio >= 2 (h2(M) >= 4) certifies another unramified 2-extension on
    top of the second tower step; 1/2 (h2(M) = 2) leaves the chain argument
    inconclusive.
    """
    if g_type not in ELL_BY_TYPE:
        raise ValueError(f"unknown Galois type {g_type!r}")
    if h2_M < 1:
        raise ValueError("h2_M must be positive")
    ell = ELL_BY_TYPE[g_type]
    ratio = ell * (1 / (8 * ell)) * h2_M**2
    conclusion = "length >= 3" if ratio >= 2 else "inconclusive"
    return MainChainResult(ratio, conclusion)
