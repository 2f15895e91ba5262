"""Conic solver and derived-element tests.

The pinned solver outputs were confirmed by independent hand search before
being frozen here; published tuples that the minimal-height search does not
reproduce verbatim are still checked as exact identities.
"""

import pytest

from quadtower.arith import NotFundamentalError
from quadtower.conic import (
    ConicSolution,
    MuElement,
    NoSolutionWithinBoundError,
    ProvablyInsolubleError,
    H8HypothesisError,
    solve_conic,
    solve_h8,
)
from quadtower.qform import c4_splittings
from quadtower.units import QuadUnit


def test_published_tuples_are_exact_identities():
    # constructing the dataclass runs the zero-tolerance identity check
    ConicSolution(5, 1, 1, (8, 17))
    ConicSolution(9, 1, 2, (61, 5))
    ConicSolution(383, 1, 26, (-3, 217))
    MuElement(4, 15, 1, QuadUnit(5, 4, 2, -1), (13, 5, 917))


def test_solution_validation():
    with pytest.raises(ValueError, match="!="):
        ConicSolution(5, 1, 2, (8, 17))
    with pytest.raises(ValueError, match="primitive"):
        ConicSolution(10, 2, 2, (8, 17))  # identity holds but gcd = 2


def test_solve_conic_pins():
    assert solve_conic(8, 17) == ConicSolution(5, 1, 1, (8, 17))
    assert solve_conic(61, 5) == ConicSolution(9, 1, 2, (61, 5))
    # the published (383, 1, 26) has height 26; the minimal solution is lower
    assert solve_conic(-3, 217) == ConicSolution(29, 3, 2, (-3, 217))


def test_solve_conic_obstructions():
    with pytest.raises(ProvablyInsolubleError, match="no real point"):
        solve_conic(-3, -7)
    # a^2 + 3c^2 = 5b^2 forces 5 | gcd since (-3/5) = -1
    with pytest.raises(ProvablyInsolubleError, match="non-residue"):
        solve_conic(5, -3)
    # a^2 = 3b^2 + 3c^2 fails 2-adically (odd primes give no verdict: 3 | both)
    with pytest.raises(ProvablyInsolubleError, match="modulo 8"):
        solve_conic(3, 3)
    with pytest.raises(ValueError, match="nonzero"):
        solve_conic(0, 17)


def test_solve_conic_bound_reported():
    with pytest.raises(NoSolutionWithinBoundError) as info:
        solve_conic(-3, 217, bound=2)  # minimal solution has height 3
    assert info.value.bound == 2


def test_solve_h8_instances():
    mu = solve_h8(13, 5, 917)
    assert (mu.x1, mu.x2, mu.x3) == (4, 15, 1)
    assert mu.u2 == QuadUnit(5, 4, 2, -1)  # 2 + sqrt(5), the unit cube
    # swapped roles: the norm -1 unit now lives over 13 (again a cube)
    mu = solve_h8(5, 13, 917)
    assert (mu.x1, mu.x2, mu.x3) == (16, 13, 1)
    assert mu.u2 == QuadUnit(13, 36, 10, -1)  # 18 + 5 sqrt(13)


def test_solve_h8_hypotheses():
    with pytest.raises(H8HypothesisError, match=r"\(65 / 3\)"):
        solve_h8(13, 5, 21)
    with pytest.raises(ValueError, match="prime discriminant"):
        solve_h8(12, 5, 917)
    with pytest.raises(ValueError, match="positive product"):
        solve_h8(13, 5, -917)
    with pytest.raises(ValueError, match="two negative"):
        solve_h8(13, 5, 105)


def test_mu_element_validation():
    good = QuadUnit(5, 4, 2, -1)
    with pytest.raises(ValueError, match="x3"):
        MuElement(4, 15, 2, good, (13, 5, 917))
    with pytest.raises(ValueError, match="primitive"):
        MuElement(8, 30, 2, good, (13, 5, 917))
    with pytest.raises(ValueError, match="norm -1"):
        MuElement(4, 15, 1, QuadUnit(5, 18, 8, 1), (13, 5, 917))
    with pytest.raises(ValueError, match="wrong field"):
        MuElement(4, 15, 1, QuadUnit(8, 2, 1, -1), (13, 5, 917))


@pytest.mark.parametrize("lo", range(0, 100_000, 20_000))
def test_splitting_conics_are_solvable(lo):
    """Every Kronecker-admissible splitting yields a solvable conic.

    This is the implicit solvability claim behind the alpha construction;
    any failure is collected and reported rather than skipped.
    """
    failures = []
    for n in range(max(lo, 5), lo + 20_000):
        for d in (n, -n):
            if d % 4 not in (0, 1):
                continue
            try:
                splits = c4_splittings(d)
            except NotFundamentalError:
                continue
            for s in splits:
                try:
                    solve_conic(s.delta1, s.delta2)
                except (ProvablyInsolubleError, NoSolutionWithinBoundError) as e:
                    failures.append((d, s.delta1, s.delta2, str(e)))
    assert not failures, f"unsolvable splitting conics: {failures[:10]}"
