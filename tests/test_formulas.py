"""Formula calculator tests: all values are exact rational identities."""

from fractions import Fraction

import pytest

from quadtower.formulas import (
    AmbiguousInput,
    ELL_BY_TYPE,
    MainChainResult,
    ambiguous_number,
    main_chain,
)
from quadtower.units import multiquadratic_h2


def test_kuroda_quartic_over_q():
    # Kuroda over Q: h2 = 1/4 * q * product of the three quadratic class numbers
    assert multiquadratic_h2((1, 2, 1), 2, 4) == 1


def test_kuroda_minimal_instance():
    # q = 1 with trivial quadratic parts gives h2 = 1/4, which no field has
    with pytest.raises(ValueError, match="inconsistent inputs"):
        multiquadratic_h2((1, 1, 1), 1, 4)


def test_ambiguous_number_instances():
    assert ambiguous_number(AmbiguousInput(1, 0, 1)) == 1
    assert ambiguous_number(AmbiguousInput(4, 2, 4)) == 8
    assert ambiguous_number(AmbiguousInput(3, 2, 4)) == 4
    assert ambiguous_number(AmbiguousInput(1, 2, 4)) == 1


def test_ambiguous_number_consistency():
    with pytest.raises(ValueError, match="does not divide"):
        ambiguous_number(AmbiguousInput(1, 0, 2))
    with pytest.raises(ValueError, match="ramify"):
        AmbiguousInput(0, 0, 1)
    with pytest.raises(ValueError, match="power of 2"):
        AmbiguousInput(2, 0, 3)


def test_ambiguous_number_is_power_of_two():
    for t_fin in range(0, 6):
        for t_inf in range(0, 3):
            if t_fin + t_inf < 1:
                continue
            for e in range(0, t_fin + t_inf):
                n = ambiguous_number(AmbiguousInput(t_fin, t_inf, 2**e))
                assert n >= 1 and n & (n - 1) == 0


def test_main_chain_pins():
    assert main_chain("Qg", 2) == MainChainResult(Fraction(1, 2), "inconclusive")
    assert main_chain("D", 4) == MainChainResult(Fraction(2), "length >= 3")
    assert main_chain("S", 1) == MainChainResult(Fraction(1, 8), "inconclusive")


def test_main_chain_type_independent():
    # the two Kuroda steps carry ell and 1/(8 ell); the product is 1/8
    for ell in set(ELL_BY_TYPE.values()):
        assert ell * Fraction(1, 8) / ell == Fraction(1, 8)
    for h in (1, 2, 4, 8, 16):
        ratios = {main_chain(t, h).ratio for t in ("Qg", "D", "S")}
        assert ratios == {Fraction(h * h, 8)}


def test_main_chain_validation():
    with pytest.raises(ValueError, match="unknown Galois type"):
        main_chain("V4", 2)
    with pytest.raises(ValueError, match="positive"):
        main_chain("D", 0)

