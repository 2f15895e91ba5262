"""Oracle tests for the exact integer layer."""

import copy
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quadtower import arith
from quadtower.arith import (
    DEFAULT_FACTOR_BOUND,
    SIEVE_MIN_WIDTH,
    BoundExceededError,
    NotFundamentalError,
    factor_discriminant,
    factorize,
    is_fundamental_discriminant,
    is_prime,
    is_prime_discriminant,
    is_sum_of_two_squares,
    kronecker,
    sieve_factors,
    squarefree_kernel,
)


def _primes_below(n):
    sieve = bytearray([1]) * n
    sieve[:2] = b"\x00\x00"
    for p in range(2, int(n**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [p for p in range(n) if sieve[p]]


def test_is_prime_against_sieve():
    sieve = set(_primes_below(20000))
    for n in range(20000):
        assert is_prime(n) == (n in sieve)


def test_kronecker_matches_euler_criterion_for_odd_primes():
    # oracle: Legendre symbol via Euler's criterion, all odd primes < 1000
    for p in _primes_below(1000):
        if p == 2:
            continue
        for a in range(-2 * p, 2 * p):
            want = pow(a % p, (p - 1) // 2, p) if a % p else 0
            if want == p - 1:
                want = -1
            assert kronecker(a, p) == want, (a, p)


def test_kronecker_at_two_and_negative_n():
    # (a/2) by residue of a mod 8; (a/-1) by sign of a
    for a in range(-100, 100):
        if a % 2 == 0:
            assert kronecker(a, 2) == 0
        elif a % 8 in (1, 7):
            assert kronecker(a, 2) == 1
        else:
            assert kronecker(a, 2) == -1
    for a in range(1, 50):
        assert kronecker(a, -1) == 1
        assert kronecker(-a, -1) == -1


def test_kronecker_multiplicative_in_both_arguments():
    vals = [-15, -8, -5, -3, -1, 1, 2, 3, 5, 7, 12, 17]
    for a in vals:
        for b in vals:
            for n in range(1, 40):
                assert kronecker(a * b, n) == kronecker(a, n) * kronecker(b, n)
    for n in vals:
        for m in vals:
            for a in range(-20, 20):
                assert kronecker(a, n * m) == kronecker(a, n) * kronecker(a, m)


def test_kronecker_frozen_values():
    # pinned: symbols that drive the worked classifications downstream
    assert kronecker(17, 3) == -1
    assert kronecker(8, 17) == 1
    assert kronecker(-3, 47) == -1
    assert kronecker(-7, 31) == -1
    assert kronecker(-23, 2) == 1
    assert kronecker(-11, 2) == -1
    assert kronecker(5, 13) == -1
    assert kronecker(13, 131) == 1


def test_factorize_roundtrip_and_bound():
    for n in range(1, 5000):
        fac = factorize(n)
        prod = 1
        for p, e in fac.items():
            assert is_prime(p)
            prod *= p**e
        assert prod == n
    # two primes above the bound cannot be separated; the error names n
    with pytest.raises(BoundExceededError, match=f"^cannot factor {-1000003 * 1000033}: "):
        factorize(-1000003 * 1000033)
    # a single large prime cofactor is fine
    assert factorize(2 * 1000003) == {2: 1, 1000003: 1}


def test_squarefree_kernel_properties():
    for n in list(range(1, 3000)) + [-12, -45, -4, 360, 99]:
        k = squarefree_kernel(n)
        assert n % k == 0
        assert (n > 0) == (k > 0)
        q = n // k
        assert math.isqrt(q) ** 2 == q
        assert all(e == 1 for e in factorize(k).values())
    assert squarefree_kernel(-12) == -3
    assert squarefree_kernel(6) == 6
    assert squarefree_kernel(7) == 7


def _is_squarefree_by_trial(n):
    # trial division by every integer: a square factor shows as p dividing
    # twice, before any larger factor is reached
    n = abs(n)
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return False
        p += 1
    return True


def _is_fundamental_by_definition(d):
    # d = 1 mod 4 squarefree, or 4m with m = 2, 3 mod 4 squarefree
    if d in (0, 1):
        return False
    if d % 4 == 1:
        return _is_squarefree_by_trial(d)
    return d % 4 == 0 and d // 4 % 4 in (2, 3) and _is_squarefree_by_trial(d // 4)


def test_fundamental_discriminant_recognition():
    for d in range(-10**5 + 1, 10**5):
        assert is_fundamental_discriminant(d) == _is_fundamental_by_definition(d), d


def test_fundamental_discriminant_bound_failure_names_d():
    # the cofactor of 4m is composite with both primes above the bound
    d = 4 * 1000003 * 1000033
    with pytest.raises(BoundExceededError, match=f"^cannot factor {d}: "):
        is_fundamental_discriminant(d)


def test_prime_discriminants():
    assert is_prime_discriminant(-4)
    assert is_prime_discriminant(8)
    assert is_prime_discriminant(-8)
    assert is_prime_discriminant(5)
    assert is_prime_discriminant(-3)
    assert not is_prime_discriminant(3)
    assert not is_prime_discriminant(-5)
    assert not is_prime_discriminant(4)
    assert not is_prime_discriminant(12)
    assert not is_prime_discriminant(1)


def test_factor_discriminant_roundtrip():
    for d in range(-9999, 10000):
        if not _is_fundamental_by_definition(d):
            with pytest.raises(NotFundamentalError):
                factor_discriminant(d)
            continue
        parts = factor_discriminant(d)
        prod = 1
        for q in parts:
            assert is_prime_discriminant(q)
            prod *= q
        assert prod == d
        assert list(parts) == sorted(parts, key=abs)
        # prime discriminants are pairwise coprime
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                assert math.gcd(parts[i], parts[j]) in (1, 2)
                # only one even factor may occur
                assert abs(parts[i]) % 2 == 1 or abs(parts[j]) % 2 == 1


def _factor_discriminant_two_step(d):
    # the earlier path: the definition, then a factorization
    if not _is_fundamental_by_definition(d):
        raise NotFundamentalError(f"{d} is not a fundamental discriminant")
    parts = [p if p % 4 == 1 else -p for p in factorize(d) if p != 2]
    rest = d // math.prod(parts)
    if rest != 1:
        parts.append(rest)
    return tuple(sorted(parts, key=abs))


def _outcome(fn, d):
    try:
        return fn(d)
    except NotFundamentalError as e:
        return str(e)


def test_factor_discriminant_matches_two_step_path():
    for d in range(-20000, 20001):
        assert _outcome(factor_discriminant, d) == _outcome(
            _factor_discriminant_two_step, d
        ), d


@settings(max_examples=300, deadline=None)
@given(st.integers(-(10**9), 10**9))
def test_factor_discriminant_matches_two_step_path_large(d):
    assert _outcome(factor_discriminant, d) == _outcome(_factor_discriminant_two_step, d)


def _check_sieve(lo, hi):
    # oracle: trial division; the sieve leaves exactly the prime factors
    # above its limit in the cofactor
    limit = min(math.isqrt(hi - 1), DEFAULT_FACTOR_BOUND)
    entries = sieve_factors(lo, hi)
    assert len(entries) == hi - lo
    for n, (found, rest) in zip(range(lo, hi), entries):
        want = factorize(n)
        assert found == {p: e for p, e in want.items() if p <= limit}, n
        assert rest == math.prod(p**e for p, e in want.items() if p > limit), n


def test_sieve_matches_factorize_below_20000():
    # blocks of several widths, so that they start at many residues
    lo = 1
    for width in [SIEVE_MIN_WIDTH, 5, 17, 64, 999, 1000] * 4:
        _check_sieve(lo, lo + width)
        lo += width
    _check_sieve(lo, 20000)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10**9 - 400), st.integers(SIEVE_MIN_WIDTH, 400))
def test_sieve_matches_factorize_below_10_9(lo, width):
    _check_sieve(lo, lo + width)


def test_sieve_matches_factorize_below_10_12():
    # the limit is isqrt(10^12 - 1) = 999999: every prime below 10^6 sieves
    _check_sieve(10**12 - 120, 10**12)


def test_sieve_narrow_blocks_and_nonpositive_integers_get_none():
    assert sieve_factors(100, 100 + SIEVE_MIN_WIDTH - 1) == [None] * (SIEVE_MIN_WIDTH - 1)
    assert sieve_factors(9, 9) == sieve_factors(9, 3) == []
    assert sieve_factors(-3, 1) == [None] * 4
    entries = sieve_factors(-3, 30)
    assert entries[:4] == [None] * 4
    assert entries[4:] == sieve_factors(1, 30)
    assert sieve_factors(-10, -2) == [None] * 8


def test_factor_discriminant_from_sieve_matches_trial_division():
    lo, hi = 5, 20000
    for d, entry in zip(range(lo, hi), sieve_factors(lo, hi)):
        assert _outcome(lambda d: factor_discriminant(d, sieved=entry), d) == _outcome(
            factor_discriminant, d
        ), d
    # the entry is read, not consumed: 1005 = 3 * 5 * 67 leaves the
    # cofactor 67 above the limit isqrt(1008) = 31
    entry = sieve_factors(1005, 1009)[0]
    assert entry == ({3: 1, 5: 1}, 67)
    assert factor_discriminant(1005, sieved=entry) == (-3, 5, -67)
    assert factor_discriminant(1005, sieved=entry) == (-3, 5, -67)


@pytest.mark.parametrize("lo, hi", [(5, 1005), (2000000, 2001000)])
def test_factor_discriminant_never_changes_a_sieve_entry(lo, hi):
    # every d, even ones among them, against trial division; the entry is
    # read in place, so it must come back as it went in
    for d, entry in zip(range(lo, hi), sieve_factors(lo, hi)):
        before = copy.deepcopy(entry)
        got = _outcome(lambda d: factor_discriminant(d, sieved=entry), d)
        assert entry == before, d
        assert got == _outcome(factor_discriminant, d), d


def test_factor_discriminant_from_sieve_checks_the_bound():
    # 5000210000585 = 5 * 1000042000117: the sieve stops at 10^6 and leaves
    # a composite cofactor, which only factor_discriminant rejects
    lo = 5000210000580
    entries = sieve_factors(lo, lo + 10)
    assert entries[5] == ({5: 1}, 1000042000117)
    message = (
        "cannot factor 5000210000585: cofactor 1000042000117 is composite "
        "with all prime factors > 1000000"
    )
    with pytest.raises(BoundExceededError) as trial:
        factor_discriminant(lo + 5)
    with pytest.raises(BoundExceededError) as sieved:
        factor_discriminant(lo + 5, sieved=entries[5])
    assert str(trial.value) == str(sieved.value) == message
    assert factor_discriminant(lo + 1, sieved=entries[1]) == factor_discriminant(lo + 1)


def test_sieve_primes_grow_only_as_far_as_a_block_needs():
    # a fresh interpreter: importing builds no table, and a block near 2 * 10^6
    # needs the primes up to isqrt(hi - 1) = 1414 only
    code = (
        "import quadtower.cli\n"
        "from quadtower import arith\n"
        "assert arith._sieve_primes == (1, []), arith._sieve_primes[0]\n"
        "arith.sieve_factors(2000000, 2000250)\n"
        "covered, primes = arith._sieve_primes\n"
        "assert covered == 1414 and primes[-1] == 1409, covered\n"
        "arith.sieve_factors(2000250, 2000500)\n"
        "assert arith._sieve_primes[0] == 1414\n"
        "arith.sieve_factors(10**6, 10**6 + 1000)\n"
        "assert arith._sieve_primes[0] == 1414\n"
        "arith.sieve_factors(3000000, 3000250)\n"
        "assert arith._sieve_primes[0] == 2828\n"
    )
    src = str(Path(arith.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          env={**os.environ, "PYTHONPATH": src}, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_factor_discriminant_worked_examples():
    assert factor_discriminant(19176) == (-3, 8, 17, -47)
    assert factor_discriminant(8540) == (-4, 5, -7, 61)
    assert factor_discriminant(6072) == (-3, -8, -11, -23)
    assert factor_discriminant(27993) == (-3, -7, -31, -43)


def test_is_sum_of_two_squares_brute():
    def brute(n):
        return any(
            math.isqrt(n - x * x) ** 2 == n - x * x
            for x in range(math.isqrt(n) + 1)
        )

    for n in range(0, 2000):
        assert is_sum_of_two_squares(n) == brute(n), n
    assert not is_sum_of_two_squares(-5)


def _sum_of_two_squares_by_factors(d):
    # the rule classify uses: every prime discriminant of d is positive
    return all(q > 0 for q in factor_discriminant(d))


def test_sum_of_two_squares_read_off_factors():
    for d in range(5, 10**5):
        if is_fundamental_discriminant(d):
            assert is_sum_of_two_squares(d) == _sum_of_two_squares_by_factors(d), d


@settings(max_examples=300, deadline=None)
@given(st.integers(5, 10**9 - 1))
def test_sum_of_two_squares_read_off_factors_large(d):
    assume(is_fundamental_discriminant(d))
    assert is_sum_of_two_squares(d) == _sum_of_two_squares_by_factors(d)

