"""Exact integer arithmetic: Kronecker symbols, prime discriminants, squares.

Everything in this module is integer-exact; no floating point is used.
Factoring is plain trial division by the primes up to DEFAULT_FACTOR_BOUND,
which is all the desk-scale discriminants handled here require; a range of
consecutive integers is factored with one segmented sieve (`sieve_factors`)
that reads the same table of primes.

`NotFundamentalError` is a `PreconditionError`, the error of an input
outside the classified family: a candidate that is not a field discriminant
raises once, here, with the message that `classify` reports.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import compress, islice
import math

__all__ = [
    "BoundExceededError",
    "PreconditionError",
    "NotFundamentalError",
    "is_prime",
    "factorize",
    "sieve_factors",
    "is_square",
    "kronecker",
    "squarefree_kernel",
    "is_fundamental_discriminant",
    "radicand",
    "discriminant_of",
    "is_prime_discriminant",
    "prime_of",
    "factor_discriminant",
    "is_sum_of_two_squares",
]

DEFAULT_FACTOR_BOUND = 10**6


class BoundExceededError(RuntimeError):
    """A search loop or factoring pass hit its configured bound."""


class PreconditionError(ValueError):
    """The discriminant is outside the classified family."""


class NotFundamentalError(PreconditionError):
    """The integer is not the discriminant of a quadratic field."""


# Deterministic witness set for Miller-Rabin, valid for all n < 3.3 * 10^24,
# comfortably past 64 bits.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality test (Miller-Rabin, exact through 64 bits)."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Factor |n| by trial division by the primes up to
    min(isqrt(|n|), DEFAULT_FACTOR_BOUND); returns {prime: exponent}.

    After the trial pass the remaining cofactor must be 1 or prime.  A
    composite cofactor means every missing prime exceeds the bound, so we
    refuse to guess and raise BoundExceededError.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    rest = abs(n)
    out: dict[int, int] = {}
    for p in _primes_upto(min(math.isqrt(rest), DEFAULT_FACTOR_BOUND)):
        if p * p > rest:
            break
        while rest % p == 0:
            out[p] = out.get(p, 0) + 1
            rest //= p
    if rest > 1:
        if rest > DEFAULT_FACTOR_BOUND**2 and not is_prime(rest):
            raise _composite_cofactor(n, rest)
        out[rest] = 1
    return out


def _composite_cofactor(n: int, rest: int) -> BoundExceededError:
    """The bound failure for n, whose cofactor `rest` is not prime.  Dividing
    n by primes leaves a rest with no prime factor up to
    min(isqrt(rest), DEFAULT_FACTOR_BOUND): one up to DEFAULT_FACTOR_BOUND^2
    has no two factors, so is prime, and only a larger one can fail."""
    return BoundExceededError(
        f"cannot factor {n}: cofactor {rest} is composite with all "
        f"prime factors > {DEFAULT_FACTOR_BOUND}"
    )


# (limit, the primes up to limit): a cache that only grows, so every caller
# in the process may share it
_sieve_primes: tuple[int, list[int]] = (1, [])


def _primes_upto(limit: int) -> islice[int]:
    """The primes up to limit, ascending, read off the cached table without
    a copy; the table at least doubles whenever it is too short."""
    global _sieve_primes
    covered, primes = _sieve_primes
    if limit > covered:
        covered = max(limit, 2 * covered)
        odd = bytearray([1]) * ((covered + 1) // 2)  # odd[i] stands for 2i + 1
        odd[0] = 0
        for i in range(1, (math.isqrt(covered) + 1) // 2):
            if odd[i]:
                p = 2 * i + 1
                odd[p * p // 2::p] = bytes(len(range(p * p // 2, len(odd), p)))
        primes = [2, *compress(range(1, covered + 1, 2), odd)]
        _sieve_primes = covered, primes
    return islice(primes, bisect_right(primes, limit))


Sieved = tuple[dict[int, int], int]

# The pass over the sieving primes costs as much as trial division of 2 to
# 3.3 consecutive integers (measured from 10^5 to 10^12), whatever the range.
SIEVE_MIN_WIDTH = 4


def sieve_factors(lo: int, hi: int) -> list[Sieved | None]:
    """Divide every n in [lo, hi) by the primes up to
    min(isqrt(hi - 1), DEFAULT_FACTOR_BOUND).

    Entry n - lo is ({prime: exponent}, cofactor) for n >= 1 and None for
    n < 1.  The cofactor has no prime factor up to that limit; it is not
    checked here, so a bound failure surfaces only when the entry is handed
    to `factor_discriminant`.  A block of fewer than SIEVE_MIN_WIDTH
    integers gets None for every n: trial division of its few integers
    costs less than one pass over the sieving primes.
    """
    if lo < 1:
        return [None] * max(min(hi, 1) - lo, 0) + sieve_factors(1, hi)
    width = hi - lo
    if width < SIEVE_MIN_WIDTH:
        return [None] * max(width, 0)
    rest = list(range(lo, hi))
    found: list[dict[int, int]] = [{} for _ in rest]
    # the power of 2 in an even n is its lowest set bit, n & -n
    for i in range(lo % 2, width, 2):
        e = (rest[i] & -rest[i]).bit_length() - 1
        rest[i] >>= e
        found[i][2] = e
    primes = _primes_upto(min(math.isqrt(hi - 1), DEFAULT_FACTOR_BOUND))
    # most primes of a block high up divide none of its integers: skip those
    # with one remainder each before any loop over multiples
    for p in [p for p in primes if p > 2 and -lo % p < width]:
        for i in range(-lo % p, width, p):
            r = rest[i] // p
            e = 1
            while r % p == 0:
                r //= p
                e += 1
            rest[i] = r
            found[i][p] = e
    return list(zip(found, rest))


def is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a/n), defined for all integers, in {-1, 0, 1}."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    if a % 2 == 0 and n % 2 == 0:
        return 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    # strip twos from n; (a/2) = 0, +1, -1 for a even, a = ±1, a = ±3 mod 8
    while n % 2 == 0:
        n //= 2
        if a % 8 in (3, 5):
            result = -result
    a %= n
    # standard Jacobi loop with quadratic reciprocity
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def squarefree_kernel(n: int) -> int:
    """Largest squarefree divisor pattern: product of primes with odd exponent.

    The sign of n is preserved, e.g. squarefree_kernel(-12) == -3.
    """
    if n == 0:
        raise ValueError("squarefree kernel of 0 is undefined")
    kern = 1
    for p, e in factorize(n).items():
        if e % 2 == 1:
            kern *= p
    return kern if n > 0 else -kern


def is_fundamental_discriminant(d: int) -> bool:
    """True when d is the discriminant of a quadratic field (so d != 1)."""
    try:
        factor_discriminant(d)
    except NotFundamentalError:
        return False
    return True


def radicand(d: int) -> int:
    """Squarefree m with Q(sqrt(d)) = Q(sqrt(m)) for a fundamental d."""
    return d if d % 4 == 1 else d // 4


def discriminant_of(m: int) -> int:
    """Field discriminant of Q(sqrt(m)) for squarefree m != 0, 1."""
    return m if m % 4 == 1 else 4 * m


def is_prime_discriminant(d: int) -> bool:
    """True for -4, 8, -8 and (-1)^((p-1)/2) * p with p an odd prime."""
    if d in (-4, 8, -8):
        return True
    if d % 4 != 1 or abs(d) == 1:
        return False
    p = abs(d)
    if not is_prime(p):
        return False
    # the sign must make d = p for p = 1 mod 4 and d = -p for p = 3 mod 4
    return d == (p if p % 4 == 1 else -p)


def prime_of(d: int) -> int:
    """The rational prime dividing the prime discriminant d."""
    return 2 if d % 2 == 0 else abs(d)


def factor_discriminant(d: int, sieved: Sieved | None = None) -> tuple[int, ...]:
    """Split a fundamental discriminant into prime discriminants.

    The factorization d = d_1 * ... * d_t into prime discriminants is unique;
    factors are returned sorted by increasing |d_i|.  Raises
    NotFundamentalError when d is not a quadratic field discriminant.  The
    shape of d mod 16 is checked before any factoring.  `sieved`, the entry
    of d from `sieve_factors`, replaces the trial division of d: its dict is
    read in place, never copied or changed, and its cofactor is checked on
    its own.  Both leave a cofactor with no prime factor up to
    min(isqrt(cofactor), DEFAULT_FACTOR_BOUND), so they decide d alike and
    word a bound failure alike.
    """
    # d = 1 mod 4 squarefree, or d = 4m with m = 2, 3 mod 4 squarefree: the
    # shape d = 1 mod 4 or d = 8, 12 mod 16 is checked before any factoring
    if d == 1 or d % 4 != 1 and d % 16 not in (8, 12):
        raise NotFundamentalError(f"{d} is not a fundamental discriminant")
    if sieved is None:
        found, rest = factorize(d), 1
    else:
        found, rest = sieved
        if rest > DEFAULT_FACTOR_BOUND**2 and not is_prime(rest):
            raise _composite_cofactor(d, rest)
    # the shape fixed the power of 2; every odd prime must divide d once
    parts = []
    for p, e in found.items():
        if p != 2:
            if e > 1:
                raise NotFundamentalError(f"{d} is not a fundamental discriminant")
            parts.append(p if p % 4 == 1 else -p)
    if rest > 1:
        parts.append(rest if rest % 4 == 1 else -rest)
    even = d // math.prod(parts)
    if even != 1:  # the even prime discriminant
        assert even in (-4, 8, -8), f"invalid even part {even} of {d}"
        parts.append(even)
    parts.sort(key=abs)
    return tuple(parts)


def is_sum_of_two_squares(n: int) -> bool:
    """n = x^2 + y^2 solvable iff no prime = 3 mod 4 divides n to an odd power."""
    if n < 0:
        return False
    if n == 0:
        return True
    return all(p % 4 != 3 or e % 2 == 0 for p, e in factorize(n).items())

