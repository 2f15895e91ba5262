"""Analytic class number oracle shared by test modules.

Evaluates the classical class number formula for a fundamental discriminant
by direct character sums: exact rational arithmetic for d < 0, floating
point with generous tolerance for d > 0 (the regulator enters there).  This
is deliberately independent from the package: it shares no primitive with
it.  chi_d(p) is Euler's criterion for odd p and read off d mod 8 for p = 2.
"""

import math

_SIEVE_LIMIT = 10101
_SPF = list(range(_SIEVE_LIMIT))
for _p in range(2, math.isqrt(_SIEVE_LIMIT) + 1):
    if _SPF[_p] == _p:
        for _q in range(_p * _p, _SIEVE_LIMIT, _p):
            if _SPF[_q] == _q:
                _SPF[_q] = _p


def character_values(d: int) -> list[int]:
    """chi_d(a) for a = 0 .. |d|-1, built multiplicatively from primes."""
    n = abs(d)
    assert 1 < n < _SIEVE_LIMIT
    chi = [0] * n
    chi[1] = 1
    for a in range(2, n):
        p = _SPF[a]
        chi[a] = _prime_character(d, p) if a == p else chi[p] * chi[a // p]
    return chi


def _prime_character(d: int, p: int) -> int:
    """chi_d(p) for a prime p: Euler's criterion, and (d / 2) from d mod 8."""
    if p == 2:
        return 0 if d % 2 == 0 else 1 if d % 8 in (1, 7) else -1
    return 0 if d % p == 0 else 1 if pow(d, (p - 1) // 2, p) == 1 else -1


def _log_big(n: int) -> float:
    k = max(n.bit_length() - 512, 0)
    return math.log(n >> k) + k * math.log(2)


def log_fundamental_unit(u) -> float:
    """log of (x + y*sqrt(d))/2 without overflowing floats.

    64 fractional bits keep the radical accurate for tiny units like the
    golden ratio, where plain isqrt truncation would be way off.
    """
    k = 64
    num = (u.x << k) + math.isqrt((u.y * u.y * u.d) << (2 * k))
    return _log_big(num) - (k + 1) * math.log(2)


def analytic_class_number(d: int, log_eps: float | None = None) -> int:
    """Class number of the fundamental discriminant d (ordinary sense).

    d < 0: h = w * |sum chi(a) a| / (2|d|), exact integer arithmetic.
    d > 0: h = -sum chi(a) log sin(pi a / d) / (2 log eps); needs log_eps.
    """
    chi = character_values(d)
    if d < 0:
        w = 6 if d == -3 else 4 if d == -4 else 2
        total = sum(c * a for a, c in enumerate(chi))
        num = w * abs(total)
        assert num % (2 * abs(d)) == 0, f"non-integral class number for {d}"
        return num // (2 * abs(d))
    if log_eps is None:
        raise ValueError("d > 0 needs the regulator")
    # chi(d - a) = chi(a) and sin(pi (d - a) / d) = sin(pi a / d), and for
    # even d chi(d / 2) = 0, so the terms a < d / 2 give half the sum
    total = 0.0
    for a in range(1, (d + 1) // 2):
        if chi[a]:
            total += chi[a] * math.log(math.sin(math.pi * a / d))
    h = -total / log_eps
    rounded = round(h)
    assert abs(h - rounded) < 0.05, f"analytic value {h} too far from integer"
    assert rounded >= 1
    return rounded
