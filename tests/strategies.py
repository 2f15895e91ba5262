"""Hypothesis strategies shared by several test modules."""

import math

from hypothesis import assume
from hypothesis import strategies as st

from quadtower.arith import is_prime_discriminant, prime_of

PRIME_DISCS = [q for q in range(-20000, 20000) if is_prime_discriminant(q)]


@st.composite
def four_factor_discriminants(draw, below=10**6):
    """Four prime discriminants of distinct primes, the first negative, whose
    product is positive and below `below`, in draw order."""
    qs = []
    for pool in ([q for q in PRIME_DISCS if -60 <= q < 0],) + 2 * (
        [q for q in PRIME_DISCS if abs(q) <= 60],
    ):
        primes = {prime_of(q) for q in qs}
        qs.append(draw(st.sampled_from([q for q in pool if prime_of(q) not in primes])))
    sign = 1 if math.prod(qs) > 0 else -1
    room = (below - 1) // abs(math.prod(qs))
    primes = {prime_of(q) for q in qs}
    last = [q for q in PRIME_DISCS
            if q * sign > 0 and abs(q) <= room and prime_of(q) not in primes]
    assume(last)
    return qs + [draw(st.sampled_from(last))]
