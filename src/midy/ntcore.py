"""Exact integer arithmetic: primality, factorization, orders, valuations, lifting.

Everything here works on arbitrary-precision ints and is a pure function of its
arguments; the lru caches are transparent (idempotent, safe under races).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt, prod


class MidyError(ValueError):
    """Raised when an operation's precondition fails or a verification step trips."""


# ---------------------------------------------------------------------------
# primality and prime generation

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Miller-Rabin with the first twelve prime bases is deterministic below this
# bound, the least strong pseudoprime to all twelve (399165290221 * 798330580441).
_MR_DETERMINISTIC_BOUND = 318_665_857_834_031_151_167_461


def primes_upto(limit: int) -> list[int]:
    """All primes <= limit, by a byte sieve."""
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    return [i for i, flag in enumerate(sieve) if flag]


def _miller_rabin(n: int, bases) -> bool:
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        a %= n
        if a == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_prime(n: int) -> bool:
    """Primality test: deterministic below ~3.2e23, strong probable prime beyond."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < 41 * 41:
        return True
    bases = _MR_BASES
    if n >= _MR_DETERMINISTIC_BOUND:
        import random

        rng = random.Random(n)
        bases = _MR_BASES + tuple(rng.randrange(2, n - 1) for _ in range(24))
    return _miller_rabin(n, bases)


_SMALL_PRIMES = tuple(primes_upto(10_000))
# trial division tests one gcd per run of 32 small primes against the run's product
_SMALL_RUNS = tuple(
    (_SMALL_PRIMES[i : i + 32], prod(_SMALL_PRIMES[i : i + 32]))
    for i in range(0, len(_SMALL_PRIMES), 32)
)


# ---------------------------------------------------------------------------
# factorization

def _pollard_brent(n: int) -> int:
    """A nontrivial factor of an odd composite n (Brent's cycle method).

    The polynomial offsets c are tried in a fixed order, so the result is
    deterministic.
    """
    for c in range(1, 2000):
        y, r, q = 2, 1, 1
        g = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise MidyError(f"factor search failed for {n}")  # pragma: no cover


@lru_cache(maxsize=1 << 16)
def _factor_pairs(n: int) -> tuple[tuple[int, int], ...]:
    counts: dict[int, int] = {}
    for run, product in _SMALL_RUNS:
        if run[0] * run[0] > n:  # every smaller prime is gone, so n is 1 or prime
            if n > 1:
                counts[n] = 1
            break
        g = gcd(n, product)
        if g == 1:
            continue
        for p in run:
            if g % p == 0:
                while n % p == 0:
                    counts[p] = counts.get(p, 0) + 1
                    n //= p
    else:  # every run was tried: n is 1 or a product of primes above 10**4
        stack = [n] if n > 1 else []
        while stack:
            m = stack.pop()
            if is_prime(m):
                counts[m] = counts.get(m, 0) + 1
                continue
            d = _pollard_brent(m)
            stack.append(d)
            stack.append(m // d)
    return tuple(sorted(counts.items()))


@dataclass(frozen=True)
class Factorization:
    """A positive integer with its prime factorization, primes ascending."""

    value: int
    factors: tuple[tuple[int, int], ...]

    def divisors(self) -> tuple[int, ...]:
        out = [1]
        for p, e in self.factors:
            out += [d * p**i for i in range(1, e + 1) for d in out]
        return tuple(sorted(out))


def factorize(n: int) -> Factorization:
    """Prime factorization of n >= 1 (empty factor list for n = 1)."""
    if n < 1:
        raise MidyError(f"cannot factor {n}: need a positive integer")
    return Factorization(n, _factor_pairs(n))


def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n, ascending."""
    return factorize(n).divisors()


# ---------------------------------------------------------------------------
# valuations

def _nu_int(p: int, n: int) -> int:
    # valuation without the primality check; p >= 2, n >= 1
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def nu(p: int, n: int) -> int:
    """Exponent of the prime p in n."""
    if not is_prime(p):
        raise MidyError(f"{p} is not prime")
    if n < 1:
        raise MidyError(f"valuation needs a positive integer, got {n}")
    return _nu_int(p, n)


# ---------------------------------------------------------------------------
# multiplicative order and its lifting to prime powers

def _descend(b: int, n: int, e: int, e_pairs) -> int:
    """Least divisor o of e with b**o = 1 (mod n), stripping the primes of e.

    The caller guarantees b**e = 1 (mod n) and passes e's factor pairs, so the
    result is the order of b modulo n and nothing is factored here.
    """
    if n == 1:
        return 1
    for q, _ in e_pairs:
        while e % q == 0 and pow(b, e // q, n) == 1:
            e //= q
    return e


def _prime_power_orders(b: int, n: int):
    """(e, e's factor pairs, [(p, nu_p(n), ord_p(b)) per prime p of n]), e = ord_n(b).

    e is the lcm of the orders modulo the prime powers p**a of n.  Each is
    ord_p(b), found by descent from p - 1, times the least power of p that
    brings b to 1 modulo p**a.  So only n and each p - 1 are factored, and e
    comes out factored.  The caller guarantees gcd(b, n) == 1.
    """
    exps: dict[int, int] = {}
    orders = []
    for p, a in _factor_pairs(n):
        if p == 2:
            o, o_pairs = 1, []
        else:
            p1_pairs = _factor_pairs(p - 1)
            o = _descend(b, p, p - 1, p1_pairs)
            o_pairs = [(q, _nu_int(q, o)) for q, _ in p1_pairs if o % q == 0]
        orders.append((p, a, o))
        if a > 1:  # each step of the lift raises the order mod p**a by one p
            mod = p**a
            x = pow(b, o, mod)
            lift = 0
            while x != 1:
                x = pow(x, p, mod)
                lift += 1
            o_pairs.append((p, lift))
        for q, k in o_pairs:
            if k > exps.get(q, 0):
                exps[q] = k
    e_pairs = tuple(sorted(exps.items()))
    return prod(q**k for q, k in e_pairs), e_pairs, orders


@lru_cache(maxsize=1 << 16)
def _order_int(b: int, n: int) -> int:
    # least e >= 1 with b**e = 1 (mod n); caller guarantees gcd(b, n) == 1
    return _prime_power_orders(b, n)[0]


def _check_base(b: int) -> None:
    if b < 2:
        raise MidyError(f"base must be >= 2, got {b}")


def _check_pair(b: int, n: int) -> None:
    _check_base(b)
    if n < 2:
        raise MidyError(f"modulus must be >= 2, got {n}")
    if gcd(b, n) != 1:
        raise MidyError(f"base {b} and modulus {n} are not coprime")


def _checked_k(e: int, d: int) -> int:
    """The block length k = e // d, once d is known to be a divisor >= 2 of e."""
    if d < 2 or e % d:
        raise MidyError(f"d must be a divisor >= 2 of the period length {e}, got {d}")
    return e // d


def multiplicative_order(b: int, n: int) -> int:
    """Least e with b**e = 1 (mod n): the lcm of the orders modulo the prime powers of n.

    Each prime p of n contributes ord_p(b), by descent from p - 1, lifted to
    the full power of p in n, so only n and each p - 1 are factored.
    """
    _check_pair(b, n)
    return _order_int(b, n)


def _check_odd_prime(b: int, p: int, t: int = 1) -> None:
    _check_base(b)
    if p == 2 or not is_prime(p):
        raise MidyError(f"{p} must be an odd prime")
    if b % p == 0:
        raise MidyError(f"{p} divides the base {b}")
    if t < 1:
        raise MidyError(f"exponent must be >= 1, got {t}")


def wieferich_level(b: int, p: int) -> int:
    """Largest m with b**ord = 1 (mod p**m), where ord is the order of b mod p.

    Tests successive prime powers modularly; the value b**ord - 1 itself is
    never materialized.  Almost always 1; a level above _MAX_LEVEL = 64 raises.
    """
    _check_odd_prime(b, p)
    return _lifting_level(b, p, _order_int(b, p))


_MAX_LEVEL = 64


def _lifting_level(b: int, p: int, o: int) -> int:
    # wieferich_level for an odd prime p whose order o of b is already known
    m = 1
    mod = p * p
    while pow(b, o, mod) == 1:
        m += 1
        if m > _MAX_LEVEL:
            raise MidyError(
                f"lifting level of base {b} at prime {p} exceeds the cap {_MAX_LEVEL}"
            )
        mod *= p
    return m


def lifted_order(b: int, p: int, t: int) -> int:
    """Order of b modulo p**t by the closed lifting form.

    Equals the order mod p while t stays at or below the lifting level m, and
    grows by a factor p for each step beyond it.
    """
    _check_odd_prime(b, p, t)
    return _lifted(b, p, t)[2]


def _lifted(b: int, p: int, t: int) -> tuple[int, int, int]:
    # (order o mod p, lifting level m, lifted_order) for an odd prime p already checked
    o = _order_int(b, p)
    m = _lifting_level(b, p, o)
    return o, m, o if t <= m else p ** (t - m) * o
