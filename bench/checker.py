"""Independent checker for midy's answers.

Nothing here imports midy.  Membership of d in M_b(n) is decided from the
divisibility that defines it: with e = ord_n(b) and k = e // d, d is a member
when n divides (b**e - 1) / (b**k - 1) = sum_{i<d} b**(i*k), and that sum is
reduced mod n by doubling in O(log d) steps.  Prime factors of orders come
from sympy.  ``self_test`` checks the checker itself against worked sets and
against block sums read straight from the digits.
"""

from __future__ import annotations

from functools import cache
from math import gcd

from sympy import factorint, isprime, n_order


def geometric_sum_mod(c: int, d: int, n: int) -> int:
    """(1 + c + c**2 + ... + c**(d-1)) mod n, by doubling."""
    s, p = 0, 1  # s = sum of the first m powers, p = c**m, starting at m = 0
    for bit in bin(d)[2:]:
        s = s * (1 + p) % n
        p = p * p % n
        if bit == "1":
            s = (s + p) % n
            p = p * c % n
    return s


def is_member(n: int, b: int, e: int, d: int) -> bool:
    """Whether n divides sum_{i<d} b**(i*k), k = e // d."""
    return geometric_sum_mod(pow(b, e // d, n), d, n) == 0


@cache
def prime_factors(m: int) -> dict[int, int]:
    """{prime: exponent} of m >= 1, from sympy."""
    return factorint(m)


def nu(p: int, m: int) -> int:
    """Exponent of p in m >= 1."""
    a = 0
    while m % p == 0:
        m //= p
        a += 1
    return a


def divisors_from(factors: dict[int, int]) -> list[int]:
    out = [1]
    for p, a in factors.items():
        out = [x * p**i for x in out for i in range(a + 1)]
    return sorted(out)


def order_problems(b: int, n: int, e: int, factors: dict[int, int] | None = None) -> list[str]:
    """Empty when e = ord_n(b): b**e = 1 and b**(e/q) != 1 for every prime q of e."""
    if not isinstance(e, int) or e < 1:
        return [f"order of {b} mod {n} reported as {e!r}"]
    if factors is None:
        factors = prime_factors(e)
    if pow(b, e, n) != 1 % n:
        return [f"{b}**{e} is not 1 mod {n}"]
    for q in factors:
        if pow(b, e // q, n) == 1 % n:
            return [f"{b}**({e}/{q}) is 1 mod {n}, so {e} is not the order"]
    return []


def midy_members(n: int, b: int, e: int, factors: dict[int, int] | None = None) -> tuple[int, ...]:
    """M_b(n) from its definition, given e = ord_n(b)."""
    if factors is None:
        factors = prime_factors(e)
    return tuple(d for d in divisors_from(factors) if d >= 2 and is_member(n, b, e, d))


def set_problems(n: int, b: int, e: int, members, factors: dict[int, int] | None = None) -> list[str]:
    """Empty when e is the order and ``members`` is exactly M_b(n).

    Also checks the properties every Midy set has: upward closure along the
    divisors of e, and e itself in every nonempty set.
    """
    if factors is None:
        factors = prime_factors(e)
    problems = order_problems(b, n, e, factors)
    if problems:
        return problems
    members = tuple(members)
    want = midy_members(n, b, e, factors)
    if members != want:
        problems.append(f"M_{b}({n}) reported {members}, expected {want}")
    if members and members[-1] != e:
        problems.append(f"M_{b}({n}) = {members} is nonempty but lacks the order {e}")
    # closure under one more prime of e at a time gives closure in the lattice
    held = set(members)
    for d in members:
        for q in factors:
            if e % (d * q) == 0 and d * q not in held:
                problems.append(f"M_{b}({n}) holds {d} but not its multiple {d * q}")
    return problems


def verdict_problems(n: int, b: int, e: int, verdicts: dict[int, bool]) -> list[str]:
    """Empty when ``verdicts`` maps every divisor d >= 2 of e to its membership."""
    factors = prime_factors(e)
    want = {d: is_member(n, b, e, d) for d in divisors_from(factors) if d >= 2}
    if verdicts != want:
        wrong = sorted(d for d in set(want) | set(verdicts) if verdicts.get(d) != want.get(d))
        return [f"verdicts for n={n} b={b} differ from the definition at d in {wrong}"]
    return []


def certificate_problems(n: int, b: int, d: int, k: int, cert: dict) -> list[str]:
    """Empty when a non-membership certificate names a prime p with p**nu || n."""
    p, a = cert.get("prime"), cert.get("nu_modulus")
    if not isinstance(p, int) or not isinstance(a, int) or not isprime(p) or a < 1:
        return [f"certificate {cert} for n={n} d={d} names no prime power"]
    problems = []
    if nu(p, n) != a:
        problems.append(f"certificate prime {p} does not divide {n} exactly {a} times")
    nu_d = nu(p, d)
    if cert.get("nu_d") != nu_d:
        problems.append(f"certificate nu_d {cert.get('nu_d')} for p={p} d={d}, expected {nu_d}")
    if pow(b, k, p) != 1:
        problems.append(f"certificate prime {p} does not divide {b}**{k} - 1")
    return problems


# ---------------------------------------------------------------------------
# self-test

def digit_midy_set(n: int, b: int) -> tuple[int, ...]:
    """M_b(n) straight from the digits: every unit numerator, every block count."""
    e = n_order(b, n)
    expansions = []
    for x in range(1, n):
        if gcd(x, n) != 1:
            continue
        digits, r = [], x
        for _ in range(e):
            a, r = divmod(r * b, n)
            digits.append(a)
        expansions.append(digits)
    members = []
    for d in range(2, e + 1):
        if e % d:
            continue
        k = e // d
        ok = True
        for digits in expansions:
            total = 0
            for j in range(0, e, k):
                block = 0
                for a in digits[j : j + k]:
                    block = block * b + a
                total += block
            if total % (b**k - 1):
                ok = False
                break
        if ok:
            members.append(d)
    return tuple(members)


WORKED_SETS = (
    (13, 10, (2, 3, 6)),
    (49, 10, (2, 3, 6, 14, 21, 42)),
    (7 * 19 * 9901, 10, (4, 9, 12, 18, 36)),
    (4, 3, (2,)),  # the 2-adic case: one more factor of two than nu_2(d)
)


def self_test() -> list[str]:
    """Problems found when checking the checker; empty when it is sound."""
    problems = []
    for n, b, want in WORKED_SETS:
        e = n_order(b, n)
        got = midy_members(n, b, e)
        if got != want:
            problems.append(f"checker gives M_{b}({n}) = {got}, the worked set is {want}")
        if set_problems(n, b, e, want):
            problems.append(f"checker rejects the worked set M_{b}({n}) = {want}")
    for b in (2, 3, 10):
        for n in range(2, 61):
            if gcd(n, b) != 1:
                continue
            want = digit_midy_set(n, b)
            got = midy_members(n, b, n_order(b, n))
            if got != want:
                problems.append(f"checker gives M_{b}({n}) = {got}, the digits give {want}")
    # one flipped verdict must be caught, as a set and as a verdict map
    if not set_problems(13, 10, 6, (2, 6)):
        problems.append("checker accepts M_10(13) with the verdict for d=3 flipped")
    if not verdict_problems(13, 10, 6, {2: True, 3: False, 6: True}):
        problems.append("checker accepts verdicts for 13 in base 10 with d=3 flipped")
    return problems


if __name__ == "__main__":
    found = self_test()
    for line in found:
        print(line)
    print("checker self-test:", "FAILED" if found else "ok")
    raise SystemExit(1 if found else 0)
