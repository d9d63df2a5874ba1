import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from midy import ntcore
from midy.ntcore import (
    _SMALL_RUNS,
    MidyError,
    _factor_pairs,
    _order_int,
    _prime_power_orders,
    divisors,
    factorize,
    is_prime,
    lifted_order,
    multiplicative_order,
    nu,
    primes_upto,
    wieferich_level,
)
from midy.verify import sweep_order_lift


def brute_order(b, n):
    e, x = 1, b % n
    while x != 1:
        x = x * b % n
        e += 1
    return e


def brute_factor(n):
    out = []
    p = 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


# ---------------------------------------------------------------------------
# primality / sieve

def test_primes_upto_matches_trial_division():
    naive = [n for n in range(2, 500) if all(n % f for f in range(2, n))]
    assert primes_upto(499) == naive
    assert primes_upto(1) == primes_upto(-5) == []


def test_is_prime_small_range():
    marked = set(primes_upto(10_000))
    for n in range(-3, 10_000):
        assert is_prime(n) == (n in marked)


def test_is_prime_larger_samples():
    assert is_prime(9901)
    assert is_prime(56598313)
    assert is_prime(2**61 - 1)
    assert not is_prime(2**67 - 1)  # 193707721 * 761838257287
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7


# ---------------------------------------------------------------------------
# factorize

def test_factorize_examples():
    assert factorize(1).factors == ()
    assert factorize(1316833).factors == ((7, 1), (19, 1), (9901, 1))
    assert factorize(49).factors == ((7, 2),)


def test_factorize_rejects_nonpositive():
    with pytest.raises(MidyError):
        factorize(0)
    with pytest.raises(MidyError):
        factorize(-6)


def test_factorize_reconstructs_small():
    for n in range(1, 3000):
        fac = factorize(n)
        prod = 1
        for p, e in fac.factors:
            prod *= p**e
        assert prod == n
        assert fac.factors == brute_factor(n)


def test_factorize_reconstructs_blocks():
    spans = [range(10**5 - 2000, 10**5 + 1), range(10**6 - 500, 10**6 + 1)]
    for span in spans:
        for n in span:
            fac = factorize(n)
            prod = 1
            prev = 1
            for p, e in fac.factors:
                assert p > prev and e >= 1 and is_prime(p)
                prev = p
                prod *= p**e
            assert prod == n


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=10**12))
def test_factorize_reconstructs_random(n):
    fac = factorize(n)
    prod = 1
    prev = 1
    for p, e in fac.factors:
        assert p > prev and e >= 1 and is_prime(p)
        prev = p
        prod *= p**e
    assert prod == n


def test_factor_pairs_takes_roots_of_perfect_powers(monkeypatch):
    # rho on p**j walks about sqrt(p) steps, hours for p = 2**61 - 1; a root
    # test splits the power first, also when it is left over after rho
    p = 2**61 - 1
    powers = {p**2, p**3}

    def guarded(m, _inner=ntcore._pollard_brent):
        if m in powers:
            raise AssertionError(f"Brent rho called on the perfect power {m}")
        return _inner(m)

    ntcore._factor_pairs.cache_clear()  # so a cached entry cannot bypass the guard
    monkeypatch.setattr(ntcore, "_pollard_brent", guarded)
    assert factorize(p**2).factors == ((p, 2),)
    assert factorize(p**3).factors == ((p, 3),)
    assert factorize(10007 * p**2).factors == ((10007, 1), (p, 2))
    assert factorize(10007**6 * p**4).factors == ((10007, 6), (p, 4))
    ntcore._factor_pairs.cache_clear()


def test_integer_root_is_the_floor():
    rng = random.Random(24)
    for _ in range(300):
        m = rng.randrange(1, 1 << rng.randrange(1, 3000))  # floats overflow past 1,024 bits
        j = rng.randrange(2, 40)
        r = ntcore._iroot(m, j)
        assert r**j <= m < (r + 1) ** j, (m, j)
    assert ntcore._perfect_power(10007**5) == (10007, 5)
    assert ntcore._perfect_power(10007**2 * 10009) == (10007**2 * 10009, 1)


def test_divisors():
    assert divisors(1) == (1,)
    assert divisors(36) == (1, 2, 3, 4, 6, 9, 12, 18, 36)
    assert factorize(42).divisors() == (1, 2, 3, 6, 7, 14, 21, 42)


# ---------------------------------------------------------------------------
# nu

def test_nu_examples():
    assert nu(3, 9) == 2
    assert nu(3, 10**1 - 1) == 2
    assert nu(7, 1316833) == 1
    assert nu(5, 7) == 0
    assert nu(2, 1) == 0


def test_nu_rejects_nonprime_p():
    with pytest.raises(MidyError):
        nu(4, 8)
    with pytest.raises(MidyError):
        nu(1, 5)


def test_nu_rejects_nonpositive_n():
    with pytest.raises(MidyError) as exc:
        nu(3, 0)
    assert str(exc.value) == "valuation needs a positive integer, got 0"


def test_nu_against_division_oracle():
    for p in (2, 3, 7, 19):
        for n in range(1, 400):
            e = 0
            m = n
            while m % p == 0:
                m //= p
                e += 1
            assert nu(p, n) == e


# ---------------------------------------------------------------------------
# multiplicative order

def test_order_examples():
    assert multiplicative_order(10, 13) == 6
    assert multiplicative_order(10, 49) == 42
    assert multiplicative_order(10, 1316833) == 36


def test_order_rejects_shared_factor():
    with pytest.raises(MidyError):
        multiplicative_order(10, 14)
    with pytest.raises(MidyError):
        multiplicative_order(10, 1)


def test_order_matches_brute_force():
    from math import gcd

    for b in range(2, 13):
        for n in range(2, 250):
            if gcd(b, n) == 1:
                assert multiplicative_order(b, n) == brute_order(b, n)


def test_order_minimality_sweep():
    # b**e = 1 and stripping any single prime of e breaks the congruence, for
    # the order modulo n and for each prime's order; the lift cases carry
    # orders past the lifting level, so no brute-force walk is needed for them
    cases = [(b, n) for b in range(2, 13) for n in range(2, 2001) if gcd(b, n) == 1]
    for b, n in [*cases, *LIFTING_CASES]:
        e, e_pairs, orders = _prime_power_orders(b, n)
        assert e == multiplicative_order(b, n)
        assert e_pairs == factorize(e).factors, (b, n)
        for m, o in [(n, e), *((p, o) for p, _, o in orders)]:
            assert pow(b, o, m) == 1, (b, n, m)
            for q, _ in factorize(o).factors:
                assert pow(b, o // q, m) != 1, (b, n, m, q)


# ---------------------------------------------------------------------------
# wieferich level and order lifting

def test_wieferich_examples():
    assert wieferich_level(10, 3) == 2
    assert wieferich_level(10, 487) == 2
    assert wieferich_level(68, 113) == 3
    assert wieferich_level(42, 23) == 3
    assert wieferich_level(10, 7) == 1


def test_wieferich_rejects_bad_args():
    with pytest.raises(MidyError):
        wieferich_level(10, 2)
    with pytest.raises(MidyError):
        wieferich_level(10, 5)
    with pytest.raises(MidyError):
        wieferich_level(10, 9)


def test_wieferich_cap():
    # 1 + 3**m has lifting level exactly m at 3; levels above 64 raise
    assert wieferich_level(1 + 3**63, 3) == 63
    assert wieferich_level(1 + 3**64, 3) == 64
    with pytest.raises(MidyError, match="exceeds the cap 64"):
        wieferich_level(1 + 3**65, 3)


def test_wieferich_mostly_one():
    count_above = 0
    for p in primes_upto(500):
        if p in (2, 5):
            continue
        level = wieferich_level(10, p)
        assert level >= 1
        if level > 1:
            count_above += 1
            assert p in (3, 487)
    assert count_above == 2  # exactly 3 and 487 below 500


def test_lifted_order_examples():
    assert lifted_order(68, 113, 3) == multiplicative_order(68, 113)
    assert lifted_order(42, 23, 3) == multiplicative_order(42, 23)
    assert lifted_order(10, 3, 1) == 1
    assert lifted_order(10, 3, 5) == 27


def test_lifted_order_matches_direct():
    for b in (2, 10):
        report = sweep_order_lift(b, 500, 4)
        assert report.passed, report.failures[:5]


def test_lifted_order_rejects_bad_args():
    with pytest.raises(MidyError):
        lifted_order(10, 2, 3)
    with pytest.raises(MidyError):
        lifted_order(10, 3, 0)


# ---------------------------------------------------------------------------
# differential checks against sympy

# the least strong pseudoprime to the first t prime bases, t = 1..13 (t = 7, 8
# and t = 9, 10, 11 share a value); the last two sit at and above the bound
# where the twelve fixed bases stop being enough
STRONG_PSEUDOPRIMES = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
)


def test_is_prime_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random("is_prime-vs-sympy")
    for _ in range(100):
        digits = rng.randint(20, 40)
        n = rng.randrange(10 ** (digits - 1), 10**digits) | 1
        assert is_prime(n) == sympy.isprime(n), n
        p = sympy.nextprime(n)
        assert is_prime(p), p
        q = sympy.nextprime(rng.randrange(10**9, 10**10))
        assert not is_prime(p * q), (p, q)
    for n in STRONG_PSEUDOPRIMES:
        assert not sympy.isprime(n)
        assert not is_prime(n), n


def test_multiplicative_order_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random("order-vs-sympy")
    primes = primes_upto(1_000_000)
    for _ in range(150):
        n = 1
        for _ in range(rng.randint(1, 3)):
            n *= rng.choice(primes) ** rng.choice((1, 1, 1, 2))
        if n < 2:
            continue
        b = rng.randrange(2, 10**6)
        while gcd(b, n) != 1:
            b += 1
        assert multiplicative_order(b, n) == sympy.n_order(b, n), (b, n)


# (b, n) whose order lifts past a prime: Wieferich primes of bases 2, 3 and
# 10 (1093, 3511, 11, 487) and powers of 2
LIFTING_CASES = (
    (2, 1093**2),
    (2, 1093**3 * 5),
    (2, 3511**2 * 7),
    (3, 11**2),
    (3, 11**4 * 13),
    (10, 487**2),
    (10, 487**3 * 3**5),
    (3, 2**20),
    (7, 3 * 2**30),
    (5, 2**12),
)


def test_prime_power_orders_match_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random("prime-power-orders-vs-sympy")
    seeded = []
    for _ in range(300):
        n = rng.randrange(10**9 - 10**6, 10**9 + 10**6)
        b = rng.randrange(2, 10**6)
        while gcd(b, n) != 1:
            b += 1
        seeded.append((b, n))
    for b, n in [*LIFTING_CASES, *seeded]:
        e, e_pairs, orders = _prime_power_orders(b, n)
        assert e == sympy.n_order(b, n) == multiplicative_order(b, n), (b, n)
        assert e_pairs == tuple(sorted(sympy.factorint(e).items())), (b, n)
        expected = [(p, a, sympy.n_order(b, p)) for p, a in sorted(sympy.factorint(n).items())]
        assert orders == expected, (b, n)


def test_factorize_matches_sympy():
    # every n below 10**18 has at most one prime factor above 10**9, so rho
    # never splits more than a 30-bit prime off; the edge cases sit on the
    # boundaries of the trial-division runs and past the last small prime
    sympy = pytest.importorskip("sympy")
    rng = random.Random("factorize-vs-sympy")
    boundaries = [a[-1] * b[0] for (a, _), (b, _) in zip(_SMALL_RUNS, _SMALL_RUNS[1:])]
    whole_runs = [product for _, product in _SMALL_RUNS]
    edges = [9973**2, 9973 * 10007, 10007**2, 2**60, 3**37]
    seeded = [rng.randrange(2, 10**18) for _ in range(300)]
    for n in [*range(1, 20_000), *boundaries, *whole_runs, *edges, *seeded]:
        assert factorize(n).factors == tuple(sorted(sympy.factorint(n).items())), n


def test_caches_are_bounded():
    for cached in (_factor_pairs, _order_int):
        assert cached.cache_info().maxsize is not None
