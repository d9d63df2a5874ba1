import random
from math import gcd, prod

import pytest

from midy import analyzer, constructor, ntcore
from midy.analyzer import midy_set
from midy.cli import main
from midy.constructor import (
    BRANCH_C_GE_S_PLUS_1,
    BRANCH_C_LT_Q_DIVIDES,
    BRANCH_C_LT_Q_NOT_DIVIDES,
    BRANCH_P_NOT_DIVIDING,
    BRANCH_Q2_C_EQ_S,
    BRANCH_Q2_C_GT_S,
    BRANCH_Q2_S_GT_C,
    minimal_shrink_multiplier,
    primitive_prime,
    shrink,
    shrink_step,
    vanish_threshold,
)
from midy.ntcore import MidyError, divisors, factorize, multiplicative_order, nu, primes_upto
from midy.period import oracle_midy_sweep
from reference import block_power_sum, rebind_everywhere


# ---------------------------------------------------------------------------
# primitive primes

def test_primitive_prime_exceptional_pairs():
    assert primitive_prime(2, 6) is None
    assert primitive_prime(3, 2) is None  # 3 + 1 = 2**2
    assert primitive_prime(7, 2) is None  # 7 + 1 = 2**3
    assert primitive_prime(15, 2) is None


def test_primitive_prime_smallest():
    # smallest prime with order 6 to base 10: 7 (10**6 = 1 mod 7, no smaller exponent)
    assert primitive_prime(10, 6) == 7
    assert multiplicative_order(10, 7) == 6
    assert primitive_prime(10, 2) == 11
    assert primitive_prime(10, 3) == 37
    assert primitive_prime(10, 7) == 239
    assert primitive_prime(2, 2) == 3
    assert primitive_prime(2, 11) == 23


def test_primitive_prime_rejects_bad_args(capsys):
    with pytest.raises(MidyError):
        primitive_prime(1, 3)
    with pytest.raises(MidyError):
        primitive_prime(10, 1)
    with pytest.raises(MidyError):
        primitive_prime(10, 6, method="guess")
    # the method is checked before the exceptional pairs return None
    for b, n in ((2, 6), (3, 2)):
        with pytest.raises(MidyError, match="unknown search method"):
            primitive_prime(b, n, method="guess")
    # so is the scan limit, which may be 0 (no scan) but not negative
    for b, n in ((10, 7), (2, 6)):
        with pytest.raises(MidyError) as exc:
            primitive_prime(b, n, limit=-1)
        assert str(exc.value) == "scan limit must be >= 0, got -1"
    assert main(["zsig", "--base", "10", "7", "--limit", "-5"]) == 1
    assert "scan limit must be >= 0, got -5" in capsys.readouterr().err


def test_primitive_prime_limit_errors():
    with pytest.raises(MidyError):
        primitive_prime(10, 6, limit=5, method="scan")
    # auto: Phi_59(10) is composite and too large for the cyclotomic route, and
    # a limit below the short scan's leaves the long scan nothing to walk
    with pytest.raises(MidyError) as exc:
        primitive_prime(10, 59, limit=1000)
    assert str(exc.value) == "no prime of order 59 for base 10 below 1000; raise the limit"


def test_primitive_scan_resumes_at_the_next_candidate():
    # 101 = 1 (mod 10), (mod 4) and, odd, (mod 2 * 5): the first candidate above 100
    for n in (10, 4, 5):
        assert constructor._primitive_scan(n, 101, 100, 1000) == 101, n
    for n in range(2, 13):
        step = n if n % 2 == 0 else 2 * n
        assert constructor._primitive_scan(n, 1, 0, 1000) is None  # 1 is never a candidate
        for start in range(0, 3 * step + 2):
            # every candidate divides 0, so the scan returns the first one above start
            first = next(p for p in range(max(start, 1) + 1, 1000) if p % step == 1)
            assert constructor._primitive_scan(n, 0, start, 1000) == first, (n, start)


def _plain_scan(n, value, start, limit):
    # every candidate p = 1 (mod step) in (start, limit] in turn, 1 excluded
    step = n if n % 2 == 0 else 2 * n
    for p in range(max(start + 1 + (-start) % step, step + 1), limit + 1, step):
        if value % p == 0:
            return p
    return None


def test_primitive_scan_matches_a_plain_walk():
    # the long scan resumes only above a short scan that found nothing, the
    # precondition under which the wheel may skip a candidate
    for b in range(2, 13):
        for n in range(2, 301):
            value = constructor._cyclotomic_value(n, b)
            short = _plain_scan(n, value, 0, 10**5)
            assert constructor._primitive_scan(n, value, 0, 10**5) == short, (b, n)
            if short is None:
                expected = _plain_scan(n, value, 10**5, 10**7)
                assert constructor._primitive_scan(n, value, 10**5, 10**7) == expected, (b, n)


def test_primitive_scan_wheel_edges():
    # answers that are wheel primes themselves, walked before the wheel starts
    for n, b, p in ((2, 2, 3), (4, 2, 5), (3, 2, 7), (10, 2, 11), (5, 3, 11), (2, 10, 11)):
        assert constructor._primitive_scan(n, constructor._cyclotomic_value(n, b), 0, 10**7) == p
    # steps that 3, 5, 7 and 11 divide, and seeded pairs; each start lies below
    # the first hit h, so no candidate up to it divides the value
    rng = random.Random("primitive-scan-wheel")
    orders = [3, 5, 6, 7, 11, 15, 105, 1155] + rng.sample(range(2, 301), 24)
    checked = 0
    for n in orders:
        for b in (2, 3, 10, rng.randrange(4, 13)):
            if (n == 2 and (b + 1) & b == 0) or (n, b) == (6, 2):
                continue
            value = constructor._cyclotomic_value(n, b)
            step = n if n % 2 == 0 else 2 * n
            h = _plain_scan(n, value, 0, 2 * 10**6)
            top = 2 * 10**6 if h is None else h
            period = step * 1155 // gcd(step, 1155)
            starts = {0, rng.randrange(top), top - 1}
            # h as the first wheel candidate, the last plain one, one period in
            starts |= {s for s in (top - period - 1, top - period, top - 2 * period) if s >= 0}
            for start in starts:
                limits = {top - 1, top, top + period, rng.randrange(start + 1, top + 2 * period)}
                for limit in limits:
                    expected = _plain_scan(n, value, start, limit)
                    assert constructor._primitive_scan(n, value, start, limit) == expected, (
                        n, b, start, limit)
                    checked += 1
    assert checked > 500


def test_primitive_scan_skips_wheel_multiples():
    # the value records every divisor tried: past the first period, walked
    # plainly, none is divisible by a wheel prime that does not divide the step
    class Recorded(int):
        def __mod__(self, p):
            tried.append(p)
            return int(self) % p

    for n, b in ((59, 10), (73, 10), (149, 2), (101, 3), (105, 10), (97, 10)):
        value = constructor._cyclotomic_value(n, b)
        expected = _plain_scan(n, value, 0, 10**6)
        tried = []
        assert constructor._primitive_scan(n, Recorded(value), 0, 10**6) == expected
        step = n if n % 2 == 0 else 2 * n
        wheel = [r for r in (3, 5, 7, 11) if step % r]
        assert all(p % step == 1 for p in tried), (n, b)
        late = [p for p in tried if p >= step + 1 + step * prod(wheel)]
        assert late and all(p % r for p in late for r in wheel), (n, b)


def test_primitive_scan_builds_no_wheel_for_a_scan_inside_its_plain_period(monkeypatch):
    # step 118 makes the plain period 118 * 1155 = 136,290 long, past the
    # limit, so a failing scan ends there without building the wheel
    def refuse(*args):
        raise AssertionError("wheel built")

    monkeypatch.setattr(constructor, "compress", refuse)
    assert constructor._primitive_scan(59, constructor._cyclotomic_value(59, 10), 0, 10**5) is None


def _watch_is_prime(monkeypatch):
    # every number is_prime is asked about, in order, at every binding
    asked = []

    def spy(m, _inner=ntcore.is_prime):
        asked.append(m)
        return _inner(m)

    rebind_everywhere(monkeypatch, ntcore.is_prime, spy)
    return asked


def test_primitive_prime_tests_a_large_value_only_after_the_long_scan(monkeypatch):
    # Phi_1451(10) has 4,817 bits and is composite: the long scan finds
    # 2394151 long before a primality test of the value would end
    value = constructor._cyclotomic_value(1451, 10)
    assert value.bit_length() == 4817
    asked = _watch_is_prime(monkeypatch)
    assert primitive_prime(10, 1451) == 2394151
    assert value not in asked
    # a prime value of over 1,024 bits is still returned, once both scans fail
    mersenne = 2**1279 - 1
    assert primitive_prime(2, 1279) == mersenne
    assert asked[-1] == mersenne


def test_primitive_prime_tests_a_small_value_before_the_long_scan(monkeypatch):
    # 2**127 - 1 and Phi_71(3) are prime: only the short scan runs before them
    scans = []

    def spy(n, value, start, limit, _inner=constructor._primitive_scan):
        scans.append((start, limit))
        return _inner(n, value, start, limit)

    monkeypatch.setattr(constructor, "_primitive_scan", spy)
    for b, n in ((2, 127), (3, 71)):
        scans.clear()
        value = constructor._cyclotomic_value(n, b)
        assert ntcore.is_prime(value) and 80 < value.bit_length() <= 1024
        assert primitive_prime(b, n) == value
        assert scans == [(0, 100_000)], (b, n)


def test_primitive_prime_proves_no_candidate_prime(monkeypatch):
    # the first candidate p = 1 (mod n) dividing the cyclotomic value is prime:
    # each prime of it has order n and would have been met first
    asked = _watch_is_prime(monkeypatch)
    assert primitive_prime(10, 7) == 239
    assert primitive_prime(2, 11) == 23
    assert primitive_prime(10, 7, method="scan") == 239
    assert [m for m in asked if m <= constructor._SCAN_LIMIT] == []


# every b <= 12, n <= 300 whose smallest prime of order n lies in (10**5, 10**7]
# and whose cyclotomic value has more than 80 bits, so auto's short scan fails,
# the value is neither small nor prime, and the long scan resumes above 10**5
_RESUMED = {
    2: (143, 163, 167, 173, 177, 187, 189, 203, 205, 225, 229, 242, 248, 255, 272, 277,
        278, 282, 290, 291, 294, 297),
    3: (61, 67, 99, 115, 117, 134, 160, 164, 171, 175, 176, 178, 200, 201, 202, 215,
        219, 220, 225, 226, 238, 244, 246, 252, 257, 264, 272, 291, 295, 296),
    4: (67, 71, 124, 136, 139, 141, 145, 147, 160, 162, 163, 167, 176, 187, 195, 203,
        205, 208, 220, 225, 227, 229, 274, 277, 285, 294),
    5: (55, 63, 73, 93, 99, 100, 105, 125, 145, 150, 151, 163, 164, 177, 187, 191, 203,
        220, 221, 223, 224, 225, 233, 251, 261, 270, 272, 275, 286, 295, 297),
    6: (41, 49, 68, 87, 93, 100, 104, 110, 113, 145, 157, 164, 166, 175, 187, 197, 204,
        207, 218, 219, 225, 227, 229, 241, 260, 264, 266, 284, 288, 289, 290, 293),
    7: (59, 64, 67, 82, 89, 93, 102, 118, 123, 130, 144, 145, 186, 202, 211, 213, 217,
        230, 236, 244, 255, 271, 277, 285, 286, 289, 295, 299, 300),
    8: (59, 63, 75, 85, 98, 99, 102, 104, 105, 108, 117, 135, 143, 147, 158, 163, 167,
        176, 187, 199, 203, 210, 218, 222, 225, 238, 240, 253, 267, 269, 272, 278, 280,
        289, 290, 291, 300),
    9: (67, 80, 82, 88, 100, 101, 110, 122, 126, 132, 136, 148, 166, 170, 175, 184, 192,
        208, 214, 215, 216, 229, 246, 248, 255, 266, 274, 275, 287, 290, 291, 294, 295),
    10: (37, 67, 80, 89, 104, 109, 114, 119, 123, 124, 126, 135, 142, 143, 145, 159,
        160, 165, 172, 183, 205, 209, 217, 234, 244, 257, 260, 280, 282, 292),
    11: (61, 87, 92, 94, 123, 126, 133, 140, 144, 146, 159, 175, 191, 214, 220, 223,
        226, 231, 241, 243, 257, 262, 270, 283, 284, 289, 299),
    12: (37, 57, 61, 62, 72, 74, 76, 79, 81, 104, 107, 122, 124, 129, 132, 137, 141,
        145, 156, 170, 176, 187, 194, 201, 207, 208, 223, 224, 227, 231, 235, 247, 269,
        290),
}


def test_primitive_prime_resumed_auto_equals_scan():
    for b, orders in _RESUMED.items():
        for n in orders:
            p = primitive_prime(b, n, method="scan")
            assert 10**5 < p <= 10**7 and constructor._cyclotomic_value(n, b).bit_length() > 80
            assert primitive_prime(b, n) == p, (b, n)
            assert multiplicative_order(b, p) == n, (b, n)


def test_primitive_prime_beyond_scan_bound():
    # smallest prime of order 11 over base 5 sits beyond the default scan bound
    p = primitive_prime(5, 11)
    assert p == 12207031
    assert multiplicative_order(5, p) == 11


def test_primitive_prime_prime_cyclotomic_value_returned_directly(monkeypatch):
    # Phi_127(2) = 2**127 - 1 is prime, so it is the only prime of order 127;
    # no factorization of it or of p - 1 is needed to say so
    mersenne = 2**127 - 1
    ntcore._order_int.cache_clear()  # so a cached order cannot bypass the guard
    orders = ntcore._prime_power_orders

    def guarded(b, n):
        if n == mersenne:
            raise AssertionError("order of the prime cyclotomic value recomputed")
        return orders(b, n)

    rebind_everywhere(monkeypatch, orders, guarded)
    assert primitive_prime(2, 127) == mersenne


def _watch_listings(monkeypatch, hook):
    # midy_set at every binding, and Factorization.divisors, which every
    # listing of divisors goes through, call hook(name, args) first
    def watched(func):
        def wrapper(*args, _inner=func):
            hook(func.__name__, args)
            return _inner(*args)

        return wrapper

    rebind_everywhere(monkeypatch, analyzer.midy_set, watched(analyzer.midy_set))
    monkeypatch.setattr(
        ntcore.Factorization, "divisors", watched(ntcore.Factorization.divisors)
    )


def _smallest_of_order(b, n, candidates):
    # candidates: the primes p = 1 (mod n) up to the limit, ascending
    for p in candidates:
        if b % p and multiplicative_order(b, p) == n:
            return p
    return None


def test_primitive_prime_scan_matches_brute_force():
    # the remainder test against the order test, composite n included
    top = 10**5
    sieve = bytearray(top + 1)
    for p in primes_upto(top):
        sieve[p] = 1
    for n in range(2, 300):
        candidates = [p for p in range(n + 1, top + 1, n) if sieve[p]]
        for b in (2, 3, 5, 7, 10, 12):
            exceptional = (n == 2 and (b + 1) & b == 0) or (n, b) == (6, 2)
            smallest = _smallest_of_order(b, n, candidates)
            for limit in (10**3, top):
                if exceptional:
                    assert primitive_prime(b, n, limit=limit, method="scan") is None
                elif smallest is not None and smallest <= limit:
                    assert primitive_prime(b, n, limit=limit, method="scan") == smallest
                else:
                    message = f"no prime of order {n} for base {b} below {limit}; raise the limit"
                    with pytest.raises(MidyError) as exc:
                        primitive_prime(b, n, limit=limit, method="scan")
                    assert str(exc.value) == message, (b, n, limit)


def test_primitive_prime_failing_scans_keep_their_message():
    # shrink(1063, 10) and shrink(1193, 2) stop here, at the default limit
    for b, n in ((10, 59), (2, 149)):
        with pytest.raises(MidyError, match=f"^no prime of order {n} .* raise the limit$"):
            primitive_prime(b, n)


def test_shrink_fault_message_names_its_fixed_bound():
    # shrink takes no limit, so it names its search's fixed bound instead of
    # asking for a raise; the prefix is primitive_prime's
    for n, b, q in ((1063, 10, 59), (1193, 2, 149)):
        with pytest.raises(MidyError) as exc:
            shrink(n, b)
        message = str(exc.value)
        assert message.startswith(f"no prime of order {q} for base {b} below 10000000")
        assert "raise the limit" not in message


def test_shrink_searches_each_prime_once(monkeypatch):
    # shrink keeps each (b, q) prime it found; a failed search is not kept,
    # so it runs and raises again with the same message
    calls = []

    def counted(b, q, _inner=constructor.primitive_prime):
        calls.append((b, q))
        return _inner(b, q)

    def exhausted(b, q):
        calls.append((b, q))
        raise MidyError("scan exhausted")

    constructor._shrink_prime.cache_clear()
    monkeypatch.setattr(constructor, "primitive_prime", counted)
    for n in (13, 13, 91):
        shrink(n, 10)
    assert sorted(calls) == [(10, 2), (10, 3)]

    calls.clear()
    monkeypatch.setattr(constructor, "primitive_prime", exhausted)
    constructor._shrink_prime.cache_clear()
    for _ in range(2):
        with pytest.raises(MidyError) as exc:
            shrink(13, 10)
        assert str(exc.value) == "no prime of order 2 for base 10 below 10000000, shrink's search bound"
    assert calls == [(10, 2), (10, 2)]


def test_primitive_prime_cyclotomic_method_agrees():
    for b in range(2, 13):
        for n in range(2, 13):
            if (n == 2 and (b + 1) & b == 0) or (n, b) == (6, 2):
                continue
            assert primitive_prime(b, n) == primitive_prime(b, n, method="cyclotomic"), (b, n)


# ---------------------------------------------------------------------------
# shrink steps

def step_properties_hold(n, b, q, step):
    e = multiplicative_order(b, n)
    zn = step.z * n
    assert multiplicative_order(b, zn) == e
    grown = midy_set(zn, b)
    assert grown.members
    pin = nu(q, e)
    assert all(nu(q, d) == pin for d in grown.members)


def test_shrink_step_examples():
    step = shrink_step(13, 10, 3)
    assert (step.p, step.z, step.branch) == (37, 37, BRANCH_P_NOT_DIVIDING)
    assert (step.c, step.s, step.m) == (0, 0, 1)
    step_properties_hold(13, 10, 3, step)
    members = midy_set(37 * 13, 10).members
    assert members and all(nu(3, d) == 1 for d in members)


def test_shrink_step_z_one_branch():
    # modulus already carrying p**(s+1): 481 = 13 * 37, q = 3, s = 0, c = 1
    step = shrink_step(481, 10, 3)
    assert step.z == 1
    assert step.branch == BRANCH_C_GE_S_PLUS_1
    step_properties_hold(481, 10, 3, step)


def test_shrink_step_c_between_branches():
    # base 2, q = 2 uses p = 3; n = 3*5*7 has e = 12, so c = nu_3(n) = 1 and
    # s = nu_3(12) = 1, landing in the 0 < c < s+1 regime
    step = shrink_step(105, 2, 2)
    assert step.p == 3
    assert (step.c, step.s) == (1, 1)
    assert step.z == 3  # nu_3 of the quotient for e // 2 = 6 is nu_3(6) = 1, one above c
    assert step.branch == BRANCH_C_LT_Q_DIVIDES  # ord_2(35) = 12 is even
    step_properties_hold(105, 2, 2, step)


def test_shrink_step_cofactor_order_tag():
    # same z formula, other tag: n = 21 has cofactor 7 with ord_2(7) = 3, odd
    step = shrink_step(21, 2, 2)
    assert (step.p, step.c, step.s, step.z) == (3, 1, 1, 3)
    assert step.branch == BRANCH_C_LT_Q_NOT_DIVIDES
    step_properties_hold(21, 2, 2, step)
    # and c >= s+1 keeps z = 1: n = 15 has c = 1, s = nu_3(4) = 0
    assert shrink_step(15, 2, 2).branch == BRANCH_C_GE_S_PLUS_1


def test_shrink_step_power_of_two_base_branches():
    # base 7 = 2**3 - 1: no prime has order 2, so q = 2 takes the exceptional path
    step = shrink_step(5, 7, 2)
    assert (step.branch, step.c, step.s, step.z) == (BRANCH_Q2_S_GT_C, 0, 2, 4)
    assert step.p is None
    step_properties_hold(5, 7, 2, step)
    assert midy_set(20, 7).members == (4,)

    step = shrink_step(20, 7, 2)
    assert (step.branch, step.z) == (BRANCH_Q2_C_EQ_S, 1)
    step_properties_hold(20, 7, 2, step)

    # 2-adic slack makes c > s reachable; every member is already pinned
    step = shrink_step(8, 7, 2)
    assert (step.branch, step.c, step.s, step.z) == (BRANCH_Q2_C_GT_S, 3, 1, 1)
    step_properties_hold(8, 7, 2, step)


def test_shrink_step_rejects_bad_args():
    with pytest.raises(MidyError):
        shrink_step(13, 10, 5)  # 5 does not divide the period length 6
    with pytest.raises(MidyError):
        shrink_step(13, 10, 4)  # not prime
    with pytest.raises(MidyError):
        shrink_step(9, 10, 2)  # 2 does not divide the period length 1
    # 117 = 9 * 13 has period length 6, but 9 carries more threes than 6 lets in
    assert multiplicative_order(10, 117) == 6 and midy_set(117, 10).members == ()
    with pytest.raises(MidyError) as exc:
        shrink_step(117, 10, 2)
    assert str(exc.value) == "the Midy set of 117 to base 10 is empty; nothing to pin"


def test_step_reads_its_exponent_off_quotient_valuation(monkeypatch):
    # one valuation rule: the step's multiplier comes from the quotient's nu_p
    # at d = e // q, on the exceptional pair (p = 2) and on an auxiliary prime
    calls = []

    def spy(p, b, k, d, _inner=constructor._quotient_valuation):
        calls.append((p, b, k, d))
        return _inner(p, b, k, d)

    monkeypatch.setattr(constructor, "_quotient_valuation", spy)
    for (n, b, q), seen, z in (((5, 7, 2), (2, 7, 2, 2), 4), ((13, 10, 3), (37, 10, 3, 2), 37)):
        calls.clear()
        step = shrink_step(n, b, q)
        assert calls == [seen]
        assert step.z == z
    assert shrink_step(5, 7, 2) == (2, BRANCH_Q2_S_GT_C, None, 0, 2, None, 4)
    assert shrink_step(13, 10, 3) == (3, BRANCH_P_NOT_DIVIDING, 37, 0, 0, 1, 37)


def test_shrink_step_exponents_against_block_sums():
    # each step's prime p must leave e // q out of the grown set on its own:
    # p**a, a = nu_p of the grown modulus, does not divide the block sum
    # sum_{i<d} b**(i*q), d = e // q; and when z > 1, one p fewer would, so z
    # is the least power of p that does it.  Read straight off the sum.
    checked = 0
    for b in (2, 3, 7, 10):
        for n in range(2, 300):
            if gcd(n, b) != 1:
                continue
            try:
                res = shrink(n, b, oracle_bound=0)
            except MidyError:
                continue
            current = n
            for step in res.steps:
                current *= step.z
                p = 2 if step.p is None else step.p
                d, a = res.final_set.order // step.q, nu(p, current)
                x = pow(b, step.q, p**a)
                assert block_power_sum(x, d, p**a) != 0, (n, b, step)
                if step.z > 1:
                    assert block_power_sum(x, d, p ** (a - 1)) == 0, (n, b, step)
                checked += 1
    assert checked == 1042


def test_verify_step_rejects_broken_steps():
    # n = 13, base 10: e = 6 = 2 * 3; each z below is a wrong multiplier for q = 3
    e_pairs = ((2, 1), (3, 1))
    with pytest.raises(MidyError, match="changed the period length"):
        constructor._verify_step(13 * 17, ((13, 1), (17, 1)), 10, 3, 6, e_pairs)  # ord_17(10) = 16
    with pytest.raises(MidyError, match="emptied the Midy set"):
        constructor._verify_step(13 * 9, ((3, 2), (13, 1)), 10, 3, 6, e_pairs)
    with pytest.raises(MidyError, match="left member 2 unpinned"):
        constructor._verify_step(13, ((13, 1),), 10, 3, 6, e_pairs)
    with pytest.raises(MidyError, match="lost the factors of 481; construction bug"):
        constructor._verify_step(13 * 37, ((13, 1), (37, 2)), 10, 3, 6, e_pairs)
    constructor._verify_step(13 * 37, ((13, 1), (37, 1)), 10, 3, 6, e_pairs)  # the real step


# ---------------------------------------------------------------------------
# full shrink

def test_shrink_examples():
    res = shrink(13, 10)
    assert res.final_set.members == (6,)
    assert res.z == 407 and res.shrunk_modulus == 5291
    assert midy_set(res.shrunk_modulus, 10).members == (6,)

    res49 = shrink(49, 10)
    assert res49.final_set.members == (42,)
    assert midy_set(res49.shrunk_modulus, 10).members == (42,)


def test_shrink_singleton_short_circuit():
    res = shrink(5291, 10)
    assert res.z == 1 and res.steps == ()
    assert not res.oracle_checked  # returned before any re-check
    res8 = shrink(8, 7)
    assert res8.z == 1  # M_7(8) = {2} is already the singleton {e}


def test_shrink_lists_no_divisor(monkeypatch):
    # emptiness, pinning and collapse are read off e and its e // q with
    # _members, so with midy_set and Factorization.divisors refusing to run,
    # shrink, its steps, the minimal sweep and the threshold give the same answers
    cases = ((13, 10), (49, 10), (1316833, 10), (643, 2), (5, 3))
    qs = {(n, b): [q for q, _ in factorize(multiplicative_order(b, n)).factors] for n, b in cases}
    want = {(n, b): shrink(n, b, oracle_bound=0) for n, b in cases}
    want_steps = {(n, b, q): shrink_step(n, b, q) for n, b in cases for q in qs[n, b]}

    def refuse(name, args):
        raise AssertionError(f"{name} called on {args}")

    _watch_listings(monkeypatch, refuse)
    constructor._shrink_prime.cache_clear()  # so the prime searches run guarded too
    assert {(n, b): shrink(n, b, oracle_bound=0) for n, b in cases} == want
    assert {(n, b, q): shrink_step(n, b, q) for n, b in cases for q in qs[n, b]} == want_steps
    assert minimal_shrink_multiplier(shrink(13, 10, oracle_bound=0)) == 33
    assert vanish_threshold(1216, 7, 3) == 0


def test_shrink_rejects_empty_set():
    with pytest.raises(MidyError):
        shrink(9, 10)


def test_shrink_monotone_progress():
    # after step i every member of the running set is pinned at q_1..q_i
    for n, b in ((13, 10), (49, 10), (1316833, 10), (5, 7), (41, 2)):
        res = shrink(n, b)
        e = res.final_set.order
        current = n
        done: list[int] = []
        for step in res.steps:
            current *= step.z
            done.append(step.q)
            members = midy_set(current, b).members
            assert members
            for q in done:
                pin = nu(q, e)
                assert all(nu(q, d) == pin for d in members), (n, b, q, current)
        assert midy_set(current, b).members == (e,)


def test_shrink_power_of_two_base_family():
    # bases with b+1 a power of two route q = 2 through the exceptional branches;
    # the occasional order prime whose primitive prime exceeds the search bound
    # surfaces as the documented diagnostic error
    cases = 0
    for b in (7, 15):
        for n in range(2, 120):
            if gcd(n, b) != 1:
                continue
            ms = midy_set(n, b)
            if not ms.members:
                continue
            try:
                res = shrink(n, b, oracle_bound=0)
            except MidyError as exc:
                assert "no prime of order" in str(exc), (b, n)
                continue
            assert res.final_set.members == (ms.order,), (b, n)
            cases += 1
    assert cases > 80


def test_shrink_oracle_cross_check():
    # small enough products get re-checked against the digit oracle inside shrink;
    # re-run the comparison here explicitly
    for n, b in ((13, 10), (91, 10), (5, 7)):
        res = shrink(n, b)
        zn = res.shrunk_modulus
        assert zn <= 10**6
        e = res.final_set.order
        for d in divisors(e):
            if d < 2:
                continue
            assert oracle_midy_sweep(zn, b, [d])[d] == (d == e)


def test_shrink_oracle_recheck_of_large_product():
    # z*n = 701097 (period length 232) sits under the default oracle bound, so
    # the digit oracle re-checks every block count over its 430,592 unit numerators
    res = shrink(1003, 2)
    assert res.z == 699
    assert res.shrunk_modulus == 701097 <= 10**6
    assert res.final_set.members == (232,)
    assert res.oracle_checked


def test_shrink_carries_known_orders_and_factors(monkeypatch):
    # the q = 107 step uses p = 2**107 - 1, the prime cyclotomic value; the
    # steps carry its order and the grown modulus's factors, so nothing
    # factors p - 1 or the grown modulus, and p is proved prime once
    mersenne = 2**107 - 1
    ntcore._factor_pairs.cache_clear()
    ntcore._order_int.cache_clear()
    constructor._shrink_prime.cache_clear()

    def no_rho(n):
        raise AssertionError(f"Brent rho called on {n}")

    monkeypatch.setattr(ntcore, "_pollard_brent", no_rho)
    proofs = []
    for module in (ntcore, constructor):
        def counted(n, _inner=module.is_prime):
            if n == mersenne:
                proofs.append(n)
            return _inner(n)

        monkeypatch.setattr(module, "is_prime", counted)
    res = shrink(643, 2)
    assert len(proofs) <= 1
    assert res.z == 3 * mersenne
    assert [(s.q, s.branch, s.p, s.c, s.s, s.m, s.z) for s in res.steps] == [
        (2, BRANCH_P_NOT_DIVIDING, 3, 0, 0, 1, 3),
        (107, BRANCH_P_NOT_DIVIDING, mersenne, 0, 0, 1, mersenne),
    ]
    assert res.final_set.order == 214 and res.final_set.members == (214,)
    assert not res.oracle_checked


def test_shrink_asks_primitive_prime_for_the_exceptional_pair(monkeypatch):
    # 3 + 1 = 2**2, so no prime has order 2 to base 3; primitive_prime says
    # so, and the q = 2 step pins by 2 itself: nu_2(5) = 0 < nu_2(4) = 2
    asked = []

    def recorded(b, n, _inner=primitive_prime):
        asked.append((b, n))
        return _inner(b, n)

    monkeypatch.setattr(constructor, "primitive_prime", recorded)
    constructor._shrink_prime.cache_clear()
    step = shrink_step(5, 3, 2)
    assert asked == [(3, 2)]
    assert (step.branch, step.p, step.c, step.s, step.z) == (BRANCH_Q2_S_GT_C, None, 0, 2, 4)
    constructor._shrink_prime.cache_clear()
    res = shrink(5, 3)
    assert asked == [(3, 2), (3, 2)]
    assert res.steps == (step,) and res.z == 4
    assert res.final_set.members == (4,)


def test_minimal_shrink_multiplier():
    smallest = minimal_shrink_multiplier(shrink(13, 10))
    assert smallest == 33
    assert midy_set(33 * 13, 10).members == (6,)
    # brute-force confirmation below the found value
    for cand in range(1, smallest):
        if gcd(cand, 10) != 1:
            continue
        if multiplicative_order(10, cand * 13) != 6:
            continue
        assert midy_set(cand * 13, 10).members != (6,)


def test_minimal_shrink_multiplier_leaves_the_order_cache_alone():
    # each candidate's orders come by descent from e, never through _order_int
    ntcore._order_int.cache_clear()  # so a full cache cannot hide new entries
    built = shrink(49, 10)
    before = ntcore._order_int.cache_info().currsize
    assert minimal_shrink_multiplier(built) < built.z
    assert ntcore._order_int.cache_info().currsize == before


def test_minimal_shrink_multiplier_factors_only_period_e_candidates(monkeypatch):
    # e and its pairs come from one pass over n, and a candidate is factored
    # only once b**e = 1 modulo cand*n says its period length is e
    for n, b in ((13, 10), (49, 10), (71, 7), (169, 31)):
        built = shrink(n, b, oracle_bound=0)
        e = built.final_set.order
        allowed = {n} | {p - 1 for p, _ in ntcore._factor_pairs(n)}
        seen = []

        def watched(m, _inner=ntcore._factor_pairs):
            seen.append(m)
            return _inner(m)

        with monkeypatch.context() as patch:
            rebind_everywhere(patch, ntcore._factor_pairs, watched)
            smallest = minimal_shrink_multiplier(built)
        assert smallest <= built.z
        bad = [m for m in seen if m not in allowed and (m % n or pow(b, e, m) != 1)]
        assert not bad, (n, b, bad[:5])


def test_minimal_shrink_multiplier_matches_brute_force():
    # the brute force the sweep replaced, kept as its reference: the least
    # cand coprime to b whose multiple has period length e and set {e}, else z
    checked = 0
    for b in (2, 3, 10):
        for n in range(2, 100):
            if gcd(n, b) != 1 or not midy_set(n, b).members:
                continue
            built = shrink(n, b, oracle_bound=0)
            if built.z > 5000:
                continue
            e = built.final_set.order
            want = built.z
            for cand in range(1, built.z):
                if gcd(cand, b) == 1:
                    got = midy_set(cand * n, b)
                    if got.order == e and got.members == (e,):
                        want = cand
                        break
            assert minimal_shrink_multiplier(built) == want, (n, b)
            checked += 1
    assert checked == 112


def test_minimal_shrink_cap():
    with pytest.raises(MidyError):
        minimal_shrink_multiplier(shrink(49, 10), cap=10)


# ---------------------------------------------------------------------------
# vanishing thresholds

def test_vanish_examples():
    assert vanish_threshold(13, 10, 3) == 1
    assert vanish_threshold(7, 10, 3) == 1
    assert vanish_threshold(117, 10, 3) == 0  # modulus already saturated with 3s


def test_vanish_rejects_bad_p():
    cases = [
        ((13, 10, 7), "7 does not divide base - 1 = 9"),
        ((13, 10, 9), "9 is not prime"),
        ((3, 6, 5), "modulus 3 and base 6 are not coprime"),
        ((13, 1, 2), "base must be >= 2, got 1"),
        ((0, 10, 3), "modulus must be >= 1, got 0"),
    ]
    for args, message in cases:
        with pytest.raises(MidyError) as exc:
            vanish_threshold(*args)
        assert str(exc.value) == message


def test_vanish_sweep_semantics():
    for n, b, p in ((13, 10, 3), (7, 10, 3), (39, 10, 3), (1, 5, 2), (3, 5, 2)):
        tau = vanish_threshold(n, b, p)
        for t in range(tau + 1, tau + 4):
            assert midy_set(p**t * n, b).members == (), (n, b, p, t)
        if tau >= 1:
            assert midy_set(p**tau * n, b).members, (n, b, p)


def test_vanish_two_adic_fallback():
    # base 3 mod 4: the 2-adic slack lifts the top exponent past nu_2(e) = 2
    # for n = 5: 4 = _quotient_valuation(2, 7, 1, 4)
    assert vanish_threshold(5, 7, 2) == 4
    assert vanish_threshold(1, 7, 2) == 3
    for t in (5, 6, 7):
        assert midy_set(2**t * 5, 7).members == ()
    assert midy_set(2**4 * 5, 7).members == (4,)
    for t in (4, 5, 6):
        assert midy_set(2**t, 7).members == ()
    assert midy_set(2**3, 7).members == (2,)


def test_vanish_against_full_sweep():
    # exact semantics on a grid: nonempty at the threshold, empty beyond;
    # bases 3 mod 4 take the 2-adic rule at p = 2, even n included, and n
    # such as 38 (base 7, p = 3) or 15 (base 13, p = 2) carry more of another
    # prime of b - 1 than the period length lets in
    for b in (3, 5, 7, 10, 11, 13, 15, 19, 23, 31, 63):
        for p, _ in factorize(b - 1).factors:
            for n in (1, 2, 3, 4, 7, 8, 9, 12, 13, 15, 16, 20, 22, 24, 35, 38, 39, 40, 48,
                      218, 1216):
                if gcd(n, b) != 1:
                    continue
                tau = vanish_threshold(n, b, p)
                beyond = [midy_set(p**t * n, b).members for t in range(tau + 1, tau + 4)]
                assert all(m == () for m in beyond), (b, p, n, tau)
                if tau >= 1:
                    assert midy_set(p**tau * n, b).members, (b, p, n, tau)


def test_vanish_builds_at_most_one_set(monkeypatch):
    # the threshold tests the period length of the p-free part with
    # _members alone, so no Midy set is built and no divisor listed for any p
    calls = []
    _watch_listings(monkeypatch, lambda name, args: calls.append((name, args)))
    for n, b, p in ((5, 7, 2), (1, 7, 2), (20, 63, 2), (13, 10, 3), (3, 5, 2), (1216, 7, 3)):
        vanish_threshold(n, b, p)
    assert calls == []
