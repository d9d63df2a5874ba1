import sys
from math import gcd

import pytest

from midy import analyzer, constructor, ntcore
from midy.analyzer import midy_set
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


def test_primitive_prime_rejects_bad_args():
    with pytest.raises(MidyError):
        primitive_prime(1, 3)
    with pytest.raises(MidyError):
        primitive_prime(10, 1)
    with pytest.raises(MidyError):
        primitive_prime(10, 6, method="guess")


def test_primitive_prime_limit_errors():
    with pytest.raises(MidyError):
        primitive_prime(10, 6, limit=5, method="scan")


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

    _rebind_everywhere(monkeypatch, orders, guarded)
    assert primitive_prime(2, 127) == mersenne


def _rebind_everywhere(monkeypatch, func, replacement):
    # every module-level name bound to func, so no alias reaches it
    bound = 0
    for module in list(sys.modules.values()):
        if module is not None and module.__name__.split(".")[0] == "midy":
            for name, value in list(vars(module).items()):
                if value is func:
                    monkeypatch.setattr(module, name, replacement)
                    bound += 1
    assert bound, func


def _watch_listings(monkeypatch, hook):
    # midy_set at every binding, and Factorization.divisors, which every
    # listing of divisors goes through, call hook(name, args) first
    def watched(func):
        def wrapper(*args, _inner=func):
            hook(func.__name__, args)
            return _inner(*args)

        return wrapper

    _rebind_everywhere(monkeypatch, analyzer.midy_set, watched(analyzer.midy_set))
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
    assert step.z == 3  # p ** (s - c + 1)
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


def test_verify_step_rejects_broken_steps():
    # n = 13, base 10: e = 6 = 2 * 3; each z below is a wrong multiplier for q = 3
    e_pairs = ((2, 1), (3, 1))
    with pytest.raises(MidyError, match="changed the period length"):
        constructor._verify_step(13 * 17, ((13, 1), (17, 1)), 10, 3, 6, e_pairs)  # ord_17(10) = 16
    with pytest.raises(MidyError, match="emptied the Midy set"):
        constructor._verify_step(13 * 9, ((3, 2), (13, 1)), 10, 3, 6, e_pairs)
    with pytest.raises(MidyError, match="left member 2 unpinned"):
        constructor._verify_step(13, ((13, 1),), 10, 3, 6, e_pairs)
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
    # each candidate's order comes from one uncached pass over its prime powers
    ntcore._order_int.cache_clear()  # so a full cache cannot hide new entries
    built = shrink(49, 10)
    before = ntcore._order_int.cache_info().currsize
    assert minimal_shrink_multiplier(built) < built.z
    assert ntcore._order_int.cache_info().currsize == before


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
    with pytest.raises(MidyError):
        vanish_threshold(13, 10, 7)  # 7 does not divide 9
    with pytest.raises(MidyError):
        vanish_threshold(13, 10, 9)  # not prime
    with pytest.raises(MidyError):
        vanish_threshold(3, 6, 5)  # modulus shares a factor with the base
    with pytest.raises(MidyError) as exc:
        vanish_threshold(13, 1, 2)
    assert str(exc.value) == "base must be >= 2, got 1"
    with pytest.raises(MidyError) as exc:
        vanish_threshold(0, 10, 3)
    assert str(exc.value) == "modulus must be >= 1, got 0"


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
