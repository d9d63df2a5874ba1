import hashlib
import json
import random
from math import gcd

import pytest

from midy import analyzer, constructor, ntcore
from midy.analyzer import (
    _members,
    cardinality_report,
    check_midy,
    midy_set,
    multiplier,
    prime_power_set,
    product_set,
    restrict_set,
)
from midy.constructor import shrink, shrink_step
from midy.ntcore import (
    Factorization,
    MidyError,
    _descend,
    _nu_int,
    _prime_power_orders,
    divisors,
    factorize,
    multiplicative_order,
)
from midy.period import blocks, expand, oracle_midy_sweep
from midy.verify import (
    sweep_even_multiplier,
    sweep_gcd_form,
    sweep_prime_power,
    sweep_product,
    sweep_restrict,
    sweep_upward_closure,
)
from reference import block_power_sum, literal_set


# ---------------------------------------------------------------------------
# check_midy

def test_check_examples():
    verdict = check_midy(49, 10, 7)
    assert not verdict.member
    cert = verdict.certificate
    assert (cert.prime, cert.nu_modulus, cert.nu_d) == (7, 2, 1)
    assert pow(10, verdict.k, 7) == 1  # the witness order divides k

    assert not check_midy(1316833, 10, 2).member
    assert check_midy(13, 10, 2).member
    assert check_midy(13, 10, 2).certificate is None


def test_check_rejects_bad_d():
    # the divisor precondition is ntcore._checked_k's, shared with the oracle
    for d in (4, 1):
        with pytest.raises(MidyError) as exc:
            check_midy(13, 10, d)
        assert str(exc.value) == f"d must be a divisor >= 2 of the period length 6, got {d}"
    # a float that equals a divisor is still not a block count
    for refuse in (
        lambda: check_midy(13, 10, 3.0),
        lambda: analyzer.check_midy_gcd(13, 10, 3.0),
        lambda: oracle_midy_sweep(13, 10, [3.0]),
        lambda: oracle_midy_sweep(13, 10, [3.0], mode="x-equals-1"),
        lambda: blocks(expand(1, 13, 10), 3.0),
    ):
        with pytest.raises(MidyError) as exc:
            refuse()
        assert str(exc.value) == "d must be a divisor >= 2 of the period length 6, got 3.0"
    with pytest.raises(MidyError) as exc:
        check_midy(14, 10, 2)
    assert str(exc.value) == "base 10 and modulus 14 are not coprime"


def test_check_two_adic_cases():
    # quotient absorbs nu_2(b+1) - 1 extra twos when k is odd
    assert check_midy(4, 3, 2).member
    assert check_midy(8, 7, 2).member
    verdict = check_midy(16, 7, 2)
    assert not verdict.member
    assert verdict.certificate.prime == 2
    assert verdict.certificate.two_adic_slack == 2  # nu_2(8) - 1
    assert check_midy(28, 3, 2).member
    assert not check_midy(28, 3, 3).member


def test_check_against_digit_oracle():
    for b in (2, 3, 10):
        for n in range(2, 260):
            if gcd(n, b) != 1:
                continue
            e, members = literal_set(n, b)
            for d in range(2, e + 1):
                if e % d == 0:
                    verdict = check_midy(n, b, d)
                    assert (verdict.member, verdict.k) == (d in members, e // d), (n, b, d)


def test_gcd_form_agrees():
    for b in (2, 3, 10):
        report = sweep_gcd_form(b, 299)
        assert report.passed, report.failures[:5]


def test_gcd_form_catches_valuation_mutants(monkeypatch):
    # the gcd form shares no valuation rule with the prime sweep, so a broken
    # _quotient_valuation must show up as disagreement
    assert sweep_gcd_form(7, 300).passed
    exact = analyzer._quotient_valuation

    def no_slack(p, b, k, d):
        return _nu_int(p, d)

    def extra_three(p, b, k, d):
        return exact(p, b, k, d) + (p == 3)

    for mutant, b in ((no_slack, 3), (extra_three, 2)):
        monkeypatch.setattr(analyzer, "_quotient_valuation", mutant)
        assert not sweep_gcd_form(b, 300).passed, mutant.__name__


# ---------------------------------------------------------------------------
# midy_set

def test_set_examples():
    assert midy_set(13, 10).members == (2, 3, 6)
    assert midy_set(49, 10).members == (2, 3, 6, 14, 21, 42)
    assert midy_set(1316833, 10).members == (4, 9, 12, 18, 36)
    assert midy_set(9, 10).members == ()
    assert midy_set(1, 10).members == ()


def test_set_matches_per_divisor_check():
    for b in (2, 3, 10):
        report = sweep_upward_closure(b, 399)
        assert report.passed, report.failures[:5]


def test_prime_orders_match_multiplicative_order():
    # both sources of prime orders, the pass over each p - 1 and descent from
    # e, give ord_p(b) for every prime p of n
    for b in (2, 3, 10):
        window = [n for n in range(10**9, 10**9 + 400) if gcd(n, b) == 1][:300]
        for n in [*range(2, 2000), *window]:
            if gcd(n, b) != 1:
                continue
            e = multiplicative_order(b, n)
            expected = [(p, a, multiplicative_order(b, p)) for p, a in factorize(n).factors]
            order, e_pairs, orders = _prime_power_orders(b, n)
            assert (order, orders) == (e, expected), (n, b)
            descended = [(p, a, _descend(b, p, e, e_pairs)[0]) for p, a, _ in orders]
            assert descended == expected, (n, b)


def test_descent_from_e_matches_the_prime_power_pass():
    # shrink's re-check takes prime orders by descent from e, midy_set from
    # each p - 1; over every divisor >= 2 of e the two sources must give the same set
    for b in (2, 3, 10):
        window = [n for n in range(10**9, 10**9 + 400) if gcd(n, b) == 1][:300]
        for n in [*range(2, 2000), *window]:
            if gcd(n, b) != 1:
                continue
            ms = midy_set(n, b)
            e = ms.order
            e_pairs = factorize(e).factors
            orders = [(p, a, _descend(b, p, e, e_pairs)[0]) for p, a in factorize(n).factors]
            assert tuple(_members(orders, b, e, divisors(e)[1:])) == ms.members, (n, b)


def test_set_and_check_factor_only_n_and_each_p_minus_1(monkeypatch):
    # the period length comes factored from the orders of n's prime powers,
    # so neither the group exponent, the period length nor a product m*n is
    # factored: only the moduli named and the p - 1 of their primes
    factor_pairs = ntcore._factor_pairs
    seen = []

    def recorded(m):
        seen.append(m)
        return factor_pairs(m)

    def allowed(*moduli):
        return {*moduli} | {p - 1 for n in moduli for p, _ in factor_pairs(n)}

    def watch():
        factor_pairs.cache_clear()
        ntcore._order_int.cache_clear()
        seen.clear()

    cases = [(1316833, 10), (487**3 * 3**5, 10), (1093**2 * 5, 2), (2**10 * 13**2, 3)]
    cases += [(n, 7) for n in range(10**9 + 1, 10**9 + 40) if n % 7]
    for module in (ntcore, analyzer, constructor):
        monkeypatch.setattr(module, "_factor_pairs", recorded)
    for n, b in cases:
        watch()
        ms = midy_set(n, b)
        check_midy(n, b, ms.order)
        check_midy(n, b, factor_pairs(ms.order)[0][0])
        assert n in seen and set(seen) <= allowed(n), (n, b, set(seen) - allowed(n))

    # products, restrictions and shrink steps, on moduli whose period lengths
    # have small primes; m keeps the period length, so product_set applies
    grown = [(1316833, 10, 11), (1093**2 * 5, 2, 3), (4 * 13**2 * 7, 3, 79), (10**9 + 28, 7, 11)]
    for n, b, m in grown:
        e_primes = [q for q, _ in factorize(multiplicative_order(b, n)).factors]
        for q in e_primes:  # the primes of order q are found outside the watch
            constructor._shrink_prime(b, q)
        watch()
        product_set(n, m, b)
        assert set(seen) <= allowed(n, m), (n, b, m, set(seen) - allowed(n, m))
        watch()
        restrict_set(n, m * n, b)
        assert set(seen) <= allowed(n, m * n), (n, b, m, set(seen) - allowed(n, m * n))
        for q in e_primes:
            watch()
            shrink_step(n, b, q)
            assert set(seen) <= allowed(n), (n, b, q, set(seen) - allowed(n))
        # shrink carries e's pairs from the pass over n, so e is never factored
        watch()
        shrink(n, b, oracle_bound=0)
        assert set(seen) <= allowed(n), (n, b, set(seen) - allowed(n))


def test_order_descent_strips_a_square():
    # ord_3(10) = 1 sits two steps of 2 below e = ord_303(10) = 4
    assert _descend(10, 3, 4, ((2, 2),)) == (1, ())
    assert _descend(10, 101, 4, ((2, 2),)) == (4, ((2, 2),))
    assert 4 not in midy_set(303, 10)  # a descent that stopped at ord 2 would admit it


def test_set_two_adic_cases():
    assert midy_set(4, 3).members == (2,)
    assert midy_set(8, 7).members == (2,)
    assert midy_set(16, 7).members == ()
    assert midy_set(28, 3).members == (2, 6)


def _oracle_members(n, b):
    return tuple(d for d, member in sorted(oracle_midy_sweep(n, b).items()) if member)


def test_set_against_oracle_sweep():
    # bases 2, 3 and 10 are acceptance criterion 4's oracle_records comparison
    large_bases = {37: (3, 4, 8, 16, 19, 27, 49, 76, 361), 300: (7, 49, 91, 301, 343, 1001)}
    for b, moduli in large_bases.items():
        for n in moduli:
            assert midy_set(n, b).members == _oracle_members(n, b), (n, b)


def test_set_filter_follows_the_valuation_rule(monkeypatch):
    # the per-prime filter holds no copy of the rule: a broken
    # _quotient_valuation must change midy_set, product_set and restrict_set
    exact = analyzer._quotient_valuation

    def no_slack(p, b, k, d):
        return _nu_int(p, d)

    def slack_at_even_k(p, b, k, d):  # the 2-adic slack on the wrong parity of k
        return exact(p, b, k + 1, d)

    assert midy_set(4, 3).members == (2,)
    assert product_set(7, 4, 3).members == (2, 6)
    assert restrict_set(4, 28, 3).candidates == (2,)
    assert restrict_set(4, 20, 3).holds
    monkeypatch.setattr(analyzer, "_quotient_valuation", no_slack)
    assert midy_set(4, 3).members == ()
    assert product_set(7, 4, 3).members == ()
    assert restrict_set(4, 28, 3).candidates == ()
    monkeypatch.setattr(analyzer, "_quotient_valuation", slack_at_even_k)
    assert restrict_set(4, 20, 3).violations == (2,)


def test_set_matches_per_divisor_rule_on_large_moduli():
    # midy_set filters prime by prime; the reference tests one divisor at a
    # time by the block-sum criterion n | sum_{i<d} c**i with c = b**k mod n,
    # which needs no prime orders and no valuation rule (sweep_upward_closure
    # covers n <= 399)
    rng = random.Random("set-vs-witness-large")
    bases = (2, 3, 7, 10, 15, 31, 63)
    for i in range(3000):
        n = rng.randrange(10**6, 10**12) * rng.choice((1, 2, 4, 8, 16, 3, 9, 27, 49))
        b = next((b for b in bases[i % 7 :] + bases if gcd(n, b) == 1), None)
        if b is None:
            continue
        ms = midy_set(n, b)
        e = ms.order
        expected = [d for d in divisors(e)[1:] if block_power_sum(pow(b, e // d, n), d, n) == 0]
        assert ms.members == tuple(expected), (n, b)


def _per_candidate(orders, b, e, candidates):
    # the filter before box tops: one valuation call per candidate d | e // o
    kept = list(candidates)
    for p, a, o in orders:
        f = e // o
        kept = [d for d in kept if f % d or a <= analyzer._quotient_valuation(p, b, e // d, d)]
    return kept


def test_box_tops_match_the_per_candidate_rule():
    # every divisor of e, 1 included, and [e] alone: vanish_threshold passes
    # [e] with e = 1 (n = 3, b = 7), where a box whose top is 1 must still
    # rule out d = 1; 7 = 3 mod 4 shows the 2-adic slack
    cases = [(n, b) for b in (2, 3, 7, 10) for n in range(1, 2000) if gcd(n, b) == 1]
    rng = random.Random("box-tops")
    powers = (2**5, 2**11, 3**4, 3**7, 5**3, 7**3, 11**2, 13**3, 1093**2, 487**2)
    for _ in range(400):
        n = rng.randrange(10**5, 10**9) * rng.choice(powers) * rng.choice(powers)
        cases += [(n, b) for b in rng.sample((2, 3, 7, 10, 31), 2) if gcd(n, b) == 1]
    for n, b in cases:
        e, e_pairs, orders = _prime_power_orders(b, n)
        for candidates in (Factorization(e, e_pairs).divisors(), [e]):
            expected = _per_candidate(orders, b, e, candidates)
            assert _members(orders, b, e, candidates) == expected, (n, b, candidates)


def test_members_calls_the_rule_at_most_nu_p_of_e_over_o_times(monkeypatch):
    # each prime's box top walks its exponent down from nu_p(e // o), one
    # call of the rule a step; most primes p of n never divide e // o
    exact = analyzer._quotient_valuation
    members = analyzer._members
    calls = []

    def counted(*args):
        calls.append(args)
        return exact(*args)

    def bounded(orders, b, e, candidates):
        before = len(calls)
        kept = members(orders, b, e, candidates)
        assert len(calls) - before <= sum(_nu_int(p, e // o) for p, _, o in orders)
        return kept

    def count(sets):
        calls.clear()
        for n, b in sets:
            midy_set(n, b)
        return len(calls)

    monkeypatch.setattr(analyzer, "_quotient_valuation", counted)
    monkeypatch.setattr(analyzer, "_members", bounded)
    window = [(n, b) for b in (2, 3, 10) for n in range(10**9, 10**9 + 1500) if gcd(n, b) == 1]
    assert len(window) == 2350
    # one call per candidate d | e // o before box tops: 35, 3 and 97,076
    assert count([(2**10 * 13**2, 3)]) == 2
    assert count([(1316833, 10)]) == 0
    assert count(window) == 2059


def _digest(rows):
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


def test_answer_corpora_keep_their_hashes():
    # every set for n < 3000, every verdict for n <= 400 and every shrink for
    # 3 <= n < 1500 in bases 2, 3 and 10, pinned by hash: a change to how
    # membership or an order is decided keeps them all
    sets = []
    verdicts = []
    shrinks = []
    for b in (2, 3, 10):
        for n in range(2, 3000):
            if gcd(n, b) != 1:
                continue
            ms = midy_set(n, b)
            sets.append([b, n, ms.order, list(ms.members)])
            if n <= 400:
                for d in divisors(ms.order)[1:]:
                    v = check_midy(n, b, d)
                    cert = list(v.certificate) if v.certificate else None
                    verdicts.append([b, n, d, v.k, v.member, cert])
            if not 3 <= n < 1500:
                continue
            try:
                r = shrink(n, b, oracle_bound=0)
            except MidyError as exc:
                shrinks.append([b, n, str(exc)])
                continue
            shrinks.append([b, n, r.z, [list(s) for s in r.steps], list(r.final_set.members)])
    assert (len(sets), _digest(sets)) == (4697, "7d21b81334599c4c")
    assert (len(verdicts), _digest(verdicts)) == (3438, "8ac64304005076aa")
    assert (len(shrinks), _digest(shrinks)) == (2346, "4976b1d59ceeeec1")


def test_set_does_not_call_check_midy(monkeypatch):
    def refuse(*args):
        raise AssertionError("check_midy called")

    monkeypatch.setattr(analyzer, "check_midy", refuse)
    assert midy_set(1316833, 10).members == (4, 9, 12, 18, 36)
    assert restrict_set(7, 49, 10).holds
    assert product_set(188119, 7, 10).members == (4, 9, 12, 18, 36)


def test_set_against_brute_force():
    for b in (2, 3, 10):
        for n in range(2, 150):
            if gcd(n, b) != 1:
                continue
            ms = midy_set(n, b)
            assert (ms.order, ms.members) == literal_set(n, b), (n, b)


# ---------------------------------------------------------------------------
# multiplier

def test_multiplier_examples():
    assert multiplier(1316833, 10, 12) == 7
    assert multiplier(13, 10, 2) == 1


def test_multiplier_rejects_non_members():
    with pytest.raises(MidyError):
        multiplier(49, 10, 7)
    with pytest.raises(MidyError):
        multiplier(13, 10, 4)


def test_multiplier_even_d_rule():
    # with 2 a member, every even divisor d gets multiplier d/2
    for b in (2, 3, 10):
        report = sweep_even_multiplier(b, 299)
        assert report.passed, report.failures[:5]


def test_multiplier_against_block_sums():
    # for x = 1 the block sum equals multiplier * (b**k - 1)
    for n, b, d in ((13, 10, 3), (49, 10, 14), (13, 10, 2), (28, 3, 2)):
        k = multiplicative_order(b, n) // d
        assert blocks(expand(1, n, b), d).block_sum == multiplier(n, b, d) * (b**k - 1)


def test_multiplier_of_every_member():
    multipliers = {d: multiplier(49, 10, d) for d in midy_set(49, 10).members}
    assert multipliers == {2: 1, 3: 1, 6: 3, 14: 7, 21: 10, 42: 21}


# ---------------------------------------------------------------------------
# prime powers

def test_prime_power_examples():
    assert prime_power_set(10, 7, 2).members == (2, 3, 6, 14, 21, 42)
    assert prime_power_set(10, 3, 2).members == ()
    base_487 = prime_power_set(10, 487, 1)
    expected = tuple(d for d in divisors(multiplicative_order(10, 487)) if d >= 2)
    assert base_487.members == expected


def test_prime_power_rejects_bad_args():
    with pytest.raises(MidyError):
        prime_power_set(10, 2, 2)
    with pytest.raises(MidyError):
        prime_power_set(10, 5, 2)
    with pytest.raises(MidyError):
        prime_power_set(10, 9, 2)


def test_prime_power_matches_direct_enumeration():
    for b in (3, 10):
        report = sweep_prime_power(b, 50, 4)
        assert report.passed, report.failures[:5]


def test_cardinality_examples():
    assert cardinality_report(10, 7, 2).closed_form == 6
    assert cardinality_report(10, 7, 1).closed_form == 3
    for n in range(1, 5):
        assert cardinality_report(10, 3, n).closed_form == 0


def test_prime_power_helpers_test_p_once(monkeypatch):
    tested = []
    is_prime = ntcore.is_prime

    def counted(n):
        tested.append(n)
        return is_prime(n)

    monkeypatch.setattr(ntcore, "is_prime", counted)
    for call in (prime_power_set, cardinality_report, ntcore.lifted_order):
        for p, t in ((7, 2), (487, 3), (3, 4)):
            tested.clear()
            call(10, p, t)
            assert tested.count(p) == 1, (call.__name__, p, t, tested)


# ---------------------------------------------------------------------------
# restriction and products

def test_restrict_examples():
    assert restrict_set(13, 39, 10).holds
    assert restrict_set(13, 13, 10).holds
    rep = restrict_set(7, 49, 10)
    assert rep.holds
    assert rep.candidates == (2, 3, 6)


def test_restrict_rejects_non_divisor():
    with pytest.raises(MidyError):
        restrict_set(7, 13, 10)


def test_restrict_sweep():
    for b in (3, 10):
        report = sweep_restrict(b, 299)
        assert report.passed, report.failures[:5]


def test_product_examples():
    assert product_set(13, 3, 10).members == (3, 6)
    assert product_set(13, 1, 10).members == midy_set(13, 10).members
    assert product_set(188119, 7, 10).members == midy_set(1316833, 10).members


def test_product_rejects_bad_args():
    with pytest.raises(MidyError):
        product_set(7, 188119, 10)  # order of the product differs from order of 7
    with pytest.raises(MidyError):
        product_set(13, 26, 10)  # not coprime
    with pytest.raises(MidyError):
        product_set(13, 5, 10)  # cofactor shares a factor with the base
    with pytest.raises(MidyError) as exc:
        product_set(13, 0, 10)
    assert str(exc.value) == "cofactor must be >= 1, got 0"


def test_product_two_adic_case():
    # the naive filter would wrongly empty this set
    assert midy_set(28, 3).members == (2, 6)
    assert product_set(7, 4, 3).members == (2, 6)


def test_product_matches_direct_enumeration():
    for b in (3, 10):
        report = sweep_product(b, 2000)
        assert report.passed, report.failures[:5]
