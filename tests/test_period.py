import sys
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from midy import ntcore, period
from midy.analyzer import MidySet, midy_set
from midy.cli import main
from midy.ntcore import MidyError, divisors, multiplicative_order
from midy.period import (
    _rotation_block_sums,
    blocks,
    expand,
    oracle_midy_sweep,
    period_integer,
)

DIGITS_1_49 = "020408163265306122448979591836734693877551"


def test_expand_examples():
    assert expand(1, 13, 10).digits == (0, 7, 6, 9, 2, 3)
    assert "".join(map(str, expand(1, 49, 10).digits)) == DIGITS_1_49
    assert expand(1, 3, 2).digits == (0, 1)


def test_expand_rejects_bad_fractions():
    with pytest.raises(MidyError):
        expand(1, 14, 10)  # modulus shares a factor with the base
    with pytest.raises(MidyError):
        expand(0, 13, 10)
    with pytest.raises(MidyError):
        expand(13, 13, 10)
    with pytest.raises(MidyError):
        expand(3, 9, 10)  # numerator not a unit


def test_expand_pure_periodicity_and_value_identity():
    for b in (2, 3, 10):
        for n in range(2, 150):
            if gcd(n, b) != 1:
                continue
            e = multiplicative_order(b, n)
            for x in range(1, n):
                if gcd(x, n) != 1:
                    continue
                exp = expand(x, n, b)
                assert len(exp.digits) == e
                assert all(0 <= a < b for a in exp.digits)
                # remainder returns to x after one period
                assert x * pow(b, e, n) % n == x
                value = 0
                for a in exp.digits:
                    value = value * b + a
                assert x * (b**e - 1) == n * value


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=2, max_value=64), st.integers(min_value=2, max_value=4000))
def test_expand_value_identity_random(b, n):
    if gcd(b, n) != 1:
        return
    e = multiplicative_order(b, n)
    x = next(x for x in range(1, n) if gcd(x, n) == 1 and x != 1) if n > 2 else 1
    exp = expand(x, n, b)
    value = 0
    for a in exp.digits:
        value = value * b + a
    assert x * (b**e - 1) == n * value


def test_period_integer_examples():
    assert period_integer(13, 10) == 76923
    assert period_integer(3, 2) == 1
    assert (10**42 - 1) % 49 == 0
    assert period_integer(49, 10) == (10**42 - 1) // 49


def test_period_integer_matches_digits():
    for b in (2, 3, 10):
        for n in range(2, 200):
            if gcd(n, b) != 1:
                continue
            value = 0
            for a in expand(1, n, b).digits:
                value = value * b + a
            assert period_integer(n, b) == value


def _rebind(monkeypatch, fn, replacement):
    # midy's modules bind each other's functions at import, so patch every binding
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "midy":
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, replacement)


def test_digit_layer_asks_no_order(monkeypatch, capsys):
    # the digit layer walks its own remainders for the period length, so the
    # oracle and the period tests check the order code against the digits;
    # _factor_pairs may still run on e, for the default block counts
    pq = 909090909090909091 * 1111111111111111111  # 120 bits, period length 38
    moduli = {13, 49, pq}

    def refuse(*args):
        raise AssertionError(f"order asked for {args}")

    for name in ("_order_int", "_prime_power_orders", "multiplicative_order"):
        _rebind(monkeypatch, getattr(ntcore, name), refuse)
    factor_pairs = ntcore._factor_pairs

    def factor_e_only(m):
        if m in moduli:
            raise AssertionError(f"{m} factored")
        return factor_pairs(m)

    _rebind(monkeypatch, factor_pairs, factor_e_only)
    assert [len(expand(x, 49, 10).digits) for x in (1, 2, 48)] == [42, 42, 42]
    assert "".join(map(str, expand(1, 49, 10).digits)) == DIGITS_1_49
    assert period_integer(49, 10) == (10**42 - 1) // 49
    assert period_integer(pq, 10) == (10**38 - 1) // pq
    assert blocks(expand(1, 13, 10), 3).block_sum == 99
    for mode in ("all-x", "x-equals-1"):
        assert oracle_midy_sweep(13, 10, mode=mode) == {2: True, 3: True, 6: True}
        verdicts = oracle_midy_sweep(49, 10, mode=mode)
        assert [d for d, flag in verdicts.items() if flag] == [2, 3, 6, 14, 21, 42]
    literal = {
        d: blocks(expand(1, pq, 10), d).block_sum % (10 ** (38 // d) - 1) == 0
        for d in (2, 19, 38)
    }
    assert oracle_midy_sweep(pq, 10, mode="x-equals-1") == literal
    assert main(["period", "--base", "10", "49"]) == 0
    assert capsys.readouterr().out == f"0.({DIGITS_1_49})\n"
    assert main(["period", "--base", "10", "49", "--blocks", "14"]) == 0
    assert capsys.readouterr().out.endswith(", sum 6993\n")
    assert main(["period", "--base", "10", str(pq)]) == 0
    assert capsys.readouterr().out == f"0.({(10**38 - 1) // pq:038d})\n"


def test_modulus_one_has_period_length_one():
    assert midy_set(1, 2) == MidySet(1, 2, 1, ())
    for mode in ("all-x", "x-equals-1"):
        assert oracle_midy_sweep(1, 2, mode=mode) == {}
        with pytest.raises(MidyError) as exc:
            oracle_midy_sweep(1, 2, [2], mode=mode)
        assert str(exc.value) == "d must be a divisor >= 2 of the period length 1, got 2"
    for call in (midy_set, oracle_midy_sweep):
        with pytest.raises(MidyError) as exc:
            call(1, 1)
        assert str(exc.value) == "base must be >= 2, got 1"


def test_blocks_examples():
    e13 = expand(1, 13, 10)
    dec = blocks(e13, 3)
    assert dec.blocks == (7, 69, 23)
    assert dec.block_sum == 99
    assert blocks(expand(1, 49, 10), 14).block_sum == 6993 == 7 * 999
    digit_split = blocks(e13, 6)
    assert digit_split.blocks == (0, 7, 6, 9, 2, 3)
    assert digit_split.block_sum == 27
    assert digit_split.block_sum % 9 == 0  # confirms 6 is a member for 13 base 10


def test_blocks_rejects_bad_counts():
    e13 = expand(1, 13, 10)
    for d in (1, 4):  # the one block-count rule, ntcore._checked_k's
        with pytest.raises(MidyError) as exc:
            blocks(e13, d)
        assert str(exc.value) == f"d must be a divisor >= 2 of the period length 6, got {d}"


def test_blocks_rederivable_from_digits():
    for n, b, d in ((13, 10, 2), (49, 10, 14), (28, 3, 2), (41, 2, 5)):
        exp = expand(1, n, b)
        dec = blocks(exp, d)
        assert dec.d * dec.k == len(exp.digits)
        for j, block in enumerate(dec.blocks):
            acc = 0
            for a in exp.digits[j * dec.k : (j + 1) * dec.k]:
                acc = acc * b + a
            assert acc == block
            assert 0 <= block < b**dec.k


def test_oracle_examples():
    assert oracle_midy_sweep(13, 10, [3], mode="all-x")[3] is True
    assert oracle_midy_sweep(49, 10, [7], mode="all-x")[7] is False
    assert oracle_midy_sweep(1316833, 10, [12], mode="x-equals-1")[12] is True


def test_oracle_two_adic_cases():
    # odd base, even modulus: the naive valuation rule would get these wrong
    assert oracle_midy_sweep(4, 3, [2])[2] is True
    assert oracle_midy_sweep(8, 7, [2])[2] is True
    assert oracle_midy_sweep(16, 7, [2])[2] is False


def test_oracle_rejects_bad_d():
    # the divisor precondition is ntcore._checked_k's, shared with check_midy
    for n, d, e in ((13, 4, 6), (13, 1, 6), (9, 2, 1)):  # period length 1 admits no d
        with pytest.raises(MidyError) as exc:
            oracle_midy_sweep(n, 10, [d])
        assert str(exc.value) == f"d must be a divisor >= 2 of the period length {e}, got {d}"
    with pytest.raises(MidyError):
        oracle_midy_sweep(13, 10, [3], mode="sideways")[3]
    # the mode is checked before the divisors and before the period is found
    with pytest.raises(MidyError) as exc:
        oracle_midy_sweep(13, 10, [4], mode="sideways")
    assert str(exc.value) == "unknown oracle mode 'sideways'"


def _reference_verdicts(n, b, ds):
    # the definition itself: expand every unit numerator and parse its blocks
    e = multiplicative_order(b, n)
    periods = [expand(x, n, b) for x in range(1, n) if gcd(x, n) == 1]
    return {
        d: all(blocks(p, d).block_sum % (b ** (e // d) - 1) == 0 for p in periods)
        for d in ds
    }


def test_oracle_sweep_matches_block_sums():
    cases = [(b, n) for b in (2, 3, 10) for n in range(2, 200)]
    cases += [(300, n) for n in (7, 17, 37, 41, 49, 101, 121, 133)]  # digits >= 256
    for b, n in cases:
        if gcd(n, b) != 1:
            continue
        e = multiplicative_order(b, n)
        ds = [d for d in divisors(e) if d >= 2]
        if not ds:
            continue
        literal = oracle_midy_sweep(n, b, ds, mode="all-x")
        assert literal == _reference_verdicts(n, b, ds), (n, b)
        assert literal == oracle_midy_sweep(n, b, ds, mode="x-equals-1"), (n, b)


def test_rotation_block_sums_are_exact():
    # the oracle's k sums give the literal one of every x*b**t in the orbit, as sums[t % k]
    cases = ((13, 10, 1), (49, 10, 3), (97, 10, 5), (41, 2, 7), (121, 3, 2), (37, 300, 5))
    for n, b, x in cases:
        e = multiplicative_order(b, n)
        for d in divisors(e):
            if d < 2:
                continue
            k = e // d
            sums = list(_rotation_block_sums(list(expand(x, n, b).digits), b, k))
            assert len(sums) == k, (n, b, x, d)
            for t in range(e):
                literal = blocks(expand(x * pow(b, t, n) % n, n, b), d).block_sum
                assert sums[t % k] == literal, (n, b, x, d, t)


def test_oracle_tests_k_block_sums_per_orbit_and_d(monkeypatch):
    # each orbit yields k = e/d distinct block sums for each d, not e of them
    count = 0

    def counting(digs, b, k):
        nonlocal count
        for s in _rotation_block_sums(digs, b, k):
            count += 1
            yield s

    monkeypatch.setattr(period, "_rotation_block_sums", counting)
    verdicts = oracle_midy_sweep(97, 10)  # one orbit of 96 numerators
    assert len(verdicts) == 11 and all(verdicts.values())
    assert count == 156  # sigma(96) - 96, the sum of e/d over the divisors d >= 2
    count = 0
    oracle_midy_sweep(91, 10)  # 12 orbits of 6, d = 2, 3, 6
    assert count == 72


def test_sweep_matches_singles_at_large_base():
    # digits beyond the 36 alphanumerics
    n, b = 107, 97
    e = multiplicative_order(b, n)
    ds = [d for d in divisors(e) if d >= 2]
    swept = oracle_midy_sweep(n, b, ds)
    for d in ds:
        assert swept[d] == oracle_midy_sweep(n, b, [d])[d]
        assert swept[d] == oracle_midy_sweep(n, b, [d], mode="x-equals-1")[d]


def test_nines_complement_symmetry():
    # when 2 is a member, the block sums of x and n-x add up to 2*(b**k - 1)
    for b in (2, 3, 10):
        for n in range(3, 150):
            if gcd(n, b) != 1:
                continue
            e = multiplicative_order(b, n)
            if e % 2:
                continue
            if not oracle_midy_sweep(n, b, [2])[2]:
                continue
            k = e // 2
            assert pow(b, k, n) == n - 1
            for x in range(1, n):
                if gcd(x, n) != 1:
                    continue
                s_x = blocks(expand(x, n, b), 2).block_sum
                s_c = blocks(expand(n - x, n, b), 2).block_sum
                assert s_x + s_c == 2 * (b**k - 1)
