"""Acceptance gate: one test per criterion, each printing its own pass line.

Run with `pytest tests/test_acceptance.py -v -s`.  The two sweep criteria share
one pass over the data; everything is exact (zero tolerance) with wall-clock
budgets asserted where stated.
"""

import json
from time import perf_counter

import pytest

from midy.analyzer import check_midy, midy_set, multiplier, prime_power_set
from midy.cli import main
from midy.constructor import primitive_prime, shrink, vanish_threshold
from midy.ntcore import divisors, lifted_order, multiplicative_order, wieferich_level
from midy.period import blocks, expand, oracle_midy_sweep
from midy.verify import (
    oracle_records,
    sweep_order_lift,
    sweep_prime_power,
    sweep_primitive_prime,
)

DIGITS_1_49 = "020408163265306122448979591836734693877551"


def _pass(num: int, detail: str) -> None:
    print(f"criterion {num:2d}: PASS - {detail}")


def run_cli_json(capsys, argv):
    code = main(argv + ["--json"])
    assert code == 0
    return json.loads(capsys.readouterr().out)


@pytest.fixture(scope="module")
def sweep_records():
    t0 = perf_counter()
    records = []
    for base in (2, 3, 10):
        records.extend(oracle_records(base, 1000))
    return records, perf_counter() - t0


def test_criterion_01_worked_sets(capsys):
    t0 = perf_counter()
    doc13 = run_cli_json(capsys, ["set", "--base", "10", "13"])
    doc49 = run_cli_json(capsys, ["set", "--base", "10", "49"])
    elapsed = perf_counter() - t0
    assert doc13["result"]["members"] == [2, 3, 6]
    assert doc49["result"]["members"] == [2, 3, 6, 14, 21, 42]
    assert elapsed < 1.0
    _pass(1, f"set(13)={doc13['result']['members']}, set(49)={doc49['result']['members']} "
             f"in {elapsed*1000:.0f} ms")


def test_criterion_02_three_prime_product():
    t0 = perf_counter()
    n = 7 * 19 * 9901
    assert n == 1316833
    assert multiplicative_order(10, n) == 36
    for d in (2, 3, 6):
        assert not check_midy(n, 10, d).member
    for d in (4, 9, 12, 18, 36):
        assert check_midy(n, 10, d).member
    assert multiplier(n, 10, 12) == 7
    elapsed = perf_counter() - t0
    assert elapsed < 1.0
    _pass(2, f"order 36, members {{4,9,12,18,36}}, multiplier(12) = 7 in {elapsed*1000:.0f} ms")


def test_criterion_03_worked_digits():
    exp = expand(1, 49, 10)
    assert "".join(map(str, exp.digits)) == DIGITS_1_49
    dec = blocks(exp, 14)
    assert dec.block_sum == 6993 == 7 * 999
    _pass(3, "1/49 digits match the 42-digit string; S_14(1) = 6993 = 7*999")


def test_criterion_04_oracle_equivalence(sweep_records):
    records, elapsed = sweep_records
    mismatches = [r for r in records if r["theorem"] != r["all_x"]]
    assert mismatches == []
    assert elapsed < 300.0
    _pass(4, f"{len(records)} (n, d) instances over bases 2, 3, 10 up to 1000, "
             f"zero mismatches in {elapsed:.1f} s")


def test_criterion_05_mode_equivalence(sweep_records):
    records, _ = sweep_records
    mismatches = [r for r in records if r["all_x"] != r["x_equals_1"]]
    assert mismatches == []
    _pass(5, f"all-x and x-equals-1 agree on all {len(records)} instances")


def test_criterion_06_prime_power_structure():
    # closed-form sets and counts against enumeration for every odd prime
    # p <= 50 but 5 and n = 1..4
    report = sweep_prime_power(10, 50, 4)
    assert report.passed, report.failures[:5]
    assert report.instances == 52
    assert prime_power_set(10, 7, 2).members == (2, 3, 6, 14, 21, 42)
    _pass(6, f"{report.instances} prime-power cases match enumeration; all counts disjoint; "
             f"(p=7, n=2) reproduces the modulus-49 set")


def test_criterion_07_order_lifting():
    report = sweep_order_lift(10, 50, 4)
    assert report.passed, report.failures[:5]
    assert report.instances == 52
    checked = report.instances
    assert wieferich_level(68, 113) == 3
    assert wieferich_level(42, 23) == 3
    for b, p in ((68, 113), (42, 23)):
        for t in range(1, 5):
            assert lifted_order(b, p, t) == multiplicative_order(b, p**t)
            checked += 1
    _pass(7, f"{checked} lifting cases agree with direct orders; "
             f"levels of (68, 113) and (42, 23) are 3")


def test_criterion_08_shrink():
    t0 = perf_counter()
    details = []
    for n in (13, 49, 91, 1316833):
        res = shrink(n, 10, oracle_bound=10**6)
        e = multiplicative_order(10, n)
        assert res.final_set.members == (e,), n
        assert midy_set(res.shrunk_modulus, 10).members == (e,)
        oracle_checked = res.shrunk_modulus <= 10**6
        if oracle_checked:
            for d in divisors(e):
                if d >= 2:
                    assert oracle_midy_sweep(res.shrunk_modulus, 10, [d])[d] == (d == e)
        details.append(f"{n}->z={res.z}{'(oracle)' if oracle_checked else ''}")
    elapsed = perf_counter() - t0
    assert elapsed < 60.0
    _pass(8, f"{'; '.join(details)} in {elapsed:.1f} s")


def test_criterion_09_primitive_prime_exceptions():
    report = sweep_primitive_prime(max_base=20, max_order=12, scan_limit=100_000)
    assert report.passed, report.failures[:5]
    assert primitive_prime(2, 6) is None
    for b in (3, 7, 15):
        assert primitive_prime(b, 2) is None
    _pass(9, f"{report.instances} (base, order) pairs: exceptional markers exact, "
             f"valid witness primes everywhere else")


def test_criterion_10_vanishing():
    for n, b, p in ((13, 10, 3), (7, 10, 3)):
        tau = vanish_threshold(n, b, p)
        assert tau == 1
        assert midy_set(p**tau * n, b).members != ()
        for t in range(tau + 1, tau + 4):
            assert midy_set(p**t * n, b).members == ()
    _pass(10, "thresholds 1 for (13, 10, 3) and (7, 10, 3); empty for the three "
              "exponents beyond, nonempty at the threshold")
