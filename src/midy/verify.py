"""Bulk property sweeps behind the CLI ``verify`` command and the test suites.

Each sweep replays one of the library's structural guarantees over a range of
inputs and reports every counterexample instead of stopping at the first.  It
is the one implementation of its property: the unit tests call it at their own
bases and bounds, and its keyword defaults are the CLI's defaults.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from math import gcd
from time import perf_counter

from .analyzer import (
    cardinality_report,
    check_midy,
    check_midy_gcd,
    coset_decompose,
    midy_set,
    multiplier,
    prime_power_set,
    product_set,
)
from .constructor import _is_power_of_two, primitive_prime
from .ntcore import (
    _order_int,
    divisors,
    lifted_order,
    multiplicative_order,
    primes_upto,
)
from .period import oracle_midy_sweep


@dataclass
class SweepReport:
    suite: str
    params: dict
    instances: int
    failures: list[dict] = field(default_factory=list)
    elapsed_ms: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        if self.passed:
            return f"PASS ({self.instances} instances)"
        head = self.failures[0]
        return f"FAIL ({len(self.failures)} of {self.instances} instances), first: {head}"

    def to_payload(self) -> dict:
        return {
            "suite": self.suite,
            "params": self.params,
            "instances": self.instances,
            "passed": self.passed,
            "failures": self.failures[:50],
            "failure_count": len(self.failures),
            "elapsed_ms": round(self.elapsed_ms, 3),
        }


def _finish(report: SweepReport, t0: float) -> SweepReport:
    report.elapsed_ms = (perf_counter() - t0) * 1000.0
    return report


def _moduli(base: int, max_n: int):
    for n in range(2, max_n + 1):
        if gcd(n, base) != 1:
            continue
        e = _order_int(base, n)
        ds = [d for d in divisors(e) if d >= 2]
        if ds:
            yield n, e, ds


def oracle_records(base: int, max_n: int):
    """Per-(n, d) verdicts of the fast test, the all-x oracle and the x=1 oracle.

    The fast verdicts come from one midy_set per modulus.
    """
    for n, e, ds in _moduli(base, max_n):
        members = set(midy_set(n, base).members)
        all_x = oracle_midy_sweep(n, base, ds, mode="all-x")
        x_one = oracle_midy_sweep(n, base, ds, mode="x-equals-1")
        for d in ds:
            yield {
                "base": base,
                "n": n,
                "d": d,
                "theorem": d in members,
                "all_x": all_x[d],
                "x_equals_1": x_one[d],
            }


def _compare_records(suite: str, base: int, max_n: int, left: str, right: str) -> SweepReport:
    t0 = perf_counter()
    report = SweepReport(suite, {"base": base, "max_n": max_n}, 0)
    for rec in oracle_records(base, max_n):
        report.instances += 1
        if rec[left] != rec[right]:
            report.failures.append(rec)
    return _finish(report, t0)


def sweep_oracle_equivalence(base: int = 10, max_n: int = 1000) -> SweepReport:
    """Fast membership test against the all-x digit oracle."""
    return _compare_records("oracle-equivalence", base, max_n, "theorem", "all_x")


def sweep_mode_equivalence(base: int = 10, max_n: int = 1000) -> SweepReport:
    """All-x oracle against the x=1 oracle."""
    return _compare_records("mode-equivalence", base, max_n, "all_x", "x_equals_1")


def sweep_coset(base: int = 10, max_n: int = 300) -> SweepReport:
    """Coset translates union back to the subgroup for every valid (k1, k2).

    Each decomposition must also hold c = d2 // d1 translates.
    """
    t0 = perf_counter()
    report = SweepReport("coset", {"base": base, "max_n": max_n}, 0)
    for n in range(2, max_n + 1):
        if gcd(n, base) != 1:
            continue
        e = _order_int(base, n)
        ks = divisors(e)
        for k2 in ks:
            d2 = e // k2
            subgroup = set()
            cur = 1
            step = pow(base, k2, n)
            for _ in range(d2):
                subgroup.add(cur)
                cur = cur * step % n
            for k1 in ks:
                d1 = e // k1
                if d2 % d1:
                    continue
                report.instances += 1
                dec = coset_decompose(n, base, k1, k2)
                if dec.union() != subgroup or not len(dec.cosets) == dec.c == d2 // d1:
                    report.failures.append({"n": n, "k1": k1, "k2": k2})
    return _finish(report, t0)


def sweep_prime_power(base: int = 10, max_p: int = 50, max_exp: int = 4) -> SweepReport:
    """Closed-form prime-power sets against direct enumeration, plus counts."""
    t0 = perf_counter()
    report = SweepReport(
        "prime-power", {"base": base, "max_p": max_p, "max_exp": max_exp}, 0
    )
    for p in primes_upto(max_p):
        if p == 2 or base % p == 0:
            continue
        for n in range(1, max_exp + 1):
            report.instances += 1
            closed = prime_power_set(base, p, n)
            direct = midy_set(p**n, base)
            card = cardinality_report(base, p, n)
            if (
                closed.members != direct.members
                or closed.order != direct.order
                or card.closed_form != len(direct.members)
                or not card.disjoint
            ):
                report.failures.append(
                    {
                        "p": p,
                        "n": n,
                        "closed": list(closed.members),
                        "direct": list(direct.members),
                        "count": card.closed_form,
                        "disjoint": card.disjoint,
                    }
                )
    return _finish(report, t0)


def sweep_order_lift(base: int = 10, max_p: int = 50, max_exp: int = 4) -> SweepReport:
    """Closed-form order lifting against the direct order computation."""
    t0 = perf_counter()
    report = SweepReport(
        "order-lift", {"base": base, "max_p": max_p, "max_exp": max_exp}, 0
    )
    for p in primes_upto(max_p):
        if p == 2 or base % p == 0:
            continue
        for t in range(1, max_exp + 1):
            report.instances += 1
            lifted = lifted_order(base, p, t)
            direct = multiplicative_order(base, p**t)
            if lifted != direct:
                report.failures.append({"p": p, "t": t, "lifted": lifted, "direct": direct})
    return _finish(report, t0)


def sweep_product(base: int = 10, max_product: int = 2000) -> SweepReport:
    """Filtered product sets against direct enumeration of the product modulus."""
    t0 = perf_counter()
    report = SweepReport("product", {"base": base, "max_product": max_product}, 0)
    for n in range(2, max_product + 1):
        if gcd(n, base) != 1:
            continue
        e = _order_int(base, n)
        for m in range(1, max_product // n + 1):
            if gcd(m, n) != 1 or gcd(m, base) != 1:
                continue
            if _order_int(base, m * n) != e:
                continue
            report.instances += 1
            filtered = product_set(n, m, base)
            direct = midy_set(m * n, base)
            if filtered.members != direct.members:
                report.failures.append(
                    {
                        "n": n,
                        "m": m,
                        "filtered": list(filtered.members),
                        "direct": list(direct.members),
                    }
                )
    return _finish(report, t0)


def sweep_upward_closure(base: int = 10, max_n: int = 500) -> SweepReport:
    """Upward closure, the top element, and midy_set against per-divisor check_midy.

    The set must also carry the period length e as its order.
    """
    t0 = perf_counter()
    report = SweepReport("upward-closure", {"base": base, "max_n": max_n}, 0)
    for n, e, ds in _moduli(base, max_n):
        report.instances += 1
        ms = midy_set(n, base)
        found = ms.members
        checked = tuple(d for d in ds if check_midy(n, base, d).member)
        members = set(found)
        closed = all(
            d2 in members
            for d1 in members
            for d2 in ds
            if d2 % d1 == 0
        )
        top_ok = not members or e in members
        if found != checked or ms.order != e or not closed or not top_ok:
            report.failures.append({"n": n, "members": list(found)})
    return _finish(report, t0)


def sweep_even_multiplier(base: int = 10, max_n: int = 500) -> SweepReport:
    """When 2 is a member, every even divisor d of e has multiplier d/2."""
    t0 = perf_counter()
    report = SweepReport("even-multiplier", {"base": base, "max_n": max_n}, 0)
    for n, e, ds in _moduli(base, max_n):
        if e % 2 or not check_midy(n, base, 2).member:
            continue
        for d in ds:
            if d % 2:
                continue
            report.instances += 1
            m = multiplier(n, base, d)
            if m != d // 2:
                report.failures.append({"n": n, "d": d, "multiplier": m})
    return _finish(report, t0)


def sweep_gcd_form(base: int = 10, max_n: int = 500) -> SweepReport:
    """Prime-sweep verdicts, certificates included, against the block-sum gcd form.

    The gcd form shares no valuation rule with the prime sweep.  A witness
    prime p must also divide b**k - 1, so its order divides k.
    """
    t0 = perf_counter()
    report = SweepReport("gcd-form", {"base": base, "max_n": max_n}, 0)
    for n, e, ds in _moduli(base, max_n):
        for d in ds:
            report.instances += 1
            lhs = check_midy(n, base, d)
            rhs = check_midy_gcd(n, base, d)
            cert = lhs.certificate
            if lhs != rhs or (cert is not None and pow(base, lhs.k, cert.prime) != 1):
                report.failures.append(
                    {"n": n, "d": d, "prime_form": asdict(lhs), "gcd_form": asdict(rhs)}
                )
    return _finish(report, t0)


def sweep_primitive_prime(
    max_base: int = 20, max_order: int = 12, scan_limit: int = 100_000
) -> SweepReport:
    """Exceptional pairs and smallest-prime answers against a direct prime scan."""
    t0 = perf_counter()
    report = SweepReport(
        "zsig",
        {"max_base": max_base, "max_order": max_order, "scan_limit": scan_limit},
        0,
    )
    primes = primes_upto(scan_limit)
    for b in range(2, max_base + 1):
        for n in range(2, max_order + 1):
            report.instances += 1
            expect_exceptional = (n == 2 and _is_power_of_two(b + 1)) or (n, b) == (6, 2)
            got = primitive_prime(b, n)
            if expect_exceptional:
                if got is not None:
                    report.failures.append({"b": b, "n": n, "got": got, "expected": None})
                continue
            smallest = None
            for p in primes:
                if p % n != 1 or b % p == 0:
                    continue
                if _order_int(b, p) == n:
                    smallest = p
                    break
            ok = (
                got is not None
                and _order_int(b, got) == n
                and (got == smallest if smallest is not None else got > scan_limit)
            )
            if not ok:
                report.failures.append({"b": b, "n": n, "got": got, "scan": smallest})
    return _finish(report, t0)


SUITES = {
    "oracle-equivalence": sweep_oracle_equivalence,
    "mode-equivalence": sweep_mode_equivalence,
    "coset": sweep_coset,
    "prime-power": sweep_prime_power,
    "order-lift": sweep_order_lift,
    "product": sweep_product,
    "upward-closure": sweep_upward_closure,
    "even-multiplier": sweep_even_multiplier,
    "gcd-form": sweep_gcd_form,
    "zsig": sweep_primitive_prime,
}
