"""The four workloads: seeded input generation and the check of every output.

Inputs are made here with ``random.Random`` and sympy, never with midy, so a
worker process receives finished inputs.  Each workload's ``plan`` is one
round: the calls a worker makes, how many items each call completes, and the
independent facts that ``check`` compares the outputs against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd, lcm

from sympy import factorint, isprime, n_order, totient

import checker

BASES = (2, 3, 10)


@dataclass
class Plan:
    """One round of a workload: the worker's calls and the facts to check them by."""

    calls: list
    items: list[int]
    facts: list
    oracle_bound: int | None = None


def _plan(picked: list, oracle_bound: int | None = None) -> Plan:
    """A plan of one item per call from (call, fact) pairs."""
    return Plan(
        calls=[call for call, _ in picked],
        items=[1] * len(picked),
        facts=[fact for _, fact in picked],
        oracle_bound=oracle_bound,
    )


def _error(out) -> str | None:
    if isinstance(out, dict) and "error" in out:
        return f"{out['error']}: {out['message']}"
    return None


class OracleSweep:
    """A fixed sample of the Tier-1 oracle sweep: both oracle modes per modulus.

    The Tier-1 acceptance sweep (``verify.oracle_records``) runs
    ``oracle_midy_sweep`` in the all-x and the x-equals-1 mode on every
    n <= MAX_N coprime to b with a nonempty divisor list, in bases 2, 3 and
    10: 1,561 moduli.  The sample takes PER_BAND moduli from each band of
    BAND values of n, one from each of PER_BAND runs of the band sorted by
    all-x digit work phi(n) * e.  So each band has the same share of the
    sample's moduli as of the sweep's, and about the same share of its digit
    work.  The sample is drawn once, with a fixed seed: per-item latency comes
    in lumps of one modulus's verdicts, and over seeded samples of this size
    its median moved by a third.  The run's seed orders the calls.
    """

    name = "oracle-sweep"
    MAX_N = 1000
    BAND = 100  # width of a band of n
    PER_BAND = 4
    tail_percentile = 96

    def population(self) -> list[tuple[int, int, int, int]]:
        """(digit work, n, b, e) for every modulus of the Tier-1 sweep, by work."""
        out = []
        for b in BASES:
            for n in range(2, self.MAX_N + 1):
                if gcd(n, b) == 1:
                    e = n_order(b, n)
                    if e >= 2:
                        out.append((int(totient(n)) * e, n, b, e))
        return sorted(out)

    def sample(self) -> list[tuple[int, int, int, int]]:
        """PER_BAND moduli from each band of n, one from each run of its work order."""
        fixed = random.Random("oracle-sweep-sample")
        everything = self.population()
        out = []
        for low in range(0, self.MAX_N, self.BAND):
            band = [m for m in everything if low < m[1] <= low + self.BAND]
            cuts = [i * len(band) // self.PER_BAND for i in range(self.PER_BAND + 1)]
            out += [fixed.choice(band[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]
        return out

    def plan(self, rng: random.Random) -> Plan:
        picked = []
        for _, n, b, e in self.sample():
            ds = [d for d in checker.divisors_from(checker.prime_factors(e)) if d >= 2]
            picked.append(([n, b, ds], e))
        rng.shuffle(picked)
        return Plan(
            calls=[call for call, _ in picked],
            items=[len(call[2]) for call, _ in picked],
            facts=[e for _, e in picked],
        )

    def check(self, plan: Plan, outputs: list) -> tuple[list[str], list[int]]:
        problems, failed = [], []
        for i, ((n, b, _), e, out) in enumerate(zip(plan.calls, plan.facts, outputs)):
            err = _error(out)
            if err:
                failed.append(i)
                problems.append(f"oracle_midy_sweep({n}, {b}) raised {err}")
                continue
            for mode, verdicts in out.items():
                problems += [f"{mode}: {p}" for p in checker.verdict_problems(n, b, e, dict(verdicts))]
        return problems, failed


def _random_prime(rng: random.Random, bits: int) -> int:
    while True:
        p = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if isprime(p):
            return p


class BigQuery:
    """`midy set --json` then `midy check --json` on fresh two-prime moduli.

    Each base gets PER_BASE moduli whose primes take the sizes in BITS in
    turn, so every round has the same mix of sizes and only the primes are
    drawn.  The block count d given to `check` is a seeded divisor >= 2 of
    the order.  Three-prime moduli are left out: their factoring time is
    heavy-tailed (coefficient of variation 1.1 to 1.8 per query against 0.3
    to 0.5 for two primes), so a round's time followed the seed.  Below 26
    bits the CLI's own parsing outweighs the factoring.
    """

    name = "big-query"
    PER_BASE = 40
    BITS = range(26, 31)
    tail_percentile = 90

    def plan(self, rng: random.Random) -> Plan:
        picked = []
        bits = list(self.BITS)
        for b in BASES:
            for i in range(self.PER_BASE):
                p = _random_prime(rng, bits[i % len(bits)])
                q = p
                while q == p:
                    q = _random_prime(rng, bits[(i + 1) % len(bits)])
                e_p, e_q = n_order(b, p), n_order(b, q)
                e_factors = dict(checker.prime_factors(e_p))
                for r, a in checker.prime_factors(e_q).items():
                    e_factors[r] = max(a, e_factors.get(r, 0))
                d = rng.choice([d for d in checker.divisors_from(e_factors) if d >= 2])
                picked.append(([b, p * q, d], [lcm(e_p, e_q), e_factors]))
        rng.shuffle(picked)
        return _plan(picked)

    def check(self, plan: Plan, outputs: list) -> tuple[list[str], list[int]]:
        problems, failed = [], []
        for i, ((b, n, d), (e, e_factors), out) in enumerate(
            zip(plan.calls, plan.facts, outputs)
        ):
            err = _error(out)
            if err or out["set"][0] != 0 or out["check"][0] != 0:
                failed.append(i)
                problems.append(f"query ({b}, {n}, {d}) failed: {err or out}")
                continue
            got_set, got_check = out["set"][1]["result"], out["check"][1]["result"]
            if got_set["order"] != e:
                problems.append(f"order of {b} mod {n} reported {got_set['order']}, expected {e}")
                continue
            problems += checker.set_problems(n, b, e, got_set["members"], e_factors)
            k = e // d
            member = checker.is_member(n, b, e, d)
            if got_check["member"] != member or got_check["k"] != k:
                problems.append(f"check ({b}, {n}, {d}) gave {got_check}, expected member={member}")
            cert = got_check.get("certificate")
            if member and cert is not None:
                problems.append(f"check ({b}, {n}, {d}) gave a certificate for a member")
            if not member:
                if cert is None:
                    problems.append(f"check ({b}, {n}, {d}) gave no certificate")
                else:
                    problems += checker.certificate_problems(n, b, d, k, cert)
        return problems, failed


class SetTable:
    """analyzer.midy_set over a contiguous window of moduli near 10**9."""

    name = "set-table"
    START = 10**9
    WIDTH = 1500  # a multiple of 30, so each base sees the same count of coprime moduli
    tail_percentile = 99

    def plan(self, rng: random.Random) -> Plan:
        start = self.START + 30 * rng.randrange(10**6)
        calls = [
            [n, b] for n in range(start, start + self.WIDTH) for b in BASES if gcd(n, b) == 1
        ]
        return Plan(calls=calls, items=[1] * len(calls), facts=[None] * len(calls))

    def check(self, plan: Plan, outputs: list) -> tuple[list[str], list[int]]:
        problems, failed = [], []
        for i, ((n, b), out) in enumerate(zip(plan.calls, outputs)):
            err = _error(out)
            if err:
                failed.append(i)
                problems.append(f"midy_set({n}, {b}) raised {err}")
                continue
            e, members = out
            problems += checker.set_problems(n, b, e, members)
        return problems, failed


class Shrink:
    """constructor.shrink on moduli n < MAX_N with a nonempty set, in their natural mix.

    The plan classifies every such (n, b) without midy.  For each prime q of
    the order it predicts the route that primitive_prime's auto search takes
    (a scan to SHORT_SCAN, the cyclotomic value, or the scan on to LONG_SCAN)
    and whether it fails.  From the primes found it predicts z with the
    construction's case split, and so whether z*n <= ORACLE_BOUND brings the
    digit oracle's re-check, at phi(z*n)*e digits.  It also predicts each
    shrink's cost from its scan steps, Miller-Rabin rounds and oracle digits.

    The moduli that succeed are sorted by predicted cost, split into STRATA
    runs of near-equal length and one is drawn from each, so every kind of
    shrink appears at its natural rate.  The moduli that fail do so whatever
    the seed decides, so they are not drawn: a fixed list of them, of the
    size of their natural share, runs in every round.
    """

    name = "shrink"
    MAX_N = 3000
    ORACLE_BOUND = 2_000
    SHORT_SCAN = 100_000  # primitive_prime's first scan ...
    LONG_SCAN = 10_000_000  # ... and the default limit of its last one
    SMALL_BITS = 80  # a cyclotomic value this small is factored outright
    SLOW_BITS = 1_000  # a prime cyclotomic value this large takes the program > 20 s
    STRATA = 150
    FAULTY_PER_BASE = {2: 2, 3: 2, 10: 4}  # 8 of 158, the natural 5.1%, split as the bases' shares
    NAMED_FAULTS = ([1193, 2], [1063, 10])  # shrink raises "no prime of order q ... raise the limit"
    # seconds per scan step, per squared bit of one Miller-Rabin round, per oracle digit
    STEP_S, MR_BIT2_S, DIGIT_S = 2.6e-6, 1.3e-8, 0.9e-6
    tail_percentile = 93

    def __init__(self):
        self._routes: dict[tuple[int, int], tuple] = {}
        self._population = None

    def _scan(self, b: int, q: int, start: int, limit: int) -> int | None:
        """The least prime p in [start, limit], p = 1 (mod q), of order q for b."""
        first = start + (1 - start) % q
        for p in range(first, limit + 1, q):
            if pow(b, q, p) == 1 and b % p != 1 and isprime(p):
                return p
        return None

    def _route(self, b: int, q: int) -> tuple:
        """(least prime of order q or None, predicted seconds of the search, too slow)."""
        key = (b, q)
        if key in self._routes:
            return self._routes[key]
        p = self._scan(b, q, q + 1, self.SHORT_SCAN)
        cost = (p or self.SHORT_SCAN) // q * self.STEP_S
        slow = False
        if p is None:
            value = (b**q - 1) // (b - 1)  # the cyclotomic value at b for a prime q
            bits = value.bit_length()
            if bits <= self.SMALL_BITS:
                p = min(r for r in factorint(value) if b % r and n_order(b, r) == q)
            elif isprime(value):
                p, slow = value, bits > self.SLOW_BITS
                cost += 2 * 36 * self.MR_BIT2_S * bits**2  # proved prime, then factored
            else:
                p = self._scan(b, q, self.SHORT_SCAN + 1, self.LONG_SCAN)
                cost += self.MR_BIT2_S * bits**2
                cost += ((p or self.LONG_SCAN) - self.SHORT_SCAN) // q * self.STEP_S
        self._routes[key] = (p, cost, slow)
        return self._routes[key]

    def classify(self, n: int, b: int) -> dict | None:
        """What shrink(n, b) will do, or None when n is not a shrink input here."""
        if gcd(n, b) != 1:
            return None
        e = n_order(b, n)
        if e < 2 or not checker.is_member(n, b, e, e):
            return None  # empty set: shrink refuses it
        factors = checker.prime_factors(e)
        found = {"n": n, "b": b, "e": e, "factors": factors, "fails": False, "digits": 0, "cost": 0.0}
        if checker.midy_members(n, b, e, factors) == (e,):
            return found  # already the singleton: z = 1, no search
        z, current = 1, n
        for q in sorted(factors):
            if q == 2 and (b + 1) & b == 0:
                c, s = checker.nu(2, current), checker.nu(2, e)
                step = 2 ** (s - c) if s > c else 1
            else:
                p, cost, slow = self._route(b, q)
                if slow:
                    return None
                found["cost"] += cost
                if p is None:
                    found["fails"] = True
                    return found
                c, s = checker.nu(p, current), checker.nu(p, e)
                step = p ** (s + 1) if c == 0 else (1 if c > s else p ** (s - c + 1))
            z *= step
            current *= step
        if current <= self.ORACLE_BOUND:
            found["digits"] = int(totient(current)) * e
            found["cost"] += found["digits"] * self.DIGIT_S
        return found

    def population(self) -> list[dict]:
        """Every shrink input below MAX_N in the three bases, by predicted cost."""
        if self._population is None:
            everything = (self.classify(n, b) for b in BASES for n in range(3, self.MAX_N))
            self._population = sorted(
                (f for f in everything if f is not None), key=lambda f: (f["cost"], f["b"], f["n"])
            )
        return self._population

    def faulty(self) -> list[dict]:
        """The failing inputs of every round: the named ones and a fixed draw of the rest."""
        failing = [f for f in self.population() if f["fails"]]
        named = [f for f in failing if [f["n"], f["b"]] in self.NAMED_FAULTS]
        fixed = random.Random("shrink-faults")
        out = list(named)
        for b, count in self.FAULTY_PER_BASE.items():
            rest = [f for f in failing if f["b"] == b and f not in named]
            out += fixed.sample(rest, count - sum(f["b"] == b for f in named))
        return out

    def plan(self, rng: random.Random) -> Plan:
        succeeding = [f for f in self.population() if not f["fails"]]
        cuts = [i * len(succeeding) // self.STRATA for i in range(self.STRATA + 1)]
        chosen = [rng.choice(succeeding[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]
        chosen += self.faulty()
        rng.shuffle(chosen)
        picked = [([f["n"], f["b"]], [f["e"], f["factors"], f["fails"]]) for f in chosen]
        return _plan(picked, oracle_bound=self.ORACLE_BOUND)

    def check(self, plan: Plan, outputs: list) -> tuple[list[str], list[int]]:
        problems, failed = [], []
        for i, ((n, b), (e, factors, fails), out) in enumerate(zip(plan.calls, plan.facts, outputs)):
            err = _error(out)
            if err:
                failed.append(i)
                expected = fails and out["error"] == "MidyError" and (
                    out["message"].startswith("no prime of order")
                )
                if not expected:
                    problems.append(f"shrink({n}, {b}) raised {err}")
                continue
            if fails:
                problems.append(f"shrink({n}, {b}) returned, but no prime of order q was predicted")
            z, steps = out["z"], out["steps"]
            product = 1
            for _, step_z in steps:
                product *= step_z
            if z != product:
                problems.append(f"shrink({n}, {b}): z={z} is not the product of its steps {steps}")
            if out["shrunk"] != z * n or out["order"] != e:
                problems.append(f"shrink({n}, {b}) reported {out}, with order {e} expected")
                continue
            problems += checker.set_problems(z * n, b, e, out["members"], factors)
            if tuple(out["members"]) != (e,):
                problems.append(f"shrink({n}, {b}) left the set {out['members']}, not {{{e}}}")
        return problems, failed


WORKLOADS = {w.name: w for w in (OracleSweep(), BigQuery(), SetTable(), Shrink())}
