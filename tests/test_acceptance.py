"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line on the live terminal (bypassing
capture) before asserting, so a full run always shows the per-criterion
verdict.  Criterion 4 asserts the digit-overlap bound in its carry-exact
form: the bound as stated ignores decimal carry propagation and fails on
about a quarter of random draws, a rate its verdict line reports.
"""

import math
import os
import random
import time
from decimal import Decimal, localcontext

import pytest

from airkey import (
    ExperimentConfig,
    FadingModel,
    PrecisionContext,
    draw_channel,
    estimate_csi,
    eve_attack,
    exp,
    leading_digit_overlap,
    ln,
    run_experiment,
    run_protocol_fmac,
    run_protocol_hmac,
    sample_distinct_primes,
    sample_prime,
)
from airkey.arith import nearest_integer
from airkey.halfduplex import sized_exchange
from airkey.harness import child_seed
from eve_model import error_factor_from_deltas


def verdict(capsys, ok: bool, name: str, detail: str):
    with capsys.disabled():
        print(f"\n[acceptance] {name}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_half_duplex_exact_recovery(capsys):
    t0 = time.monotonic()
    bad = []
    for n in range(2, 17):
        cfg = ExperimentConfig(
            protocol="hmac", n_users=n, prime_digits=6, precision_digits=128,
            fading="rayleigh", trials=200, seed=1000 + n,
        ).validate()
        summary = run_experiment(cfg)
        if summary["agreement_rate"] != 1.0 or summary["rounds_used"] != n:
            bad.append((n, summary["agreement_rate"], summary["rounds_used"]))
    elapsed = time.monotonic() - t0
    verdict(
        capsys,
        not bad and elapsed < 120,
        "criterion 1: half-duplex exact recovery",
        f"N=2..16 x 200 trials, agreement 1.0, rounds=N, {elapsed:.0f}s"
        + (f"; failures {bad}" if bad else ""),
    )


def test_criterion_2_full_duplex_exact_recovery(capsys):
    t0 = time.monotonic()
    ctx = PrecisionContext(256)
    checked = 0
    bad = []
    for n in range(2, 13):
        for c_max in range(1, 9):
            seed = 2000 + 100 * n + c_max
            for trial in range(200):
                rng = random.Random(child_seed(seed, trial))
                primes, _ = sample_distinct_primes(n, 5, rng)
                ch = draw_channel(n, FadingModel.integer(c_max), 1, 0, rng)
                t = run_protocol_fmac(primes, ch, ctx)
                want = math.prod(p.value for p in primes)
                maps_ok = all(
                    dict(t.rounds[j].exponent_map.factors)
                    == {primes[i].value: ch.c[i][j] for i in range(n) if i != j}
                    for j in range(n)
                )
                if (
                    t.per_user_secret != [want] * n
                    or t.rounds_used != 1
                    or not maps_ok
                ):
                    bad.append((n, c_max, trial))
                checked += 1
    elapsed = time.monotonic() - t0
    verdict(
        capsys,
        not bad and elapsed < 300,
        "criterion 2: full-duplex exact recovery",
        f"N=2..12 x c_max=1..8 x 200 trials ({checked} runs), exponent maps "
        f"entrywise exact, {elapsed:.0f}s" + (f"; failures {bad[:3]}" if bad else ""),
    )


def test_criterion_3_eavesdropper_discrepancy(capsys):
    ctx = PrecisionContext(128)
    rng = random.Random(30)
    pool = [sample_prime(6, rng).value for _ in range(64)]
    pool_small = [sample_prime(5, rng).value for _ in range(64)]
    zero_gap = 0
    identity_violations = 0
    trials = 10_000
    for protocol in ("half", "full"):
        for _ in range(trials):
            n = rng.randrange(2, 6)
            if protocol == "half":
                primes = rng.sample(pool, n)
                base = [1] * n
            else:
                primes = rng.sample(pool_small, n)
                base = [rng.randrange(1, 5) for _ in range(n)]
            deltas = [
                Decimal(rng.choice([-1, 1]))
                * Decimal(rng.randrange(10**4, 10**6))
                / 10**8  # |delta| in [1e-4, 1e-2)
                for _ in range(n)
            ]
            legit = Decimal(math.prod(p**c for p, c in zip(primes, base)))
            with localcontext(ctx.ambient):
                y = sum(
                    (Decimal(c) + d) * ln(p, ctx)
                    for p, c, d in zip(primes, base, deltas)
                )
            work = PrecisionContext(128 + legit.adjusted() + 32)
            psi_eve = exp(y, work)
            if psi_eve == legit:
                zero_gap += 1
            e_r = error_factor_from_deltas(primes, deltas, work)
            with localcontext(work.ambient):
                lhs = abs(legit - psi_eve)
                rhs = legit * abs(e_r)
                if rhs == 0 or abs(lhs - rhs) / rhs > Decimal("1e-20"):
                    identity_violations += 1
    verdict(
        capsys,
        zero_gap == 0 and identity_violations == 0,
        "criterion 3: eavesdropper discrepancy",
        f"2x{trials} instances with |1-r| >= 1e-4: {zero_gap} zero gaps, "
        f"{identity_violations} factored-identity violations (tol 1e-20)",
    )


def test_criterion_4_digit_overlap_lower_bound(capsys):
    # The bound as stated, overlap(n, n*s) >= r-1 for s = 1 + a*10^-r, ignores
    # decimal carries: n*a*10^-r can carry into the leading r-1 digits (e.g.
    # 94151240 * 1.0000007247719 = 94151308.2..., overlap 5 with r=7).  As
    # n*a*10^-r < 10^(d-r+1), a carry raises the prefix P of n by exactly 1.
    # The carry-exact statement: without a carry the overlap is >= r-1; with
    # one it is the number of leading digits P and P+1 share.  The verdict
    # also reports how often the bound as stated fails.
    rng = random.Random(40)
    violations = 0
    carries = 0
    wrong = []
    trials = 10_000
    for _ in range(trials):
        d = rng.randrange(4, 13)
        n = rng.randrange(10 ** (d - 1), 10**d)
        r = rng.randrange(1, d)
        a6 = rng.randrange(10**6, 10**7)  # a = a6 * 10^-6 lies in [1, 10)
        # s = 1 + a6*10^-(r+6); n*s is evaluated exactly as the integer
        # ns_scaled = n*s * 10^(r+6)
        scale = 10 ** (r + 6)
        ns_scaled = n * scale + n * a6
        overlap = leading_digit_overlap(n, Decimal(ns_scaled).scaleb(-(r + 6)))
        if overlap < r - 1:
            violations += 1
        tail = 10 ** (d - r + 1)
        prefix = n // tail
        if (ns_scaled // scale) // tail == prefix:
            if overlap < r - 1:
                wrong.append((n, r, a6, overlap, "no carry"))
        else:
            carries += 1
            shared = len(os.path.commonprefix([str(prefix), str(prefix + 1)]))
            if overlap != shared:
                wrong.append((n, r, a6, overlap, f"carry, want {shared}"))
    verdict(
        capsys,
        not wrong,
        "criterion 4: digit-overlap lower bound",
        f"{violations}/{trials} pairs fall below r-1 as stated, {carries} carry "
        f"into the leading r-1 digits; the carry-exact form (no carry: >= r-1, "
        f"carry: digits shared by P and P+1) fails on {len(wrong)}"
        + (f", e.g. {wrong[:3]}" if wrong else ""),
    )


def test_criterion_5_trailing_digit_security(capsys):
    ctx = PrecisionContext(128)
    key_hits = 0
    overlap_bad = 0
    trials = 1000
    for k in range(trials):
        rng = random.Random(child_seed(50, k))
        primes, _ = sample_distinct_primes(3, 6, rng)
        ch = draw_channel(3, FadingModel.rayleigh(1), 1, 0, rng)
        # Eve's effective per-link exponent ratio drawn in (1.0001, 1.01)
        ch = ch.with_eve_taps(
            [
                ch.h[i][0]
                * (1 + Decimal(rng.randrange(10**4 + 10, 10**6)) / 10**8)
                for i in range(3)
            ]
        )
        csi = estimate_csi(ch)
        transcript = run_protocol_hmac(primes, ch, csi, ctx)
        report = eve_attack(transcript, primes, ch, ctx, two_round=True)
        if report.key_equal:
            key_hits += 1
        # each transmitted prime against itself raised to Eve's ratio
        overlaps = []
        for p, r in zip(primes[1:], report.ratios):
            work = sized_exchange([p], [[r]], ctx)
            with localcontext(work.ambient):
                power = exp(r * ln(p.value, work), work)
            overlaps.append(leading_digit_overlap(p.value, power))
        if any(o > 4 for o in overlaps):
            overlap_bad += 1
    verdict(
        capsys,
        key_hits == 0 and overlap_bad == 0,
        "criterion 5: trailing-digit security",
        f"{trials} trials, 6-digit primes, r in (1.0001, 1.01): "
        f"{key_hits} key recoveries, {overlap_bad} overlaps above 4",
    )


def test_criterion_6_numerics_round_trip(capsys):
    ctx = PrecisionContext(128)
    rng = random.Random(60)
    pools = {d: [sample_prime(d, rng).value for _ in range(40)] for d in (2, 4, 6, 8)}
    failures = 0
    trials = 10_000
    for _ in range(trials):
        product = 1
        picks = []
        while True:
            p = rng.choice(pools[rng.choice((2, 4, 6, 8))])
            if product * p >= 10**40:
                break
            product *= p
            picks.append(p)
            if len(picks) >= 12:
                break
        if not picks:
            continue
        with localcontext(ctx.ambient):
            y = sum(ln(p, ctx) for p in picks)
        try:
            n, distance = nearest_integer(exp(y, ctx))
            if distance > ctx.tolerance or n != product:
                failures += 1
        except Exception:
            failures += 1
    verdict(
        capsys,
        failures == 0,
        "criterion 6: numerics round-trip",
        f"{trials} random prime products below 1e40 at 128 digits, "
        f"{failures} round-trip failures",
    )


def test_criterion_7_determinism(capsys, tmp_path):
    mismatches = []
    for name, over in (
        ("hmac", dict(protocol="hmac", fading="rayleigh")),
        ("fmac", dict(protocol="fmac", fading="integer", c_max=4)),
    ):
        out = tmp_path / name
        cfg = ExperimentConfig(
            n_users=4, prime_digits=5, precision_digits=64, trials=25,
            seed=7, eve=True, out_dir=str(out), **over,
        ).validate()
        snapshots = []
        for _ in range(2):
            run_experiment(cfg)
            snapshots.append(
                (
                    (out / "metrics.csv").read_bytes(),
                    (out / "summary.json").read_bytes(),
                )
            )
        if snapshots[0] != snapshots[1]:
            mismatches.append(name)
    verdict(
        capsys,
        not mismatches,
        "criterion 7: determinism",
        "metrics.csv and summary.json byte-identical across reruns"
        + (f"; mismatches {mismatches}" if mismatches else ""),
    )
