#!/usr/bin/env python3
"""airkey benchmark: trial throughput and latency on three protocol workloads.

Run from the repository root:

    python3 bench/run.py --workload hmac-rayleigh --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
workloads, metrics and their expected movements are described in
``bench/README.md``.
"""

from __future__ import annotations

import argparse
import csv
import gzip
import hashlib
import io
import json
import math
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from decimal import Decimal
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Each run times at least this many trials, so that ten samples lie beyond p90.
MIN_TRIALS = 100
# Fresh interpreters launched per run to time set-up; the median is reported.
SETUP_LAUNCHES = 7
# The warm-up trial is fixed, so set-up time does not depend on --seed.
WARMUP_SEED = 7331
# eve-small runs experiments of this many trials, alternating the protocols.
EXPERIMENT_TRIALS = 10
# Failure lines printed per run; every failure is still counted.
MAX_PRINTED_FAILURES = 20
# Kernel micro-metrics: ln/exp of fixed primes at each precision.
KERNEL_DIGITS = (64, 128, 256, 512)
KERNEL_PRIMES = (100003, 350377, 611953, 999983)
KERNEL_REPEATS = 21
# A traced run's share of wall time its spans may leave uncovered.
MAX_RESIDUE_FRAC = 0.01

WORKLOADS = {
    # Largest and costliest point of acceptance criterion 1: Decimal.ln of
    # the transmitted primes and of the Rayleigh gains dominates.
    "hmac-rayleigh": [
        dict(protocol="hmac", n_users=16, prime_digits=6, precision_digits=128,
             fading="rayleigh"),
    ],
    # Largest point of criterion 2: exp on wide products and factorization;
    # few ln calls and no Rayleigh draws.
    "fmac-integer": [
        dict(protocol="fmac", n_users=12, c_max=8, prime_digits=5,
             precision_digits=256, fading="integer"),
    ],
    # Small experiments with the eavesdropper and every output file, so the
    # attack and fixed per-trial and per-experiment costs show.
    "eve-small": [
        dict(protocol="hmac", n_users=4, prime_digits=6, precision_digits=128,
             fading="rayleigh", eve=True, eve_mode="two_round", eve_taps="rayleigh"),
        dict(protocol="fmac", n_users=6, c_max=4, prime_digits=5,
             precision_digits=128, fading="integer", eve=True, eve_taps="rayleigh"),
    ],
}
EXPERIMENT_WORKLOADS = {"eve-small"}


def derive_seed(*parts) -> int:
    digest = hashlib.sha256(":".join(map(str, ("airkey-bench",) + parts)).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def import_airkey():
    """Import airkey from this checkout's src/, never from elsewhere."""
    if not (SRC / "airkey" / "__init__.py").is_file():
        raise FileNotFoundError(f"no airkey sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import airkey

    if Path(airkey.__file__).resolve().parent != SRC / "airkey":
        raise ImportError(f"imported airkey from {airkey.__file__}, not {SRC}")


class Workload:
    """Turns a workload name and seed into a sequence of units.

    A unit is one ``run_trial`` call, or for eve-small one ``run_experiment``
    call.  Unit ``k`` is a pure function of (name, seed, k).
    """

    def __init__(self, name: str, seed: int, scratch: Path):
        from airkey import harness

        self.name = name
        self.seed = seed
        self.scratch = scratch
        self.batch = name in EXPERIMENT_WORKLOADS
        self.templates = [harness.ExperimentConfig(**f).validate() for f in WORKLOADS[name]]
        self._trial_cfg = replace(self.templates[0], seed=derive_seed(name, seed)).validate()
        # Units per traced cycle: enough distinct inputs to be representative.
        self.trace_cycle = 4 if self.batch else 10

    def warm_up(self):
        from airkey import harness

        for template in self.templates:
            harness.run_trial(replace(template, seed=WARMUP_SEED).validate(), 0)

    def config(self, k: int):
        if not self.batch:
            return self._trial_cfg
        return replace(
            self.templates[k % len(self.templates)],
            seed=derive_seed(self.name, self.seed, k),
            trials=EXPERIMENT_TRIALS,
            out_dir=str(self.scratch / f"experiment_{k}"),
            save_transcripts=True,
        ).validate()

    def unit_trials(self, cfg, k: int) -> range:
        """Trial indices that unit ``k`` runs."""
        return range(cfg.trials) if self.batch else range(k, k + 1)

    def run(self, cfg, k: int):
        from airkey import harness

        if self.batch:
            return harness.run_experiment(cfg)
        return harness.run_trial(cfg, k)


class TrialLog:
    """Replaces ``harness.run_trial`` to time each trial and keep its outputs.

    ``run_experiment`` calls ``run_trial`` through the harness module's
    globals, so this sees the trials of an experiment as well.
    """

    def __init__(self):
        from airkey import harness

        self._harness = harness
        self._original = harness.run_trial
        self.records = []

        def logged(cfg, trial):
            t0 = time.perf_counter_ns()
            try:
                out = self._original(cfg, trial)
            except Exception as e:
                self.records.append((cfg, trial, time.perf_counter_ns() - t0, None, e))
                raise
            self.records.append((cfg, trial, time.perf_counter_ns() - t0, out, None))
            return out

        harness.run_trial = logged

    def drain(self) -> list:
        records, self.records = self.records, []
        return records

    def close(self):
        self._harness.run_trial = self._original


def check_trial(cfg, trial, out, error) -> list[str]:
    """Problems with one trial's outputs; an empty list means correct.

    The primes and, for fmac, the integer gains are drawn again from the
    trial's child seed, so the expected secret and exponent maps come from
    the inputs rather than from the protocol's own outputs.
    """
    from airkey import channel, harness, integers

    if error is not None:
        return [f"raised {type(error).__name__}: {error}"]
    row, transcript, report = out
    n = cfg.n_users
    rng = random.Random(harness.child_seed(cfg.seed, trial))
    primes, _ = integers.sample_distinct_primes(n, cfg.prime_digits, rng)
    values = [p.value for p in primes]
    problems = []
    if transcript.per_user_secret != [math.prod(values)] * n:
        problems.append("a receiver failed or recovered another secret than the product")
    if row["group_agreed"] != 1 or row["failures"] != 0:
        problems.append(f"row has group_agreed={row['group_agreed']} failures={row['failures']}")
    if cfg.protocol == "fmac":
        ch = channel.draw_channel(n, channel.FadingModel.integer(cfg.c_max),
                                  Decimal(cfg.h_star), Decimal(cfg.noise_variance), rng)
        for j, obs in enumerate(transcript.rounds):
            want = {values[i]: ch.c[i][j] for i in range(n) if i != j}
            got = dict(obs.exponent_map.factors) if obs.exponent_map is not None else None
            if got != want:
                problems.append(f"receiver {j} exponent map {got} != {want}")
    if cfg.eve and (report is None or report.key_equal or row["eve_key_equal"] != 0):
        problems.append("the eavesdropper recovered the key")
    return problems


def check_experiment(cfg) -> tuple[str | None, list[str]]:
    """sha256 of metrics.csv and problems with an experiment's output files."""
    out = Path(cfg.out_dir)
    try:
        metrics = (out / "metrics.csv").read_bytes()
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        transcripts = len(list((out / "transcripts").glob("trial_*.json")))
    except (OSError, ValueError) as e:
        return None, [f"output files unreadable: {e}"]
    finally:
        shutil.rmtree(out, ignore_errors=True)
    problems = []
    rows = list(csv.DictReader(io.StringIO(metrics.decode("utf-8"))))
    if len(rows) != cfg.trials or transcripts != cfg.trials:
        problems.append(f"{len(rows)} rows and {transcripts} transcripts for {cfg.trials} trials")
    if any((r["group_agreed"], r["failures"], r["eve_key_equal"]) != ("1", "0", "0") for r in rows):
        problems.append("metrics.csv reports a failed trial or a successful eavesdropper")
    if summary.get("agreement_rate") != 1.0 or summary.get("eve_success_rate") != 0.0:
        problems.append("summary.json reports failed agreement or a successful eavesdropper")
    return hashlib.sha256(metrics).hexdigest(), problems


class Gate:
    """Runs the correctness checks after each unit and counts failed trials."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.latencies_ms = []
        self.digests = []

    def check_unit(self, cfg, k: int, records, unit_error):
        """Check a unit's trials and count the failed ones."""
        trials = self.workload.unit_trials(cfg, k)
        failed = {}
        for r_cfg, trial, ns, out, error in records:
            if error is None:
                self.latencies_ms.append(ns / 1e6)
            problems = check_trial(r_cfg, trial, out, error)
            if problems:
                failed[trial] = problems
        unit_problems = []
        if len(records) != len(trials):
            unit_problems.append(f"run_trial saw {len(records)} of {len(trials)} trials")
        elif unit_error is not None and not failed:
            unit_problems.append(f"raised {type(unit_error).__name__}: {unit_error}")
        if self.workload.batch:
            digest, output_problems = check_experiment(cfg)
            unit_problems += output_problems
            self.digests.append({"experiment": k, "protocol": cfg.protocol,
                                 "seed": cfg.seed, "metrics_csv_sha256": digest})
        if unit_problems:
            failed.update({t: unit_problems for t in trials if t not in failed})
        for trial, problems in sorted(failed.items()):
            if self.failed < MAX_PRINTED_FAILURES:
                print(f"FAILED {self.workload.name} unit {k} trial {trial}: {'; '.join(problems)}")
            self.failed += 1
        self.attempted += len(trials)


def run_unit(workload, gate, log, k, tracer=None) -> int:
    """Run unit ``k`` once (traced if a tracer is given) and check it; returns ns."""
    cfg = workload.config(k)
    error = None
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter_ns()
    try:
        workload.run(cfg, k)
    except Exception as e:  # recorded and counted by the gate, never dropped
        error = e
    finally:
        elapsed = time.perf_counter_ns() - t0
        if tracer is not None:
            tracer.uninstall()
    gate.check_unit(cfg, k, log.drain(), error)
    return elapsed


def measure_setup(name: str) -> list[float]:
    """Seconds from launching a fresh interpreter to the end of its warm-up."""
    samples = []
    for _ in range(SETUP_LAUNCHES):
        t0 = time.perf_counter_ns()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        # perf_counter is CLOCK_MONOTONIC, shared by parent and child.
        samples.append((int(proc.stdout.split()[-1]) - t0) / 1e9)
    return samples


def end_to_end(workload, gate, log, seconds) -> tuple[dict, dict]:
    setup = measure_setup(workload.name)
    busy_ns = 0
    k = 0
    deadline = time.perf_counter_ns() + int(seconds * 1e9)
    while time.perf_counter_ns() < deadline or gate.attempted < MIN_TRIALS:
        busy_ns += run_unit(workload, gate, log, k)
        k += 1
    lat = gate.latencies_ms
    if len(lat) < 2:
        raise RuntimeError(f"{len(lat)} trials completed; see the FAILED lines")
    metrics = {
        "trials_per_s": (len(lat) / (busy_ns / 1e9), "1/s"),
        "trial_ms_p50": (statistics.median(lat), "ms"),
        "trial_ms_p90": (statistics.quantiles(lat, n=10)[8], "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(f"{workload.name}: {len(lat)} trials in {k} units, {busy_ns / 1e9:.2f} s busy, "
          f"closed loop, one caller")
    print(f"  latency samples: {len(lat)}; set-up launches (s): "
          + ", ".join(f"{s:.4f}" for s in setup))
    details = {"setup_samples_s": setup, "units": k}
    return metrics, details


def kernel_metrics() -> tuple[dict, list[str]]:
    """Per-call ln/exp time on fixed primes at each precision, in us."""
    from airkey import arith

    metrics, problems = {}, []
    for digits in KERNEL_DIGITS:
        ctx = arith.PrecisionContext(digits)
        logs = [arith.ln(p, ctx) for p in KERNEL_PRIMES]
        for p, x in zip(KERNEL_PRIMES, logs):
            if int(arith.exp(x, ctx).to_integral_value()) != p:
                problems.append(f"exp(ln({p})) does not round to {p} at {digits} digits")
        for name, fn, inputs in (("ln", arith.ln, KERNEL_PRIMES), ("exp", arith.exp, logs)):
            samples = []
            for _ in range(KERNEL_REPEATS):
                t0 = time.perf_counter_ns()
                for x in inputs:
                    fn(x, ctx)
                samples.append((time.perf_counter_ns() - t0) / len(inputs) / 1e3)
            metrics[f"arith.kernel.{name}_us.d{digits}"] = (statistics.median(samples), "us")
    return metrics, problems


def traced(workload, gate, log, seconds) -> tuple[dict, dict, list[str]]:
    """Cycles over a fixed set of units, running each untraced and traced.

    Counts therefore repeat exactly between runs with the same seed and
    between cycles of one run, and the paired runs give the tracing
    overhead on identical inputs.
    """
    from tracing import Tracer, count_signature, layer_metrics, layer_self_ms

    tracer = Tracer()
    problems = []
    untraced_ns = traced_ns = 0
    signatures = {}
    deadline = time.perf_counter_ns() + int(seconds * 1e9)
    cycle = 0
    while cycle == 0 or time.perf_counter_ns() < deadline:
        for k in range(workload.trace_cycle):
            for with_trace in (False, True) if cycle % 2 == 0 else (True, False):
                if not with_trace:
                    untraced_ns += run_unit(workload, gate, log, k)
                    continue
                first = len(tracer.spans)
                traced_ns += run_unit(workload, gate, log, k, tracer)
                signature = count_signature(tracer.spans[first:])
                if signatures.setdefault(k, signature) != signature:
                    problems.append(f"counts of unit {k} differ between cycles")
        cycle += 1

    digests = {}
    for d in gate.digests:
        digests.setdefault(d["experiment"], set()).add(d["metrics_csv_sha256"])
    problems += [f"metrics.csv of experiment {k} differs between runs"
                 for k, seen in digests.items() if len(seen) > 1]

    spans = tracer.spans
    trials = sum(s.name == "harness.trial" for s in spans)
    if not trials:
        raise RuntimeError("no traced trial completed; see the FAILED lines")
    self_ms = layer_self_ms(spans)
    residue_ns = traced_ns - sum(self_ms.values()) * 1e6
    residue_frac = residue_ns / traced_ns
    if abs(residue_frac) > MAX_RESIDUE_FRAC:
        problems.append(f"layer self times leave {residue_frac:.2%} of traced wall time")
    metrics = layer_metrics(spans, trials)
    metrics["trace.overhead_frac"] = (traced_ns / untraced_ns - 1, "ratio")
    kernel, kernel_problems = kernel_metrics()
    metrics.update(kernel)
    problems += kernel_problems

    print(f"{workload.name} traced: {cycle} cycles of {workload.trace_cycle} units, "
          f"{trials} traced trials, {len(spans)} spans")
    print("  layer self time per trial (ms):")
    for layer, ms in sorted(self_ms.items(), key=lambda kv: -kv[1]):
        print(f"    {layer:<11} {ms / trials:10.3f}  {ms * 1e6 / traced_ns:6.1%}")
    print(f"  self-check: traced wall {traced_ns / 1e6:.1f} ms, sum of self times "
          f"{sum(self_ms.values()):.1f} ms, residue {residue_ns / 1e3:.1f} us "
          f"({residue_frac:.4%})")
    trace_file = OUT / f"trace-{workload.name}-seed{workload.seed}.jsonl.gz"
    with gzip.open(trace_file, "wt", encoding="utf-8") as f:
        for span in spans:
            f.write(json.dumps(span.to_row()) + "\n")
    print(f"  spans written to {trace_file.relative_to(ROOT)}")
    return metrics, {"cycles": cycle, "traced_trials": trials}, problems


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced, then a table."""
    rows, ok = [], True
    for name in WORKLOADS:
        for trace in (0, 1) if args.trace is None else (args.trace,):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True,
            )
            print(proc.stdout, end="")
            print(proc.stderr, end="", file=sys.stderr)
            if proc.returncode != 0:
                ok = False
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            ok = ok and result["correct"]
            rows.append((name, "failed_frac", result["failed"] / result["attempted"], "ratio"))
            rows += [(name, m, v["value"], v["unit"]) for m, v in result["metrics"].items()]
    print("\nworkload        metric                                       value unit")
    for name, metric, value, unit in rows:
        print(f"{name:<15} {metric:<36} {value:14.6f} {unit}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics; 1: per-layer metrics "
                             "(with --workload all, omit to get both)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.setup_probe and None in (args.seed, args.seconds):
        parser.error("--seed and --seconds are required")
    if not args.setup_probe and args.workload != "all" and args.trace is None:
        parser.error("--trace is required")

    try:
        import_airkey()
    except (FileNotFoundError, ImportError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        Workload(args.workload, 0, OUT).warm_up()
        print(time.perf_counter_ns())
        return 0

    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"run-{args.workload}-seed{args.seed}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir()
    workload = Workload(args.workload, args.seed, scratch)
    workload.warm_up()
    log = TrialLog()
    gate = Gate(workload)
    try:
        if args.trace:
            metrics, details, problems = traced(workload, gate, log, args.seconds)
        else:
            metrics, details = end_to_end(workload, gate, log, args.seconds)
            problems = []
    finally:
        log.close()
        shutil.rmtree(scratch, ignore_errors=True)

    for problem in problems:
        print(f"SELF-CHECK FAILED {workload.name}: {problem}")
    print(f"  {'failed_frac':<36} {gate.failed / gate.attempted:14.6f} ratio "
          f"({gate.failed} of {gate.attempted} trials)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:14.6f} {unit}")
    if gate.digests:
        print("  metrics.csv sha256 of the first experiments:")
        first = {d["experiment"]: d for d in reversed(gate.digests) if d["experiment"] < 4}
        for k, d in sorted(first.items()):
            print(f"    experiment {k} {d['protocol']} seed {d['seed']}: "
                  f"{d['metrics_csv_sha256']}")
    details["metrics_csv"] = gate.digests
    report = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps(details, indent=1) + "\n", encoding="utf-8")

    result = {
        "correct": gate.failed == 0 and not problems,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
