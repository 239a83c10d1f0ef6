"""Seeded Monte-Carlo experiment runner.

One config plus one seed determines every output byte: trial randomness is
derived through a counter-based child-seed scheme, results are collected in
trial order, and all serialization uses fixed column order and sorted keys.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
from dataclasses import asdict, dataclass, replace
from decimal import Decimal
from pathlib import Path

from .adversary import eve_attack_full, eve_attack_half
from .arith import PrecisionContext
from .channel import FadingModel, draw_channel, estimate_csi, rayleigh_taps
from .errors import ConfigError
from .fullduplex import run_protocol_fmac
from .halfduplex import run_protocol_hmac
from .integers import sample_distinct_primes

SCHEMA_VERSION = 1

METRICS_COLUMNS = [
    "trial",
    "rounds_used",
    "group_agreed",
    "failures",
    "prime_collisions",
    "eve_key_equal",
    "eve_digit_overlap",
    "max_distance_to_integer",
]

SWEEPABLE_FIELDS = (
    "n_users",
    "prime_digits",
    "precision_digits",
    "csi_error",
    "noise_variance",
    "c_max",
    "rayleigh_scale",
    "trials",
)

# Primes with 1 and 2 digits; from 3 digits on there are at least 143, more
# than the n_users cap, so every user can draw a distinct prime.
_PRIME_COUNT = {1: 4, 2: 21}


@dataclass(frozen=True)
class ExperimentConfig:
    protocol: str = "hmac"
    n_users: int = 4
    prime_digits: int = 6
    precision_digits: int = 64
    fading: str = "rayleigh"
    rayleigh_scale: float = 1.0
    c_max: int = 4
    h_star: str = "1"
    csi_error: float = 0.0
    noise_variance: str = "0"
    eve: bool = False
    eve_mode: str = "single"
    eve_taps: str = "matched"
    eve_rayleigh_scale: float = 1.0
    trials: int = 100
    seed: int = 1
    out_dir: str | None = None
    save_transcripts: bool = False

    def validate(self) -> "ExperimentConfig":
        problems = {}
        if self.protocol not in ("hmac", "fmac"):
            problems["protocol"] = f"must be hmac or fmac, got {self.protocol!r}"
        if self.protocol == "fmac" and self.fading != "integer":
            problems["fading"] = "fmac requires integer fading"
        if not 2 <= self.n_users <= 64:
            problems["n_users"] = "must be in [2, 64]"
        elif self.n_users > _PRIME_COUNT.get(self.prime_digits, 64):
            problems["n_users"] = (
                f"only {_PRIME_COUNT[self.prime_digits]} primes have "
                f"{self.prime_digits} digits"
            )
        if not 1 <= self.prime_digits <= 32:
            problems["prime_digits"] = "must be in [1, 32]"
        if self.precision_digits < 16:
            problems["precision_digits"] = "must be >= 16"
        if self.fading not in ("ideal", "rayleigh", "integer"):
            problems["fading"] = f"unknown fading model {self.fading!r}"
        if self.rayleigh_scale <= 0:
            problems["rayleigh_scale"] = "must be positive"
        if self.c_max < 1:
            problems["c_max"] = "must be >= 1"
        try:
            if Decimal(self.h_star) <= 0:
                problems["h_star"] = "must be positive"
        except ArithmeticError:
            problems["h_star"] = f"not a decimal: {self.h_star!r}"
        if self.csi_error < 0:
            problems["csi_error"] = "cannot be negative"
        try:
            if Decimal(self.noise_variance) < 0:
                problems["noise_variance"] = "cannot be negative"
        except ArithmeticError:
            problems["noise_variance"] = f"not a decimal: {self.noise_variance!r}"
        if self.eve_mode not in ("single", "two_round"):
            problems["eve_mode"] = "must be single or two_round"
        if self.eve_taps not in ("matched", "rayleigh"):
            problems["eve_taps"] = "must be matched or rayleigh"
        if self.eve_rayleigh_scale <= 0:
            problems["eve_rayleigh_scale"] = "must be positive"
        if self.trials < 1:
            problems["trials"] = "must be >= 1"
        if not 0 <= self.seed < 2**64:
            problems["seed"] = "must be an unsigned 64-bit integer"
        if problems:
            raise ConfigError(problems)
        return self

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(doc) - known
        if unknown:
            raise ConfigError({k: "unknown field" for k in unknown})
        try:
            cfg = cls(**doc)
        except TypeError as e:
            raise ConfigError({"config": str(e)}) from e
        return cfg.validate()

    @classmethod
    def from_json(cls, text: str, **overrides) -> "ExperimentConfig":
        """Config from a JSON object; ``overrides`` replace its fields first."""
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            raise ConfigError({"config": f"invalid JSON: {e}"}) from e
        if not isinstance(doc, dict):
            raise ConfigError({"config": "top-level JSON value must be an object"})
        return cls.from_dict({**doc, **overrides})


def child_seed(seed: int, trial: int) -> int:
    """Counter-based child seed; splittable and order-independent."""
    digest = hashlib.sha256(f"airkey:{seed}:{trial}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _fading_model(cfg: ExperimentConfig) -> FadingModel:
    if cfg.fading == "ideal":
        return FadingModel.ideal()
    if cfg.fading == "rayleigh":
        return FadingModel.rayleigh(cfg.rayleigh_scale)
    return FadingModel.integer(cfg.c_max)


def run_trial(cfg: ExperimentConfig, trial: int):
    """One independent protocol execution; returns (row, transcript, eve)."""
    rng = random.Random(child_seed(cfg.seed, trial))
    ctx = PrecisionContext(cfg.precision_digits)
    primes, collisions = sample_distinct_primes(cfg.n_users, cfg.prime_digits, rng)
    ch = draw_channel(
        cfg.n_users, _fading_model(cfg), Decimal(cfg.h_star),
        Decimal(cfg.noise_variance), rng,
    )
    if cfg.eve and cfg.eve_taps == "rayleigh":
        ch = ch.with_eve_taps(
            rayleigh_taps(cfg.n_users, cfg.eve_rayleigh_scale, rng)
        )
    secret = math.prod(p.value for p in primes)

    if cfg.protocol == "hmac":
        csi = estimate_csi(
            ch,
            "relative" if cfg.csi_error > 0 else "perfect",
            cfg.csi_error,
            rng,
        )
        transcript = run_protocol_hmac(primes, ch, csi, ctx, rng=rng)
    else:
        transcript = run_protocol_fmac(primes, ch, ctx, rng=rng)

    report = None
    if cfg.eve:
        if cfg.protocol == "hmac":
            second = transcript.rounds[1] if cfg.eve_mode == "two_round" else None
            report = eve_attack_half(
                transcript.rounds[0], primes, ch, ctx,
                true_secret=secret, second_record=second,
            )
        else:
            report = eve_attack_full(
                primes, transcript.rounds, ch, ctx, receiver=0, true_secret=secret
            )

    row = {
        "trial": trial,
        "rounds_used": transcript.rounds_used,
        "group_agreed": int(transcript.agreed_secret() == secret),
        "failures": sum(s is None for s in transcript.per_user_secret),
        "prime_collisions": collisions,
        "eve_key_equal": int(report.key_equal) if report is not None else "",
        "eve_digit_overlap": report.digit_overlap if report is not None else "",
        "max_distance_to_integer": str(max(r.distance for r in transcript.rounds)),
    }
    return row, transcript, report


def _render_metrics(rows) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=METRICS_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _summarize(cfg: ExperimentConfig, rows, reports) -> dict:
    n = len(rows)
    with_eve = [r for r in reports if r is not None]
    return {
        "schema_version": SCHEMA_VERSION,
        "protocol": cfg.protocol,
        "n_users": cfg.n_users,
        "trials": n,
        "seed": cfg.seed,
        "rounds_used": rows[0]["rounds_used"] if rows else None,
        "agreement_rate": sum(r["group_agreed"] for r in rows) / n,
        "failure_rate": sum(r["failures"] > 0 for r in rows) / n,
        "eve_success_rate": (
            sum(r.key_equal for r in with_eve) / len(with_eve) if with_eve else None
        ),
        "mean_eve_digit_overlap": (
            sum(r.digit_overlap for r in with_eve) / len(with_eve)
            if with_eve
            else None
        ),
        "config": cfg.to_dict(),
    }


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Run all trials; write metrics.csv / summary.json when out_dir is set."""
    cfg.validate()
    rows = []
    reports = []
    transcripts = []
    for trial in range(cfg.trials):
        row, transcript, report = run_trial(cfg, trial)
        rows.append(row)
        reports.append(report)
        transcripts.append(transcript)
    summary = _summarize(cfg, rows, reports)
    if cfg.out_dir is not None:
        out = Path(cfg.out_dir)
        try:
            out.mkdir(parents=True, exist_ok=True)
            (out / "metrics.csv").write_text(_render_metrics(rows), encoding="utf-8")
            (out / "summary.json").write_text(
                json.dumps(summary, sort_keys=True, indent=2) + "\n", encoding="utf-8"
            )
            if cfg.save_transcripts:
                tdir = out / "transcripts"
                tdir.mkdir(exist_ok=True)
                for trial, transcript in enumerate(transcripts):
                    (tdir / f"trial_{trial}.json").write_text(
                        transcript.to_json() + "\n", encoding="utf-8"
                    )
        except OSError as e:
            raise IOError(f"cannot write outputs under {cfg.out_dir}: {e}") from e
    return summary


def _coerce_axis_value(axis: str, value):
    field_type = type(getattr(ExperimentConfig(), axis))
    if field_type is int:
        return int(value)
    if field_type is float:
        return float(value)
    return str(value)


def sweep(cfg: ExperimentConfig, axis: str, values) -> list[dict]:
    """Re-run the experiment along one numeric config axis."""
    if axis not in SWEEPABLE_FIELDS:
        raise ConfigError({"axis": f"not sweepable: {axis!r}"})
    base_out = cfg.out_dir
    table = []
    for value in values:
        coerced = _coerce_axis_value(axis, value)
        sub_out = None
        if base_out is not None:
            sub_out = str(Path(base_out) / f"{axis}_{coerced}")
        point = replace(cfg, **{axis: coerced, "out_dir": sub_out}).validate()
        summary = run_experiment(point)
        table.append(
            {
                "axis": axis,
                "value": coerced,
                "agreement_rate": summary["agreement_rate"],
                "failure_rate": summary["failure_rate"],
                "eve_success_rate": summary["eve_success_rate"],
                "rounds_used": summary["rounds_used"],
            }
        )
    if base_out is not None:
        buf = io.StringIO()
        writer = csv.DictWriter(
            buf,
            fieldnames=[
                "axis",
                "value",
                "agreement_rate",
                "failure_rate",
                "eve_success_rate",
                "rounds_used",
            ],
            lineterminator="\n",
        )
        writer.writeheader()
        writer.writerows(table)
        Path(base_out).mkdir(parents=True, exist_ok=True)
        (Path(base_out) / "sweep.csv").write_text(buf.getvalue(), encoding="utf-8")
    return table
