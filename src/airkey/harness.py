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
from dataclasses import asdict, dataclass, fields, replace
from decimal import Decimal
from pathlib import Path

from .adversary import eve_attack
from .arith import MAX_EXPONENT, PrecisionContext
from .channel import FadingModel, draw_channel, estimate_csi, rayleigh_taps
from .errors import ConfigError
from .fullduplex import run_protocol_fmac
from .halfduplex import run_protocol_hmac
from .integers import check_prime_supply, sample_distinct_primes

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

SWEEP_COLUMNS = [
    "axis",
    "value",
    "agreement_rate",
    "failure_rate",
    "eve_success_rate",
    "rounds_used",
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

# JSON types a config field accepts, by its annotation; floats must be finite
_JSON_TYPES = {
    "int": (int,),
    "float": (int, float),
    "bool": (bool,),
    "str": (str,),
    "str | None": (str, type(None)),
}


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
        for f in fields(self):
            value = getattr(self, f.name)
            if type(value) not in _JSON_TYPES[f.type]:
                problems[f.name] = f"must be {f.type}, got {type(value).__name__}"
            elif isinstance(value, float) and not math.isfinite(value):
                problems[f.name] = f"must be finite, got {value}"
        if problems:
            raise ConfigError(problems)
        if self.protocol not in ("hmac", "fmac"):
            problems["protocol"] = f"must be hmac or fmac, got {self.protocol!r}"
        if self.protocol == "fmac" and self.fading != "integer":
            problems["fading"] = "fmac requires integer fading"
        if not 2 <= self.n_users <= 64:
            problems["n_users"] = "must be in [2, 64]"
        else:
            try:
                check_prime_supply(self.n_users, self.prime_digits)
            except ValueError as exc:
                problems["n_users"] = str(exc)
        if not 1 <= self.prime_digits <= 32:
            problems["prime_digits"] = "must be in [1, 32]"
        if not 16 <= self.precision_digits <= MAX_EXPONENT:
            problems["precision_digits"] = f"must be in [16, {MAX_EXPONENT}]"
        if self.fading not in ("ideal", "rayleigh", "integer"):
            problems["fading"] = f"unknown fading model {self.fading!r}"
        if self.c_max < 1:
            problems["c_max"] = "must be >= 1"
        try:
            h_star = Decimal(self.h_star)
            if not h_star.is_finite():
                problems["h_star"] = f"must be finite, got {self.h_star!r}"
            elif h_star <= 0:
                problems["h_star"] = "must be positive"
        except ArithmeticError:
            problems["h_star"] = f"not a decimal: {self.h_star!r}"
        if not 0 <= self.csi_error < 1:
            # an estimate h * (1 + e) with |e| <= csi_error must stay positive
            problems["csi_error"] = "must be in [0, 1)"
        try:
            noise = Decimal(self.noise_variance)
            if noise < 0:
                problems["noise_variance"] = "cannot be negative"
            elif not math.isfinite(float(noise)):
                problems["noise_variance"] = "must be finite as a float"
        except ArithmeticError:
            problems["noise_variance"] = f"not a decimal: {self.noise_variance!r}"
        if self.eve_mode not in ("single", "two_round"):
            problems["eve_mode"] = "must be single or two_round"
        elif self.eve_mode == "two_round" and self.protocol == "fmac":
            # the one exchange has no second round to intercept
            problems["eve_mode"] = "two_round needs protocol hmac"
        if self.eve_taps not in ("matched", "rayleigh"):
            problems["eve_taps"] = "must be matched or rayleigh"
        for name in ("rayleigh_scale", "eve_rayleigh_scale"):
            try:
                FadingModel.rayleigh(getattr(self, name))
            except ValueError as exc:
                problems[name] = str(exc)
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
        return cls(**doc).validate()

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
        h_hat = estimate_csi(ch, cfg.csi_error, rng)
        transcript = run_protocol_hmac(primes, ch, h_hat, ctx, rng=rng)
    else:
        transcript = run_protocol_fmac(primes, ch, ctx, rng=rng)

    report = None
    if cfg.eve:
        report = eve_attack(transcript, primes, ch, ctx, cfg.eve_mode == "two_round")

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


def _render_csv(columns, rows) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _eve_mean(rows, column):
    """Mean of an Eve column over the trials that ran her, None if none did."""
    values = [r[column] for r in rows if r[column] != ""]
    return sum(values) / len(values) if values else None


def _summarize(cfg: ExperimentConfig, rows) -> dict:
    n = len(rows)
    return {
        "schema_version": SCHEMA_VERSION,
        "protocol": cfg.protocol,
        "n_users": cfg.n_users,
        "trials": n,
        "seed": cfg.seed,
        "rounds_used": rows[0]["rounds_used"],
        "agreement_rate": sum(r["group_agreed"] for r in rows) / n,
        "failure_rate": sum(r["failures"] > 0 for r in rows) / n,
        "eve_success_rate": _eve_mean(rows, "eve_key_equal"),
        "mean_eve_digit_overlap": _eve_mean(rows, "eve_digit_overlap"),
        "config": cfg.to_dict(),
    }


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Run all trials; write metrics.csv / summary.json when out_dir is set.

    Only the rows are kept, and the transcripts when ``save_transcripts``
    asks for them.
    """
    cfg.validate()
    rows = []
    transcripts = []
    for trial in range(cfg.trials):
        row, transcript, _ = run_trial(cfg, trial)
        rows.append(row)
        if cfg.save_transcripts:
            transcripts.append(transcript)
    summary = _summarize(cfg, rows)
    if cfg.out_dir is not None:
        out = Path(cfg.out_dir)
        try:
            out.mkdir(parents=True, exist_ok=True)
            (out / "metrics.csv").write_text(
                _render_csv(METRICS_COLUMNS, rows), encoding="utf-8"
            )
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
    try:
        return field_type(value)
    except (TypeError, ValueError) as e:
        raise ConfigError(
            {axis: f"not a valid {field_type.__name__}: {value!r}"}
        ) from e


def sweep(cfg: ExperimentConfig, axis: str, values) -> list[dict]:
    """Re-run the experiment along one numeric config axis, at distinct values."""
    if axis not in SWEEPABLE_FIELDS:
        raise ConfigError({"axis": f"not sweepable: {axis!r}"})
    points = [_coerce_axis_value(axis, v) for v in values]
    if not points or len(set(points)) != len(points):  # one directory per point
        raise ConfigError({"values": f"need distinct {axis} values, got {points}"})
    base_out = cfg.out_dir
    table = []
    for coerced in points:
        sub_out = None
        if base_out is not None:
            sub_out = str(Path(base_out) / f"{axis}_{coerced}")
        point = replace(cfg, **{axis: coerced, "out_dir": sub_out}).validate()
        summary = run_experiment(point)
        row = {"axis": axis, "value": coerced, **summary}
        table.append({k: row[k] for k in SWEEP_COLUMNS})
    if base_out is not None:
        Path(base_out).mkdir(parents=True, exist_ok=True)
        (Path(base_out) / "sweep.csv").write_text(
            _render_csv(SWEEP_COLUMNS, table), encoding="utf-8"
        )
    return table
