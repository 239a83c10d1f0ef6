"""Span tracing for the airkey benchmark, from outside the package.

Every airkey module imports its collaborators by name (``from .arith import
ln``), so a wrapper on ``airkey.arith.ln`` alone would see none of the calls.
Each entry of :data:`PATCHES` therefore names the *consumer* module whose
global is replaced.  A span records its name, layer, parent, trace id, start
and end; spans of one trial share a trace id.  Self time is a span's duration
minus the time its direct children cover, so the self times of one trace sum
to the duration of its root span.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter

# Layer marker: take the layer of the calling span.  ``pre_process_full`` is
# fmac's transmit step when the exchange calls it and part of the attack when
# the eavesdropper replays it, so its cost is billed to whichever layer called.
INHERIT = None


def _note_ln(attrs, args, kwargs, result):
    ctx = args[1] if len(args) > 1 else kwargs.get("ctx")
    attrs["digits"] = getattr(ctx, "digits", 0)


def _note_result_digits(attrs, args, kwargs, result):
    attrs["digits"] = len(result.as_tuple().digits)


def _gain_digits(gains):
    return sum(len(g.as_tuple().digits) for g in gains)


def _note_channel(attrs, args, kwargs, result):
    n = result.n_users
    gains = [result.h[i][j] for i in range(n) for j in range(i + 1, n)]
    gains.extend(result.h_eve)
    attrs["gains"] = len(gains)
    attrs["gain_digits"] = _gain_digits(gains)


def _note_taps(attrs, args, kwargs, result):
    attrs["gains"] = len(result)
    attrs["gain_digits"] = _gain_digits(result)


def _note_primes(attrs, args, kwargs, result):
    attrs["primes"] = len(result[0])


def _note_users(attrs, args, kwargs, result):
    attrs["primes"] = len(args[0])


# (consumer module, attribute, span name, layer, note).  ``note`` reads
# counts off the arguments or the result once the span has closed.
PATCHES = [
    ("harness", "run_experiment", "harness.experiment", "harness", None),
    ("harness", "run_trial", "harness.trial", "harness", None),
    ("harness", "sample_distinct_primes", "integers.sample", "integers", _note_primes),
    ("harness", "draw_channel", "channel.draw", "channel", _note_channel),
    ("harness", "rayleigh_taps", "channel.draw", "channel", _note_taps),
    ("harness", "estimate_csi", "channel.csi", "channel", None),
    ("harness", "run_protocol_hmac", "halfduplex.protocol", "halfduplex", _note_users),
    ("harness", "run_protocol_fmac", "fullduplex.exchange", "fullduplex", None),
    ("harness", "eve_attack_half", "adversary.attack", "adversary", None),
    ("harness", "eve_attack_full", "adversary.attack", "adversary", None),
    ("halfduplex", "run_round", "halfduplex.round", "halfduplex", None),
    ("fullduplex", "pre_process_full", "fullduplex.pre_process", INHERIT, None),
    ("adversary", "pre_process_full", "fullduplex.pre_process", INHERIT, None),
    ("adversary", "leading_digit_overlap", "arith.overlap", "arith", None),
    ("transcript", "ProtocolTranscript.to_json", "transcript.to_json", "transcript", None),
]
for _mod in ("halfduplex", "fullduplex", "adversary"):
    PATCHES += [
        (_mod, "ln", "arith.ln", "arith", _note_ln),
        (_mod, "exp", "arith.exp", "arith", _note_result_digits),
        (_mod, "round_to_integer", "arith.round", "arith", None),
    ]
for _mod in ("halfduplex", "fullduplex"):
    PATCHES += [
        (_mod, "nearest_integer", "arith.nearest", "arith", None),
        (_mod, "superpose", "channel.observe", "channel", None),
    ]
PATCHES += [
    ("adversary", "eve_observe", "channel.observe", "channel", None),
    ("fullduplex", "factorize", "integers.factorize", "integers", None),
    ("adversary", "factorize", "integers.factorize", "integers", None),
]

# (module, attribute, count name): calls too cheap and too many for a span of
# their own; each call increments a count on the innermost open span.
COUNTERS = [
    ("integers", "is_probable_prime", "primality_tests"),
]


class Span:
    __slots__ = ("index", "name", "layer", "parent", "trace_id", "start", "end",
                 "child_ns", "attrs")

    @property
    def duration(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        return self.duration - self.child_ns

    def ancestors(self):
        span = self.parent
        while span is not None:
            yield span
            span = span.parent

    def to_row(self) -> list:
        return [self.index, self.parent.index if self.parent else None, self.trace_id,
                self.name, self.layer, self.start, self.end, self.self_ns, self.attrs]


class Tracer:
    """Keeps spans in memory while installed; :meth:`uninstall` restores."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._next_trace = 0
        self._patches = []
        for module_name, attr, name, layer, note in PATCHES:
            owner, _, leaf = attr.rpartition(".")
            target = importlib.import_module(f"airkey.{module_name}")
            if owner:
                target = getattr(target, owner)
            if hasattr(target, leaf):
                fn = getattr(target, leaf)
                self._patches.append((target, leaf, fn, self._wrap(name, layer, note, fn)))
        for module_name, attr, count in COUNTERS:
            target = importlib.import_module(f"airkey.{module_name}")
            fn = getattr(target, attr)
            self._patches.append((target, attr, fn, self._count(count, fn)))

    def install(self):
        for target, leaf, _, wrapper in self._patches:
            setattr(target, leaf, wrapper)

    def uninstall(self):
        for target, leaf, original, _ in self._patches:
            setattr(target, leaf, original)

    def _open(self, name, layer) -> Span:
        span = Span()
        parent = self._stack[-1] if self._stack else None
        span.index = len(self.spans)
        span.name = name
        span.parent = parent
        span.layer = layer if layer is not INHERIT else parent.layer
        if parent is None or name == "harness.trial":
            span.trace_id = self._next_trace
            self._next_trace += 1
        else:
            span.trace_id = parent.trace_id
        span.child_ns = 0
        span.attrs = {}
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter_ns()
        return span

    def _close(self, span):
        span.end = time.perf_counter_ns()
        self._stack.pop()
        if span.parent is not None:
            span.parent.child_ns += span.duration

    def _wrap(self, name, layer, note, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            except Exception as e:
                span.attrs["error"] = type(e).__name__
                raise
            finally:
                tracer._close(span)
            if note is not None:
                note(span.attrs, args, kwargs, result)
            return result

        return traced

    def _count(self, count, fn):
        stack = self._stack

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if stack:
                attrs = stack[-1].attrs
                attrs[count] = attrs.get(count, 0) + 1
            return fn(*args, **kwargs)

        return counted


def count_signature(spans) -> tuple:
    """Span names and integer counts of a run of spans, for repeat checks."""
    out = Counter()
    for s in spans:
        out[s.name] += 1
        for key, value in s.attrs.items():
            if isinstance(value, int):
                out[f"{s.name}.{key}"] += value
            else:
                out[f"{s.name}.{key}={value}"] += 1
    return tuple(sorted(out.items()))


def layer_metrics(spans, trials: int) -> dict:
    """Per-trial layer numbers from the traced spans: name -> (value, unit)."""
    def of(name):
        return [s for s in spans if s.name == name]

    def ms(selected, self_time=False):
        total = sum(s.self_ns if self_time else s.duration for s in selected)
        return total / 1e6 / trials

    def ratio(num, den):
        return num / den if den else 0.0

    ln, exp, rounds = of("arith.ln"), of("arith.exp"), of("arith.round")
    nearest = of("arith.nearest")
    draws, samples, factorizations = of("channel.draw"), of("integers.sample"), of("integers.factorize")
    hmac = of("halfduplex.protocol")
    gains = sum(s.attrs.get("gains", 0) for s in draws)
    ln_in_hmac = sum(1 for s in ln if any(a.layer == "halfduplex" for a in s.ancestors()))
    return {
        "arith.ln.calls": (len(ln) / trials, "count"),
        "arith.ln.ms": (ms(ln), "ms"),
        "arith.ln.digits": (ratio(sum(s.attrs.get("digits", 0) for s in ln), len(ln)), "digits"),
        "arith.exp.calls": (len(exp) / trials, "count"),
        "arith.exp.ms": (ms(exp), "ms"),
        "arith.exp.digits": (ratio(sum(s.attrs.get("digits", 0) for s in exp), len(exp)), "digits"),
        "arith.round.calls": ((len(rounds) + len(nearest)) / trials, "count"),
        "arith.round.ms": (ms(rounds + nearest), "ms"),
        "arith.round.reject_frac": (
            ratio(sum(s.attrs.get("error") == "NotNearInteger" for s in rounds), len(rounds)),
            "ratio"),
        "channel.draw.ms": (ms(draws), "ms"),
        "channel.draw.gains": (gains / trials, "count"),
        "channel.gain_digits": (ratio(sum(s.attrs.get("gain_digits", 0) for s in draws), gains), "digits"),
        "channel.observe.ms": (ms(of("channel.observe")), "ms"),
        "channel.csi.ms": (ms(of("channel.csi")), "ms"),
        "integers.sample.ms": (ms(samples), "ms"),
        "integers.primality_tests_per_prime": (
            ratio(sum(s.attrs.get("primality_tests", 0) for s in samples),
                  sum(s.attrs.get("primes", 0) for s in samples)),
            "count"),
        "integers.factorize.calls": (len(factorizations) / trials, "count"),
        "integers.factorize.ms": (ms(factorizations), "ms"),
        "integers.factorize.fail_frac": (
            ratio(sum("error" in s.attrs for s in factorizations), len(factorizations)), "ratio"),
        "halfduplex.round.ms": (ms(of("halfduplex.round"), self_time=True), "ms"),
        "halfduplex.ln_per_prime": (
            ratio(ln_in_hmac, sum(s.attrs.get("primes", 0) for s in hmac)), "count"),
        "fullduplex.exchange.ms": (
            ms([s for s in spans if s.layer == "fullduplex"], self_time=True), "ms"),
        "adversary.attack.calls": (len(of("adversary.attack")) / trials, "count"),
        "adversary.attack.ms": (ms(of("adversary.attack")), "ms"),
        "harness.trial.ms": (ms(of("harness.trial"), self_time=True), "ms"),
        "harness.experiment.ms": (ms(of("harness.experiment"), self_time=True), "ms"),
        "transcript.to_json.ms": (ms(of("transcript.to_json")), "ms"),
    }


def layer_self_ms(spans) -> dict:
    """Total self time per layer, in ms."""
    out = Counter()
    for s in spans:
        out[s.layer] += s.self_ns / 1e6
    return out
