"""Group secret-key generation over a simulated wireless multiple-access
channel: half-duplex (N-round) and full-duplex (1-round) schemes, a passive
eavesdropper model, and a reproducible Monte-Carlo harness."""

from .arith import (
    PrecisionContext,
    exp,
    leading_digit_overlap,
    ln,
    round_to_integer,
    to_bigreal,
)
from .adversary import (
    digit_security_report,
    error_factor,
    error_factor_from_deltas,
    eve_attack_full,
    eve_attack_half,
)
from .channel import (
    ChannelState,
    FadingModel,
    draw_channel,
    estimate_csi,
    rayleigh_taps,
    superpose,
)
from .errors import (
    AirkeyError,
    ConfigError,
    DuplicatePrimeDetected,
    FactorBoundExceeded,
    NonPositiveGain,
    NonPositiveInput,
    NotNearInteger,
    Overflow,
)
from .fullduplex import run_full_round, run_protocol_fmac
from .halfduplex import pre_process, receive, run_protocol_hmac, run_round
from .harness import ExperimentConfig, run_experiment, run_trial, sweep
from .integers import (
    Factorization,
    PrimeInput,
    factorize,
    is_probable_prime,
    radical,
    sample_distinct_primes,
    sample_prime,
)
from .keys import derive_key
from .transcript import ProtocolTranscript, Reception

__version__ = "0.1.0"
