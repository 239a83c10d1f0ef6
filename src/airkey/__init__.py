"""Group secret-key generation over a simulated wireless multiple-access
channel: half-duplex (N-round) and full-duplex (1-round) schemes, a passive
eavesdropper model, and a reproducible Monte-Carlo harness."""

from .arith import (
    PrecisionContext,
    exp,
    leading_digit_overlap,
    ln,
    to_bigreal,
)
from .adversary import eve_attack
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
    Overflow,
)
from .fullduplex import run_protocol_fmac
from .halfduplex import pre_process, receive, run_protocol_hmac
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
