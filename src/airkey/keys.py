"""Key material derivation from the shared secret.

The protocols end with a shared integer; applications want fixed-length
key bits.  ``derive_key`` is RFC 5869 HKDF-SHA256: extract with the salt
``b"airkey/v1/extract"`` from the secret's big-endian bytes, then expand
with the caller-supplied context label as HKDF's info.

A derived key holds no more entropy than the secret.  The secret is a
product of N distinct d-digit primes drawn uniformly, so it carries
log2 C(K_d, N) bits, K_d the number of d-digit primes: 59.7 bits for the
default config (hmac, N = 4, 6-digit primes), whatever ``length_bits`` is.
"""

from __future__ import annotations

import hashlib
import hmac

_EXTRACT_SALT = b"airkey/v1/extract"


def derive_key(secret: int, length_bits: int = 256, context_label: bytes = b"") -> bytes:
    """Deterministically expand the shared integer into key bits."""
    if secret < 2:
        raise ValueError("shared secret must be at least 2")
    if length_bits < 8 or length_bits % 8:
        raise ValueError("length_bits must be a positive multiple of 8")
    if length_bits > 255 * 256:  # a one-byte counter: 255 blocks of 256 bits
        raise ValueError("length_bits must be at most 65280")
    ikm = secret.to_bytes((secret.bit_length() + 7) // 8, "big")
    prk = hmac.new(_EXTRACT_SALT, ikm, hashlib.sha256).digest()
    okm = b""
    block = b""
    counter = 1
    while len(okm) < length_bits // 8:
        block = hmac.new(
            prk, block + context_label + bytes([counter]), hashlib.sha256
        ).digest()
        okm += block
        counter += 1
    return okm[: length_bits // 8]
