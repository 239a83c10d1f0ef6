import pytest

from airkey import ProtocolTranscript, derive_key


class TestDeriveKey:
    # RFC 5869 HKDF-SHA256, salt b"airkey/v1/extract", the label as info
    @pytest.mark.parametrize(
        "secret, bits, label, want",
        [
            (6, 256, b"",
             "98a547f4a237e6f1e04ab2fb4ef872004cd466140205cabe98a823d83e635b98"),
            (210, 512, b"airkey/confirm",
             "c1305c6c83a9f9ada454bc02e83f9707b07ea236d5c30ad81fadd8dbc29efc7e"
             "7e2e27154b89e8a4aeb05aef8534de5612a730bba643117bfdf2b8757c51fa7a"),
        ],
        ids=["6-256", "210-512-confirm"],
    )
    def test_known_answers(self, secret, bits, label, want):
        assert derive_key(secret, bits, label).hex() == want

    def test_deterministic(self):
        assert derive_key(30, 256, b"t") == derive_key(30, 256, b"t")

    def test_label_separates(self):
        assert derive_key(30, 256, b"a") != derive_key(30, 256, b"b")

    def test_length(self):
        k = derive_key(30, 512)
        assert len(k) == 64
        assert len(k.hex()) == 128
        # the longest: 255 blocks of the one-byte counter, 256 bits each
        assert 8 * len(derive_key(6, 65_280)) == 65_280

    def test_avalanche(self):
        # flipping the secret by one should flip about half the bits,
        # over many label variations
        distances = []
        for i in range(1000):
            label = i.to_bytes(2, "big")
            a = int.from_bytes(derive_key(30, 256, label), "big")
            b = int.from_bytes(derive_key(31, 256, label), "big")
            distances.append((a ^ b).bit_count())
        assert all(88 <= d <= 168 for d in distances)  # 128 +/- 40
        mean = sum(distances) / len(distances)
        assert 120 < mean < 136

    def test_rejects_tiny_secret(self):
        with pytest.raises(ValueError):
            derive_key(1)

    @pytest.mark.parametrize("bits", [0, 7, 12, 65_288])
    def test_rejects_bad_length(self, bits):
        with pytest.raises(ValueError, match="length_bits"):
            derive_key(30, bits)

    def test_repr_does_not_show_the_secret(self):
        secret = 100003 * 100019 * 100043
        assert str(secret) not in repr(derive_key(secret))

    def test_identical_secrets_identical_keys(self):
        secrets = [30, 30, 30]
        keys = {derive_key(s) for s in secrets}
        assert len(keys) == 1


def agreed(secrets):
    n = len(secrets)
    return ProtocolTranscript("hmac", n, [], secrets, None).agreed_secret()


class TestGroupAgreement:
    def test_unanimous(self):
        assert agreed([6, 6, 6]) == 6

    def test_one_failure(self):
        assert agreed([6, 6, None]) is None

    def test_majority_value(self):
        assert agreed([6, 10, 6]) is None

    def test_all_failed(self):
        assert agreed([None, None]) is None

    def test_empty(self):
        assert agreed([]) is None
