import pytest

from airkey import ProtocolTranscript, derive_key


class TestDeriveKey:
    def test_deterministic(self):
        assert derive_key(30, 256, b"t") == derive_key(30, 256, b"t")

    def test_label_separates(self):
        assert derive_key(30, 256, b"a").key != derive_key(30, 256, b"b").key

    def test_length(self):
        k = derive_key(30, 512)
        assert k.bit_length == 512
        assert len(k.key) == 64
        assert len(k.hex) == 128
        # the longest: 255 blocks of the one-byte counter, 256 bits each
        assert derive_key(6, 65_280).bit_length == 65_280

    def test_avalanche(self):
        # flipping the secret by one should flip about half the bits,
        # over many label variations
        distances = []
        for i in range(1000):
            label = i.to_bytes(2, "big")
            a = int.from_bytes(derive_key(30, 256, label).key, "big")
            b = int.from_bytes(derive_key(31, 256, label).key, "big")
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
        keys = {derive_key(s).key for s in secrets}
        assert len(keys) == 1


def agreed(secrets):
    n = len(secrets)
    return ProtocolTranscript("hmac", n, [], secrets).agreed_secret()


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
