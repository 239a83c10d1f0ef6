import json
from decimal import Decimal

import pytest

from airkey import ConfigError, ExperimentConfig, run_experiment, sweep
from airkey.arith import MAX_EXPONENT
from airkey.cli import main
from airkey.harness import child_seed, run_trial


def cfg(**over):
    base = dict(
        protocol="hmac",
        n_users=3,
        prime_digits=4,
        precision_digits=64,
        fading="rayleigh",
        trials=20,
        seed=1,
    )
    base.update(over)
    return ExperimentConfig(**base).validate()


FMAC = dict(protocol="fmac", fading="integer", c_max=4)


class TestConfig:
    def test_round_trip(self):
        c = cfg()
        assert ExperimentConfig.from_dict(c.to_dict()) == c
        assert ExperimentConfig.from_json(json.dumps(c.to_dict())) == c

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"protocol": "hmac", "banana": 1})

    def test_top_level_json_must_be_an_object(self):
        with pytest.raises(ConfigError) as e:
            ExperimentConfig.from_json("[]")
        assert "config" in e.value.problems

    def test_fmac_needs_integer_fading(self):
        with pytest.raises(ConfigError) as e:
            cfg(protocol="fmac")
        assert "fading" in e.value.problems

    @pytest.mark.parametrize(
        "field,value",
        [
            ("protocol", "tdma"),
            ("n_users", 1),
            ("trials", 0),
            ("h_star", "-1"),
            ("h_star", "Infinity"),
            ("noise_variance", "abc"),
            ("noise_variance", "1e400"),  # infinite as a float
            ("csi_error", 1.0),  # an estimate h * (1 + e) could be 0
            ("csi_error", 1.5),
            ("seed", -1),
            ("eve_mode", "both"),
            ("prime_digits", 0),
            ("prime_digits", 33),
            ("fading", "nakagami"),
            ("c_max", 0),
            ("h_star", "abc"),
            ("noise_variance", "-1"),
            ("eve_taps", "both"),
            # the one fmac exchange has no second round to intercept
            pytest.param(
                "eve_mode", dict(FMAC, eve_mode="two_round"),
                id="eve_mode-two_round-fmac",
            ),
            # a draw scale * sqrt(-2 ln u) would be infinite or 0 as a float
            ("rayleigh_scale", 1e308),
            ("rayleigh_scale", 5e-324),
            ("eve_rayleigh_scale", 1e308),
            ("eve_rayleigh_scale", 5e-324),
        ],
    )
    def test_invalid_values(self, field, value):
        with pytest.raises(ConfigError) as e:
            cfg(**(value if isinstance(value, dict) else {field: value}))
        assert field in e.value.problems

    @pytest.mark.parametrize("digits", [15, MAX_EXPONENT + 1, 10**9])
    def test_precision_outside_16_to_max_exponent(self, digits):
        # no log or exponential is asked for more digits than the sizing
        # rule ever carries; 10**9 would shift ints by about 3.3e9 bits
        cfg(precision_digits=MAX_EXPONENT)
        with pytest.raises(ConfigError) as e:
            cfg(precision_digits=digits)
        assert "precision_digits" in e.value.problems

    @pytest.mark.parametrize(
        "doc,field",
        [
            ('{"n_users": "4"}', "n_users"),
            ('{"rayleigh_scale": NaN}', "rayleigh_scale"),
            ('{"csi_error": Infinity}', "csi_error"),
            ('{"eve": 1}', "eve"),
            ('{"h_star": 1}', "h_star"),
            ('{"out_dir": 5}', "out_dir"),
        ],
    )
    def test_wrong_json_type_or_non_finite_float(self, doc, field):
        with pytest.raises(ConfigError) as e:
            ExperimentConfig.from_json(doc)
        assert field in e.value.problems

    @pytest.mark.parametrize("digits,most", [(1, 4), (2, 21)])
    def test_more_users_than_primes_of_that_length(self, digits, most):
        # drawing distinct primes could never finish
        cfg(n_users=most, prime_digits=digits)
        with pytest.raises(ConfigError) as e:
            cfg(n_users=most + 1, prime_digits=digits)
        assert "n_users" in e.value.problems


class TestChildSeed:
    def test_stable(self):
        # frozen: the child-seed scheme is part of the reproducibility contract
        assert child_seed(1, 0) == child_seed(1, 0)
        assert child_seed(1, 0) != child_seed(1, 1)
        assert child_seed(1, 0) != child_seed(2, 0)

    def test_order_independent(self):
        seen = [child_seed(9, t) for t in (5, 3, 5)]
        assert seen[0] == seen[2]


class TestRunExperiment:
    def test_hmac_clean_channel(self):
        summary = run_experiment(cfg())
        assert summary["agreement_rate"] == 1.0
        assert summary["rounds_used"] == 3
        assert summary["schema_version"] == 1

    def test_fmac_clean_channel(self):
        summary = run_experiment(cfg(**FMAC))
        assert summary["agreement_rate"] == 1.0
        assert summary["rounds_used"] == 1

    def test_outputs_written(self, tmp_path):
        out = tmp_path / "exp"
        run_experiment(cfg(out_dir=str(out), save_transcripts=True, trials=3))
        metrics = (out / "metrics.csv").read_text()
        assert metrics.splitlines()[0].startswith("trial,rounds_used,group_agreed")
        assert len(metrics.splitlines()) == 4
        summary = json.loads((out / "summary.json").read_text())
        assert summary["trials"] == 3
        assert (out / "transcripts" / "trial_2.json").exists()

    def test_byte_identical_reruns(self, tmp_path):
        out = tmp_path / "exp"
        c = cfg(out_dir=str(out), eve=True, trials=5)
        outs = []
        for _ in range(2):
            run_experiment(c)
            outs.append(
                (
                    (out / "metrics.csv").read_bytes(),
                    (out / "summary.json").read_bytes(),
                )
            )
        assert outs[0] == outs[1]

    def test_eve_columns_filled(self, tmp_path):
        out = tmp_path / "eve"
        run_experiment(cfg(out_dir=str(out), eve=True, trials=3))
        rows = (out / "metrics.csv").read_text().splitlines()[1:]
        for row in rows:
            fields = row.split(",")
            assert fields[5] in ("0", "1")  # eve_key_equal

    @pytest.mark.parametrize("scale", [1, 10**7])
    def test_eve_rayleigh_taps_on_integer_channel(self, scale):
        # at 10**7 her product is past MAX_EXPONENT: recorded, not raised
        summary = run_experiment(cfg(
            **FMAC, eve=True, eve_taps="rayleigh", eve_rayleigh_scale=scale, trials=10
        ))
        assert summary["eve_success_rate"] == 0.0


class TestStrongNoise:
    @pytest.mark.parametrize("protocol", [dict(protocol="hmac"), FMAC])
    def test_no_secret_below_two(self, protocol):
        # noise this strong often drives the exponentiated value to about 0
        c = cfg(**protocol, n_users=3, prime_digits=5, noise_variance="10000",
                trials=40, seed=3)
        tol = Decimal("1e-16")  # tolerance of the 64-digit context
        small = 0
        for trial in range(c.trials):
            _, t, _ = run_trial(c, trial)
            for r, secret in zip(t.rounds, t.per_user_secret):
                assert secret is None or secret >= 2
                if r.failure is not None:
                    assert secret is None and r.recovered is None
                if r.distance <= tol and r.post_value < Decimal("1.5"):
                    assert r.failure == "not-a-prime-product"
                    small += 1
        assert small > 0

    @pytest.mark.parametrize(
        "protocol,noise", [(dict(protocol="hmac"), "1e14"), (FMAC, "1e16")]
    )
    def test_result_beyond_exponent_bound_fails_one_receiver(self, protocol, noise):
        # noise this strong puts exp's result past what the context resolves
        # or past -arith.MAX_EXPONENT
        c = cfg(**protocol, noise_variance=noise, eve=True, trials=2, seed=1)
        seen = set()
        for trial in range(c.trials):
            row, t, _ = run_trial(c, trial)
            for r in t.rounds:
                if r.post_value.is_infinite():
                    seen.add(r.failure)
                    assert r.failure == "not-near-integer"
                elif r.post_value == 0:
                    seen.add(r.failure)
                    assert r.failure == "not-a-prime-product"
                assert r.recovered is None
            json.loads(t.to_json())
            assert Decimal(row["max_distance_to_integer"]) >= 0
        assert seen == {"not-near-integer", "not-a-prime-product"}


class TestSweep:
    def test_n_users_axis(self, tmp_path):
        table = sweep(
            cfg(out_dir=str(tmp_path / "s"), trials=5), "n_users", [2, 4]
        )
        assert [row["rounds_used"] for row in table] == [2, 4]
        assert (tmp_path / "s" / "sweep.csv").exists()
        assert (tmp_path / "s" / "n_users_2" / "metrics.csv").exists()

    def test_csi_error_axis_degrades(self):
        table = sweep(cfg(trials=15), "csi_error", [0.0, 0.01])
        assert table[0]["agreement_rate"] >= table[1]["agreement_rate"]

    def test_unsweepable_axis_rejected(self):
        with pytest.raises(ConfigError):
            sweep(cfg(), "protocol", ["hmac"])

    @pytest.mark.parametrize(
        "axis, values",
        [("n_users", []), ("n_users", ["3", "3"]), ("rayleigh_scale", ["1", "1.0"]),
         ("csi_error", [0.0, "0.01", "0.010"])],
    )
    def test_no_or_repeated_values_rejected(self, tmp_path, axis, values):
        # values that coerce alike would run one point into one directory
        with pytest.raises(ConfigError, match="distinct"):
            sweep(cfg(out_dir=str(tmp_path / "s")), axis, values)
        assert not (tmp_path / "s").exists()


class TestCli:
    def run_cli(self, *argv):
        return main(list(argv))

    def test_run_ok(self, tmp_path, capsys):
        code = self.run_cli(
            "run", "--protocol", "hmac", "--n", "2", "--seed", "1",
            "--trials", "3", "--out", str(tmp_path / "o"),
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["agreement_rate"] == 1.0
        assert (tmp_path / "o" / "metrics.csv").exists()

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        conf = tmp_path / "c.json"
        conf.write_text(json.dumps({"protocol": "fmac", "fading": "integer", "n_users": 4}))
        code = self.run_cli(
            "run", "--config", str(conf), "--n", "2", "--seed", "3",
            "--trials", "2", "--out", str(tmp_path / "o"),
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["n_users"] == 2

    def test_bad_config_exits_2(self, tmp_path):
        code = self.run_cli(
            "run", "--protocol", "fmac", "--seed", "1",
            "--trials", "1", "--out", str(tmp_path / "o"),
        )
        assert code == 2  # fmac without integer fading

    @pytest.mark.parametrize("name", ["nope.json", "."], ids=["missing", "directory"])
    def test_unreadable_config_exits_2(self, tmp_path, name):
        code = self.run_cli(
            "run", "--config", str(tmp_path / name), "--seed", "1",
            "--trials", "1", "--out", str(tmp_path / "o"),
        )
        assert code == 2

    def test_malformed_config_file_exits_2(self, tmp_path):
        conf = tmp_path / "c.json"
        conf.write_text('{"protocol": "hmac",')
        code = self.run_cli(
            "run", "--config", str(conf), "--seed", "1",
            "--trials", "1", "--out", str(tmp_path / "o"),
        )
        assert code == 2

    def test_non_utf8_config_file_exits_2(self, tmp_path):
        conf = tmp_path / "c.json"
        conf.write_bytes(b"\xff\xfe{}")
        code = self.run_cli(
            "run", "--config", str(conf), "--seed", "1",
            "--trials", "1", "--out", str(tmp_path / "o"),
        )
        assert code == 2

    def test_unwritable_out_exits_3(self, tmp_path):
        target = tmp_path / "file"
        target.write_text("x")  # a plain file where a directory must go
        code = self.run_cli(
            "run", "--protocol", "hmac", "--seed", "1", "--trials", "1",
            "--out", str(target / "sub"),
        )
        assert code == 3

    def test_precision_above_max_exponent_exits_2(self, tmp_path):
        code = self.run_cli(
            "run", "--precision", str(MAX_EXPONENT + 1), "--seed", "1",
            "--trials", "1", "--out", str(tmp_path / "o"),
        )
        assert code == 2
        assert not (tmp_path / "o").exists()

    def test_wrong_typed_config_field_exits_2(self, tmp_path):
        conf = tmp_path / "c.json"
        conf.write_text('{"n_users": "4"}')
        code = self.run_cli(
            "run", "--config", str(conf), "--seed", "1",
            "--trials", "1", "--out", str(tmp_path / "o"),
        )
        assert code == 2

    def test_sweep_value_that_does_not_parse_exits_2(self, tmp_path, capsys):
        code = self.run_cli(
            "sweep", "--protocol", "hmac", "--seed", "1", "--trials", "1",
            "--out", str(tmp_path / "s"), "--axis", "n_users", "--values", "2,x",
        )
        assert code == 2
        assert "n_users" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "axis, values", [("n_users", ""), ("n_users", "3,3"), ("rayleigh_scale", "1,1.0")]
    )
    def test_sweep_with_no_or_repeated_values_exits_2(self, tmp_path, axis, values):
        code = self.run_cli(
            "sweep", "--protocol", "hmac", "--seed", "1", "--trials", "1",
            "--out", str(tmp_path / "s"), "--axis", axis, "--values", values,
        )
        assert code == 2
        assert not (tmp_path / "s" / "sweep.csv").exists()

    def test_sweep_command(self, tmp_path, capsys):
        code = self.run_cli(
            "sweep", "--protocol", "hmac", "--seed", "1", "--trials", "2",
            "--out", str(tmp_path / "s"), "--axis", "n_users", "--values", "2,3",
        )
        assert code == 0
        table = json.loads(capsys.readouterr().out)
        assert [row["value"] for row in table] == [2, 3]
