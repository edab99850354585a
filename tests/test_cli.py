"""Configuration parsing, report serialization, exit codes and examples."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from abelint import BiPoly, GaussRat, GoldenMismatch
from abelint.cli import (
    ConfigError,
    Problem,
    _execute_and_write,
    canonical_json,
    compare_golden,
    execute,
    list_examples,
    main,
    parse_family,
    parse_one_form,
)

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "src/abelint/examples"


def load_bundle(name: str) -> dict:
    return json.loads((EXAMPLES_DIR / f"{name}.json").read_text())


def minimal_config() -> dict:
    return {
        "family": {"type": "F3", "a": [1], "beta": ["1"], "h": []},
        "one_form": [{"i": 0, "j": 1, "coeff": "1", "differential": "dx"}],
        "oracle": {"enabled": False},
    }


class TestParsing:
    def test_family_block_parses(self):
        nf = parse_family({"type": "F2", "p1": 0, "p": 1, "q1": 1, "q": 2,
                           "k": 1, "P": ["-1"], "a": [1], "beta": ["1"]})
        assert nf.family == "F2" and nf.q == 2

    def test_bad_family_tag_is_config_error(self):
        with pytest.raises(ConfigError):
            parse_family({"type": "F9"})

    def test_bad_coefficient_reports_key(self):
        with pytest.raises(ConfigError, match="family.P"):
            parse_family({"type": "F2", "p1": 0, "p": 1, "q1": 1, "q": 2,
                          "k": 1, "P": ["nonsense"], "a": [], "beta": []})

    def test_one_form_requires_known_differential(self):
        with pytest.raises(ConfigError, match="differential"):
            parse_one_form([{"i": 0, "j": 1, "coeff": "1",
                             "differential": "dz"}])

    def test_complex_coefficients_accepted(self):
        w = parse_one_form([{"i": 0, "j": 1,
                             "coeff": {"re": "1/2", "im": "-3"}}])
        assert not w.A.is_zero()

    def test_gaussian_seed_values(self):
        config = minimal_config()
        config["oracle"] = {"enabled": True,
                            "seed_c_values": [{"re": "2", "im": "1"}]}
        problem = Problem(config)
        assert problem.oracle_c_values == [2 + 1j]


class TestExecution:
    def test_minimal_run_succeeds(self):
        code, payload, text = execute(minimal_config(), no_oracle=True)
        assert code == 0
        assert payload["cycles"][0]["integral_2pii"] == ["0", "-1"]
        assert "I_1(c)" in text

    def test_mu_adds_vanishing_cycle_bound(self):
        config = minimal_config()
        config["mu"] = 0
        _, payload, _ = execute(config, no_oracle=True)
        names = [b["name"] for b in payload["bounds"]]
        assert "total_count_cap_with_vanishing_cycles" in names

    def test_automorphism_block_round_trips(self):
        # Supply (u, v) -> (1 - u, v) and the original-coordinate data of the
        # cubic example; results must match the normal-coordinate run.
        config = {
            "family": {"type": "F3", "a": [2], "beta": ["1"], "h": ["-1", "1"]},
            "one_form": [
                {"i": 0, "j": 5, "coeff": "1"},
                {"i": 0, "j": 2, "coeff": "-2"}, {"i": 1, "j": 2, "coeff": "6"},
                {"i": 2, "j": 2, "coeff": "-6"}, {"i": 3, "j": 2, "coeff": "2"},
                {"i": 0, "j": 1, "coeff": "2"},
            ],
            "oracle": {"enabled": False},
        }
        _, direct, _ = execute(config, no_oracle=True)
        mirrored = dict(config)
        # x -> 1 - x flips the sign of dx terms' x-dependence; feed the
        # pre-image form and the substitution, expect identical integrals
        mirrored["automorphism"] = {
            "forward": [[[0, 0, "1"], [1, 0, "-1"]], [[0, 1, "1"]]],
            "inverse": [[[0, 0, "1"], [1, 0, "-1"]], [[0, 1, "1"]]],
            "sigma": ["1", "0"],
        }
        mirrored["one_form"] = [
            {"i": 0, "j": 5, "coeff": "-1"},
            {"i": 3, "j": 2, "coeff": "2"},
            {"i": 0, "j": 1, "coeff": "-2"},
        ]
        _, via_aut, _ = execute(mirrored, no_oracle=True)
        assert via_aut["cycles"][0]["integral_2pii"] == \
            direct["cycles"][0]["integral_2pii"]

    def test_report_json_round_trip_byte_identical(self):
        _, payload, _ = execute(minimal_config(), no_oracle=True)
        first = canonical_json(payload)
        second = canonical_json(json.loads(first))
        assert first == second

    def test_exact_values_serialized_as_strings(self):
        _, payload, _ = execute(minimal_config(), no_oracle=True)
        for cycle in payload["cycles"]:
            assert all(isinstance(v, (str, dict))
                       for v in cycle["integral_2pii"])
        assert all(isinstance(v, (str, dict))
                   for v in payload["bifurcation_set"])


class TestGoldenComparison:
    def test_all_bundled_examples_pass(self, tmp_path):
        for name in list_examples():
            bundle = load_bundle(name)
            code, payload, _ = execute(bundle["config"], no_oracle=True,
                                       golden=bundle["golden"],
                                       example_name=name)
            assert code == 0

    def test_tampered_golden_raises_with_diff(self):
        bundle = load_bundle("oscillator")
        bundle["golden"]["cycles"][0]["integral_2pii"] = ["1", "2", "3"]
        with pytest.raises(GoldenMismatch, match="delta"):
            execute(bundle["config"], no_oracle=True,
                    golden=bundle["golden"], example_name="oscillator")

    def test_tampered_count_raises(self):
        bundle = load_bundle("broughton")
        bundle["golden"]["n_bc"] = 99
        with pytest.raises(GoldenMismatch, match="n_bc"):
            execute(bundle["config"], no_oracle=True,
                    golden=bundle["golden"], example_name="broughton")


class TestExitCodes:
    def test_parse_error_is_one(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["--config", str(bad), "--out", str(tmp_path)]) == 1

    def test_invalid_family_is_two(self, tmp_path):
        config = minimal_config()
        config["family"] = {"type": "F2", "p1": 0, "p": 1, "q1": 1, "q": 2,
                            "k": 0, "P": [], "a": [1], "beta": ["1"]}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["--config", str(path), "--out", str(tmp_path)]) == 2

    def test_golden_mismatch_is_three(self, tmp_path):
        bundle = load_bundle("oscillator")
        bundle["golden"]["n_bc"] = 42
        code = _execute_and_write(bundle["config"], str(tmp_path),
                                  no_oracle=True,
                                  golden=bundle["golden"],
                                  example_name="oscillator")
        assert code == 3

    def test_oracle_mismatch_is_four(self, tmp_path, monkeypatch):
        import abelint.cli as cli_module
        monkeypatch.setattr(cli_module, "contour_integral_t",
                            lambda *args, **kwargs: 1e6 + 0j)
        config = minimal_config()
        config["oracle"] = {"enabled": True}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["--config", str(path), "--out", str(tmp_path)]) == 4

    def test_missing_selector_is_usage_error(self, capsys):
        assert main([]) == 1
        assert "exactly one of" in capsys.readouterr().err

    def test_unknown_example_is_one(self, tmp_path):
        assert main(["--example", "nope", "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("block, key, value, where", [
        ("family", "p", 1.7, "family.p"),
        ("family", "k", True, "family.k"),
        ("family", "a", ["q"], "family.a[0]"),
        ("family", "beta", [{"re": "1", "img": "2"}], "family.beta[0]"),
        ("top", "bifurcation_set", "3", "bifurcation_set"),
        ("top", "mu", "x", "mu"),
        ("form", "i", -1, "one_form[0].i"),
        ("form", "j", "1", "one_form[0].j"),
        ("form", "coeff", "1/0", "one_form[0].coeff"),
        ("oracle", "seed_c_values", ["zz"], "oracle.seed_c_values[0]"),
        ("oracle", "seed_c_values", "3", "oracle.seed_c_values"),
    ])
    def test_malformed_field_is_one_line_config_error(
            self, tmp_path, capsys, block, key, value, where):
        config = minimal_config()
        config["family"] = {"type": "F2", "p1": 0, "p": 1, "q1": 1, "q": 2,
                            "k": 1, "P": ["-1"], "a": [1], "beta": ["1"]}
        target = {"family": config["family"], "top": config,
                  "form": config["one_form"][0], "oracle": config["oracle"]}
        target[block][key] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["--config", str(path), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid configuration: {where}: ")
        assert err.count("\n") == 1


class TestEndToEnd:
    def test_example_writes_reports(self, tmp_path):
        code = main(["--example", "type02_generic", "--out", str(tmp_path),
                     "--no-oracle"])
        assert code == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["n_bc"] == 1
        text = (tmp_path / "report.txt").read_text()
        assert "N_BC = 1" in text

    def test_report_file_round_trip(self, tmp_path):
        main(["--example", "oscillator", "--out", str(tmp_path), "--no-oracle"])
        raw = (tmp_path / "report.json").read_text()
        assert canonical_json(json.loads(raw)) == raw

    def test_example_with_oracle(self, tmp_path):
        code = main(["--example", "oscillator", "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["oracle"]["enabled"]
        assert payload["oracle"]["passed"]

    def test_console_script_installed(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "abelint.cli", "--list-examples"],
            capture_output=True, text=True)
        assert result.returncode == 0
        assert "oscillator" in result.stdout

    def test_triple_root_is_reported(self, tmp_path):
        # (H - 1)^3 y dx on the oscillator H = y(1 - x) integrates to
        # -c (c - 1)^3; the root finder alone cannot resolve a triple root.
        h = BiPoly({(0, 1): GaussRat(1), (1, 1): GaussRat(-1)})
        form = (h - BiPoly.const(GaussRat(1))) ** 3 * BiPoly.var(1)
        config = minimal_config()
        config["one_form"] = [{"i": i, "j": j, "coeff": c.to_json()}
                              for (i, j), c in form.terms.items()]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["--config", str(path), "--out", str(tmp_path),
                     "--no-oracle"]) == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["cycles"][0]["integral_2pii"] == ["0", "1", "-3", "3", "-1"]
        text = (tmp_path / "report.txt").read_text()
        assert "-1 * c * (c - 1)^3" in text
        assert "numeric zeros: +0+0i, +1+0i (multiplicity 3)" in text

    def test_factored_output_shape(self, tmp_path):
        main(["--example", "f2_type03", "--out", str(tmp_path), "--no-oracle"])
        text = (tmp_path / "report.txt").read_text()
        assert "3 * (c + 1) * (4*c^6 + 3*c^5 - 36*c - 58)" in text
