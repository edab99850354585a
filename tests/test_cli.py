"""Configuration parsing, report serialization, exit codes and examples."""

import contextlib
import copy
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import abelint
from abelint import BiPoly, GaussRat, GoldenMismatch, UniPoly
from abelint.abelian import (
    AbelianIntegral,
    full_report,
    transformed_form_degree_cap,
    zero_count_cap,
)
from abelint.errors import ConstructionFailure, NonPolynomialResidue
from abelint.transform import pushforward_oneform
from abelint.cli import (
    EXAMPLE_NAMES,
    ConfigError,
    Problem,
    _execute_and_write,
    _factored_string,
    _numeric_zeros,
    canonical_json,
    execute,
    main,
    parse_family,
    parse_one_form,
    report_to_json,
    report_to_text,
)

from reference import expand

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "src/abelint/examples"
GOLDEN_TEXT_DIR = Path(__file__).resolve().parent / "golden_text"
README_CONFIG = Path(__file__).resolve().parent.parent / "perfbench/inputs/readme_config.json"


def load_bundle(name: str) -> dict:
    return json.loads((EXAMPLES_DIR / f"{name}.json").read_text())


def minimal_config() -> dict:
    return {
        "family": {"type": "F3", "a": [1], "beta": ["1"], "h": []},
        "one_form": [{"i": 0, "j": 1, "coeff": "1", "differential": "dx"}],
        "oracle": {"enabled": False},
    }


def readme_config() -> dict:
    """The configuration schema example of the README."""
    return {
        "family": {"type": "F2", "p1": 0, "p": 1, "q1": 1, "q": 2, "k": 1,
                   "P": ["-1"], "a": [1], "beta": ["1"]},
        "one_form": [
            {"i": 0, "j": 3, "coeff": "1", "differential": "dx"},
            {"i": 1, "j": 2, "coeff": "-108", "differential": "dx"},
            {"i": 0, "j": 1, "coeff": "-66", "differential": "dx"},
        ],
        "automorphism": {
            "forward": [[[1, 0, "-1"], [0, 0, "1"]], [[0, 1, "1"]]],
            "inverse": [[[1, 0, "-1"], [0, 0, "1"]], [[0, 1, "1"]]],
            "sigma": ["1", "0"],
        },
        "bifurcation_set": ["3"],
        "mu": 2,
        "oracle": {"enabled": True, "seed_c_values": ["3", {"re": "2", "im": "1"}]},
    }


# (x - y^3, y), whose inverse is (x + y^3, y): it raises the degree of H
SHEAR = {"forward": [[[1, 0, "1"], [0, 3, "-1"]], [[0, 1, "1"]]],
         "inverse": [[[1, 0, "1"], [0, 3, "1"]], [[0, 1, "1"]]]}


def ladder_config(n: int) -> dict:
    """Alternating-sign x^i y^j dx over i + j <= n, j >= 1, oracle on."""
    terms = [{"i": i, "j": j, "coeff": str((-1) ** (i + j)), "differential": "dx"}
             for i in range(n + 1) for j in range(1, n + 1 - i)]
    family = {"type": "F2", "p1": 0, "p": 1, "q1": 1, "q": 2, "k": 2,
              "P": ["-1", "3"], "a": [1], "beta": ["1"]}
    return {"family": family, "one_form": terms}


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
    @pytest.mark.parametrize("shear", [False, True])
    def test_library_and_cli_agree(self, shear):
        # The README's configuration, and the same with the shear (x - y^3, y):
        # full_report on the parsed objects gives the CLI's report, including
        # the rows that read the degrees of the original pair.
        config = readme_config()
        if shear:
            config["automorphism"] = SHEAR
        problem = Problem(config)
        nf, w, aut = problem.normal_form, problem.one_form, problem.automorphism
        report = full_report(nf, w, aut, bifurcation_override=[GaussRat(3)], mu=2)
        library = report_to_json(report, {"enabled": False})
        assert library == execute(config, no_oracle=True)[1]
        m = expand(nf).compose(*aut.forward).total_degree - 1
        assert m == (14 if shear else 6)
        rank = report.facts.homology_rank
        caps = {b["name"]: b["bound"] for b in library["bounds"]}
        assert caps["zero_count_cap"] == zero_count_cap(m, w.degree, rank)
        assert caps["transformed_form_degree"] == transformed_form_degree_cap(
            "F2", rank, m, w.degree)
        assert report.form == pushforward_oneform(w, aut)

    def test_minimal_run_succeeds(self):
        code, payload, text = execute(minimal_config(), no_oracle=True)
        assert code == 0
        assert payload["cycles"][0]["integral_2pii"] == ["0", "-1"]
        assert "I_1(c)" in text

    def test_oracle_checks_every_seed(self):
        # The README configuration has two cycles: five seeds are five
        # checks each, and one seed is filled up to three values of c.
        config = readme_config()
        config["oracle"]["seed_c_values"] = ["3", {"re": "2", "im": "1"}, "5", "7", "11"]
        code, payload, _ = execute(config)
        assert code == 0 and payload["oracle"]["passed"]
        assert payload["oracle"]["checks"] == 10
        config["oracle"]["seed_c_values"] = ["5"]
        assert execute(config)[1]["oracle"]["checks"] == 6

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
        for name in EXAMPLE_NAMES:
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

    @pytest.mark.parametrize("content", [b'\xff\xfe{"mu": 2}', b"[" * 200000],
                             ids=["not-utf8", "nested-past-recursion-limit"])
    def test_unreadable_config_is_one_line_parse_error(self, tmp_path, capsys, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        assert main(["--config", str(bad), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot parse config {bad}: ")
        assert err.count("\n") == 1

    def test_invalid_family_is_two(self, tmp_path):
        config = minimal_config()
        config["family"] = {"type": "F2", "p1": 0, "p": 1, "q1": 1, "q": 2,
                            "k": 0, "P": [], "a": [1], "beta": ["1"]}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["--config", str(path), "--out", str(tmp_path)]) == 2

    def test_rank_one_pair_other_than_the_synthesized_is_two(self, tmp_path, capsys):
        # p1 = 1, p = 2 synthesizes (q1, q) = (2, 3); (5, 7) is not dropped.
        config = minimal_config()
        config["family"] = {"type": "F2", "p1": 1, "p": 2, "q1": 5, "q": 7,
                            "k": 1, "P": ["3"], "a": [], "beta": []}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["--config", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == ("error: invalid family: rank-one family two synthesizes "
                       "(q1, q) = (2, 3); the supplied (5, 7) differs\n")
        assert not (tmp_path / "report.json").exists()

    def test_rank_one_synthesized_pair_runs_as_absent_keys(self, tmp_path):
        reports = []
        for pair in ({"q1": 2, "q": 3}, {}):
            config = minimal_config()
            config["family"] = {"type": "F2", "p1": 1, "p": 2, "k": 1, "P": ["3"],
                                "a": [], "beta": [], **pair}
            path = tmp_path / "config.json"
            path.write_text(json.dumps(config))
            assert main(["--config", str(path), "--out", str(tmp_path), "--no-oracle"]) == 0
            reports.append((tmp_path / "report.json").read_text())
        assert reports[0] == reports[1]

    def test_bound_violation_is_three(self, tmp_path, capsys, monkeypatch):
        # Every observed zero count exceeds a cap of -1: both reports are
        # written, the text marks the violation, and the run exits 3.
        monkeypatch.setattr("abelint.abelian.zero_count_cap", lambda m, n, rank: -1)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(load_bundle("oscillator")["config"]))
        assert main(["--config", str(path), "--out", str(tmp_path), "--no-oracle"]) == 3
        assert capsys.readouterr().err == "error: bound violation recorded in report\n"
        payload = json.loads((tmp_path / "report.json").read_text())
        assert not all(entry["satisfied"] for entry in payload["bounds"])
        assert "[VIOLATED]" in (tmp_path / "report.txt").read_text()

    def test_list_examples_prints_the_names(self, capsys):
        assert main(["--list-examples"]) == 0
        assert capsys.readouterr().out.split() == list(EXAMPLE_NAMES)

    def test_golden_mismatch_is_three(self, tmp_path):
        bundle = load_bundle("oscillator")
        bundle["golden"]["n_bc"] = 42
        code = _execute_and_write(bundle["config"], str(tmp_path),
                                  no_oracle=True,
                                  golden=bundle["golden"],
                                  example_name="oscillator")
        assert code == 3

    def test_oracle_mismatch_is_four(self, tmp_path, monkeypatch):
        # A bundled example whose first exact integral is off by one unit
        # in its constant coefficient: the oracle reads the disagreement,
        # the report is still written, and the run exits 4.
        def perturbed(*args, **kwargs):
            report = full_report(*args, **kwargs)
            first = report.integrals[0]
            wrong = dataclasses.replace(first, value=first.value + UniPoly([1]))
            return dataclasses.replace(
                report, integrals=(wrong,) + tuple(report.integrals[1:]))

        monkeypatch.setattr("abelint.cli.full_report", perturbed)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(load_bundle("f2_type03")["config"]))
        assert main(["--config", str(path), "--out", str(tmp_path)]) == 4
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["oracle"]["passed"] is False

    def test_dense_ladder_form_passes_the_oracle(self, tmp_path):
        # Every x^i y^j dx with i + j <= 4 on the degree-10 ladder F2: the
        # eta_t carry poles of order up to 19, which the product-form
        # t-route integrates within the cap.
        path = tmp_path / "config.json"
        path.write_text(json.dumps(ladder_config(4)))
        assert main(["--config", str(path), "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["oracle"]["passed"] is True

    def test_hopeless_contour_stops_at_the_sample_cap(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(ladder_config(7)))
        assert main(["--config", str(path), "--out", str(tmp_path)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: oracle failed to converge: ")
        assert "within 16384 samples" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("error", [ConstructionFailure, NonPolynomialResidue])
    def test_internal_invariant_breach_is_five(self, tmp_path, capsys,
                                               monkeypatch, error):
        def breach(*args, **kwargs):
            raise error("invariant broken")

        monkeypatch.setattr("abelint.cli.full_report", breach)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(minimal_config()))
        assert main(["--config", str(path), "--out", str(tmp_path)]) == 5
        err = capsys.readouterr().err
        assert err == "error: internal invariant breached: invariant broken\n"

    def test_missing_selector_is_usage_error(self, capsys):
        assert main([]) == 1
        assert "exactly one of" in capsys.readouterr().err

    @pytest.mark.parametrize("name, content", [
        ("nope", None), ("../examples/oscillator", None), ("outside", "{}"),
        ("outside", "not json")],
        ids=["unknown", "bundled_by_path", "json_without_config", "not_json"])
    def test_unknown_example_is_one(self, tmp_path, capsys, name, content):
        # Only bundled names are examples, not relative paths to .json files.
        if content is not None:
            (tmp_path / f"{name}.json").write_text(content)
            name = os.path.relpath(tmp_path / name, resources.files("abelint") / "examples")
        assert main(["--example", name, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unknown example") and err.count("\n") == 1

    @pytest.mark.parametrize("block, key, value, where", [
        ("family", "p", 1.7, "family.p"),
        ("family", "k", True, "family.k"),
        ("family", "a", ["q"], "family.a[0]"),
        ("family", "beta", [{"re": "1", "img": "2"}], "family.beta[0]"),
        ("top", "bifurcation_set", "3", "bifurcation_set"),
        ("top", "mu", "x", "mu"),
        ("top", "mu", -5, "mu"),
        ("top", "seed_c_values", ["2"], "seed_c_values"),
        ("family", "h", [], "family.h"),
        ("form", "differentail", "dx", "one_form[0].differentail"),
        ("oracle", "seed_c_value", ["2"], "oracle.seed_c_value"),
        ("form", "i", -1, "one_form[0].i"),
        ("form", "j", "1", "one_form[0].j"),
        ("form", "coeff", "1/0", "one_form[0].coeff"),
        ("oracle", "seed_c_values", ["zz"], "oracle.seed_c_values[0]"),
        ("oracle", "seed_c_values", "3", "oracle.seed_c_values"),
        ("oracle", "enabled", "false", "oracle.enabled"),
        ("form", "differential", ["dx"], "one_form[0].differential"),
        ("form", "differential", {}, "one_form[0].differential"),
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

    def test_sigma_shift_is_one_line_config_error(self, tmp_path, capsys):
        # The report is in the normal form's value coordinate, which a shift
        # s0 of c cannot change, so a nonzero s0 is refused, not ignored.
        config = readme_config()
        config["automorphism"]["sigma"] = ["1", "5"]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["--config", str(path), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid configuration: automorphism.sigma: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("block, key", [
        ("family", "k"),
        ("automorphism", "sigma0"),
    ])
    def test_unknown_key_is_one_line_config_error(self, tmp_path, capsys,
                                                  block, key):
        # minimal_config's family is F3, whose keys exclude F1/F2's k.
        config = minimal_config()
        identity = [[[1, 0, "1"]], [[0, 1, "1"]]]
        config["automorphism"] = {"forward": identity, "inverse": identity}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["--config", str(path), "--out", str(tmp_path)]) == 0
        config[block][key] = 1
        path.write_text(json.dumps(config))
        assert main(["--config", str(path), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == \
            f"error: invalid configuration: {block}.{key}: unknown key\n"


    @pytest.mark.parametrize("n", [1000, 10000])
    def test_high_degree_automorphism_is_one_line_at_once(self, tmp_path, capsys, n):
        # The README's forward y-component mutated to x^n y: the degree cap
        # rejects the pair before anything is composed.
        config = readme_config()
        config["automorphism"]["forward"][1] = [[n, 1, "1"]]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        start = time.perf_counter()
        assert main(["--config", str(path), "--out", str(tmp_path)]) == 1
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("error: invalid configuration: automorphism: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("name, seed", [
        ("type02_generic", "0"),
        ("f2_type03", "0"),
        ("f1_type04", "-1"),
        ("f1_type04", "0"),
        ("f1_type04", "1"),
    ])
    def test_seed_at_bifurcation_value_is_config_error(
            self, tmp_path, capsys, name, seed):
        config = load_bundle(name)["config"]
        config["oracle"]["seed_c_values"] = [seed]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["--config", str(path), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid configuration: "
                              "oracle.seed_c_values[0]: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "report.json").exists()

    def test_form_whose_terms_cancel_writes_a_report(self, tmp_path):
        # x y dx - x y dx is the zero form: its degree is 0, also when an
        # automorphism asks for the original degrees.
        config = {
            "family": {"type": "F2", "p1": 1, "p": 2,
                       "k": 1, "P": ["3"], "a": [], "beta": []},
            "one_form": [{"i": 1, "j": 1, "coeff": "1"},
                         {"i": 1, "j": 1, "coeff": "-1"}],
            "automorphism": {"forward": [[[1, 0, "1"], [0, 3, "-1"]], [[0, 1, "1"]]],
                             "inverse": [[[1, 0, "1"], [0, 3, "1"]], [[0, 1, "1"]]]},
            "oracle": {"enabled": False},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["--config", str(path), "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        observed = {b["name"]: b["observed"] for b in payload["bounds"]}
        assert observed["transformed_form_degree"] == 0

    def test_unlocated_numeric_zeros_still_write_a_report(self, tmp_path):
        # The root finder does not converge on one square-free part of the
        # second integral; the text report shows that integral unfactored and
        # says why its numeric zeros are missing, and the run exits 0.
        config = {
            "family": {"type": "F1", "p1": 0, "p": 1, "q1": 1, "q": 2, "k": 1,
                       "P": [], "a": [1], "beta": ["3"]},
            "one_form": [{"i": 3, "j": 3, "coeff": "3", "differential": "dx"},
                         {"i": 1, "j": 2, "coeff": "1", "differential": "dy"}],
            "automorphism": SHEAR,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["--config", str(path), "--out", str(tmp_path),
                     "--no-oracle"]) == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        second = UniPoly([GaussRat.parse(v) for v in payload["cycles"][1]["integral_2pii"]])
        text = (tmp_path / "report.txt").read_text()
        assert f"I_2(c) = (2*pi*i) * {second.to_string('c')}\n" \
            "  numeric zeros: not located (root finder did not reach residual" in text
        assert "I_1(c) = (2*pi*i) * 1/328256967394537077627 * c^5 * (c - 3) * (" in text

    @pytest.mark.parametrize("target", ["file", "file/sub"])
    def test_out_that_is_not_a_directory_is_one(self, tmp_path, capsys, target):
        (tmp_path / "file").write_text("")
        out = tmp_path / target
        assert main(["--example", "oscillator", "--no-oracle", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write reports to {out}: ")
        assert err.count("\n") == 1

    def test_seed_beyond_double_range_is_config_error(self, tmp_path, capsys):
        config = minimal_config()
        config["oracle"] = {"enabled": True, "seed_c_values": ["2", "1e400"]}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["--config", str(path), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == ("error: invalid configuration: "
                                           "oracle.seed_c_values[1]: beyond the double range\n")

    def test_coefficient_beyond_double_range_writes_an_unfactored_report(
            self, tmp_path, capsys):
        # c^2 - 10^400 c has the root 10^400, which no double holds: the
        # integral is shown unfactored with the reason, and both reports
        # are written.
        config = minimal_config()
        config["one_form"] = [{"i": 0, "j": 1, "coeff": "1e400"},
                              {"i": 1, "j": 2, "coeff": "1"}]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["--config", str(path), "--out", str(tmp_path), "--no-oracle"]) == 0
        assert capsys.readouterr().err == ""
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["cycles"][0]["integral_2pii"] == ["0", str(-10 ** 400), "1"]
        text = (tmp_path / "report.txt").read_text()
        assert (f"I_1(c) = (2*pi*i) * c^2 - {10 ** 400}*c\n"
                "  numeric zeros: not located (") in text

    def test_coefficient_beyond_double_range_with_roots_in_range_is_factored(
            self, tmp_path, capsys):
        # -10^400 c: the root finder reads the integers over a power of two
        # near the leading one, so the root 0 is located and split off.
        config = minimal_config()
        config["one_form"][0]["coeff"] = "1e400"
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["--config", str(path), "--out", str(tmp_path), "--no-oracle"]) == 0
        assert capsys.readouterr().err == ""
        text = (tmp_path / "report.txt").read_text()
        assert f"I_1(c) = (2*pi*i) * {-10 ** 400} * c\n  numeric zeros: +0+0i\n" in text

    @pytest.mark.parametrize("block, key, value", [("form", "coeff", "1e400"),
                                                    ("family", "beta", ["1e400"])])
    def test_number_beyond_double_range_with_the_oracle_is_four(
            self, tmp_path, capsys, block, key, value):
        config = minimal_config()
        config["oracle"] = {"enabled": True}
        {"form": config["one_form"][0], "family": config["family"]}[block][key] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["--config", str(path), "--out", str(tmp_path)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: oracle cannot sample beyond the double range: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("keys, value", [
        (["one_form"], [{"i": 0, "j": 1, "coeff": "1e-400"}]),
        (["automorphism", "sigma"], ["1e-400", "0"]),
        (["one_form"], [{"i": 1, "j": 0, "coeff": "1e-400", "differential": "dy"}]),
        (["family", "P"], ["1e-400"]),
    ], ids=["dx_form", "sigma", "dy_form", "P"])
    @pytest.mark.parametrize("flags", [[], ["--no-oracle"]], ids=["oracle", "no_oracle"])
    def test_number_below_double_range_writes_both_reports(
            self, tmp_path, capsys, keys, value, flags):
        # A leading coefficient below the double range would round to 0, so
        # the root finder reads the integrals' ints over a power of two near
        # the leading one, and every numeric zero is located.
        config = readme_config()
        block = config
        for key in keys[:-1]:
            block = block[key]
        block[keys[-1]] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["--config", str(path), "--out", str(tmp_path), *flags]) == 0
        assert capsys.readouterr().err == ""
        assert json.loads((tmp_path / "report.json").read_text())["cycles"]
        text = (tmp_path / "report.txt").read_text()
        assert "I_1(c) = (2*pi*i) * " in text
        assert "numeric zeros: " in text and "not located" not in text


def _slots(node):
    """Every (container, key) of a JSON tree, each container before its children."""
    for key, child in list(node.items() if isinstance(node, dict) else enumerate(node)):
        yield node, key
        if isinstance(child, (dict, list)):
            yield from _slots(child)


# Wrong types, exact numbers that fail to parse or to fit a double, and
# small ints: a large exponent or degree would only time the pipeline.
MUTANTS = [None, True, 1.5, "x", "1/0", "1e400", {"re": "1", "zz": "2"}, [], {},
           -1, 0, 1, 2, 3]
FUZZ_CONFIGS = [load_bundle(name)["config"] for name in EXAMPLE_NAMES] \
    + [json.loads(README_CONFIG.read_text())]


class TestNoTraceback:
    @settings(max_examples=1000, deadline=None, derandomize=True)
    @given(st.data())
    def test_mutated_config_ends_in_a_report_or_one_line(self, data):
        # Each mutation deletes a key or list entry, or replaces a value.
        config = copy.deepcopy(data.draw(st.sampled_from(FUZZ_CONFIGS)))
        for _ in range(data.draw(st.integers(1, 2))):
            container, key = data.draw(st.sampled_from(list(_slots(config))))
            if data.draw(st.booleans()):
                del container[key]
            else:
                container[key] = copy.deepcopy(data.draw(st.sampled_from(MUTANTS)))
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp) / "config.json", Path(tmp) / "out"
            path.write_text(json.dumps(config))
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(["--config", str(path), "--out", str(out), "--no-oracle"])
            assert code in range(6)
            if code:
                assert err.getvalue().startswith("error: ")
                assert err.getvalue().count("\n") == 1
            else:
                assert err.getvalue() == ""
            if code in (0, 3):
                assert (out / "report.json").is_file() and (out / "report.txt").is_file()


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
        # The child imports the abelint under test, installed or not.
        src = str(Path(abelint.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "abelint.cli", "--list-examples"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
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

    def test_widely_spread_roots_are_reported(self):
        # Roots -37836, 29825/2 and (-3 +- sqrt(-119))/16: at the small pair
        # the computed residual stays above any fixed tolerance, so the root
        # finder must accept Horner's rounding bound or no report is written.
        poly = UniPoly([-9027669600, -6770385424, -18055064102, 733564, 32])
        problem = Problem(minimal_config())
        report = full_report(problem.normal_form, problem.one_form)
        integral = AbelianIntegral(report.integrals[0].cycle, poly)
        report = dataclasses.replace(report, integrals=(integral,))
        text = report_to_text(report, {"enabled": False})
        assert ("I_1(c) = (2*pi*i) * 4 * (c - 29825/2) * (c + 37836)"
                " * (8*c^2 + 3*c + 4)") in text
        assert "-0.1875+0.681795i, -0.1875-0.681795i" in text

    @pytest.mark.parametrize("coeffs, factored", [
        # (c - 2)^2 (433740316263528120 c^2 + ...), which the root finder
        # sees as the pair 2 +- 2.4e-8 when run on the whole polynomial
        ([1677038193843691648, 1788440340679096036, -1311257721007752292,
          -868591631423415559, 433740316263528120],
         "(c - 2)^2 * (433740316263528120*c^2 + 866369633630696921*c"
         " + 419259548460922912)"),
        # distinct simple roots 2 and 2 + 1e-7
        ([40000002, 1, 10000001, -30000001, 10000000],
         "10000000 * (c - 2) * (c - 20000001/10000000) * (c^2 + c + 1)"),
    ])
    def test_close_roots_are_reported(self, coeffs, factored):
        problem = Problem(minimal_config())
        report = full_report(problem.normal_form, problem.one_form)
        integral = AbelianIntegral(report.integrals[0].cycle, UniPoly(coeffs))
        report = dataclasses.replace(report, integrals=(integral,))
        text = report_to_text(report, {"enabled": False})
        assert f"I_1(c) = (2*pi*i) * {factored}\n" in text

    def test_complex_integral_is_printed_unfactored(self, tmp_path):
        # beta = i makes the integrals complex; only real ones are factored.
        config = {
            "family": {"type": "F2", "p1": 0, "p": 1, "q1": 1, "q": 2, "k": 1,
                       "P": ["1"], "a": [1], "beta": [{"re": "0", "im": "1"}]},
            "one_form": [{"i": 1, "j": 1, "coeff": "1"}, {"i": 0, "j": 2, "coeff": "1"}],
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["--config", str(path), "--out", str(tmp_path)]) == 0
        text = (tmp_path / "report.txt").read_text()
        assert ("I_1(c) = (2*pi*i) * -2i*c^4 - 2*c^3\n"
                "  numeric zeros: +0+1i, +0+0i (multiplicity 3)\n") in text
        assert json.loads((tmp_path / "report.json").read_text())["oracle"]["passed"]

    def test_factored_output_shape(self, tmp_path):
        main(["--example", "f2_type03", "--out", str(tmp_path), "--no-oracle"])
        text = (tmp_path / "report.txt").read_text()
        assert "3 * (c + 1) * (4*c^6 + 3*c^5 - 36*c - 58)" in text

    @pytest.mark.parametrize("name", EXAMPLE_NAMES)
    def test_report_text_matches_golden(self, tmp_path, name):
        assert main(["--example", name, "--out", str(tmp_path),
                     "--no-oracle"]) == 0
        text = (tmp_path / "report.txt").read_text()
        assert text == (GOLDEN_TEXT_DIR / f"{name}.txt").read_text()


def render(poly: UniPoly) -> str:
    return _factored_string(poly, _numeric_zeros(poly))


class TestFactoredString:
    def test_roots_above_one_thousand_split_off(self):
        poly = UniPoly([-1001, 1]) * UniPoly([-1003, 1])
        assert render(poly) == "1 * (c - 1001) * (c - 1003)"

    def test_fractional_and_repeated_roots_split_off(self):
        poly = UniPoly([-1001, 3]) * UniPoly([2, 1]) ** 2 * UniPoly([1, 0, 1])
        assert render(poly) == "3 * (c + 2)^2 * (c - 1001/3) * (c^2 + 1)"

    @pytest.mark.parametrize("linear_power, quadratic_power, expected", [
        (2, 1, "(c + 1)^2 * (5*c^2 + 10*c + 13)"),
        (1, 2, "(c + 1) * (25*c^4 + 100*c^3 + 230*c^2 + 260*c + 169)"),
    ])
    def test_root_is_checked_against_its_own_squarefree_part(
            self, linear_power, quadratic_power, expected):
        # The complex roots of 5c^2 + 10c + 13 have real part -1, a root
        # of the product with another multiplicity than theirs.
        poly = UniPoly([1, 1]) ** linear_power \
            * UniPoly([13, 10, 5]) ** quadratic_power
        assert render(poly) == expected

    def test_large_end_coefficients_render_quickly(self):
        poly = UniPoly([720720, 1, 0, 720720])
        start = time.perf_counter()
        assert render(poly) == "720720*c^3 + c + 720720"
        assert time.perf_counter() - start < 0.5
