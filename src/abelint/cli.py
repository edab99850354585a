"""Command-line entry point: configuration, orchestration and reports.

A run parses a JSON problem configuration, executes the full pipeline
(reduce, rectify, integrate, count, check bounds), optionally verifies
every cycle with the numeric oracle, and writes report.json (exact
coefficients as strings, canonical key order) plus report.txt (human
summary with factored integrals).

Exit codes: 0 success, 1 parse/usage error or unwritable --out, 2 invalid
family, 3 bound violation or golden mismatch, 4 the oracle disagreed, did
not converge or overflowed, 5 internal invariant breached (ConstructionFailure
or NonPolynomialResidue: a bug in abelint, not bad input).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from importlib import resources
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .abelian import IntegralReport, full_report
from .algebra import ONE, BiPoly, GaussRat, UniPoly, _polynomial_string
from .errors import (
    ConstructionFailure,
    GoldenMismatch,
    InvalidFamily,
    NonConvergence,
    NonPolynomialResidue,
)
from .family import NormalForm
from .oracle import check_report, locate_roots
from .rectify import build_rectifier
from .transform import OneForm, PolyAutomorphism

ORACLE_REL_TOL = 1e-8
ORACLE_C_COUNT = 3  # values of c the oracle checks each cycle at
EXAMPLE_NAMES = ("oscillator", "broughton", "f2_type03", "f1_type04",
                 "type02_generic")


class ConfigError(ValueError):
    """Configuration failed to parse; message carries the offending key."""


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

def _read_int(value, key: str, minimum: Optional[int] = None) -> int:
    """A JSON integer; bool, float and str are rejected."""
    if type(value) is not int:
        raise ConfigError(f"{key}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{key}: must be at least {minimum}, got {value}")
    return value


def _check_keys(block: dict, allowed, key: str = "") -> None:
    """Reject a key of ``block`` outside ``allowed``; ``key`` is the block's path."""
    for name in block:
        if name not in allowed:
            where = f"{key}.{name}" if key else name
            raise ConfigError(f"{where}: unknown key")


def _read_list(value, key: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{key}: expected a list, got {value!r}")
    return value


def _read_exact(value, key: str) -> GaussRat:
    """An exact number: an integer, an "a/b" string or {"re": .., "im": ..}."""
    if isinstance(value, dict) and not set(value) <= {"re", "im"}:
        raise ConfigError(f"{key}: expected only the keys re and im, got {value!r}")
    parts = value.values() if isinstance(value, dict) else [value]
    if any(isinstance(part, (bool, float)) for part in parts):
        raise ConfigError(f"{key}: expected an exact number, got {value!r}")
    try:
        return GaussRat.parse(value)
    except ZeroDivisionError:
        raise ConfigError(f"{key}: zero denominator in {value!r}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _read_exacts(value, key: str) -> List[GaussRat]:
    return [_read_exact(v, f"{key}[{pos}]")
            for pos, v in enumerate(_read_list(value, key))]


def _parse_unipoly(obj, key: str) -> UniPoly:
    return UniPoly(_read_exacts([] if obj is None else obj, key))


def _parse_bipoly(obj, key: str) -> BiPoly:
    terms = {}
    for pos, entry in enumerate(_read_list(obj, key)):
        where = f"{key}[{pos}]"
        if not isinstance(entry, list) or len(entry) != 3:
            raise ConfigError(f"{where}: expected an [i, j, coeff] triple")
        i = _read_int(entry[0], f"{where}.i", minimum=0)
        j = _read_int(entry[1], f"{where}.j", minimum=0)
        terms[(i, j)] = _read_exact(entry[2], f"{where}.coeff")
    return BiPoly(terms)


_TOP_KEYS = ("family", "one_form", "automorphism", "bifurcation_set", "mu", "oracle")
_F12_KEYS = ("type", "p1", "p", "q1", "q", "k", "P", "a", "beta")
_F3_KEYS = ("type", "a", "beta", "h")


def parse_family(block, key: str = "family") -> NormalForm:
    if not isinstance(block, dict):
        raise ConfigError(f"{key}: expected an object")
    tag = block.get("type")
    if tag not in ("F1", "F2", "F3"):
        raise ConfigError(f"{key}.type: must be one of F1, F2, F3")
    _check_keys(block, _F3_KEYS if tag == "F3" else _F12_KEYS, key)
    common = dict(
        a=tuple(_read_int(v, f"{key}.a[{pos}]")
                for pos, v in enumerate(_read_list(block.get("a", []), f"{key}.a"))),
        beta=tuple(_read_exacts(block.get("beta", []), f"{key}.beta")),
    )
    if tag == "F3":
        return NormalForm("F3", h=_parse_unipoly(block.get("h"), f"{key}.h"),
                          **common)
    ints = {name: _read_int(block.get(name, 0), f"{key}.{name}")
            for name in ("p1", "p", "q1", "q", "k")}
    return NormalForm(tag, P=_parse_unipoly(block.get("P"), f"{key}.P"),
                      **ints, **common)


def parse_one_form(entries, key: str = "one_form") -> OneForm:
    a_terms: Dict[Tuple[int, int], GaussRat] = {}
    b_terms: Dict[Tuple[int, int], GaussRat] = {}
    for pos, entry in enumerate(_read_list(entries, key)):
        where = f"{key}[{pos}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"{where}: expected an object")
        _check_keys(entry, ("i", "j", "coeff", "differential"), where)
        i = _read_int(entry.get("i"), f"{where}.i", minimum=0)
        j = _read_int(entry.get("j"), f"{where}.j", minimum=0)
        coeff = _read_exact(entry.get("coeff"), f"{where}.coeff")
        differential = entry.get("differential", "dx")
        if differential not in ("dx", "dy"):  # compared, never hashed
            raise ConfigError(f"{where}.differential: must be dx or dy")
        store = a_terms if differential == "dx" else b_terms
        store[(i, j)] = store.get((i, j), GaussRat(0)) + coeff
    return OneForm(BiPoly(a_terms), BiPoly(b_terms))


def parse_automorphism(block, key: str = "automorphism") -> PolyAutomorphism:
    if not isinstance(block, dict):
        raise ConfigError(f"{key}: expected an object")
    _check_keys(block, ("forward", "inverse", "sigma"), key)
    maps = []
    for name in ("forward", "inverse"):
        components = _read_list(block.get(name), f"{key}.{name}")
        if len(components) != 2:
            raise ConfigError(f"{key}.{name}: expected two components")
        maps.append(tuple(_parse_bipoly(poly, f"{key}.{name}[{pos}]")
                          for pos, poly in enumerate(components)))
    sigma = _read_exacts(block.get("sigma", ["1", "0"]), f"{key}.sigma")
    if len(sigma) != 2 or sigma[1]:  # a shift s0 of c changes no report
        raise ConfigError(f"{key}.sigma: expected [s1, s0] with s0 = 0")
    try:
        return PolyAutomorphism(*maps, sigma[0])
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


class Problem:
    """Parsed problem configuration, ready to run."""

    def __init__(self, config: dict):
        if not isinstance(config, dict):
            raise ConfigError("top level: expected a JSON object")
        _check_keys(config, _TOP_KEYS)
        self.normal_form = parse_family(config.get("family"))
        self.one_form = parse_one_form(config.get("one_form", []))
        self.automorphism: Optional[PolyAutomorphism] = None
        if "automorphism" in config:
            self.automorphism = parse_automorphism(config["automorphism"])
        self.bifurcation_override = _read_exacts(
            config.get("bifurcation_set", []), "bifurcation_set")
        mu = config.get("mu")
        self.mu = None if mu is None else _read_int(mu, "mu", minimum=0)
        oracle_block = config.get("oracle", {})
        if not isinstance(oracle_block, dict):
            raise ConfigError("oracle: expected an object")
        _check_keys(oracle_block, ("enabled", "seed_c_values"), "oracle")
        self.oracle_enabled = oracle_block.get("enabled", True)
        if type(self.oracle_enabled) is not bool:
            raise ConfigError(f"oracle.enabled: expected true or false, "
                              f"got {self.oracle_enabled!r}")
        self.oracle_c_values = []
        seeds = _read_exacts(oracle_block.get("seed_c_values", []), "oracle.seed_c_values")
        for pos, seed in enumerate(seeds):
            try:
                self.oracle_c_values.append(seed.to_complex())
            except OverflowError:
                raise ConfigError(f"oracle.seed_c_values[{pos}]: beyond the double range") \
                    from None


# ---------------------------------------------------------------------------
# Oracle comparison
# ---------------------------------------------------------------------------

def _generic_c_values(report: IntegralReport, supplied: List[complex]) -> List[complex]:
    """Every supplied seed, then fixed generic points up to ORACLE_C_COUNT in all.

    Each keeps more than 1e-6 from the family's bifurcation values, where
    punctures collide; a supplied seed closer than that is a ConfigError.
    """
    bad = [(b, b.to_complex()) for b in report.facts.bifurcation_candidates]

    def nearest_bad(value: complex) -> Optional[GaussRat]:
        return next((b for b, z in bad if abs(value - z) <= 1e-6), None)

    for pos, value in enumerate(supplied):
        b = nearest_bad(value)
        if b is not None:
            raise ConfigError(f"oracle.seed_c_values[{pos}]: {value} is a "
                              f"bifurcation value ({b!r})")
    values = list(supplied)
    base = 1.618 + 0.7071j
    step = 0
    while len(values) < ORACLE_C_COUNT:
        candidate = base + step * (0.911 - 0.333j)
        step += 1
        if nearest_bad(candidate) is None:
            values.append(candidate)
    return values


def run_oracle(problem: Problem, report: IntegralReport) -> dict:
    """Check the report's integrals by contour at the problem's values of c."""
    c_values = _generic_c_values(report, problem.oracle_c_values)
    errors = check_report(report, c_values)
    worst = max(errors, default=0.0)
    return {
        "enabled": True,
        "checks": len(errors),
        "max_rel_error_exact_vs_contour": worst,
        "tolerance": ORACLE_REL_TOL,
        "passed": worst <= ORACLE_REL_TOL,
    }


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------

def report_to_json(report: IntegralReport, oracle_result: dict) -> dict:
    cycles = []
    for ai, z in zip(report.integrals, report.zero_counts):
        cycles.append({
            "degree": None if ai.identically_zero else int(ai.value.degree),
            "index": ai.cycle.index,
            "integral_2pii": [c.to_json() for c in ai.value.coeffs],
            "puncture": ai.cycle.puncture,
            "zero_count": z,
        })
    bounds = [{
        "bound": entry.bound,
        "cycle": entry.cycle_index,
        "name": entry.name,
        "observed": entry.observed,
        "satisfied": entry.satisfied,
    } for entry in report.ledger.entries]
    return {
        "bifurcation_set": [b.to_json() for b in report.bifurcation_set_used],
        "bounds": bounds,
        "cycles": cycles,
        "family": {
            "degree": report.facts.degree,
            "homology_rank": report.facts.homology_rank,
            "punctures": list(report.facts.puncture_kinds),
            "sign_case": report.facts.sign_case,
            "type": report.facts.family,
        },
        "n_bc": report.n_bc,
        "nonconservative": report.nonconservative,
        "oracle": oracle_result,
    }


def canonical_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _factored_string(poly: UniPoly,
                     zeros: List[Tuple[complex, int, UniPoly]]) -> str:
    """Human rendering of a nonzero poly, splitting off every rational root.

    ``zeros`` is ``_numeric_zeros(poly)``.  A rational root of a_k has a
    denominator dividing the leading coefficient L of a_k's primitive integer
    form, so round(Re z * L) / L is split off when a_k's exact value there is 0.
    """
    if poly.im is not None:
        return poly.to_string()
    roots: Dict[GaussRat, int] = {}
    for z, k, factor in zeros:  # each a_k of a real poly is real
        lead = abs(factor.re[-1]) // math.gcd(*factor.re)
        try:
            root = GaussRat(round(z.real * lead)) / lead
        except OverflowError:  # Re z * L beyond the double range: left unsplit
            continue
        if not factor.evaluate(root):
            roots[root] = k  # a complex pair may round to a real root too
    if not roots:
        return poly.to_string()
    current = poly
    for root, mult in roots.items():
        for _ in range(mult):
            current = current.divide_by_root(root)
    parts = []
    if current.degree == 0:
        parts.append(repr(current.coeffs[0]))
    else:
        content = _rational_content(current)
        if content != ONE:
            current = current.scale(content.inverse())
            parts.append(repr(content))
    for root, mult in sorted(roots.items(),
                             key=lambda item: (abs(item[0].re), item[0].re < 0)):
        factor = _polynomial_string([(ONE, "c"), (-root, "")])
        factor = f"({factor})" if root else factor
        parts.append(factor if mult == 1 else f"{factor}^{mult}")
    if current.degree != 0:
        parts.append(f"({current.to_string()})")
    return " * ".join(parts)


def _rational_content(poly: UniPoly) -> GaussRat:
    """Signed rational content of a real poly: gcd of numerators over the denominator."""
    content = GaussRat(math.gcd(*poly.re)) / poly.den
    return content if poly.re[-1] > 0 else -content


def _numeric_zeros(poly: UniPoly) -> List[Tuple[complex, int, UniPoly]]:
    """(z, k, a_k) for each numeric root z of each square-free part a_k.

    The a_k are pairwise coprime with poly = const * prod a_k^k, exactly.
    The gcd chain ends at the constant 1, so the last entry of each quotient
    chain is its dividend, taken as it is.  The numeric root finder
    converges only on simple roots, so it is run on each a_k, whose roots
    all have multiplicity k in poly.  A square-free poly has the one part
    a_1 = poly, its coefficients untouched.
    """
    gcds = [poly]  # gcds[k] has the roots of poly of multiplicity > k
    while gcds[-1].degree >= 1:
        gcds.append(gcds[-1].gcd(gcds[-1].derivative()))
    at_least = [high.divmod(low)[0] for high, low in zip(gcds, gcds[1:-1])] + gcds[-2:-1]
    parts = [high.divmod(low)[0] for high, low in zip(at_least, at_least[1:])] + at_least[-1:]
    return [(z, k, a_k) for k, a_k in enumerate(parts, 1) for z in locate_roots(a_k)]


def report_to_text(report: IntegralReport, oracle_result: dict) -> str:
    lines = []
    facts = report.facts
    lines.append(f"Family {facts.family}  degree {facts.degree}  "
                 f"homology rank {facts.homology_rank}"
                 + (f"  sign case {facts.sign_case:+d}" if facts.sign_case else ""))
    lines.append("Punctures: " + ", ".join(facts.puncture_kinds))
    lines.append("Bifurcation set used: {"
                 + ", ".join(repr(b) for b in report.bifurcation_set_used) + "}")
    lines.append("")
    for ai, z in zip(report.integrals, report.zero_counts):
        label = f"I_{ai.cycle.index + 1}(c)"
        if ai.identically_zero:
            lines.append(f"{label} = 0 (identically; conservative on this cycle)")
            continue
        try:
            zeros = _numeric_zeros(ai.value)
        except (NonConvergence, OverflowError) as exc:  # the exact integral stands unfactored
            shown, located = ai.value.to_string(), f"not located ({exc})"
        else:
            shown = _factored_string(ai.value, zeros)
            located = ", ".join(f"{r.real:+.6g}{r.imag:+.6g}i"
                                + (f" (multiplicity {k})" if k > 1 else "")
                                for r, k, _ in zeros)
        lines.append(f"{label} = (2*pi*i) * {shown}")
        if located:
            lines.append(f"  numeric zeros: {located}")
        lines.append(f"  zeros outside bifurcation set (with multiplicity): {z}")
    lines.append("")
    if report.nonconservative:
        lines.append(f"N_BC = {report.n_bc}")
    else:
        lines.append("Form is conservative on at least one cycle; "
                     "N_BC is not defined.")
    lines.append("")
    lines.append("Bounds:")
    for entry in report.ledger.entries:
        where = f" cycle {entry.cycle_index}" if entry.cycle_index is not None else ""
        status = "ok" if entry.satisfied else "VIOLATED"
        observed = "-" if entry.observed is None else entry.observed
        lines.append(f"  {entry.name}{where}: observed {observed} <= {entry.bound}"
                     f"  [{status}]")
    lines.append("")
    if oracle_result.get("enabled"):
        lines.append(
            "Oracle: {checks} contour checks, max relative error "
            "{max_rel_error_exact_vs_contour:.2e} (exact vs contour)".format(**oracle_result))
    else:
        lines.append("Oracle: disabled")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Examples
# ---------------------------------------------------------------------------

def _example_resource(name: str) -> dict:
    if name not in EXAMPLE_NAMES:
        raise ConfigError(f"unknown example {name!r}; "
                          f"available: {', '.join(EXAMPLE_NAMES)}")
    path = resources.files(__package__) / "examples" / f"{name}.json"
    return json.loads(path.read_text())


def compare_golden(report_json: dict, golden: dict, name: str) -> None:
    """Exact comparison of the example output against its stored golden."""
    diffs = []
    got_cycles = report_json["cycles"]
    expected_cycles = golden["cycles"]
    if len(got_cycles) != len(expected_cycles):
        diffs.append(f"cycle count: expected {len(expected_cycles)}, "
                     f"got {len(got_cycles)}")
    for got, expected in zip(got_cycles, expected_cycles):
        if got["integral_2pii"] != expected["integral_2pii"]:
            got_poly = UniPoly(got["integral_2pii"])
            exp_poly = UniPoly(expected["integral_2pii"])
            diffs.append(
                f"cycle {got['index']} integral differs:\n"
                f"    expected: {exp_poly.to_string()}\n"
                f"    got:      {got_poly.to_string()}\n"
                f"    delta:    {(got_poly - exp_poly).to_string()}")
        if got["zero_count"] != expected["zero_count"]:
            diffs.append(f"cycle {got['index']} zero count: expected "
                         f"{expected['zero_count']}, got {got['zero_count']}")
    if report_json["n_bc"] != golden["n_bc"]:
        diffs.append(f"n_bc: expected {golden['n_bc']}, got {report_json['n_bc']}")
    if diffs:
        raise GoldenMismatch(f"example {name!r} diverged from golden output:\n"
                             + "\n".join("  " + d for d in diffs))


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------

def execute(config: dict, no_oracle: bool = False,
            golden: Optional[dict] = None, example_name: str = "") -> Tuple[int, dict, str]:
    """Run a parsed configuration; returns (exit_code, report_json, report_txt).

    Raises ConfigError for a malformed configuration and InvalidFamily for
    a normal form that breaks a family constraint.
    """
    problem = Problem(config)
    report = full_report(problem.normal_form, problem.one_form, problem.automorphism,
                         bifurcation_override=problem.bifurcation_override,
                         mu=problem.mu,
                         rectifier=build_rectifier(problem.normal_form))

    oracle_result: dict = {"enabled": False}
    run_the_oracle = problem.oracle_enabled and not no_oracle
    if run_the_oracle:
        oracle_result = run_oracle(problem, report)

    payload = report_to_json(report, oracle_result)
    text = report_to_text(report, oracle_result)

    if golden is not None:
        compare_golden(payload, golden, example_name)

    if not report.ledger.all_satisfied:
        return 3, payload, text
    if run_the_oracle and not oracle_result["passed"]:
        return 4, payload, text
    return 0, payload, text


def _execute_and_write(config: dict, out_dir: str, no_oracle: bool,
                       golden: Optional[dict], example_name: str) -> int:
    try:
        code, payload, text = execute(config, no_oracle=no_oracle,
                                      golden=golden, example_name=example_name)
    except ConfigError as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return 1
    except InvalidFamily as exc:
        print(f"error: invalid family: {exc}", file=sys.stderr)
        return 2
    except GoldenMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NonConvergence as exc:
        print(f"error: oracle failed to converge: {exc}", file=sys.stderr)
        return 4
    except OverflowError as exc:  # only the oracle samples in floating point
        print(f"error: oracle cannot sample beyond the double range: {exc}", file=sys.stderr)
        return 4
    except (ConstructionFailure, NonPolynomialResidue) as exc:
        print(f"error: internal invariant breached: {exc}", file=sys.stderr)
        return 5
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_text(canonical_json(payload))
        (out / "report.txt").write_text(text)
    except OSError as exc:
        print(f"error: cannot write reports to {out_dir}: {exc}", file=sys.stderr)
        return 1
    if code == 3:
        print("error: bound violation recorded in report", file=sys.stderr)
    elif code == 4:
        print("error: oracle disagreement recorded in report", file=sys.stderr)
    return code


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="abelint",
        description="Exact Abelian-integral computation, zero counting and "
                    "bound validation for trivial-monodromy Hamiltonians.")
    parser.add_argument("--config", metavar="PATH",
                        help="JSON problem configuration to run")
    parser.add_argument("--example", metavar="NAME",
                        help="run a bundled example "
                             f"({', '.join(EXAMPLE_NAMES)})")
    parser.add_argument("--list-examples", action="store_true",
                        help="list bundled example names and exit")
    parser.add_argument("--no-oracle", action="store_true",
                        help="skip the floating-point verification pass")
    parser.add_argument("--out", metavar="DIR", default=".",
                        help="directory for report.json / report.txt")
    args = parser.parse_args(argv)

    if args.list_examples:
        for name in EXAMPLE_NAMES:
            print(name)
        return 0
    if bool(args.config) == bool(args.example):
        parser.print_usage(sys.stderr)
        print("error: exactly one of --config or --example is required",
              file=sys.stderr)
        return 1
    golden = None
    if args.config:
        try:
            config = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad UTF-8 or JSON
            print(f"error: cannot parse config {args.config}: {exc}", file=sys.stderr)
            return 1
    else:
        try:
            bundle = _example_resource(args.example)
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        config, golden = bundle["config"], bundle["golden"]
    return _execute_and_write(config, args.out, args.no_oracle, golden, args.example or "")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
