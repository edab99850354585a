"""Command-line entry point: configuration, orchestration and reports.

A run parses a JSON problem configuration, executes the full pipeline
(reduce, rectify, integrate, count, check bounds), optionally verifies
every cycle with the numeric oracle, and writes report.json (exact
coefficients as strings, canonical key order) plus report.txt (human
summary with factored integrals).

Exit codes: 0 success, 1 parse/usage error, 2 invalid family,
3 bound violation or golden mismatch, 4 oracle mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .abelian import IntegralReport, full_report
from .algebra import BiPoly, GaussRat, UniPoly
from .errors import (
    GoldenMismatch,
    InvalidFamily,
    NonConvergence,
)
from .family import NormalForm
from .oracle import contour_integral_fiber, contour_integral_t, default_contour, locate_roots
# build_rectifier is unused here but stays importable: perfbench's tracer
# rebinds it in every abelint module that holds it and checks the restore.
from .rectify import build_rectifier, canonical_cycles  # noqa: F401
from .transform import OneForm, PolyAutomorphism, pushforward_oneform

ORACLE_REL_TOL = 1e-8
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


def parse_family(block, key: str = "family") -> NormalForm:
    if not isinstance(block, dict):
        raise ConfigError(f"{key}: expected an object")
    tag = block.get("type")
    if tag not in ("F1", "F2", "F3"):
        raise ConfigError(f"{key}.type: must be one of F1, F2, F3")
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
        i = _read_int(entry.get("i"), f"{where}.i", minimum=0)
        j = _read_int(entry.get("j"), f"{where}.j", minimum=0)
        coeff = _read_exact(entry.get("coeff"), f"{where}.coeff")
        differential = entry.get("differential", "dx")
        store = {"dx": a_terms, "dy": b_terms}.get(differential)
        if store is None:
            raise ConfigError(f"{where}.differential: must be dx or dy")
        store[(i, j)] = store.get((i, j), GaussRat(0)) + coeff
    return OneForm(BiPoly(a_terms), BiPoly(b_terms))


def parse_automorphism(block, key: str = "automorphism") -> PolyAutomorphism:
    if not isinstance(block, dict):
        raise ConfigError(f"{key}: expected an object")
    maps = []
    for name in ("forward", "inverse"):
        components = _read_list(block.get(name), f"{key}.{name}")
        if len(components) != 2:
            raise ConfigError(f"{key}.{name}: expected two components")
        maps.append(tuple(_parse_bipoly(poly, f"{key}.{name}[{pos}]")
                          for pos, poly in enumerate(components)))
    sigma = _read_exacts(block.get("sigma", ["1", "0"]), f"{key}.sigma")
    if len(sigma) != 2:
        raise ConfigError(f"{key}.sigma: expected [s1, s0]")
    try:
        return PolyAutomorphism(*maps, *sigma)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


class Problem:
    """Parsed problem configuration, ready to run."""

    def __init__(self, config: dict):
        if not isinstance(config, dict):
            raise ConfigError("top level: expected a JSON object")
        self.normal_form = parse_family(config.get("family"))
        self.one_form = parse_one_form(config.get("one_form", []))
        self.automorphism: Optional[PolyAutomorphism] = None
        if "automorphism" in config:
            self.automorphism = parse_automorphism(config["automorphism"])
        self.bifurcation_override = _read_exacts(
            config.get("bifurcation_set", []), "bifurcation_set")
        mu = config.get("mu")
        self.mu = None if mu is None else _read_int(mu, "mu")
        oracle_block = config.get("oracle", {})
        if not isinstance(oracle_block, dict):
            raise ConfigError("oracle: expected an object")
        self.oracle_enabled = bool(oracle_block.get("enabled", True))
        self.oracle_c_values = [v.to_complex() for v in _read_exacts(
            oracle_block.get("seed_c_values", []), "oracle.seed_c_values")]


def _original_degrees(problem: Problem) -> Tuple[Optional[int], Optional[int]]:
    """Degrees (m, n) of the original pair when an automorphism is given."""
    if problem.automorphism is None:
        return None, None
    aut = problem.automorphism
    from .family import expand
    normal_h = expand(problem.normal_form)
    # H_original = sigma^{-1}(normal_H(psi)); degree is what matters here.
    composed = normal_h.compose(*aut.forward)
    m_original = int(composed.total_degree) - 1
    n_original = int(problem.one_form.degree)
    return m_original, n_original


# ---------------------------------------------------------------------------
# Oracle comparison
# ---------------------------------------------------------------------------

def _generic_c_values(report: IntegralReport, supplied: List[complex],
                      count: int = 3) -> List[complex]:
    values = list(supplied)
    base = 1.618 + 0.7071j
    step = 0
    bad = [b.to_complex() for b in report.bifurcation_set_used]
    while len(values) < count:
        candidate = base + step * (0.911 - 0.333j)
        step += 1
        if all(abs(candidate - b) > 1e-6 for b in bad):
            values.append(candidate)
    return values[:count]


def run_oracle(problem: Problem, form: OneForm, report: IntegralReport) -> dict:
    """Compare the exact integrals against both numeric contour routes."""
    rm = report.rectifier
    c_values = _generic_c_values(report, problem.oracle_c_values)
    errors_t, errors_f = [], []
    for cycle, ai in zip(canonical_cycles(report.facts), report.integrals):
        for c_value in c_values:
            spec = default_contour(rm, cycle, c_value)
            numeric = 0j
            for (i, j), weight in report.basis_coeffs.items():
                numeric += weight.to_complex() * contour_integral_t(
                    rm.monomial_pushforward(i, j), c_value, spec)
            exact = ai.value.evaluate_complex(c_value)
            errors_t.append(abs(numeric - exact) / (1 + abs(exact)))
            fiber = contour_integral_fiber(form, rm, cycle, c_value, spec)
            errors_f.append(abs(fiber - numeric) / (1 + abs(numeric)))
    max_t = max(errors_t, default=0.0)
    max_f = max(errors_f, default=0.0)
    return {
        "enabled": True,
        "checks": len(errors_t),
        "max_rel_error_exact_vs_contour": max_t,
        "max_rel_error_fiber_vs_contour": max_f,
        "tolerance": ORACLE_REL_TOL,
        "passed": max_t <= ORACLE_REL_TOL and max_f <= ORACLE_REL_TOL,
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


def _factored_string(poly: UniPoly) -> str:
    """Human rendering, splitting off rational linear factors when present."""
    if poly.is_zero():
        return "0"
    if any(not c.is_rational() for c in poly.coeffs):
        return poly.to_string("c")
    roots: List[Tuple[GaussRat, int]] = []
    current = poly
    for candidate in _rational_root_candidates(poly):
        mult = current.root_multiplicity(candidate)
        if mult:
            roots.append((candidate, mult))
            for _ in range(mult):
                current = current.divmod(UniPoly([-candidate, GaussRat(1)]))[0]
    if not roots:
        return poly.to_string("c")
    parts = []
    if current.degree == 0:
        parts.append(repr(current.coeffs[0]))
    else:
        content = _rational_content(current)
        if content is not None and content != GaussRat(1):
            current = current.scale(content.inverse())
            parts.append(repr(content))
    for root, mult in roots:
        if not root:
            factor = "c"
        elif root.re < 0:
            factor = f"(c + {repr(-root)})"
        else:
            factor = f"(c - {repr(root)})"
        parts.append(factor if mult == 1 else f"{factor}^{mult}")
    if current.degree != 0:
        parts.append(f"({current.to_string('c')})")
    return " * ".join(parts)


def _rational_content(poly: UniPoly) -> Optional[GaussRat]:
    """Signed rational content: gcd of numerators over lcm of denominators."""
    from fractions import Fraction
    from math import gcd, lcm

    fracs = [Fraction(str(c.re)) for c in poly.coeffs if c]
    if not fracs:
        return None
    den = lcm(*(f.denominator for f in fracs))
    num = gcd(*(abs(f.numerator * den // f.denominator) for f in fracs))
    content = GaussRat(Fraction(num, den))
    if fracs[-1] < 0:
        content = -content
    return content


def _rational_root_candidates(poly: UniPoly) -> List[GaussRat]:
    """Rational root candidates: divisors of the ends, after clearing denominators."""
    from fractions import Fraction

    denominators = 1
    for c in poly.coeffs:
        denominators = denominators * Fraction(str(c.re)).denominator
    ints = [int(Fraction(str(c.re)) * denominators) for c in poly.coeffs]
    while ints and ints[0] == 0:
        ints = ints[1:]
    if not ints:
        return [GaussRat(0)]
    lead, tail = abs(ints[-1]), abs(ints[0])

    def divisors(n: int) -> List[int]:
        n = abs(n)
        out = [d for d in range(1, min(n, 1000) + 1) if n % d == 0]
        if n > 1000 and n not in out:
            out.append(n)
        return out

    candidates = {GaussRat(0)}
    for num in divisors(tail):
        for den in divisors(lead):
            for sign in (1, -1):
                candidates.add(GaussRat(Fraction(sign * num, den)))
    return sorted(candidates, key=lambda g: (abs(g.re), g.re < 0))


def _squarefree_factors(poly: UniPoly) -> List[Tuple[UniPoly, int]]:
    """Square-free, pairwise coprime a_k with poly = const * prod a_k^k, exactly.

    The numeric root finder converges only on simple roots, so it is run on
    each a_k, whose roots all have multiplicity k in poly.  A square-free
    poly comes back as [(poly, 1)] with its coefficients untouched.
    """
    gcds = [poly]  # gcds[k] has the roots of poly of multiplicity > k
    while gcds[-1].degree >= 1:
        gcds.append(gcds[-1].gcd(gcds[-1].derivative()))
    at_least = [high.divmod(low)[0] for high, low in zip(gcds, gcds[1:])]
    at_least.append(UniPoly.const(GaussRat(1)))
    return [(at_least[k].divmod(at_least[k + 1])[0], k + 1)
            for k in range(len(at_least) - 1)]


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
        lines.append(f"{label} = (2*pi*i) * {_factored_string(ai.value)}")
        roots = []
        for factor, k in _squarefree_factors(ai.value):
            suffix = f" (multiplicity {k})" if k > 1 else ""
            roots += [f"{r.real:+.6g}{r.imag:+.6g}i{suffix}"
                      for r in locate_roots(factor)]
        if roots:
            lines.append(f"  numeric zeros: {', '.join(roots)}")
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
            "Oracle: {checks} contour checks, max relative errors "
            "{max_rel_error_exact_vs_contour:.2e} (exact vs contour), "
            "{max_rel_error_fiber_vs_contour:.2e} (fiber vs contour)".format(
                **oracle_result))
    else:
        lines.append("Oracle: disabled")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Examples
# ---------------------------------------------------------------------------

def _example_resource(name: str) -> dict:
    package = resources.files(__package__) / "examples"
    path = package / f"{name}.json"
    if not path.is_file():
        raise ConfigError(f"unknown example {name!r}; "
                          f"available: {', '.join(EXAMPLE_NAMES)}")
    return json.loads(path.read_text())


def list_examples() -> List[str]:
    return list(EXAMPLE_NAMES)


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
            got_poly = UniPoly([GaussRat.parse(v) for v in got["integral_2pii"]])
            exp_poly = UniPoly([GaussRat.parse(v) for v in expected["integral_2pii"]])
            diffs.append(
                f"cycle {got['index']} integral differs:\n"
                f"    expected: {exp_poly.to_string('c')}\n"
                f"    got:      {got_poly.to_string('c')}\n"
                f"    delta:    {(got_poly - exp_poly).to_string('c')}")
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
    form = problem.one_form
    if problem.automorphism is not None:
        form = pushforward_oneform(form, problem.automorphism)
    m_original, n_original = _original_degrees(problem)

    report = full_report(problem.normal_form, form,
                         bifurcation_override=problem.bifurcation_override,
                         mu=problem.mu,
                         m_original=m_original, n_original=n_original)

    oracle_result: dict = {"enabled": False}
    run_the_oracle = problem.oracle_enabled and not no_oracle
    if run_the_oracle:
        oracle_result = run_oracle(problem, form, report)

    payload = report_to_json(report, oracle_result)
    text = report_to_text(report, oracle_result)

    if golden is not None:
        compare_golden(payload, golden, example_name)

    if not report.ledger.all_satisfied:
        return 3, payload, text
    if run_the_oracle and not oracle_result["passed"]:
        return 4, payload, text
    return 0, payload, text


def run(config_path: str, out_dir: str = ".", no_oracle: bool = False) -> int:
    """File-based entry: parse, execute, write report.json and report.txt."""
    try:
        config = json.loads(Path(config_path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot parse config {config_path}: {exc}", file=sys.stderr)
        return 1
    return _execute_and_write(config, out_dir, no_oracle)


def run_example(name: str, out_dir: str = ".", no_oracle: bool = False) -> int:
    try:
        bundle = _example_resource(name)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return _execute_and_write(bundle["config"], out_dir, no_oracle,
                              golden=bundle["golden"], example_name=name)


def _execute_and_write(config: dict, out_dir: str, no_oracle: bool,
                       golden: Optional[dict] = None,
                       example_name: str = "") -> int:
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
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(canonical_json(payload))
    (out / "report.txt").write_text(text)
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
        for name in list_examples():
            print(name)
        return 0
    if bool(args.config) == bool(args.example):
        parser.print_usage(sys.stderr)
        print("error: exactly one of --config or --example is required",
              file=sys.stderr)
        return 1
    if args.config:
        return run(args.config, args.out, args.no_oracle)
    return run_example(args.example, args.out, args.no_oracle)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
