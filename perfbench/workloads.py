"""Inputs, problem calls and exact-output checks for the abelint benchmark.

Every input is generated here from the run's seed or read from files in
this directory.  Nothing is imported from the repository's tests, so a test
edit cannot change a workload; abelint itself only receives the generated
configurations and objects.

Workloads:

- ``examples_oracle``: the five bundled examples through ``cli.execute``
  with the oracle and the golden compare, plus the README's configuration
  schema example.  The seed only shuffles the order within each pass.
- ``sweep``: random valid instances through ``abelian.full_report``,
  rotating over F1+, F1-, F2+, F2-, rank-one F2 and F3 of degree <= 9 with
  sparse forms of degree <= 5.  The seed draws the signs of the forms'
  coefficients.
- ``ladder``: dense forms sum c_ij x^i y^j dx over i + j <= n, j >= 1, on
  the degree-10 F2 (k=2, P=[-1,3], a=[1], beta=[1]) through ``cli.execute``
  with the oracle off.  The seed draws the coefficients' signs; the
  monomial set, and so the shape of the work, is fixed.

A run repeats one pass of problems a fixed number of times, so that every
problem is timed several times, spread over the run.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from abelint import BiPoly, GaussRat, NormalForm, OneForm, UniPoly  # noqa: E402
from abelint import abelian, cli  # noqa: E402

# Bound to the original functions: the traced run rebinds the names inside
# abelint, and the checks below must neither be timed nor counted.
_report_to_json = cli.report_to_json
_example_resource = cli._example_resource

INPUTS = HERE / "inputs"

# Nominal cost of one pass on the reference machine (2-core Xeon VM shared
# with other tenants, at its common, contended speed; Python 3.11, pure
# fractions.Fraction).  A run repeats its pass a number of times fixed from
# --seconds with these, so every run of a workload has the same problems and
# sample count, and percentiles stay comparable between runs.  The problems
# of a pass do not depend on --seconds.
EXAMPLES_PASS_S = 4.5
SWEEP_PASS_SIZE = 120
SWEEP_PASS_S = 14.5
SWEEP_SHAPE_SEED = 2028
LADDER_PASS_S = 11.0

LADDER_FAMILY = {"type": "F2", "p1": 0, "p": 1, "q1": 1, "q": 2, "k": 2,
                 "P": ["-1", "3"], "a": [1], "beta": ["1"]}
LADDER_DEGREES = (3, 4, 5)


class CheckFailed(Exception):
    """A problem's output is wrong; the message says how."""


@dataclass
class Problem:
    """One closed-loop step: ``call`` is timed, ``check`` is not.

    ``check`` takes the call's result and returns a dict with the sha256
    ``digest`` of the report's exact fields, the number of ``cycles`` and
    the oracle's worst relative error (0.0 when the oracle is off).
    """

    pid: str
    call: Callable[[], object]
    check: Callable[[object], dict]


def exact_digest(payload: dict) -> str:
    """sha256 of every exact field of a report: all but the oracle block."""
    exact = {key: value for key, value in payload.items() if key != "oracle"}
    blob = json.dumps(exact, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def load_expected() -> dict:
    return json.loads((HERE / "expected.json").read_text())


# ---------------------------------------------------------------------------
# examples_oracle
# ---------------------------------------------------------------------------

def _cli_problem(pid: str, config: dict, golden: Optional[dict] = None,
                 expected_digest: Optional[str] = None,
                 verify: Optional[Callable[[dict], None]] = None) -> Problem:
    oracle_on = config.get("oracle", {}).get("enabled", True)

    def call():
        return cli.execute(config, golden=golden, example_name=pid)

    def check(result) -> dict:
        code, payload, _text = result
        if code != 0:
            raise CheckFailed(f"exit code {code}")
        oracle = payload["oracle"]
        if oracle_on and not oracle.get("passed"):
            raise CheckFailed(f"oracle did not pass: {oracle}")
        if verify is not None:
            verify(payload)
        digest = exact_digest(payload)
        if expected_digest is not None and digest != expected_digest:
            raise CheckFailed(f"digest {digest} != expected {expected_digest}")
        worst = max(oracle.get("max_rel_error_exact_vs_contour", 0.0),
                    oracle.get("max_rel_error_fiber_vs_contour", 0.0))
        return {"digest": digest, "cycles": len(payload["cycles"]),
                "oracle_error": worst}

    return Problem(pid, call, check)


def examples_oracle(seed: int, seconds: float,
                    digests: Dict[str, str]) -> List[List[Problem]]:
    base = []
    for name in cli.EXAMPLE_NAMES:
        bundle = _example_resource(name)
        base.append((name, bundle["config"], bundle["golden"]))
    readme = json.loads((INPUTS / "readme_config.json").read_text())
    base.append(("readme_config", readme, None))
    rng = random.Random(seed)
    passes = []
    for _ in range(max(1, round(seconds / EXAMPLES_PASS_S))):
        order = list(base)
        rng.shuffle(order)
        passes.append([_cli_problem(name, config, golden, digests.get(name))
                       for name, config, golden in order])
    return passes


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

# (p1, p, q1, q, k, max_beta) shapes known to be valid, by branch.
_SWEEP_BRANCHES = (
    ("F1", [(0, 1, 1, 2, 1, 1), (0, 1, 1, 3, 1, 1)]),
    ("F1", [(1, 2, 0, 1, 1, 1), (1, 2, 0, 1, 1, 2), (1, 3, 0, 1, 1, 1)]),
    ("F2", [(0, 1, 1, 2, 1, 1), (0, 1, 1, 3, 1, 1)]),
    ("F2", [(1, 2, 0, 1, 1, 1), (1, 2, 0, 1, 1, 2), (1, 3, 0, 1, 1, 1)]),
    ("F2", [(0, 1, 0, 0, k, 0) for k in (1, 2, 3)]
     + [(1, 2, 0, 0, k, 0) for k in (1, 2, 3)]
     + [(1, 3, 0, 0, 1, 0), (2, 3, 0, 0, 1, 0)]),
    ("F3", None),
)
_BETA_POOL = [GaussRat(v) for v in (1, -1, 2, -2, 3, Fraction(1, 2))] \
    + [GaussRat(0, 1), GaussRat(1, 1)]


def _small_rational(shape: random.Random, signs: random.Random,
                    nonzero: bool = False) -> GaussRat:
    """A small rational: its size from ``shape``, its sign from ``signs``."""
    while True:
        value = Fraction(shape.randint(0, 4), shape.choice((1, 1, 1, 2, 3)))
        if value or not nonzero:
            return GaussRat(value if signs.random() < 0.5 else -value)


def _unipoly(shape: random.Random, max_degree: int) -> UniPoly:
    if max_degree < 0:
        return UniPoly()
    return UniPoly([_small_rational(shape, shape)
                    for _ in range(shape.randint(0, max_degree) + 1)])


def _normal_form(shape: random.Random, family: str, shapes) -> NormalForm:
    if family == "F3":
        total, pieces = shape.randint(2, 6), []
        while total > 0:
            pieces.append(shape.randint(1, min(total, 3)))
            total -= pieces[-1]
        return NormalForm("F3", a=tuple(pieces),
                          beta=tuple(shape.sample(_BETA_POOL, len(pieces))),
                          h=_unipoly(shape, sum(pieces) - 1))
    p1, p, q1, q, k, max_beta = shape.choice(shapes)
    a, beta = (), ()
    if max_beta:
        count = shape.randint(1, max_beta)
        a = (1,) * count
        if count < max_beta:  # a single beta may carry a higher multiplicity
            a, count = (shape.randint(1, max_beta),), 1
        beta = tuple(shape.sample(_BETA_POOL, count))
    return NormalForm(family, p1=p1, p=p, q1=q1, q=q, k=k,
                      P=_unipoly(shape, k - 1), a=a, beta=beta)


def _sparse_terms(shape: random.Random, signs: random.Random,
                  max_degree: int, count: int) -> dict:
    terms = {}
    for _ in range(count):
        i = shape.randint(0, max_degree)
        j = shape.randint(0, max_degree - i)
        terms[(i, j)] = _small_rational(shape, signs, nonzero=True)
    return terms


def _one_form(shape: random.Random, signs: random.Random) -> OneForm:
    max_degree = shape.randint(1, 5)
    a_terms = _sparse_terms(shape, signs, max_degree, shape.randint(1, 5))
    b_terms = {}
    if shape.random() < 0.5:
        b_terms = _sparse_terms(shape, signs, max_degree, shape.randint(1, 3))
    return OneForm(BiPoly(a_terms), BiPoly(b_terms))


def _sweep_problem(pid: str, nf: NormalForm, w: OneForm) -> Problem:
    def call():
        return abelian.full_report(nf, w)

    def check(report) -> dict:
        # Criterion 5: full_report raised NonPolynomialResidue had any cycle
        # integral failed to cancel; the per-cycle rows must hold.
        for entry in report.ledger.entries:
            if entry.name in ("integral_degree_row", "zero_count_cap") \
                    and not entry.satisfied:
                raise CheckFailed(f"bound violated: {entry}")
        payload = _report_to_json(report, {"enabled": False})
        return {"digest": exact_digest(payload),
                "cycles": len(report.integrals), "oracle_error": 0.0}

    return Problem(pid, call, check)


def sweep(seed: int, seconds: float) -> List[List[Problem]]:
    # The normal forms and the shape and sizes of each one-form come from a
    # fixed stream; the seed draws the signs of the one-forms' coefficients.
    # Every seed then asks for nearly the same work: over ten seeds the
    # quartiles of a pass's total time were 2.6% apart and those of its
    # median problem 3.3%.  Seed-drawn signs of P and h change how many
    # cycles an instance has, and moved the total of 48 problems by 7.5%.
    shape, signs = random.Random(SWEEP_SHAPE_SEED), random.Random(seed)
    problems = []
    for index in range(SWEEP_PASS_SIZE):
        family, shapes = _SWEEP_BRANCHES[index % len(_SWEEP_BRANCHES)]
        nf = _normal_form(shape, family, shapes)
        w = _one_form(shape, signs)
        problems.append(_sweep_problem(f"sweep{index}", nf, w))
    return [problems] * max(1, round(seconds / SWEEP_PASS_S))


# ---------------------------------------------------------------------------
# ladder
# ---------------------------------------------------------------------------

def ladder_monomials(n: int):
    return [(i, j) for i in range(n + 1) for j in range(1, n + 1 - i)]


def _ladder_verify(coeffs: Dict[tuple, Fraction], basis: dict):
    """Exact oracle: the integrals are linear in the form's coefficients.

    ``basis`` holds, per monomial x^i y^j dx, the integral over each cycle
    as recorded when the benchmark was added; the report must equal the
    same linear combination of them.
    """
    cycles = len(next(iter(basis.values())))
    expected = [UniPoly() for _ in range(cycles)]
    for (i, j), value in coeffs.items():
        weight = GaussRat(value)
        for index, poly in enumerate(basis[f"{i},{j}"]):
            expected[index] = expected[index] + UniPoly(
                [GaussRat.parse(v) for v in poly]).scale(weight)

    def verify(payload: dict) -> None:
        got = [UniPoly([GaussRat.parse(v) for v in cycle["integral_2pii"]])
               for cycle in payload["cycles"]]
        if got != expected:
            raise CheckFailed("integrals differ from the combination of the "
                              "stored basis integrals")

    return verify


def ladder_config(coeffs: Dict[tuple, Fraction]) -> dict:
    terms = [{"i": i, "j": j, "coeff": str(value), "differential": "dx"}
             for (i, j), value in coeffs.items()]
    return {"family": LADDER_FAMILY, "one_form": terms,
            "oracle": {"enabled": False}}


def ladder(seed: int, seconds: float) -> List[List[Problem]]:
    stored = json.loads((INPUTS / "ladder_basis.json").read_text())
    if stored["family"] != LADDER_FAMILY:
        raise ValueError("ladder_basis.json belongs to another family")
    basis = stored["integrals"]
    rng = random.Random(seed)
    problems = []
    for n in LADDER_DEGREES:
        # Signs only: with magnitudes up to 9, or denominators up to 4,
        # the renderer's rational-root search over divisors of the end
        # coefficients took 0.4-1.6 s for n = 4 depending on the draw,
        # and that lottery swamped the residue work this workload is for.
        coeffs = {mono: Fraction(rng.choice((-1, 1)))
                  for mono in ladder_monomials(n)}
        problems.append(_cli_problem(f"ladder_n{n}", ladder_config(coeffs),
                                     verify=_ladder_verify(coeffs, basis)))
    return [problems] * max(1, round(seconds / LADDER_PASS_S))


def build(workload: str, seed: int, seconds: float,
          expected: dict) -> List[List[Problem]]:
    """The run's problems as passes, in order.

    The same arguments give the same problems.  Every pass holds the same
    problems; only ``examples_oracle`` changes their order from pass to pass.
    """
    if workload == "examples_oracle":
        return examples_oracle(seed, seconds, expected["examples_oracle"])
    return {"sweep": sweep, "ladder": ladder}[workload](seed, seconds)
