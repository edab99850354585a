"""Self-test of the benchmark: python3 -m pytest perfbench

Runs tiny versions of each workload through ``run.main``.
"""

import json
from pathlib import Path

import pytest

import run
import tracing
import workloads

SPEC = json.loads((Path(__file__).resolve().parent.parent
                   / "BENCHMARK.json").read_text())
# Layers a workload never enters: the sweep calls the library directly and
# runs no oracle; the ladder runs no oracle, but its rendering calls the
# oracle module's root finder.
BYPASSED = {
    "sweep": [name for name in tracing.metric_units()
              if name.startswith(("oracle.", "cli.", "transform.pushforward"))],
    "ladder": [name for name in tracing.metric_units()
               if name.startswith("oracle.")
               and not name.startswith("oracle.locate_roots")],
}


def result_line(capsys) -> dict:
    return json.loads(capsys.readouterr().out.splitlines()[-1])


@pytest.fixture
def tiny(monkeypatch):
    """Small passes, whose workload digests are not the stored ones."""
    monkeypatch.setattr(workloads, "LADDER_DEGREES", (2,))
    monkeypatch.setattr(workloads, "SWEEP_PASS_SIZE", 6)
    expected = workloads.load_expected()
    expected["sweep"], expected["ladder"] = {}, {}
    monkeypatch.setattr(workloads, "load_expected", lambda: expected)
    return expected


def test_wrong_expected_problem_digest_is_a_failure(capsys, monkeypatch):
    expected = workloads.load_expected()
    expected["examples_oracle"]["oscillator"] = "0" * 64
    monkeypatch.setattr(workloads, "load_expected", lambda: expected)
    code = run.main(["--workload", "examples_oracle", "--seed", "3",
                     "--seconds", "1"])
    result = result_line(capsys)
    assert code == 1
    assert not result["correct"]
    assert result["failed"] == 1


def test_wrong_expected_workload_digest_is_a_failure(capsys, tiny):
    tiny["sweep"]["7"] = "0" * 64
    code = run.main(["--workload", "sweep", "--seed", "7", "--seconds", "0.5"])
    out = capsys.readouterr().out
    assert code == 1
    assert "DIFFERS" in out
    assert not json.loads(out.splitlines()[-1])["correct"]


def test_untraced_run_emits_every_end_to_end_metric(capsys, tiny):
    assert run.main(["--workload", "sweep", "--seed", "5",
                     "--seconds", "0.5"]) == 0
    result = result_line(capsys)
    assert result["correct"] and result["failed"] == 0
    names = [metric["name"] for metric in SPEC["end_to_end"]]
    assert list(result["metrics"]) == names
    assert all(result["metrics"][name]["value"] > 0 for name in names)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(capsys, tiny, workload):
    assert run.main(["--workload", workload, "--seed", "5", "--seconds", "0.5",
                     "--trace", "1"]) == 0
    metrics = result_line(capsys)["metrics"]
    spec = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}
    assert {name: value["unit"] for name, value in metrics.items()} == spec
    for name in BYPASSED.get(workload, []):
        assert metrics[name]["value"] == 0, name
    assert metrics["algebra.residue_s"]["value"] > 0
    assert metrics["rectify.pushforwards_per_pair"]["value"] >= 1


def test_tracer_uninstall_restores_every_binding():
    import abelint.abelian
    import abelint.cli
    import abelint.rectify

    before = (abelint.cli.build_rectifier, abelint.abelian.residue,
              abelint.rectify.RectifyingMap.monomial_pushforward)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert abelint.cli.build_rectifier is not before[0]
        assert abelint.abelian.residue is not before[1]
    finally:
        tracer.uninstall()
    assert (abelint.cli.build_rectifier, abelint.abelian.residue,
            abelint.rectify.RectifyingMap.monomial_pushforward) == before


def test_problem_time_is_its_slowest_run():
    records = [{"pid": pid, "seconds": seconds, "error": error}
               for pid, seconds, error in (("a", 1.0, None), ("b", 2.0, None),
                                           ("a", 3.0, None), ("b", 1.0, "X"))]
    assert run.slowest_times(records) == [3.0]


def test_tail_needs_ten_samples_beyond():
    assert run.tail([float(v) for v in range(1, 6)]) == (5.0, 100.0, 0)
    value, percentile, beyond = run.tail([float(v) for v in range(1, 101)])
    assert (value, beyond) == (90.0, 10)
    assert percentile == pytest.approx(90.0)
