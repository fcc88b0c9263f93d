"""Tests of the benchmark itself, at smoke sizes.

Run from the root of a checkout:  python3 -m pytest perfbench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import spans  # noqa: E402
import workloads  # noqa: E402
from oracle import LnEulerChain, closed_form_means  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--seed", "3",
         "--seconds", "1", "--size", "smoke", *args],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_is_emitted_with_its_unit(workload, trace, kind):
    proc = run_bench("--workload", workload, "--trace", trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and 0 <= result["failed"] <= result["attempted"]
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])
    printed = {line.split()[1] for line in proc.stdout.splitlines() if line.startswith("metric ")}
    assert set(expected) | {"failed_share"} <= printed


def copy_benchmark(dest: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(BENCH, dest / "perfbench", ignore=shutil.ignore_patterns("out"))


def test_wrong_reference_checksum_fails_the_run(tmp_path):
    copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    path = tmp_path / "perfbench" / "reference.json"
    reference = json.loads(path.read_text())
    reference["loglik"]["NL"] *= 1.0 + 1e-6
    path.write_text(json.dumps(reference))
    proc = run_bench("--workload", "paper-eval", cwd=tmp_path)
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not result["correct"] and result["failed"] == 1
    assert "NL checksum" in proc.stdout


def test_checksum_matches_reference():
    reference = json.loads((BENCH / "reference.json").read_text())
    for fam, value in workloads.checksum_logliks().items():
        assert value == pytest.approx(reference["loglik"][fam], rel=reference["rel_tol"])


def test_run_fails_without_the_program(tmp_path):
    copy_benchmark(tmp_path)
    proc = run_bench("--workload", "estimate", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


@pytest.fixture(scope="module")
def traced_estimate(tmp_path_factory):
    workload = workloads.Estimate(3, "smoke", tmp_path_factory.mktemp("estimate"), 1)
    workload.setup()
    tracer = spans.Tracer()
    with tracer.installed("rep0"):
        result = workload.run(0)
    return tracer, result


def test_span_tree_is_well_formed(traced_estimate):
    tracer, _ = traced_estimate
    by_id = {s.id: s for s in tracer.spans}
    assert len(by_id) == len(tracer.spans)
    roots = [s for s in tracer.spans if s.parent is None]
    assert [s.name for s in roots] == ["cli.main", "cli.main"]
    for span in tracer.spans:
        assert span.run == "rep0"
        assert span.start <= span.end
        if span.parent is not None:
            parent = by_id[span.parent]
            assert parent.start <= span.start and span.end <= parent.end
    for value in spans.self_times(tracer.spans).values():
        assert value >= 0.0
    metrics = spans.layer_metrics(tracer.spans)
    for name in ("eml.assemble.self_s", "search.self_s", "cli.self_s"):
        assert metrics[name] >= 0.0


def test_search_evals_equal_fit_result_evaluations(traced_estimate):
    tracer, result = traced_estimate
    metrics = spans.layer_metrics(tracer.spans)
    reported = sum(result.data[fam]["n_evaluations"] for fam in ("LN", "NL"))
    assert metrics["search.evals"] == reported > 0
    assert metrics["sandwich.sml_calls"] > 0
    assert metrics["search.feasible_ratio"] > 0.5


def test_missing_name_is_reported_absent_and_the_run_goes_on(tmp_path):
    gone = spans.Target("nlsv.simulate", "renamed_bridge_fill", "bridge.fill")
    targets = tuple(t for t in spans.TARGETS if t.span != "bridge.fill") + (gone,)
    tracer = spans.Tracer(targets)
    workload = workloads.Estimate(3, "smoke", tmp_path, 1)
    workload.setup()
    with tracer.installed("rep0"):
        workload.run(0)
    assert tracer.absent == ["nlsv.simulate.renamed_bridge_fill"]
    assert spans.absent_layers(tracer) == ["bridge"]
    assert spans.layer_metrics(tracer.spans)["bridge.calls"] == 0
    import nlsv.eml

    assert not hasattr(nlsv.eml.assemble_system, "__wrapped__")


def test_euler_chain_mean_approaches_closed_form():
    params = workloads.LN_PARAMS
    dt = 1.0 / (262 * 8)
    chain = LnEulerChain(params, dt)
    v0 = np.array([0.01, 0.05])
    x0 = np.array([5.7, 5.7])
    moments = chain.moments(x0, v0, 22 * 8, 8)
    assert moments.lost_mass < 1e-9
    days = np.arange(23)
    for k in range(2):
        exact_x, exact_v = closed_form_means(params, x0[k], v0[k], days / 262)
        assert np.allclose(moments.mean_v[:, k], exact_v, rtol=2e-3)
        assert np.allclose(moments.mean_x[:, k], exact_x, rtol=0, atol=1e-5)
        assert np.all(moments.sd_v[1:, k] > 0)


def test_rolling_expected_records_match_a_clean_run(tmp_path):
    workload = workloads.Rolling(3, "smoke", tmp_path, 1)
    workload.setup()
    result = workload.run(0)
    checks = workload.check([result])
    assert checks.failed == 0, checks.problems + checks.failures
    records = sum(workload.expected().values())
    assert sum(len(c["origin"]) for c in result.data["cells"].values()) == records

    # An origin the program skipped is a failed operation, not a wrong output;
    # an origin with only some of its records is a wrong output.
    cells = result.data["cells"]
    origin = cells[next(k for k in cells if k.startswith("out|"))]["origin"][0]
    skipped = {k: {"origin": [o for o in c["origin"] if not (k.startswith("out|") and o == origin)]}
               for k, c in cells.items()}
    checks = workload.check([replace(result, data=dict(result.data, cells=skipped))])
    assert checks.failed == 1 and not checks.problems
    assert "skipped" in checks.failures[0]
    partial = dict(cells)
    key = next(k for k, c in cells.items() if k.startswith("out|") and origin in c["origin"])
    partial[key] = {"origin": [o for o in cells[key]["origin"] if o != origin]}
    checks = workload.check([replace(result, data=dict(result.data, cells=partial))])
    assert checks.failed == 1 and len(checks.problems) == 1 and not checks.failures


def test_operations_depend_on_seed_and_seconds_only(tmp_path):
    """The operations of a run, and so its attempted count, never depend
    on how fast the machine is."""
    for name, cls in workloads.WORKLOADS.items():
        size = workloads.SIZES["full"][name]
        workload = cls(7, "full", tmp_path, 24)
        assert workload.repeats == size["repeats"] >= 1
        assert workload.n_ops == max(1, round(24 / (size["repeats"] * size["op_s"])))
    first = workloads.PaperEval(7, "smoke", tmp_path / "a", 3)
    again = workloads.PaperEval(7, "smoke", tmp_path / "b", 3)
    first.setup()
    again.setup()
    assert first.n_ops == again.n_ops == 3
    assert np.array_equal(first.points, again.points)


def test_meta_maps_every_layer_metric_and_wrapped_name():
    meta = json.loads((BENCH / "meta.json").read_text())
    mapped = [m for layer in meta["layers"].values() for m in layer["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in SPEC["per_layer"])
    names = {n for layer in meta["layers"].values() for n in layer["names"]}
    assert names == {f"{t.owner}.{t.attr}" for t in spans.TARGETS}
    assert set(meta["failed_share"]) >= {w["name"] for w in SPEC["workloads"]}
