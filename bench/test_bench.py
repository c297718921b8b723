"""Tests of the benchmark itself: percentile rule, failure accounting,
metric names and the tracer's cross-module wrapping."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.mark.parametrize("n, p", [(1, 50), (13, 50), (19, 50), (20, 50),
                                  (99, 50), (100, 90), (106, 90), (746, 90),
                                  (999, 90), (1000, 99), (9999, 99),
                                  (10000, 99.9)])
def test_tail_percentile_has_ten_samples_beyond(n, p):
    assert run.tail_percentile(n) == p


def test_nearest_rank_percentile():
    values = list(range(100, 0, -1))
    assert run.percentile(values, 50) == 50
    assert run.percentile(values, 90) == 90
    assert run.percentile([7.0], 90) == 7.0


def test_latency_is_per_pass_percentile_averaged_over_passes():
    passes = [{"chain_s": [0.001, 0.003, 0.002]}, {"chain_s": [0.005]}]
    assert run.pass_latency_ms(passes, 50) == pytest.approx(3.5)
    assert run.pass_latency_ms(passes, 90) == pytest.approx(4.0)


class _CorruptFamily(workloads.Family):
    def solve(self, ab):
        prof, table, cross = super().solve(ab)
        s = next(s for s, vs in table.table.items() if vs.euler())
        table.table[s] = table.table[s].shifted(1)
        return prof, table, cross


class _CorruptObstruct(workloads.Obstruct):
    def solve(self, ab):
        prof, cor, verdicts = super().solve(ab)
        return prof, cor, {s: not v for s, v in verdicts.items()}


class _RaisingFamily(workloads.Family):
    def solve(self, ab):
        raise RuntimeError("injected")


@pytest.mark.parametrize("cls, inputs", [
    (workloads.Family, [(2, -1), (4, -1)]),
    (workloads.Obstruct, [(4, 1), (8, -3)]),
])
def test_clean_outputs_pass(cls, inputs):
    _, attempted, failed = worker.run_pass(cls(), inputs)
    assert (attempted, failed) == (2, 0)


@pytest.mark.parametrize("cls, inputs", [
    (_CorruptFamily, [(2, -1), (4, -1)]),
    (_CorruptObstruct, [(4, 1), (8, -3)]),
    (_RaisingFamily, [(2, -1)]),
])
def test_corrupted_output_raises_error_rate(cls, inputs):
    _, attempted, failed = worker.run_pass(cls(), inputs)
    assert run.error_rate(attempted, failed) > 0


def test_workload_inputs_match_their_stated_counts():
    assert len(workloads.Family().inputs(1)) == 106
    assert len(workloads.Obstruct().inputs(1)) == 746
    assert workloads.Obstruct().inputs(1) != workloads.Obstruct().inputs(2)
    assert sorted(workloads.Obstruct().inputs(1)) == sorted(
        workloads.Obstruct().inputs(2))


def test_metric_names_and_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    assert set(names) <= set(run.WORKLOAD_NAMES)
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == run.END_TO_END
    import tracer
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert layer == {**tracer.metric_units(), **run.TRACE_OVERHEAD}
    all_names = names + list(e2e) + list(layer)
    assert len(set(all_names)) == len(all_names)
    for name in all_names:
        assert NAME.fullmatch(name), name
    for unit in list(e2e.values()) + list(layer.values()):
        assert UNIT.fullmatch(unit), unit


_TRACE_SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracer, worker, workloads
tr = tracer.Tracer()
tr.install()
_, attempted, failed = worker.run_pass(workloads.Family(), [(8, -3)], tr)
print(json.dumps({"failed": failed, **tr.metrics(),
                  "spans": len(tr.span_start)}))
"""


def test_tracer_sees_calls_across_modules():
    proc = subprocess.run(
        [sys.executable, "-c", _TRACE_SCRIPT, str(ROOT / "src"), str(BENCH)],
        capture_output=True, text=True, check=True)
    m = json.loads(proc.stdout.strip().splitlines()[-1])
    assert m["failed"] == 0
    # floer calls these under the names it imported them by
    assert m["cubes.euler_char.calls"] > 0
    assert m["cubes.complete_subgraph.calls"] > 0
    assert m["lspace.normalized_family.calls"] > 0
    assert m["floer.build_tgraph.calls"] == 1
    assert m["floer.hfl_minus.points"] == m["floer.build_tgraph.points"]
    assert m["cli.classify.calls"] == 0
    # self times are non-negative and spans match calls
    assert all(v >= 0 for k, v in m.items() if k.endswith(".self_s"))
    assert m["spans"] == sum(v for k, v in m.items() if k.endswith(".calls"))
