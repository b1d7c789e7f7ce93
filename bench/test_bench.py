"""Self-test of the benchmark (``python -m pytest bench``).

Runs every workload at ``--smoke`` size, so the whole file takes well
under a minute. Not part of the tier-1 suite (``testpaths`` is
``tests/``).
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import compare
import run as bench_run

bench_run.use_source_tree()

from speed import NOMINAL_NS, WINDOW_NS, Speedometer  # noqa: E402
from tracer import Tracer, analyse_spans  # noqa: E402
from workloads import WORKLOADS, PassResult, Workload  # noqa: E402

BENCH = Path(__file__).resolve().parent
DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
SMOKE = ["--seed", "0", "--seconds", "0.2", "--smoke"]


def test_declared_workloads_are_the_implemented_ones() -> None:
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_declared_metric_is_emitted_with_its_unit(workload: str, trace: int) -> None:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--trace", str(trace)]
        + SMOKE,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    emitted = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert emitted == {entry["name"]: entry["unit"] for entry in declared}
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_seeded_digest_mismatch_fails_the_run(
    monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture[str]
) -> None:
    import workloads

    replay = workloads.service_journal.replay

    def diverging_replay(path, **kwargs):  # type: ignore[no-untyped-def]
        store, durable = replay(path, **kwargs)
        store.requests_seen += 1  # the replayed state no longer matches
        return store, durable

    monkeypatch.setattr(workloads.service_journal, "replay", diverging_replay)
    code = bench_run.main(["--workload", "online-uniform"] + SMOKE)
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert result["correct"] is False


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_trace_self_times_never_exceed_span_totals(workload: str, tmp_path: Path) -> None:
    tracer = Tracer()
    instance = WORKLOADS[workload](0, True, tmp_path)
    instance.set_up(0)
    with tracer.spans_installed():
        result = instance.run_pass(0, 0, tracer)
    instance.verify(result)
    spans = tracer.take_spans()
    assert spans
    analysed = analyse_spans(spans, result.wall_ns)
    totals: Counter[str] = Counter()
    for name, start, end, *_ in spans:
        assert end >= start
        totals[name] += end - start
    for name, own in analysed.self_by_name.items():
        assert 0 <= own <= totals[name], name
    assert sum(analysed.self_by_layer.values()) <= analysed.wall_ns


class _Recorder(Workload):
    """Three inputs; records which input each measured pass drove."""

    name = "recorder"
    n_scenarios = 3
    min_cycles = 2
    calls: list[tuple[int, bool]] = []

    @staticmethod
    def _sleep() -> tuple[int, int]:
        started = time.perf_counter_ns()
        time.sleep(0.02)  # long enough for the speedometer to sample
        return started, time.perf_counter_ns()

    def set_up(self, number: int) -> tuple[int, int]:
        return self._sleep()

    def run_pass(self, number: int, scenario: int, tracer: Tracer | None) -> PassResult:
        if number:  # 0 is the warm-up
            self.calls.append((scenario, tracer is not None))
        stretch = self._sleep()
        return PassResult(timed=[stretch], ops=[stretch], attempted=1)

    def verify(self, result: PassResult) -> None:
        pass

    def quality_ratio(self, passes: list[PassResult]) -> float:
        return 1.0


@pytest.mark.parametrize("trace", [False, True])
def test_runs_are_whole_cycles_and_trace_modes_share_inputs(
    monkeypatch: pytest.MonkeyPatch, trace: bool
) -> None:
    monkeypatch.setitem(WORKLOADS, _Recorder.name, _Recorder)
    monkeypatch.setattr(_Recorder, "calls", [])
    result = bench_run.measure(_Recorder.name, 0, 0.0, trace, smoke=True)
    assert result["correct"]
    # plain, span and count pass of one input in a row; spans get the tracer
    modes = [False, True, False] if trace else [False]
    cycles = 1 if trace else _Recorder.min_cycles
    expected = [(s, m) for _ in range(cycles) for s in range(3) for m in modes]
    assert _Recorder.calls == expected


def test_normalised_time_drops_samples_and_scales_to_nominal_speed() -> None:
    meter = Speedometer()
    # Samples at twice the nominal duration: the host ran at half speed.
    meter.starts = [WINDOW_NS * 10 + k * 5_000_000 for k in range(40)]
    meter.durations = [2 * NOMINAL_NS] * 40
    start, end = meter.starts[4] - 1_000, meter.starts[8] - 1_000
    inside = 4 * 2 * NOMINAL_NS
    assert meter.normalised_ns(start, end) == pytest.approx((end - start - inside) / 2)
    # A stretch with no sample in its window borrows the nearest ones.
    far = meter.starts[-1] + 5 * WINDOW_NS
    assert meter.normalised_ns(far, far + 1_000) == pytest.approx(500)


def test_compare_verdicts() -> None:
    base = [10.0, 10.2, 9.9, 10.1, 10.0]
    assert compare.compare(base, [10.1, 10.0, 10.2, 9.9, 10.0], "lower", 0.1)["verdict"] == "ok"
    assert compare.compare(base, [12.0, 12.1, 11.9, 12.2, 12.0], "lower", 0.1)["verdict"] == (
        "REGRESSION"
    )
    assert compare.compare(base, [8.0, 8.1, 7.9, 8.2, 8.0], "lower", 0.1)["verdict"] == "gain"
    noisy = [5.0, 10.0, 15.0, 7.0, 13.0]
    assert compare.compare(base, noisy, "lower", 0.1)["verdict"] == "unresolved"
