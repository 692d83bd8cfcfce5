"""Tests of the benchmark itself. Run explicitly: ``pytest benchmarks/e2e``
(tier-1's ``testpaths`` stays ``tests``)."""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

import bench                     # noqa: E402
import workloads as wl           # noqa: E402
from tracer import Tracer        # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _names(section):
    return [m["name"] for m in CONTRACT[section]]


def test_contract_names_and_workloads():
    names = (_names("workloads") + _names("end_to_end") + _names("per_layer"))
    assert all(NAME.fullmatch(n) for n in names)
    assert len(set(names)) == len(names)
    assert _names("workloads") == [w.name for w in wl.ALL]
    assert CONTRACT["paths"] == ["benchmarks/e2e"]
    assert "setup_s" in _names("end_to_end")
    assert all(0 < m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])
    assert len(CONTRACT["per_layer"]) <= 128


@pytest.fixture(scope="module")
def smoke_records(tmp_path_factory):
    """Every workload at smoke size, untraced and traced, in this process."""
    out = tmp_path_factory.mktemp("smoke")
    t0 = time.perf_counter()
    recs = {(w.name, trace): bench.measure(w, seconds=0.2, trace=trace,
                                           size="smoke", out_dir=out)
            for w in wl.ALL for trace in (False, True)}
    return recs, time.perf_counter() - t0, out


def test_smoke_is_fast_and_clean(smoke_records):
    recs, elapsed, _out = smoke_records
    assert elapsed < 20, f"smoke sizes took {elapsed:.1f}s"
    for key, rec in recs.items():
        assert rec["failed"] == 0 and rec["attempted"] >= 1, (key, rec["errors"])


def test_output_has_exactly_the_contract_metrics(smoke_records):
    recs, _elapsed, _out = smoke_records
    for (name, trace), rec in recs.items():
        line = json.loads(bench.contract_line(rec))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        wanted = CONTRACT["per_layer" if trace else "end_to_end"]
        assert list(line["metrics"]) == [m["name"] for m in wanted]
        for m in wanted:
            got = line["metrics"][m["name"]]
            assert got["unit"] == m["unit"]
            assert isinstance(got["value"], (int, float)), (name, m["name"])
        if not trace:
            assert all(v["value"] > 0 for v in line["metrics"].values())


def test_traced_run_is_the_same_program(smoke_records):
    """_traced() fails the operation on any fingerprint or batch_stats
    difference; here the same check is made on the class-patched seams
    directly, on the workload that leans on speculation the most."""
    recs, _elapsed, out = smoke_records
    w = wl.BY_NAME["private_hot"]
    plain = bench.run_direct(w, "smoke")
    with Tracer() as tracer:
        traced = bench.run_direct(w, "smoke")
    assert not tracer.missing
    assert traced["fingerprint"] == plain["fingerprint"]
    assert traced["counts"]["batch_stats"] == plain["counts"]["batch_stats"]
    assert plain["counts"]["engine.ext_refs_share"] > 0.5
    spans = tracer.by_name()
    assert spans["mem.access_run"]["calls"] > 0
    # spans nest under the three adapter calls and account for their time
    rec = recs[("private_hot", True)]
    assert abs(rec["unattributed_share"]) < 0.02
    trace = json.loads((out / rec["trace_file"]).read_text())
    assert {e["parent"] for e in trace["edges"]} >= {None, "adapter.run"}


def test_layer_split_has_the_predicted_shape(smoke_records):
    recs, _elapsed, _out = smoke_records
    layer = {n: {k: v["value"] for k, v in recs[(n, True)]["metrics"].items()}
             for n in _names("workloads")}
    assert layer["splash"]["engine.batches"] == 0
    assert layer["splash"]["mem.access_run_calls"] == 0
    assert layer["oltp"]["engine.ext_refs_share"] == 0
    assert layer["dss"]["engine.ext_refs_share"] == 0
    assert layer["dss"]["harness.slowdown_vs_raw"] > 1
    for name, m in layer.items():
        assert (m["checkpoint.saves"] > 0) == (name == "oltp_job")
        assert (m["spool.records"] > 0) == (name == "oltp_job")


def test_exception_and_deadline_are_failed_operations(tmp_path):
    oltp = wl.BY_NAME["oltp"]
    boom = dataclasses.replace(
        oltp, name="boom", sizes={"smoke": ({"no_such_kwarg": 1}, 0.3)})
    slow = dataclasses.replace(
        oltp, name="slow", sizes={"smoke": (oltp.kwargs("smoke"), 0.0001)})
    for w, needle in ((boom, "TypeError"), (slow, "deadline")):
        rec = bench.measure(w, seconds=0.1, trace=False, size="smoke",
                            out_dir=tmp_path)
        assert rec["failed"] == rec["attempted"] >= 1
        assert rec["ops_failed_share"] == 1.0
        assert all(needle in e for e in rec["errors"]), rec["errors"]
        assert json.loads(bench.contract_line(rec))["correct"] is False


def test_cli_last_line_and_exit_codes(tmp_path):
    cmd = [sys.executable, str(HERE / "bench.py"), "--workload", "splash",
           "--seed", "5", "--seconds", "0.1", "--trace", "0", "--smoke",
           "--out-dir", str(tmp_path)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0
    for name in _names("end_to_end"):
        assert re.search(rf"^{re.escape(name)}\s+\S+ \S+", proc.stdout, re.M)
    assert "ops_failed_share" in proc.stdout

    # without the simulator's source there is nothing to measure
    bare = tmp_path / "bare"
    shutil.copytree(HERE, bare / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/bench.py", "--workload", "splash",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_compare_verdicts():
    def series(*samples):
        return bench._spread(list(samples))

    base = series(100.0, 101.0, 99.0, 100.5, 99.5)
    same = series(100.2, 100.8, 99.4, 100.1, 99.9)
    fast = series(120.0, 121.0, 119.0, 120.5, 119.5)
    slow = series(80.0, 81.0, 79.0, 80.5, 79.5)
    wild = series(60.0, 140.0, 100.0, 75.0, 125.0)
    verdict = lambda b: bench._verdict(base, b, True, 0.10)   # noqa: E731
    assert verdict(same) == "within-bound"
    assert verdict(fast) == "better"
    assert verdict(slow) == "worse"
    assert verdict(wild) == "unresolved"
    # lower-is-better flips the direction
    assert bench._verdict(base, slow, False, 0.10) == "better"
