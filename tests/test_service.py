"""Control-plane tests: adapter lifecycle, supervised job matrix, chaos
(SIGKILL mid-run + deterministic hang on retry -> checkpoint resume,
bit-identical), safe-mode degradation, structured failure records, and
preempt/resume."""

import json
import os

import pytest

from repro import FaultPlan, FaultRule, checkpoint_exists
from repro.apps.splash import KERNELS
from repro.core.errors import ConfigError
from repro.service import (JobRunner, JobSpec, JobState, SimulatorAdapter,
                           make_config_factory, run_matrix)

from tests import equivalence

TIMING_PLAN = FaultPlan(rules=(
    FaultRule(site="disk:latency", prob=0.2, extra_cycles=40_000),
    FaultRule(site="mem:degraded", prob=0.001, extra_cycles=300),
), seed=1998)


def _direct_fingerprint(workload, config=None, segment=None, **kw):
    """Run a description straight through the adapter (no subprocess)."""
    a = SimulatorAdapter()
    a.prepare(config=config, workload=workload, workload_kwargs=kw)
    a.run_to_completion(segment=segment)
    return a.collect()["fingerprint"]


# ---------------------------------------------------------------------------
# SimulatorAdapter
# ---------------------------------------------------------------------------

class TestSimulatorAdapter:
    def test_prepare_run_collect(self):
        a = SimulatorAdapter()
        eng = a.prepare(workload="dss")
        assert not a.running or eng.events_processed == 0
        a.run()
        out = a.collect()
        assert out["workload"] == "dss"
        assert out["events_processed"] > 0
        assert not out["running"]
        # the payload is JSON-plain and survives a round trip
        assert json.loads(json.dumps(out)) == out

    def test_matches_manual_build(self):
        """The adapter is the registry builders behind a lifecycle: same
        description, same fingerprint as building by hand."""
        a = SimulatorAdapter()
        a.prepare(workload="oltp")
        a.run()
        assert a.fingerprint() == equivalence.run("oltp").snap["fingerprint"]

    def test_bounded_runs_resume_where_they_stopped(self):
        a = SimulatorAdapter()
        a.prepare(workload="dss")
        a.run(budget=500)
        seen = a.engine.events_processed
        assert 0 < seen <= 500
        assert a.running
        a.run_to_completion(segment=500)
        assert not a.running
        assert a.engine.events_processed > seen

    @pytest.mark.parametrize("workload, tiny", [
        ("oltp", {"tx_per_agent": 1}), ("webserver", {"nrequests": 2})])
    def test_segment_cuts_are_not_events(self, workload, tiny):
        """``run(budget)`` slices land the uninterrupted run, timer
        interrupts included (a bounded return used to stop the interval
        timer for good) — down to one event per slice on a tiny input."""
        def run(segment, kw):
            a = SimulatorAdapter()
            a.prepare(workload=workload, workload_kwargs=kw)
            stats = a.run_to_completion(segment=segment)
            return a.fingerprint(), stats.interrupt_counts["timer"]

        whole = run(None, {})
        assert whole[1] > 1
        assert run(4_096, {}) == run(1_000, {}) == whole
        assert run(1, tiny) == run(None, tiny)

    def test_config_dict_faults_and_knobs(self):
        """Plain-dict configs (with the FaultPlan dict form) build the
        same simulation as live objects."""
        via_dict = _direct_fingerprint(
            "oltp", {"faults": TIMING_PLAN.to_dict(), "fastpath": False})
        via_obj = _direct_fingerprint(
            "oltp", {"faults": TIMING_PLAN, "fastpath": False})
        assert via_dict == via_obj

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_every_splash_kernel_runs_at_smoke_size(self, kernel):
        """The registry's size knob reaches each kernel in its own terms."""
        a = SimulatorAdapter()
        a.prepare(workload="splash",
                  workload_kwargs={"kernel": kernel, "nkeys": 256})
        a.run()
        assert not a.running
        assert a.engine.events_processed > 0
        assert all(p.exit_status == 0
                   for p in a.engine.comm.processes.values())

    def test_unknown_workload_refused(self):
        with pytest.raises(ConfigError, match="unknown workload"):
            SimulatorAdapter().prepare(workload="nope")

    def test_unknown_config_key_refused_when_factory_is_built(self):
        """A misspelt knob is a ConfigError naming it — raised by
        ``make_config_factory`` itself, not a ``TypeError`` out of the
        first builder call — while builder kwargs stay accepted."""
        with pytest.raises(ConfigError, match="'specluate'"):
            make_config_factory({"specluate": False})
        with pytest.raises(ConfigError, match="'num_nodes'"):
            make_config_factory({"backend": "simple", "num_nodes": 2})
        with pytest.raises(ConfigError, match="'sampling.detail_event'"):
            make_config_factory({"sampling": {"detail_event": 1_000}})
        cfg = make_config_factory({"coherence": "mesi", "fastpath": False})
        assert cfg(num_cpus=2).fastpath is False


# ---------------------------------------------------------------------------
# job matrix (happy path)
# ---------------------------------------------------------------------------

class TestJobMatrix:
    def test_matrix_runs_to_done(self, tmp_path):
        specs = [JobSpec(name=f"m-{w}", workload=w, heartbeat_events=1_500,
                         checkpoint_interval=1_500)
                 for w in ("dss", "splash")]
        recs = run_matrix(specs, workdir=str(tmp_path), max_workers=2)
        for w in ("dss", "splash"):
            rec = recs[f"m-{w}"]
            assert rec.state == JobState.DONE
            assert rec.history == ["PENDING", "RUNNING", "DONE"]
            assert rec.fingerprint == _direct_fingerprint(w, segment=1_500)
            assert json.loads(rec.to_json()) == rec.to_dict()

    def test_duplicate_names_refused(self):
        runner = JobRunner()
        runner.submit(JobSpec(name="x", workload="dss"))
        with pytest.raises(ValueError, match="duplicate"):
            runner.submit(JobSpec(name="x", workload="dss"))


# ---------------------------------------------------------------------------
# chaos: the acceptance scenario
# ---------------------------------------------------------------------------

def _chaos_spec(name, chaos, tmp_path, **kw):
    base = dict(workload="oltp", heartbeat_events=1_500,
                checkpoint_interval=1_500, max_retries=2, backoff=0.02,
                hang_timeout=0.75, timeout=120.0)
    base.update(kw)
    return JobSpec(name=name, chaos=chaos, **base)


class TestChaos:
    def test_chaos_kill_then_hang_resumes_bit_identical(self, tmp_path):
        """The acceptance gate: SIGKILL the job mid-run, then inject a
        deterministic hang on the first retry. The job must finish within
        its retry budget via checkpoint resume + backoff, bit-identical
        to an undisturbed job of the same spec."""
        undisturbed = run_matrix(
            [_chaos_spec("calm", {}, tmp_path)],
            workdir=str(tmp_path / "calm"))["calm"]
        assert undisturbed.state == JobState.DONE

        chaotic = run_matrix(
            [_chaos_spec("chaos", {"kill_at_events": 6_000,
                                   "kill_on_attempts": [1],
                                   "hang_on_attempts": [2]}, tmp_path)],
            workdir=str(tmp_path / "chaos"))["chaos"]

        assert chaotic.state == JobState.DONE
        outcomes = [a.outcome for a in chaotic.attempts]
        assert outcomes == ["crashed", "hung", "done"]
        # both failed attempts were followed by checkpoint resumes, not
        # restarts: the final attempt picked up past the kill point
        assert chaotic.resumes >= 1
        assert chaotic.attempts[-1].resumed_from_events >= 1_500
        # retry/backoff policy engaged and stayed within budget
        assert chaotic.history.count("RETRYING") == 2
        assert all(a.backoff_seconds > 0 for a in chaotic.attempts[1:])
        assert chaotic.fingerprint == undisturbed.fingerprint
        assert json.loads(chaotic.to_json()) == chaotic.to_dict()

    def test_retry_exhaustion_degrades_to_safe_mode(self, tmp_path):
        """Every optimistic attempt is killed; the job must degrade to
        the serial safe-mode attempt, which resumes their last autosave
        under the other arm, and still produce the canonical fingerprint
        (``fastpath`` is bit-identical on and off)."""
        undisturbed = run_matrix(
            [_chaos_spec("calm", {}, tmp_path, max_retries=1)],
            workdir=str(tmp_path / "calm"))["calm"]
        rec = run_matrix(
            [_chaos_spec("deg", {"kill_at_events": 4_000,
                                 "kill_on_attempts": [1, 2]}, tmp_path,
                         max_retries=1)],
            workdir=str(tmp_path / "deg"))["deg"]
        assert rec.state == JobState.DEGRADED
        assert rec.degraded
        assert [a.safe_mode for a in rec.attempts] == [False, False, True]
        assert rec.attempts[-1].outcome == "done"
        assert rec.attempts[-1].resumed_from_events >= 1_500
        assert rec.fingerprint == undisturbed.fingerprint
        assert rec.history[-1] == "DEGRADED"

    @pytest.mark.parametrize("workload,sampling,interval", [
        ("oltp", None, 2_000),
        ("oltp", {"detail_cycles": 1_400_000, "ff_cycles": 2_800_000},
         2_000),
        ("dss", {"detail_cycles": 700_000, "ff_cycles": 1_400_000,
                 "checkpoint_windows": True}, 1_500),
    ], ids=["full", "sampled", "sampled-windows"])
    def test_forced_safe_mode_lands_the_done_fingerprint(
            self, tmp_path, workload, sampling, interval):
        """A safe-mode attempt, forced without a failure first, lands the
        fingerprint of the job's DONE attempt with ``fastpath`` off,
        sampled or not: a sampled result is the strict schedule's on every
        host path. It keeps checkpointing, which a sampled spec's
        ``checkpoint_windows`` requires."""
        config = {} if sampling is None else {"sampling": sampling}
        runner = JobRunner(workdir=str(tmp_path))
        for name in ("done", "safe"):
            runner.submit(JobSpec(name=name, workload=workload,
                                  config=config,
                                  checkpoint_interval=interval))
        runner._safe_pending.add("safe")
        recs = runner.run()
        assert recs["done"].state == JobState.DONE
        assert recs["safe"].state == JobState.DEGRADED
        assert [a.safe_mode for a in recs["safe"].attempts] == [True]
        assert recs["safe"].fingerprint == recs["done"].fingerprint

    def test_exhausted_job_fails_with_structured_record(self, tmp_path):
        """No fallback: the terminal record is FAILED, JSON-serializable,
        and carries the last structured error."""
        rec = run_matrix(
            [_chaos_spec("fail", {"crash_on_attempts": [1, 2]}, tmp_path,
                         max_retries=1, safe_mode_fallback=False,
                         checkpoint_interval=0)],
            workdir=str(tmp_path / "fail"))["fail"]
        assert rec.state == JobState.FAILED
        assert rec.error is not None
        assert rec.error["last_error"]["type"] == "RuntimeError"
        assert "chaos" in rec.error["last_error"]["message"]
        assert rec.error["retries_used"] == 2
        assert rec.fingerprint is None
        assert json.loads(rec.to_json()) == rec.to_dict()

    def test_removed_knob_in_spooled_spec_fails_structured(self, tmp_path):
        """A journalled job spec that still carries a removed knob ends
        FAILED with a ConfigError record naming the key — in the live
        record and in the one recovered from the spool."""
        spool_dir = str(tmp_path / "spool")
        runner = JobRunner(spool_dir=spool_dir,
                           workdir=str(tmp_path / "work"))
        removed = ("speculate", "worker_lease", "worker_batch", "lookahead",
                   "vectorized", "translate", "sampling.detail_events")
        for knob in removed:
            top, _, key = knob.partition(".")
            runner.submit(JobSpec(name=knob, workload="dss",
                                  config={top: {key: 0} if key else 0},
                                  max_retries=0, safe_mode_fallback=False))
        recs = runner.run()
        runner._spool.close()
        recovered = JobRunner.recover(spool_dir)
        for knob in removed:
            rec = recs[knob]
            assert rec.state == JobState.FAILED
            assert rec.error["last_error"]["type"] == "ConfigError"
            assert f"'{knob}'" in rec.error["last_error"]["message"]
            assert json.loads(rec.to_json()) == rec.to_dict()
            assert recovered.queue.get(knob).to_dict() == rec.to_dict()
        recovered._spool.close()

    def test_timeout_enforced(self, tmp_path):
        rec = run_matrix(
            [JobSpec(name="slow", workload="oltp", timeout=0.01,
                     hang_timeout=30.0, max_retries=0,
                     safe_mode_fallback=False, checkpoint_interval=0)],
            workdir=str(tmp_path))["slow"]
        assert rec.state == JobState.FAILED
        assert rec.attempts[0].outcome == "timeout"


# ---------------------------------------------------------------------------
# preempt / resume
# ---------------------------------------------------------------------------

class TestPreemptResume:
    def test_preempt_resumes_from_autosave(self, tmp_path):
        undisturbed = run_matrix(
            [_chaos_spec("calm", {}, tmp_path)],
            workdir=str(tmp_path / "calm"))["calm"]

        runner = JobRunner(workdir=str(tmp_path / "pre"))
        runner.submit(_chaos_spec("pre", {}, tmp_path))
        for _ in range(2_000):
            runner.step(timeout=0.02)
            act = runner._active.get("pre")
            if act is not None and act.events >= 3_000:
                break
        else:
            pytest.fail("job never progressed to the preemption point")
        runner.preempt("pre")
        rec = runner.queue.get("pre")
        while rec.state != JobState.PREEMPTED:
            runner.step(timeout=0.02)
        assert rec.preemptions == 1
        assert checkpoint_exists(runner._ckpt_path("pre"))
        # held: the runner is idle until the caller resumes the job
        assert runner.run() == {"pre": rec}
        assert rec.state == JobState.PREEMPTED

        runner.resume("pre")
        runner.run()
        assert rec.state == JobState.DONE
        assert rec.resumes == 1
        assert rec.attempts[-1].resumed_from_events >= 1_500
        # a preemption consumed no retry budget
        assert "RETRYING" not in rec.history
        assert rec.fingerprint == undisturbed.fingerprint
