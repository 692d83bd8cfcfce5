"""Deterministic crash-point injection + the recovery acceptance gate.

Three layers, bottom up: the checkpoint generation fallback (corrupt the
newest autosave → the previous generation loads, with a quarantine
forensic record), the in-process crash-point machinery (Nth-hit rules,
once-only claims, env pickup), and the full supervisor-kill recovery
loop — every crash site, SIGKILL at the injected instant, recover from
the WAL spool, finish with a fingerprint bit-identical to an
undisturbed run.

The site × seed matrix defaults to one seed per site to keep tier-1
fast; ``COMPASS_CRASH_FULL=1`` (set by the CI crash-recovery job) runs
three seeds per site.
"""

import json
import os
import pickle
import subprocess
import sys

import pytest

from repro import (CheckpointCorruptError, CheckpointError, CrashPointPlan,
                   CrashRule, Engine, SimulatedCrash, complex_backend,
                   load_checkpoint)
from repro.checkpoint import generation_paths, write_checkpoint_file
from repro.checkpoint.manager import FORMAT_VERSION
from repro.checkpoint.manager import MAGIC as CKPT_MAGIC
from repro.core.errors import ConfigError
from repro.core.framing import write_frame
from repro.faults import crashpoints
from repro.service import (JobSpec, crash_recovery_loop, final_fingerprints,
                           run_matrix)

SEEDS = (1, 2, 3) if os.environ.get("COMPASS_CRASH_FULL") else (1,)

#: the supervised job the whole module crashes and recovers
SPEC = dict(workload="oltp", budget=4_500, checkpoint_interval=1_000,
            heartbeat_events=1_500, timeout=120.0, hang_timeout=60.0,
            max_retries=3, backoff=0.01, backoff_max=0.05)


def _ckpt(saves, events=100):
    return {"version": FORMAT_VERSION, "saves": saves, "events_processed": events,
            "payload": list(range(events % 7))}


class TestGenerationFallback:
    def _write_gens(self, tmp_path):
        base = str(tmp_path / "ck.pkl")
        g0, g1 = generation_paths(base)
        write_checkpoint_file(g1, _ckpt(saves=1, events=100))
        write_checkpoint_file(g0, _ckpt(saves=2, events=200))
        return base, g0, g1

    def test_newest_generation_wins(self, tmp_path):
        base, _g0, _g1 = self._write_gens(tmp_path)
        assert load_checkpoint(base)["saves"] == 2

    def test_corrupt_latest_falls_back_and_quarantines(self, tmp_path):
        base, g0, g1 = self._write_gens(tmp_path)
        blob = bytearray(open(g0, "rb").read())
        blob[-1] ^= 0xFF                      # flip a payload byte
        open(g0, "wb").write(bytes(blob))

        ck = load_checkpoint(base)
        assert ck["saves"] == 1               # fell back to the older gen
        assert os.path.exists(g0 + ".corrupt")
        assert not os.path.exists(g0)         # evidence moved aside
        record = json.loads(open(g0 + ".quarantine.json").read())
        assert record["quarantined"] == g0
        assert record["fallback"] == g1
        assert record["error"]["type"] == "CheckpointCorruptError"
        assert record["error"]["offset"] > 0

    def test_all_generations_corrupt_raises_structured(self, tmp_path):
        base, g0, g1 = self._write_gens(tmp_path)
        for g in (g0, g1):
            open(g, "r+b").write(b"XXXX")     # smash the magic
        with pytest.raises(CheckpointCorruptError) as ei:
            load_checkpoint(base)
        assert ei.value.offset == 0
        assert "magic" in ei.value.reason

    def test_truncation_never_leaks_raw_errors(self, tmp_path):
        """Cut a checkpoint at every plausible boundary: the structured
        error (or clean fallback) is the only acceptable outcome —
        no EOFError, no UnpicklingError, no struct.error."""
        base = str(tmp_path / "ck.pkl")
        g0, _ = generation_paths(base)
        write_checkpoint_file(g0, _ckpt(saves=1))
        blob = open(g0, "rb").read()
        cuts = sorted({0, 1, len(CKPT_MAGIC), len(CKPT_MAGIC) + 4,
                       len(CKPT_MAGIC) + 8, len(blob) // 2, len(blob) - 1})
        for cut in cuts:
            d = tmp_path / f"cut-{cut}"
            d.mkdir()
            dest = str(d / "ck.pkl")
            open(generation_paths(dest)[0], "wb").write(blob[:cut])
            with pytest.raises(CheckpointCorruptError) as ei:
                load_checkpoint(dest)
            assert ei.value.path == generation_paths(dest)[0]
            assert 0 <= ei.value.offset <= cut

    def test_explicit_path_stays_strict(self, tmp_path):
        """An explicit single-file path (the sampling .w<N> windows)
        never falls back to generations."""
        p = str(tmp_path / "win.w3")
        write_checkpoint_file(p, _ckpt(saves=9))
        assert load_checkpoint(p)["saves"] == 9
        open(p, "r+b").write(b"ZZZZ")
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(p)


def _write_v2_autosave(path):
    """A well-formed format-2 autosave, byte for byte as the previous
    build wrote it: the protocol sub-dict still has the per-line
    ``"dir"`` table the current ``load_state`` no longer understands."""
    ckpt = {"version": 2, "saves": 1, "events_processed": 100,
            "snapshot": {"memsys": {"protocol": {
                "counters": {}, "dir": {7: ([0, 1], -1)}}}}}
    header = json.dumps({"format": 2, "saves": 1, "events": 100}).encode()
    with open(path, "wb") as f:
        f.write(CKPT_MAGIC)
        write_frame(f, header)
        write_frame(f, pickle.dumps(ckpt))
    return ckpt


class TestStaleFormat:
    """A checkpoint of another format version is refused by name — both
    versions in the message — never by a ``KeyError`` out of some
    ``load_state``, and never quarantined (it is intact)."""

    def test_load_checkpoint_refuses_v2(self, tmp_path):
        base = str(tmp_path / "ck.pkl")
        g0, _ = generation_paths(base)
        _write_v2_autosave(g0)
        with pytest.raises(CheckpointError) as ei:
            load_checkpoint(base)
        assert not isinstance(ei.value, CheckpointCorruptError)
        assert "format 2" in str(ei.value)
        assert f"!= {FORMAT_VERSION}" in str(ei.value)
        assert os.path.exists(g0) and not os.path.exists(g0 + ".corrupt")

    def test_restore_refuses_v2(self, tmp_path):
        path = str(tmp_path / "ck.pkl")
        ckpt = _write_v2_autosave(path)
        eng = Engine(complex_backend(num_cpus=2, checkpoint_path=path,
                                     checkpoint_interval=1_000))
        with pytest.raises(CheckpointError,
                           match=f"format 2 != {FORMAT_VERSION}"):
            eng._ckpt.restore(ckpt)

    def test_job_with_stale_autosave_fails_structured(self, tmp_path):
        work = tmp_path / "work"
        work.mkdir()
        _write_v2_autosave(generation_paths(str(work / "j.ckpt"))[0])
        spec = dict(SPEC, max_retries=0)
        records = run_matrix(
            [JobSpec(name="j", safe_mode_fallback=False, **spec)],
            max_workers=1, poll=0.02, workdir=str(work))
        rec = records["j"]
        assert rec.state == "FAILED"
        assert [a.outcome for a in rec.attempts] == ["error"]
        assert rec.error["last_error"]["type"] == "CheckpointError"
        assert f"format 2 != {FORMAT_VERSION}" in rec.error["detail"]
        json.loads(rec.to_json())             # structured all the way out


class TestCrashPointMachinery:
    def teardown_method(self):
        crashpoints.install(None)

    def test_fires_at_exactly_the_nth_hit(self):
        plan = CrashPointPlan(rules=(
            CrashRule(site="spool:append", hit=3, action="raise"),))
        crashpoints.install(plan)
        crashpoints.hit("spool:append")
        crashpoints.hit("spool:append")
        crashpoints.hit("spool:fsync")        # other sites don't count
        with pytest.raises(SimulatedCrash, match="spool:append"):
            crashpoints.hit("spool:append")

    def test_once_only_within_a_process(self):
        plan = CrashPointPlan(rules=(
            CrashRule(site="ckpt:post-fsync", hit=1, action="raise"),))
        crashpoints.install(plan)
        with pytest.raises(SimulatedCrash):
            crashpoints.hit("ckpt:post-fsync")
        crashpoints.hit("ckpt:post-fsync")    # spent: never re-fires

    def test_once_only_across_processes_via_state_dir(self, tmp_path):
        plan = CrashPointPlan(rules=(
            CrashRule(site="spool:fsync", hit=1, action="raise"),),
            state_dir=str(tmp_path))
        crashpoints.install(plan)
        with pytest.raises(SimulatedCrash):
            crashpoints.hit("spool:fsync")
        assert any(f.startswith("fired-") for f in os.listdir(tmp_path))
        # a "different process" (fresh injector, same state_dir) finds
        # the claim spent
        crashpoints.install(CrashPointPlan.from_dict(plan.to_dict()))
        crashpoints.hit("spool:fsync")

    def test_seeded_hit_range_is_deterministic(self):
        rule = CrashRule(site="spool:append", hit_range=(1, 10))
        draws = {rule.resolve_hit(seed, 0) for seed in range(20)}
        assert all(1 <= d <= 10 for d in draws)
        assert len(draws) > 3                 # the seed actually matters
        assert rule.resolve_hit(7, 0) == rule.resolve_hit(7, 0)

    def test_unknown_site_rejected(self):
        with pytest.raises(ConfigError, match="unknown crash site"):
            CrashRule(site="spool:nope", hit=1).validate()
        with pytest.raises(ConfigError, match="exactly one"):
            CrashRule(site="spool:append").validate()

    def test_raise_during_checkpoint_write_keeps_old_generation(
            self, tmp_path):
        base = str(tmp_path / "ck.pkl")
        g0, g1 = generation_paths(base)
        write_checkpoint_file(g1, _ckpt(saves=1))
        crashpoints.install(CrashPointPlan(rules=(
            CrashRule(site="ckpt:pre-rename", hit=1, action="raise"),)))
        with pytest.raises(SimulatedCrash):
            write_checkpoint_file(g0, _ckpt(saves=2))
        crashpoints.install(None)
        assert os.path.exists(g0 + ".tmp")    # the torn write
        assert load_checkpoint(base)["saves"] == 1   # old gen still loads

    def test_env_pickup_in_fresh_process(self, tmp_path):
        plan = CrashPointPlan(rules=(
            CrashRule(site="spool:append", hit=1, action="raise"),), seed=5)
        env = dict(os.environ,
                   PYTHONPATH="src",
                   COMPASS_CRASH_POINTS=plan.to_json())
        out = subprocess.run(
            [sys.executable, "-c",
             "from repro.faults import crashpoints\n"
             "assert crashpoints.current() is not None\n"
             "try:\n"
             "    crashpoints.hit('spool:append')\n"
             "    print('NOFIRE')\n"
             "except Exception as e:\n"
             "    print(type(e).__name__)\n"],
            capture_output=True, text=True, env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        assert out.stdout.strip() == "SimulatedCrash", out.stderr


@pytest.fixture(scope="module")
def baseline_fingerprint():
    records = run_matrix([JobSpec(name="j", **SPEC)],
                         max_workers=1, poll=0.02)
    assert records["j"].state == "DONE"
    return records["j"].result["fingerprint"]


class TestCrashRecoveryLoop:
    """The acceptance gate: for every crash site and seed, SIGKILL at
    the injected instant — supervisor or job child, whichever holds the
    site — then recover from the spool and finish bit-identically."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("site", crashpoints.KNOWN_CRASH_SITES)
    def test_kill_recover_bit_identical(self, site, seed, tmp_path,
                                        baseline_fingerprint):
        state_dir = str(tmp_path / "crash-state")
        plan = CrashPointPlan(
            rules=(CrashRule(site=site, hit_range=(1, 4), action="kill"),),
            seed=seed, state_dir=state_dir, tag=f"{site}-{seed}")
        records, rounds = crash_recovery_loop(
            [JobSpec(name="j", **SPEC)], plan,
            spool_dir=str(tmp_path / "spool"),
            workdir=str(tmp_path / "work"),
            max_workers=1, poll=0.02)
        # the rule actually fired (otherwise this test proves nothing)
        assert any(f.startswith("fired-") for f in os.listdir(state_dir)), \
            (site, seed, rounds)
        assert records["j"]["state"] == "DONE", (rounds, records["j"])
        assert (final_fingerprints(records)["j"]
                == baseline_fingerprint), (site, seed)

    def test_clean_loop_without_plan(self, tmp_path):
        records, rounds = crash_recovery_loop(
            [JobSpec(name="j", **SPEC)],
            spool_dir=str(tmp_path / "spool"),
            workdir=str(tmp_path / "work"),
            max_workers=1, poll=0.02)
        assert len(rounds) == 1 and not rounds[0]["crashed"]
        assert records["j"]["state"] == "DONE"
