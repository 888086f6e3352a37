"""Runner execution: pool == in-process equivalence, sharded cache, crash safety."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro.experiments.runner as runner_mod
from repro.experiments import designs
from repro.experiments.runner import (
    Runner,
    ShardedResultCache,
    _simulate_point,
    config_key,
    result_to_dict,
)
from repro.obsv.ledger import ledger_points, read_ledger

SRC = Path(__file__).resolve().parent.parent / "src"

HORIZON, WARMUP = 1200, 400
BENCHES = ["nw", "bfs"]


def matrix_points():
    base = designs.build_gpu(None, 2)
    secure = designs.build_gpu(designs.direct(40), 2)
    return [(name, config) for config in (base, secure) for name in BENCHES]


def serial_runner(**kwargs):
    kwargs.setdefault("horizon", HORIZON)
    kwargs.setdefault("warmup", WARMUP)
    kwargs.setdefault("benchmarks", BENCHES)
    return Runner(**kwargs)


def parallel_runner(**kwargs):
    kwargs.setdefault("jobs", 2)
    return serial_runner(**kwargs)


class TestEquivalence:
    def test_jobs2_bit_identical_to_serial(self):
        serial = serial_runner()
        par = parallel_runner(jobs=2)
        par.prefetch(matrix_points())
        for name, config in matrix_points():
            assert result_to_dict(par.run(name, config)) == result_to_dict(
                serial.run(name, config)
            )

    def test_jobs1_takes_serial_in_process_path(self):
        par = parallel_runner(jobs=1)
        assert par.prefetch(matrix_points()) == len(matrix_points())
        serial = serial_runner()
        name, config = matrix_points()[0]
        assert result_to_dict(par.run(name, config)) == result_to_dict(
            serial.run(name, config)
        )

    def test_worker_matches_runner_miss_path(self):
        name, config = matrix_points()[0]
        payload, elapsed, telemetry = _simulate_point(name, config, HORIZON, WARMUP)
        # the worker's wall time and telemetry ride beside the payload,
        # which is bit-identical to the in-process miss path.
        assert elapsed >= 0.0 and telemetry is None
        assert payload == result_to_dict(serial_runner().run(name, config))

    def test_in_process_batch_keeps_live_results(self):
        # perf_smoke reads events_processed through prefetch + run; pool
        # results are rebuilt from the cached payload and carry neither.
        runner = serial_runner()
        runner.prefetch(matrix_points())
        for name, config in matrix_points():
            result = runner.run(name, config)
            assert result.events_processed > 0 and result.stats.children()


class TestPrefetch:
    def test_dedups_and_counts(self):
        par = parallel_runner(jobs=1)
        points = matrix_points()
        assert par.prefetch(points + points) == len(points)
        # everything resident: nothing new simulated, plan counts hits.
        assert par.prefetch(points) == 0
        assert par.stats.points_simulated == len(points)
        assert par.stats.memory_hits >= len(points)

    def test_serial_runner_prefetch_hook(self):
        runner = serial_runner()
        assert runner.prefetch(matrix_points()) == len(matrix_points())
        assert runner.prefetch(matrix_points()) == 0

    def test_run_after_prefetch_hits_memory(self):
        par = parallel_runner(jobs=1)
        par.prefetch(matrix_points())
        before = par.stats.points_simulated
        for name, config in matrix_points():
            par.run(name, config)
        assert par.stats.points_simulated == before


class TestShardedCache:
    def payload(self, n):
        return {"workload": f"w{n}", "ipc": float(n)}

    def test_round_trip_and_reload(self, tmp_path):
        cache = ShardedResultCache(tmp_path / "cache")
        for n in range(40):
            cache.put(f"key-{n}", self.payload(n))
        reloaded = ShardedResultCache(tmp_path / "cache")
        assert len(reloaded) == 40
        for n in range(40):
            assert reloaded.get(f"key-{n}") == self.payload(n)

    def test_spreads_over_shards(self, tmp_path):
        cache = ShardedResultCache(tmp_path / "cache")
        for n in range(64):
            cache.put(f"key-{n}", self.payload(n))
        shards = list((tmp_path / "cache").glob("shard-*.jsonl"))
        assert len(shards) > 1

    def test_overwrite_then_compact(self, tmp_path):
        cache = ShardedResultCache(tmp_path / "cache")
        cache.put("key", self.payload(1))
        cache.put("key", self.payload(2))
        cache.compact()
        reloaded = ShardedResultCache(tmp_path / "cache")
        assert len(reloaded) == 1
        assert reloaded.get("key") == self.payload(2)
        # compacted shard holds exactly one line per live key.
        shard = next((tmp_path / "cache").glob("shard-*.jsonl"))
        assert len(shard.read_text().splitlines()) == 1

    def test_torn_final_line_is_recovered(self, tmp_path):
        cache = ShardedResultCache(tmp_path / "cache", num_shards=1)
        for n in range(5):
            cache.put(f"key-{n}", self.payload(n))
        shard = tmp_path / "cache" / "shard-00.jsonl"
        # chop the file mid-way through the last record, as a kill would.
        text = shard.read_text()
        shard.write_text(text[: len(text) - 7])
        reloaded = ShardedResultCache(tmp_path / "cache", num_shards=1)
        assert len(reloaded) == 4
        for n in range(4):
            assert reloaded.get(f"key-{n}") == self.payload(n)

    def test_garbage_shard_is_skipped_not_fatal(self, tmp_path):
        directory = tmp_path / "cache"
        directory.mkdir()
        (directory / "shard-00.jsonl").write_text("not json at all\n{]\n")
        cache = ShardedResultCache(directory, num_shards=1)
        assert len(cache) == 0
        cache.put("key", self.payload(1))
        assert ShardedResultCache(directory, num_shards=1).get("key") == self.payload(1)


class TestCrashSafety:
    def test_mid_run_kill_resumes_from_completed_points(self, tmp_path):
        points = matrix_points()
        first = parallel_runner(jobs=1, cache_path=tmp_path / "cache")
        first.prefetch(points)
        # no close()/compact(): simulates a killed run — appends are
        # already durable, so a fresh runner resumes from disk.
        fresh = parallel_runner(jobs=1, cache_path=tmp_path / "cache")
        assert fresh.prefetch(points) == 0
        assert fresh.stats.disk_hits == len(points)
        assert fresh.stats.points_simulated == 0

    def test_partial_shard_only_recomputes_lost_point(self, tmp_path):
        points = matrix_points()
        first = parallel_runner(jobs=1, cache_path=tmp_path / "cache")
        first.prefetch(points)
        shards = sorted((tmp_path / "cache").glob("shard-*.jsonl"))
        # tear the tail of one shard: at most that one record is lost.
        victim = shards[0]
        victim.write_text(victim.read_text()[:-10])
        fresh = parallel_runner(jobs=1, cache_path=tmp_path / "cache")
        assert fresh.prefetch(points) <= 1
        for name, config in points:
            fresh.run(name, config)  # still fully usable

    def test_close_compacts_shards(self, tmp_path):
        runner = parallel_runner(jobs=1, cache_path=tmp_path / "cache")
        runner.prefetch(matrix_points())
        runner.close()
        reloaded = parallel_runner(jobs=1, cache_path=tmp_path / "cache")
        assert reloaded.prefetch(matrix_points()) == 0

    def test_compacted_shards_do_not_depend_on_completion_order(self, tmp_path):
        shards = {}
        for jobs in (1, 2):
            cache = tmp_path / f"cache-{jobs}"
            with parallel_runner(jobs=jobs, cache_path=cache) as runner:
                runner.prefetch(reversed(matrix_points()))
            shards[jobs] = {p.name: p.read_text() for p in cache.glob("shard-*")}
        assert shards[1] == shards[2]


#: a sweep over matrix_points() in its own process, for kill tests.  "exit"
#: dies (os._exit) while point 3 of 4 simulates; "hang" blocks the two
#: secure-config points forever, so only the two baseline points finish.
KILLED_SWEEP = """
import os, sys, time
import repro.experiments.runner as runner_mod
from repro.experiments import designs

mode, jobs, cache, ledger = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4]
base = designs.build_gpu(None, 2)
secure = designs.build_gpu(designs.direct(40), 2)
points = [(name, config) for config in (base, secure) for name in ("nw", "bfs")]
real, started = runner_mod.simulate, []

def point(config, workload, **kwargs):
    started.append(workload.name)
    if mode == "exit" and len(started) == 3:
        os._exit(3)
    if mode == "hang" and config == secure:
        time.sleep(600)
    return real(config, workload, **kwargs)

runner_mod.simulate = point
runner = runner_mod.Runner(horizon=%d, warmup=%d, cache_path=cache,
                           ledger_path=ledger, jobs=jobs)
runner.prefetch(points)
""" % (HORIZON, WARMUP)


class TestKilledSweep:
    """A sweep killed mid-batch keeps every point it finished."""

    def start(self, tmp_path, mode, jobs):
        script = tmp_path / "sweep.py"
        script.write_text(KILLED_SWEEP)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        argv = [sys.executable, str(script), mode, str(jobs),
                str(tmp_path / "cache"), str(tmp_path / "ledger.jsonl")]
        return subprocess.Popen(argv, env=env, start_new_session=True)

    def assert_first_two_kept(self, tmp_path):
        points = matrix_points()
        fresh = serial_runner(cache_path=tmp_path / "cache")
        pending = fresh.plan(points)
        assert fresh.stats.disk_hits == 2
        assert [(key[0], config) for key, _disk_key, config in pending] == points[2:]
        records = ledger_points(read_ledger(tmp_path / "ledger.jsonl"))
        assert sorted((r["workload"], r["config"], r["outcome"]) for r in records) == \
            sorted((name, config_key(config), "simulated") for name, config in points[:2])

    def test_exit_during_point_three_keeps_two(self, tmp_path):
        proc = self.start(tmp_path, "exit", 1)
        assert proc.wait(timeout=120) == 3
        self.assert_first_two_kept(tmp_path)

    def test_pool_killed_after_two_points_keeps_two(self, tmp_path):
        proc = self.start(tmp_path, "hang", 2)
        ledger = tmp_path / "ledger.jsonl"
        try:
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline and proc.poll() is None:
                if ledger.exists() and len(ledger_points(read_ledger(ledger))) >= 2:
                    break
                time.sleep(0.05)
            assert proc.poll() is None, "the sweep exited instead of hanging"
        finally:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
        self.assert_first_two_kept(tmp_path)


class TestInterrupt:
    def test_ctrl_c_ends_the_batch_at_once(self, tmp_path, monkeypatch):
        real, started = runner_mod.simulate, []

        def point(config, workload, **kwargs):
            started.append(workload.name)
            if len(started) == 2:
                raise KeyboardInterrupt
            return real(config, workload, **kwargs)

        monkeypatch.setattr(runner_mod, "simulate", point)
        cache, ledger = tmp_path / "cache", tmp_path / "ledger.jsonl"
        runner = serial_runner(cache_path=cache, ledger_path=ledger)
        points = matrix_points()
        with pytest.raises(KeyboardInterrupt):
            runner.prefetch(points)
        assert len(started) == 2  # no point starts after the interrupt
        assert runner.stats.points_simulated == 1
        # the finished point is ledgered; the interrupted one is not ...
        records = ledger_points(read_ledger(ledger))
        assert [(r["workload"], r["outcome"]) for r in records] == [("nw", "simulated")]
        # ... so a resumed run records its success.
        monkeypatch.setattr(runner_mod, "simulate", real)
        resumed = serial_runner(cache_path=cache, ledger_path=ledger)
        assert resumed.prefetch(points) == 3 and resumed.stats.disk_hits == 1
        records = ledger_points(read_ledger(ledger))
        assert len(records) == 4
        assert {r["outcome"] for r in records} == {"simulated"}

    def test_ctrl_c_ends_a_pool_batch(self, tmp_path, monkeypatch):
        def interrupted(self, *args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(Runner, "_merge", interrupted)
        ledger = tmp_path / "ledger.jsonl"
        runner = parallel_runner(cache_path=tmp_path / "cache", ledger_path=ledger)
        with pytest.raises(KeyboardInterrupt):
            runner.prefetch(matrix_points())
        assert runner.stats.points_simulated == 0
        assert not ledger_points(read_ledger(ledger))


class TestStats:
    def test_throughput_accounting(self):
        par = parallel_runner(jobs=1)
        par.prefetch(matrix_points())
        stats = par.stats
        assert stats.points_simulated == len(matrix_points())
        assert stats.points_per_second > 0
        assert set(stats.phase_seconds) == {"plan", "simulate", "merge"}
        exported = stats.to_dict()
        assert exported["points_simulated"] == len(matrix_points())
        assert json.dumps(exported)  # JSON-exportable
        assert "points/s" in stats.summary()

    def test_config_key_memoized(self):
        config = designs.build_gpu(None, 2)
        assert config_key(config) == config_key(config)
        import dataclasses

        clone = dataclasses.replace(config)
        assert config_key(clone) == config_key(config)
        other = designs.build_gpu(None, 4)
        assert config_key(other) != config_key(config)
