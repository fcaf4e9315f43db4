"""MicroBatcher: coalescing, flush-on-full, shedding, failure paths."""

import asyncio

import pytest

from repro.engine.spec import QuerySpec
from repro.serve.batcher import MicroBatcher, QueueFull


def run(coro):
    return asyncio.run(coro)


def spec(node: int) -> QuerySpec:
    return QuerySpec("rknn", query=node, k=1)


class _Recorder:
    """A runner that records every batch it executes."""

    def __init__(self, delay: float = 0.0):
        self.batches: list[list[QuerySpec]] = []
        self.flags: list[list] = []
        self.delay = delay

    async def __call__(self, specs, flags):
        self.batches.append(list(specs))
        self.flags.append(list(flags))
        if self.delay:
            await asyncio.sleep(self.delay)
        return [f"result-{s.query}" for s in specs]


class TestValidation:
    def test_rejects_negative_window(self):
        with pytest.raises(ValueError, match="window"):
            MicroBatcher(_Recorder(), window=-1.0)

    def test_rejects_bad_max_batch(self):
        with pytest.raises(ValueError, match="max_batch"):
            MicroBatcher(_Recorder(), max_batch=0)

    def test_rejects_bad_max_queue(self):
        with pytest.raises(ValueError, match="max_queue"):
            MicroBatcher(_Recorder(), max_queue=0)


class TestCoalescing:
    def test_concurrent_submissions_share_a_batch(self):
        async def scenario():
            recorder = _Recorder()
            batcher = MicroBatcher(recorder, window=0.02, max_batch=16)
            results = await asyncio.gather(*(batcher.submit(spec(i))
                                             for i in range(5)))
            await batcher.close()
            return recorder, results

        recorder, results = run(scenario())
        assert results == [f"result-{i}" for i in range(5)]
        assert len(recorder.batches) == 1
        assert len(recorder.batches[0]) == 5

    def test_full_batch_flushes_before_window(self):
        async def scenario():
            recorder = _Recorder()
            # a long window that a full batch must not wait for
            batcher = MicroBatcher(recorder, window=5.0, max_batch=4)
            await asyncio.wait_for(
                asyncio.gather(*(batcher.submit(spec(i)) for i in range(4))),
                timeout=1.0,
            )
            await batcher.close()
            return recorder

        recorder = run(scenario())
        assert len(recorder.batches) == 1

    def test_zero_window_runs_immediately(self):
        async def scenario():
            recorder = _Recorder()
            batcher = MicroBatcher(recorder, window=0.0)
            result = await batcher.submit(spec(9))
            await batcher.close()
            return recorder, result

        recorder, result = run(scenario())
        assert result == "result-9"
        assert recorder.batches == [[spec(9)]]

    def test_oversized_wave_splits_into_max_batch_chunks(self):
        async def scenario():
            recorder = _Recorder()
            batcher = MicroBatcher(recorder, window=0.01, max_batch=3)
            await asyncio.gather(*(batcher.submit(spec(i)) for i in range(8)))
            await batcher.close()
            return recorder

        recorder = run(scenario())
        assert sum(len(batch) for batch in recorder.batches) == 8
        assert all(len(batch) <= 3 for batch in recorder.batches)

    def test_stats_count_batches_and_coalescing(self):
        async def scenario():
            recorder = _Recorder()
            batcher = MicroBatcher(recorder, window=0.02, max_batch=16)
            await asyncio.gather(*(batcher.submit(spec(i)) for i in range(4)))
            await batcher.close()
            return batcher.stats.snapshot()

        stats = run(scenario())
        assert stats["admitted"] == 4
        assert stats["batches"] == 1
        assert stats["coalesced"] == 4
        assert stats["shed"] == 0


class _Gated:
    """A runner whose first batch blocks until :attr:`release` is set."""

    def __init__(self):
        self.batches: list[list[int]] = []
        self.started = asyncio.Event()
        self.release = asyncio.Event()

    async def __call__(self, specs, flags):
        self.batches.append([s.query for s in specs])
        self.started.set()
        await self.release.wait()
        return [f"result-{s.query}" for s in specs]


class TestGroupCommit:
    """The default window 0 batches by arrival, with no timer."""

    def test_default_window_is_zero(self):
        assert MicroBatcher(_Recorder()).window == 0.0

    def test_requests_admitted_during_a_batch_run_as_the_next_batch(self):
        async def scenario():
            runner = _Gated()
            batcher = MicroBatcher(runner, max_batch=8)
            first = batcher.admit(spec(0))
            await runner.started.wait()  # batch [0] is now running
            later = [batcher.admit(spec(i)) for i in range(1, 6)]
            runner.release.set()
            results = await asyncio.gather(first, *later)
            await batcher.close()
            return runner.batches, results, batcher.stats.snapshot()

        batches, results, stats = run(scenario())
        assert batches == [[0], [1, 2, 3, 4, 5]]
        assert results == [f"result-{i}" for i in range(6)]
        assert stats["batches"] == 2 and stats["coalesced"] == 5

    def test_queued_requests_split_at_max_batch(self):
        async def scenario():
            runner = _Gated()
            batcher = MicroBatcher(runner, max_batch=4)
            first = batcher.admit(spec(0))
            await runner.started.wait()
            later = [batcher.admit(spec(i)) for i in range(1, 7)]
            runner.release.set()
            await asyncio.gather(first, *later)
            await batcher.close()
            return runner.batches

        assert run(scenario()) == [[0], [1, 2, 3, 4], [5, 6]]

    def test_burst_admitted_in_one_loop_pass_is_one_batch(self):
        async def scenario():
            recorder = _Recorder()
            batcher = MicroBatcher(recorder)
            # no await between admissions: one pass of the event loop
            futures = [batcher.admit(spec(i)) for i in range(8)]
            results = await asyncio.gather(*futures)
            await batcher.close()
            return recorder.batches, results

        batches, results = run(scenario())
        assert batches == [[spec(i) for i in range(8)]]
        assert results == [f"result-{i}" for i in range(8)]

    def test_on_wait_sees_every_request_once(self):
        async def scenario():
            waits: list[float] = []
            runner = _Gated()
            batcher = MicroBatcher(runner, on_wait=waits.append)
            first = batcher.admit(spec(0))
            await runner.started.wait()
            later = [batcher.admit(spec(i)) for i in range(1, 4)]
            runner.release.set()
            await asyncio.gather(first, *later)
            await batcher.close()
            return waits

        waits = run(scenario())
        assert len(waits) == 4
        assert all(wait >= 0.0 for wait in waits)


class TestBackpressure:
    def test_sheds_beyond_max_queue(self):
        async def scenario():
            recorder = _Recorder(delay=0.05)
            batcher = MicroBatcher(recorder, window=0.5, max_batch=64,
                                   max_queue=3)
            admitted = [asyncio.ensure_future(batcher.submit(spec(i)))
                        for i in range(3)]
            await asyncio.sleep(0)  # let the admissions register
            with pytest.raises(QueueFull):
                await batcher.submit(spec(99))
            shed = batcher.stats.shed
            for task in admitted:
                task.cancel()
            await batcher.close()
            return shed

        assert run(scenario()) == 1

    def test_queue_full_reports_depth(self):
        error = QueueFull(7)
        assert error.depth == 7
        assert "7" in str(error)


class TestFailure:
    def test_runner_exception_fails_the_batch(self):
        async def failing(specs, flags):
            raise RuntimeError("engine exploded")

        async def scenario():
            batcher = MicroBatcher(failing, window=0.0)
            with pytest.raises(RuntimeError, match="engine exploded"):
                await batcher.submit(spec(1))
            await batcher.close()

        run(scenario())

    def test_submit_after_close_is_refused(self):
        async def scenario():
            batcher = MicroBatcher(_Recorder(), window=0.0)
            await batcher.close()
            with pytest.raises(ConnectionError):
                await batcher.submit(spec(1))

        run(scenario())


class TestFlags:
    def test_flags_reach_the_runner_index_aligned(self):
        """A request's admission flag travels with its spec; plain
        admissions (spec only) arrive as ``None``."""
        async def scenario():
            runner = _Recorder()
            batcher = MicroBatcher(runner)
            futures = [batcher.admit(spec(0)),
                       batcher.admit(spec(1), "trace"),
                       batcher.admit(spec(2)),
                       batcher.admit(spec(3), "explain")]
            await asyncio.gather(*futures)
            await batcher.close()
            return runner

        runner = run(scenario())
        assert [[s.query for s in b] for b in runner.batches] == [[0, 1, 2, 3]]
        assert runner.flags == [[None, "trace", None, "explain"]]

    def test_isolated_retry_keeps_each_flag(self):
        """A failing batch retries its members one by one, each with
        its own flag."""
        seen = []

        async def picky(specs, flags):
            seen.append(list(zip((s.query for s in specs), flags)))
            if len(specs) > 1:
                raise RuntimeError("one bad spec")
            return ["ok"]

        async def scenario():
            batcher = MicroBatcher(picky)
            futures = [batcher.admit(spec(0), "trace"), batcher.admit(spec(1))]
            results = await asyncio.gather(*futures)
            await batcher.close()
            return results

        assert run(scenario()) == ["ok", "ok"]
        assert seen == [[(0, "trace"), (1, None)], [(0, "trace")], [(1, None)]]
