"""Micro-batcher semantics: coalescing, merged-grid equivalence, failures.

The load-bearing property is *bitwise* equivalence: a request served from a
merged-grid batch must return exactly the floats a serial evaluation of its
own grid would have produced.  That holds because grid evaluation is
elementwise across frequency points, and the batcher only ever reorders
*which* call computes a point, never how it is computed.
"""

import asyncio
import threading

import numpy as np
import pytest

from repro.serve.batcher import MicroBatcher


def _eval(omega: np.ndarray) -> np.ndarray:
    """An elementwise stand-in for a grid evaluation (deterministic)."""
    return np.sin(omega) * np.exp(-0.25 * omega) + omega**2


def _gated(gate: threading.Event, compute=_eval):
    """``compute`` held in flight until ``gate`` opens."""

    def blocked(merged):
        assert gate.wait(timeout=10), "gate never opened"
        return compute(merged)

    return blocked


class TestCoalescing:
    def test_concurrent_same_key_is_one_underlying_call(self):
        async def scenario():
            batcher = MicroBatcher()
            calls = []

            def compute(merged):
                calls.append(merged)
                return _eval(merged)

            omega = np.linspace(0.1, 1.0, 16)
            results = await asyncio.gather(
                *(batcher.submit("k", omega, compute) for _ in range(20))
            )
            return calls, results, batcher.stats

        calls, results, stats = asyncio.run(scenario())
        assert len(calls) == 1
        assert stats.underlying_calls == 1
        assert stats.requests == 20 and stats.coalesced == 19
        assert stats.to_dict()["coalescing_ratio"] == pytest.approx(19 / 20)
        for r in results:
            assert r.tobytes() == _eval(np.linspace(0.1, 1.0, 16)).tobytes()

    def test_different_keys_do_not_coalesce(self):
        async def scenario():
            batcher = MicroBatcher()
            calls = []

            def compute(merged):
                calls.append(1)
                return _eval(merged)

            omega = np.linspace(0.1, 1.0, 4)
            await asyncio.gather(
                batcher.submit("a", omega, compute),
                batcher.submit("b", omega, compute),
            )
            return calls

        assert len(asyncio.run(scenario())) == 2

    def test_sequential_submits_do_not_coalesce(self):
        async def scenario():
            batcher = MicroBatcher()
            calls = []

            def compute(merged):
                calls.append(1)
                return _eval(merged)

            omega = np.linspace(0.1, 1.0, 4)
            await batcher.submit("k", omega, compute)
            await batcher.submit("k", omega, compute)
            return calls

        assert len(asyncio.run(scenario())) == 2

    def test_max_batch_flushes_immediately(self):
        grids = [np.array([float(i + 1)]) for i in range(7)]

        async def scenario():
            batcher = MicroBatcher(max_batch=3)
            tasks = [
                asyncio.ensure_future(batcher.submit("k", g, _eval))
                for g in grids[:3]
            ]
            await asyncio.sleep(0)  # the three joined one batch, now full
            full_is_closed = batcher.pending_keys() == []
            tasks += [
                asyncio.ensure_future(batcher.submit("k", g, _eval))
                for g in grids[3:]
            ]
            results = await asyncio.wait_for(asyncio.gather(*tasks), timeout=5.0)
            return full_is_closed, results, batcher.stats

        full_is_closed, results, stats = asyncio.run(scenario())
        assert full_is_closed
        assert stats.underlying_calls == 3  # batches of 3, 3 and 1
        for grid, result in zip(grids, results):
            assert result.tobytes() == _eval(grid).tobytes()


class TestMergedGridEquivalence:
    def test_slices_are_bitwise_identical_to_serial(self):
        """Each waiter's answer equals a direct evaluation of its own grid,
        down to the last bit — the acceptance criterion of the serving PR."""
        grids = [
            np.linspace(0.1, 1.0, 37),
            np.linspace(0.1, 1.0, 37)[::3],
            np.linspace(0.4, 2.0, 11),
            np.array([0.55]),
        ]

        async def scenario():
            batcher = MicroBatcher()
            return await asyncio.gather(
                *(batcher.submit("k", g, _eval) for g in grids)
            )

        results = asyncio.run(scenario())
        for grid, result in zip(grids, results):
            serial = _eval(grid)
            assert result.tobytes() == serial.tobytes()
            assert not result.flags.writeable

    def test_merged_points_counter(self):
        async def scenario():
            batcher = MicroBatcher()
            await asyncio.gather(
                batcher.submit("k", np.array([1.0, 2.0]), _eval),
                batcher.submit("k", np.array([2.0, 3.0]), _eval),
            )
            return batcher.stats

        stats = asyncio.run(scenario())
        assert stats.merged_points == 3  # union of {1,2} and {2,3}

    def test_exact_grid_match_shares_the_result_array(self):
        async def scenario():
            batcher = MicroBatcher()
            omega = np.linspace(0.1, 1.0, 8)
            a, b = await asyncio.gather(
                batcher.submit("k", omega, _eval),
                batcher.submit("k", omega.copy(), _eval),
            )
            return a, b

        a, b = asyncio.run(scenario())
        assert a is b  # zero copy for identical grids


class TestScalarMode:
    def test_all_waiters_share_one_result(self):
        async def scenario():
            batcher = MicroBatcher()
            calls = []

            def compute(merged):
                assert merged is None
                calls.append(1)
                return {"metric": 1.25}

            results = await asyncio.gather(
                *(batcher.submit("s", None, compute) for _ in range(5))
            )
            return calls, results

        calls, results = asyncio.run(scenario())
        assert len(calls) == 1
        assert all(r is results[0] for r in results)


class TestFailureAndCancellation:
    def test_compute_failure_propagates_to_every_waiter(self):
        async def scenario():
            batcher = MicroBatcher()

            def compute(merged):
                raise RuntimeError("injected evaluation failure")

            tasks = [
                asyncio.ensure_future(
                    batcher.submit("k", np.array([float(i + 1)]), compute)
                )
                for i in range(4)
            ]
            results = await asyncio.gather(*tasks, return_exceptions=True)
            return results, batcher.stats

        results, stats = asyncio.run(scenario())
        assert len(results) == 4
        assert all(isinstance(r, RuntimeError) for r in results)
        assert stats.errors == 1  # one batch failed, not four

    def test_cancelled_waiter_does_not_poison_the_batch(self):
        async def scenario():
            batcher = MicroBatcher()
            gate = threading.Event()
            omega = np.linspace(0.1, 1.0, 9)
            try:
                victim = asyncio.ensure_future(
                    batcher.submit("k", omega, _gated(gate))
                )
                survivor = asyncio.ensure_future(
                    batcher.submit("k", omega[::2], _eval)
                )
                await asyncio.sleep(0.01)  # one batch, its compute held in flight
                victim.cancel()
            finally:
                gate.set()
            result = await survivor
            with pytest.raises(asyncio.CancelledError):
                await victim
            return result, batcher.stats

        result, stats = asyncio.run(scenario())
        assert result.tobytes() == _eval(np.linspace(0.1, 1.0, 9)[::2]).tobytes()
        assert stats.cancelled == 1
        assert stats.underlying_calls == 1

    def test_waiter_cancelled_while_batch_open_does_not_poison_it(self):
        async def scenario():
            batcher = MicroBatcher()
            omega = np.linspace(0.1, 1.0, 9)
            victim = asyncio.ensure_future(batcher.submit("k", omega, _eval))
            survivor = asyncio.ensure_future(
                batcher.submit("k", omega[::2], _eval)
            )
            await asyncio.sleep(0)  # both joined; the batch has not flushed
            was_open = batcher.pending_keys() == ["k"]
            victim.cancel()
            result = await survivor
            with pytest.raises(asyncio.CancelledError):
                await victim
            return was_open, result, batcher.stats

        was_open, result, stats = asyncio.run(scenario())
        assert was_open
        assert result.tobytes() == _eval(np.linspace(0.1, 1.0, 9)[::2]).tobytes()
        assert stats.cancelled == 1
        assert stats.underlying_calls == 1

    def test_fully_cancelled_batch_still_computes(self):
        """Work in flight completes even if every client walked away — the
        result would land in the serve cache, so it is not wasted."""

        async def scenario():
            batcher = MicroBatcher()
            gate = threading.Event()
            calls = []

            def compute(merged):
                calls.append(1)
                return _eval(merged)

            try:
                task = asyncio.ensure_future(
                    batcher.submit("k", np.array([0.5]), _gated(gate, compute))
                )
                await asyncio.sleep(0.01)
                task.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await task
            finally:
                gate.set()
            await asyncio.sleep(0.2)  # let the batch run out
            return calls

        assert len(asyncio.run(scenario())) == 1


class TestTickFlush:
    """A batch flushes one loop tick after it opens, never on a timer."""

    def test_idle_key_flushes_after_one_tick(self):
        async def scenario():
            batcher = MicroBatcher()
            task = asyncio.ensure_future(
                batcher.submit("k", np.array([0.5]), _eval)
            )
            await asyncio.sleep(0)
            await asyncio.sleep(0)
            pending = batcher.pending_keys()
            await task
            return pending

        assert asyncio.run(scenario()) == []

    def test_busy_key_does_not_wait_for_in_flight_work(self):
        """A request arriving while its key computes opens its own batch,
        which computes alongside the first instead of queueing behind it."""

        async def scenario():
            batcher = MicroBatcher()
            gate = threading.Event()
            try:
                first = asyncio.ensure_future(
                    batcher.submit("k", np.array([5.0]), _gated(gate))
                )
                await asyncio.sleep(0.01)
                grid = np.linspace(0.1, 1.0, 7)
                second = await asyncio.wait_for(
                    batcher.submit("k", grid, _eval), timeout=5.0
                )
                calls_while_blocked = batcher.stats.underlying_calls
            finally:
                gate.set()
            await first
            return grid, second, calls_while_blocked

        grid, second, calls_while_blocked = asyncio.run(scenario())
        assert calls_while_blocked == 2
        assert second.tobytes() == _eval(grid).tobytes()
