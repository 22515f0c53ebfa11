"""Thread-safety of the perf registry (PR 3 satellite): concurrent
incr/observe must not lose updates."""

import threading

from repro.perf import PerfRegistry


def hammer(threads, worker):
    pool = [threading.Thread(target=worker, args=(index,))
            for index in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()


class TestConcurrentCounters:
    def test_incr_loses_nothing(self):
        registry = PerfRegistry()
        threads, per_thread = 8, 2000

        def worker(_index):
            for _ in range(per_thread):
                registry.incr("hits")

        hammer(threads, worker)
        assert registry.counter("hits") == threads * per_thread

    def test_concurrent_observe(self):
        registry = PerfRegistry()
        threads, per_thread = 4, 1000

        def worker(index):
            for step in range(per_thread):
                registry.observe("lat", float(index * per_thread + step))

        hammer(threads, worker)
        stats = registry.stats("lat")
        assert stats["count"] == threads * per_thread
        assert stats["min"] == 0.0
        assert stats["max"] == float(threads * per_thread - 1)
