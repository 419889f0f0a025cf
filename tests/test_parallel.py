"""The fan-out map over forked worker processes: order, errors across the
pool, the worker cap, and what importing the CLI loads."""

import json
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import cbo
from cbo import _parallel
from cbo.errors import DivergenceError, NumericDomainError, SimulationError, WorkerLostError

SRC = Path(__file__).resolve().parent.parent / "src"


def python(code, **env):
    """Run ``code`` in a fresh interpreter that imports ``cbo`` from this tree."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **env)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)


class TestThreadMap:
    def test_results_in_order_from_forked_workers(self, monkeypatch):
        # a closure runs in the workers unpickled; its results keep item order
        monkeypatch.setenv("CBO_THREADS", "2")
        offset = 10
        got = _parallel.thread_map(lambda x: (x + offset, os.getpid()), range(6))
        assert [value for value, _ in got] == list(range(10, 16))
        assert os.getpid() not in {pid for _, pid in got}

    def test_workers_ignore_sigint(self, monkeypatch):
        # an interrupt is the parent's to handle: a worker, idle or busy, prints
        # no KeyboardInterrupt traceback of its own
        monkeypatch.setenv("CBO_THREADS", "2")
        handlers = _parallel.thread_map(lambda x: signal.getsignal(signal.SIGINT), range(4))
        assert handlers == [signal.SIG_IGN] * 4
        assert signal.getsignal(signal.SIGINT) is signal.default_int_handler

    def test_one_worker_runs_in_this_process(self, monkeypatch):
        monkeypatch.setenv("CBO_THREADS", "1")
        assert _parallel.thread_map(lambda x: os.getpid(), range(3)) == [os.getpid()] * 3

    def test_first_failing_item_in_order_raises(self, monkeypatch):
        monkeypatch.setenv("CBO_THREADS", "2")

        def fail_odd(x):
            if x % 2:
                raise DivergenceError(f"item {x}", step=x, particle=2 * x, seed=100 + x)
            return x

        with pytest.raises(DivergenceError) as err:
            _parallel.thread_map(fail_odd, range(6))
        assert str(err.value) == "item 1"
        assert (err.value.step, err.value.particle, err.value.seed) == (1, 2, 101)

    def test_a_worker_maps_in_its_own_process(self, monkeypatch):
        # a worker never forks a pool of its own
        monkeypatch.setenv("CBO_THREADS", "2")

        def inner(x):
            pids = _parallel.thread_map(lambda y: os.getpid(), range(3))
            return pids, os.getpid()

        for pids, pid in _parallel.thread_map(inner, range(2)):
            assert pids == [pid] * 3

    def test_a_second_thread_maps_in_its_own_process(self, monkeypatch):
        # no fork while another thread's pool runs
        monkeypatch.setenv("CBO_THREADS", "2")
        pooled = []
        first = threading.Thread(target=lambda: pooled.extend(
            _parallel.thread_map(lambda x: time.sleep(1.0) or os.getpid(), range(2))))
        first.start()
        deadline = time.monotonic() + 10
        while not _parallel._forking.locked() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert _parallel._forking.locked()
        assert _parallel.thread_map(lambda x: os.getpid(), range(2)) == [os.getpid()] * 2
        first.join(timeout=30)
        assert not first.is_alive()
        assert len(pooled) == 2 and os.getpid() not in pooled


class TestWorkerCap:
    def test_unset_takes_the_cpus_this_process_may_run_on(self, monkeypatch):
        monkeypatch.delenv("CBO_THREADS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
        assert _parallel.worker_cap() == 1
        # one allowed CPU: the map forks no worker
        assert _parallel.thread_map(lambda x: os.getpid(), range(2)) == [os.getpid()] * 2
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 6})
        assert _parallel.worker_cap() == 3
        monkeypatch.delattr(os, "sched_getaffinity")  # a platform without it
        assert _parallel.worker_cap() == 8

    def test_set_overrides_the_cpus(self, monkeypatch):
        monkeypatch.setenv("CBO_THREADS", "5")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
        assert _parallel.worker_cap() == 5


@pytest.mark.parametrize("cls", [SimulationError, NumericDomainError, DivergenceError,
                                 WorkerLostError])
def test_simulation_errors_survive_pickle(cls):
    # results and errors cross the pool by pickle
    assert set(SimulationError.__subclasses__()) == {NumericDomainError, DivergenceError,
                                                     WorkerLostError}
    message = "non-finite energy at particle 5 of replication 1 (seed 18) at step 3"
    if cls is WorkerLostError:
        err = cls(message, [range(17, 19)])
    else:
        err = cls(message, step=3, particle=5, seed=18)
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is cls and str(back) == message
    assert vars(back) == vars(err)


def test_import_footprint():
    # the CLI loads no pool machinery and no theory until a route runs them;
    # the bench tracer reads cbo.mfa and cbo._parallel from sys.modules
    proc = python(
        "import json, sys\n"
        "import cbo.cli\n"
        "names = ('concurrent.futures', 'multiprocessing', 'cbo.theory', 'cbo.mfa',"
        " 'cbo._parallel')\n"
        "loaded = {name: name in sys.modules for name in names}\n"
        "import cbo\n"
        "loaded['theory'] = cbo.theory.__name__\n"
        "print(json.dumps(loaded))\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "concurrent.futures": False, "multiprocessing": False, "cbo.theory": False,
        "cbo.mfa": True, "cbo._parallel": True, "theory": "cbo.theory",
    }
    assert cbo.theory.__name__ == "cbo.theory"
    with pytest.raises(AttributeError):
        cbo.not_a_module
