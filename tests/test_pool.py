import multiprocessing
import os

import pytest

from lundberg import _pool, figures
from lundberg.errors import NetProfitError, ValidationError


@pytest.fixture
def two_workers(monkeypatch):
    """Two usable CPUs: ``_pool.start`` forks wherever ``fork`` exists."""
    monkeypatch.setattr(_pool, "_worker_count", lambda jobs: min(2, jobs))


def _pid():
    return os.getpid()


def test_start_forks_a_worker_and_returns_its_value(two_workers):
    assert _pool.start(_pid)() != os.getpid()
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("mode", ["one CPU", "no fork"])
def test_start_runs_the_task_here_where_map_would_not_fork(monkeypatch, mode):
    if mode == "one CPU":
        monkeypatch.setattr(_pool, "_worker_count", lambda jobs: 1)
    else:
        monkeypatch.setattr(_pool, "_fork_context", lambda workers: None)
    assert _pool.start(_pid)() == os.getpid()


@pytest.mark.parametrize("error", [ValidationError("sweep step must be positive and finite, got 0"),
                                   NetProfitError(-2.5)])
def test_start_reraises_the_task_error_with_its_type_and_message(two_workers, error):
    def task():
        raise error

    collect = _pool.start(task)
    with pytest.raises(type(error)) as raised:
        collect()
    assert str(raised.value) == str(error)
    assert multiprocessing.active_children() == []


def test_start_raises_when_the_worker_exits_without_a_result(two_workers):
    collect = _pool.start(lambda: os._exit(3))
    with pytest.raises(RuntimeError, match="exited with code 3"):
        collect()
    assert multiprocessing.active_children() == []


def test_the_search_worker_is_joined_when_the_table_raises(two_workers, monkeypatch, tmp_path):
    search = figures.optimize_joint_ruin

    def spy(*args, **kwargs):
        (tmp_path / "search_pid").write_text(str(os.getpid()))
        return search(*args, **kwargs)

    def table(*args):
        raise RuntimeError("the table failed")

    monkeypatch.setattr(figures, "optimize_joint_ruin", spy)
    monkeypatch.setattr(figures, "company_ruin_at", table)
    with pytest.raises(RuntimeError, match="the table failed"):
        figures.reproduce_figure("fig5", 0.05, 25.0)
    assert int((tmp_path / "search_pid").read_text()) != os.getpid()
    assert multiprocessing.active_children() == []
