"""Building the C kernels: one cached object, safe under concurrent imports."""

import multiprocessing
import os
from pathlib import Path

import pytest

from repro.clean import filters
from repro.util import native

SOURCE = Path(filters.__file__).with_name("tcp_filter.c")


def _load(cache, barrier):
    """Worker: wait for the other one, then build and load together."""
    barrier.wait(timeout=30)
    assert native.load(SOURCE, cache).tcp_filter is not None


def test_the_module_loads_from_its_own_pycache():
    objects = list((SOURCE.parent / "__pycache__").glob("tcp_filter.*.so"))
    assert any(o.samefile(filters._KERNEL._name) for o in objects)


def test_two_processes_build_one_object(tmp_path):
    cache = tmp_path / "cache"
    ctx = multiprocessing.get_context("spawn")
    barrier = ctx.Barrier(2)
    workers = [ctx.Process(target=_load, args=(cache, barrier)) for _ in range(2)]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=60)
    assert [w.exitcode for w in workers] == [0, 0]
    built = os.listdir(cache)
    assert len(built) == 1 and built[0].endswith(".so"), built
    # A third load finds the object and builds nothing.
    before = os.stat(cache / built[0]).st_mtime_ns
    native.load(SOURCE, cache)
    assert os.listdir(cache) == built
    assert os.stat(cache / built[0]).st_mtime_ns == before


def test_missing_gcc_is_a_pointed_import_error(tmp_path, monkeypatch):
    monkeypatch.setattr(native.shutil, "which", lambda name: None)
    with pytest.raises(ImportError, match="needs gcc on PATH"):
        native.load(SOURCE, tmp_path)
    assert not tmp_path.exists() or os.listdir(tmp_path) == []


def test_a_compile_error_leaves_nothing_behind(tmp_path):
    broken = tmp_path / "broken.c"
    broken.write_text("int f(void) { return }\n")
    cache = tmp_path / "cache"
    with pytest.raises(ImportError, match="gcc could not compile"):
        native.load(broken, cache)
    assert os.listdir(cache) == []
