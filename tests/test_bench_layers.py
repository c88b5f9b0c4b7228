"""The per-layer timing script: K timed runs per layer, their median, and the machine they ran on."""

import importlib.util
import multiprocessing
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _script():
    spec = importlib.util.spec_from_file_location("bench_layers", os.path.join(ROOT, "tools", "bench_layers.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_import_leaves_the_environment_alone():
    before = dict(os.environ)
    _script()
    assert dict(os.environ) == before


def test_times_a_layer_k_times():
    script = _script()
    (n, setup), = [(n, setup) for name, n, setup in script.layers() if name.startswith("parse_code")]
    layer = script.timed(setup(n))
    assert len(layer["runs_s"]) == script.K == 3
    assert min(layer["runs_s"]) <= layer["median_s"] <= max(layer["runs_s"])


def test_environment_names_the_machine():
    report = _script().environment(ROOT)
    assert {"git_sha", "nproc", "cpu", "python", "numpy", "k"} <= set(report)
    assert report["k"] == 3


def test_every_layer_has_a_distinct_name():
    keys = [f"{name}_n{n}" for name, n, _ in _script().layers()]
    assert len(keys) == len(set(keys))


def test_worker_times_the_layers_it_is_sent(monkeypatch):
    script = _script()
    monkeypatch.setattr(sys, "path", list(sys.path))  # the worker puts the checkout's src first
    mine, theirs = multiprocessing.Pipe()
    thread = threading.Thread(target=script.worker, args=(ROOT, theirs))
    thread.start()
    names = [name for name, _, _ in script.layers()]
    try:
        count = mine.recv()
        mine.send(names.index(f"parse_code_x{script.PARSE_CALLS}"))
        key, layer = mine.recv()
    finally:
        mine.send(None)
        thread.join(timeout=60)
    assert not thread.is_alive()
    assert count == len(names) + 1  # the tier-1 pytest run is the last layer
    assert key == f"parse_code_x{script.PARSE_CALLS}_n4000"
    assert layer["n"] == 4000 and len(layer["runs_s"]) == script.K
