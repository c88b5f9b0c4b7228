"""The per-layer timing script: K timed runs per layer, their median, and the machine they ran on."""

import importlib.util
import os

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
