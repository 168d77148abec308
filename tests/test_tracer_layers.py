"""The benchmark tracer wraps program functions and methods by name.

Loading perfbench/tracer.py and installing it resolves every name in its
LAYERS table, so a rename or a method moved out of its class body fails
here rather than only in a traced benchmark run.
"""

import importlib.util
import os

import polyaprofile.limits  # noqa: F401  (the tracer wraps names in every module)
from polyaprofile import profile, sampling
from polyaprofile.enumeration import count_trees

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_every_layer_and_uninstalls():
    tracer = _load_tracer().Tracer("t")
    try:
        tracer.install()
        profile.level_degree_series(1, 2, 8, mode="moments")
    finally:
        assert tracer.uninstall()
    names = {span[1] for span in tracer.spans}
    assert {
        "profile.level_degree_series",
        "series.marked_mul",
        "series.marked_exp",
        "series.marked_polya_exponent",
    } <= names


def test_monte_carlo_profiles_each_tree_through_extract_profile():
    spec = sampling.MonteCarloSpec(n=30, degrees=(1,), kappas=(1.0,), samples=7, seed=2)
    tracer = _load_tracer().Tracer("t")
    try:
        tracer.install()
        sampling.monte_carlo(spec, count_trees(30), threads=1)
    finally:
        assert tracer.uninstall()
    (run,) = [span[0] for span in tracer.spans if span[1] == "sampling.monte_carlo"]
    profiles = [span for span in tracer.spans if span[1] == "sampling.extract_profile"]
    assert len(profiles) == 7 and all(span[4] == run for span in profiles)
