"""The package's public surface, which loads its submodules on first use."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import smfrft

# the 33 names `smfrft` exports, frozen: loading submodules lazily loses none
EXPORTS = {
    "errors": ("AlignmentError", "DegenerateAngleError", "GridCompatibilityError",
               "InvalidGridError", "InvalidParameterError", "ShapeMismatchError",
               "SmfrftError"),
    "grid": ("SampledSignal", "Spectrum", "UniformGrid", "gen_chirp", "gen_gaussian"),
    "kernel": ("Angle", "SQRT_J2PI", "SQRT_J_OVER_2PI", "make_angle"),
    "operators": ("frac_convolve", "frac_correlate", "frac_product", "modulate_op",
                  "shift_op"),
    "theorems": ("IdentityId", "IdentityReport", "SuiteConfig", "check",
                 "report_rows", "reports_to_json", "run_suite"),
    "transform": ("fast_ugrid", "ismfrft_direct", "ismfrft_fast", "smfrft_direct",
                  "smfrft_fast"),
}
SUBMODULES = ("corpus", "errors", "grid", "kernel", "operators", "theorems",
              "transform")
NAMES = sorted(name for names in EXPORTS.values() for name in names)


def test_the_surface_is_frozen():
    assert len(NAMES) == len(set(NAMES)) == 33
    assert smfrft.__version__ == "0.1.0"


@pytest.mark.parametrize("module, name", [
    (module, name) for module, names in EXPORTS.items() for name in names])
def test_each_name_is_its_submodules_object(module, name):
    owner = importlib.import_module(f"smfrft.{module}")
    assert getattr(smfrft, name) is getattr(owner, name)
    namespace = {}
    exec(f"from smfrft import {name}", namespace)
    assert namespace[name] is getattr(owner, name)


def test_star_import():
    namespace = {}
    exec("from smfrft import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted([*NAMES, *SUBMODULES])
    for name in NAMES:
        assert namespace[name] is getattr(smfrft, name)


def test_submodules_reachable_after_import_smfrft():
    # in a fresh interpreter, where no submodule has been loaded yet
    probe = (f"import smfrft\nfor m in {SUBMODULES!r}:\n"
             f"    assert getattr(smfrft, m).__name__ == 'smfrft.' + m, m")
    src = str(Path(smfrft.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=False)
    assert result.returncode == 0, result.stderr
    for module in SUBMODULES:
        assert getattr(smfrft, module) is importlib.import_module(f"smfrft.{module}")


@pytest.mark.parametrize("name", ["no_such_name", "__wrapped__", "np"])
def test_unknown_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(smfrft, name)
    assert not hasattr(smfrft, name)
