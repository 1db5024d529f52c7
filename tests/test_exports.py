"""Every exported name resolves, and retired names stay retired."""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import tsfactor
from tsfactor import MatrixPanel, SimulationSpec, pipeline_forecast
from tsfactor import matrixfactor

MODULES = ["tsfactor"] + [
    f"tsfactor.{info.name}"
    for info in pkgutil.iter_modules(tsfactor.__path__)
    if info.name != "__main__"  # the `python -m tsfactor` entry, which exports nothing
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert module.__all__
    assert len(set(module.__all__)) == len(module.__all__)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


def test_retired_names_are_gone():
    assert not hasattr(matrixfactor, "demean_matrix")
    assert not hasattr(matrixfactor, "m_hat_cols")
    assert "demeaned" not in {f.name for f in dataclasses.fields(MatrixPanel)}
    assert "burn_in" not in {f.name for f in dataclasses.fields(SimulationSpec)}
    assert "loading_override" not in inspect.signature(pipeline_forecast).parameters
