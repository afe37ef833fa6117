"""The traced benchmark wraps borno's entry points by name; every name it
wraps must exist, and uninstalling must restore the originals."""

import importlib.util
import pathlib

import borno.algebra
from borno.seqspace import SequenceModel

TRACING = (pathlib.Path(__file__).resolve().parents[1]
           / "perfbench" / "tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_name_and_restores_it():
    norm, at = borno.algebra.norm, SequenceModel.__dict__["at"]
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        assert borno.algebra.norm is not norm
        assert SequenceModel.__dict__["at"] is not at
    finally:
        tracer.uninstall()
    assert borno.algebra.norm is norm
    assert SequenceModel.__dict__["at"] is at
