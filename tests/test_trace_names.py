"""The traced benchmark wraps borno's entry points by name; every name it
wraps must exist, and uninstalling must restore the originals."""

import importlib.util
import pathlib

import borno
import borno.algebra
import borno.jsr
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


def test_package_exports_follow_the_rebinding_and_its_undoing():
    # the package looks each export up in its module on access, so it sees
    # the tracer's wrapper while installed and the original afterwards
    original = borno.jsr.jsr_estimate
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        assert borno.jsr_estimate is borno.jsr.jsr_estimate is not original
    finally:
        tracer.uninstall()
    assert borno.jsr_estimate is original
