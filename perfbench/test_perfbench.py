"""Tests of the benchmark's own parts: seeded inputs and the tracer.

    python3 -m pytest perfbench

Run from the root of a borno checkout.
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracing import Tracer, raw_layer_values  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    a = workloads.canonical_bytes(workloads.make_inputs(workload, 7))
    b = workloads.canonical_bytes(workloads.make_inputs(workload, 7))
    assert a == b


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_two_seeds_give_different_inputs(workload):
    a = workloads.canonical_bytes(workloads.make_inputs(workload, 7))
    b = workloads.canonical_bytes(workloads.make_inputs(workload, 8))
    assert a != b


def test_cli_verdicts_do_not_depend_on_the_seed():
    from borno.cli import run_instance
    instances = workloads.make_inputs("cli-fixtures", 1)["instances"]
    expected = workloads.cli_expected(instances)
    for name, inst in instances.items():
        if inst["command"] not in workloads.SEEDED_COMMANDS:
            continue
        for seed in (1, 2):
            cfg = dict(inst["config"], seed=seed)
            assert run_instance(inst, cfg)["verdicts"] == expected[name][0]


@pytest.mark.parametrize("workload", ["jsr-sweep", "hull-certify",
                                      "seq-decide"])
def test_first_ops_pass_their_checks(workload):
    ops = workloads.build_ops(workload, workloads.make_inputs(workload, 3),
                              None)
    for op in ops[:2]:
        assert op.check(op.run()) == (True, True)


def test_seed_frames_keep_the_jsr_interval():
    fams = [workloads.make_inputs("jsr-sweep", s)["families"][5]
            for s in (1, 2)]
    import borno
    est = [borno.jsr_estimate(workloads._jsr_set(f), 10, 1e-3) for f in fams]
    assert est[0].depth == est[1].depth
    assert est[0].upper == pytest.approx(est[1].upper, rel=1e-12)
    assert est[0].lower == pytest.approx(est[1].lower, rel=1e-12)


def test_tracer_counts_words_and_restores_bindings():
    import borno
    import borno.jsr
    original = borno.jsr.multiply
    golden = borno.bounded_set([borno.matrix_element([[1, 1], [0, 1]]),
                                borno.matrix_element([[1, 0], [1, 1]])])
    tracer = Tracer().install()
    try:
        assert borno.jsr.multiply is not original
        assert borno.multiply is borno.jsr.multiply
        tracer.op = 0
        borno.jsr_estimate(golden, 2, 1e-9)
    finally:
        tracer.uninstall()
    assert borno.jsr.multiply is original
    record = tracer.dump()
    values = raw_layer_values(record["spans"], record["hot"])
    assert values["jsr.estimate_calls"] == 1
    assert values["jsr.words"] == 2 + 4
    assert values["algebra.multiply_calls"] == 4
    assert values["jsr.estimate_self_s"] <= values["jsr.estimate_s"]


def test_full_speed_time_scales_each_piece_by_its_probe():
    import hostspeed
    ref = hostspeed.REFERENCE_S
    # probes at 1.0 s and 2.0 s; the second ran at half the reference speed
    samples = [(1.0, ref), (2.0, 2 * ref)]
    # [0, 3]: 1 s at full speed, then the rest at half speed; probe time is
    # left out
    got = hostspeed.full_speed_s(0.0, 3.0, samples)
    assert got == pytest.approx(1.0 + (1.0 - ref) / 2 + (1.0 - 2 * ref) / 2)
    # no probe inside: the nearest probe's speed
    assert hostspeed.full_speed_s(2.5, 2.7, samples) == pytest.approx(0.1)
    assert hostspeed.full_speed_s(0.2, 0.4, samples) == pytest.approx(0.2)
    assert hostspeed.fast_probe_s(samples) == ref


def test_probe_samples_while_running():
    import time
    import hostspeed
    probe = hostspeed.Probe().start()
    try:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    finally:
        probe.stop()
    assert len(probe.samples) >= 3
    assert all(d > 0 for _t, d in probe.samples)
