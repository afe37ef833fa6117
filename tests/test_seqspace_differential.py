"""Differential checks: the symbolic deciders against brute-force windows.

Randomized closed-form sequences are checked two ways: the exact decision
procedure, and direct evaluation of every pair in a finite window.  A "no"
must come with a genuine violating pair; a "yes" must survive the window.
"""

import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from borno.closedforms import EpsForm, WeightForm
from borno.errors import NotDecided
from borno.seqspace import (
    DiskForm,
    GeoTerm,
    ModelSpace,
    SeqVector,
    SequenceModel,
    WindowTerm,
    cauchy_check,
    convergence_check,
    gauge_value,
)

RATIOS = [Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(2, 3),
          Fraction(3, 4), Fraction(-1, 3)]
COEFFS = [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2),
          Fraction(-3, 2)]

WINDOW = 36


def random_vector(rng, allow_tail=True):
    prefix = {}
    for k in range(int(rng.integers(0, 3))):
        prefix[int(rng.integers(0, 4))] = COEFFS[rng.integers(len(COEFFS))]
    tails = ()
    start = max(prefix, default=-1) + 1
    if allow_tail and rng.random() < 0.4:
        tails = ((COEFFS[rng.integers(len(COEFFS))],
                  RATIOS[rng.integers(len(RATIOS))]),)
    v = SeqVector(prefix, tails, start)
    if v.is_zero:
        return SeqVector.unit(int(rng.integers(0, 4)), 1)
    return v


def random_model(rng):
    geo = []
    if rng.random() < 0.5:
        geo.append(GeoTerm(1, 1, random_vector(rng)))
    for _ in range(int(rng.integers(1, 3))):
        geo.append(GeoTerm(COEFFS[rng.integers(len(COEFFS))],
                           RATIOS[rng.integers(len(RATIOS))],
                           random_vector(rng)))
    windows = ()
    if rng.random() < 0.3:
        u = SeqVector.geometric(COEFFS[rng.integers(len(COEFFS))],
                                abs(RATIOS[rng.integers(len(RATIOS))]))
        windows = (WindowTerm(COEFFS[rng.integers(len(COEFFS))], u),)
    return SequenceModel(geo_terms=tuple(geo), window_terms=windows)


def random_eps(rng):
    amp = abs(COEFFS[rng.integers(len(COEFFS))])
    ratio = abs(RATIOS[rng.integers(len(RATIOS))])
    return EpsForm.geometric(amp, ratio)


@pytest.mark.parametrize("seed", range(60))
def test_cauchy_decision_matches_window(seed):
    rng = np.random.default_rng(seed)
    space = ModelSpace((DiskForm("sum"), DiskForm("sup")))
    disk_index = int(rng.integers(0, 2))
    disk = space.disk(disk_index)
    model = random_model(rng)
    eps = random_eps(rng)
    try:
        report = cauchy_check(model, space, disk_index, eps)
    except NotDecided:
        return  # outside the decidable fragment, honestly reported
    window_violation = None
    for m in range(WINDOW):
        xm = model.at(m)
        for n in range(m + 1, WINDOW):
            g = gauge_value(disk, model.at(n).subtract(xm))
            if g == math.inf or not eps.ge_value(m, g):
                window_violation = (m, n)
                break
        if window_violation:
            break
    if report.holds:
        assert window_violation is None, (
            f"decider said yes but window found violation {window_violation}")
    else:
        m, n = report.violating_pair
        g = gauge_value(disk, model.at(n).subtract(model.at(m)))
        assert g == math.inf or not eps.ge_value(m, g), (
            "reported violating pair is not a violation")


@pytest.mark.parametrize("seed", range(40))
def test_convergence_decision_matches_window(seed):
    rng = np.random.default_rng(1000 + seed)
    space = ModelSpace((DiskForm("sum"), DiskForm("sup")))
    disk_index = int(rng.integers(0, 2))
    disk = space.disk(disk_index)
    model = random_model(rng)
    eps = random_eps(rng)
    limit = model.limit_vector()
    try:
        report = convergence_check(model, space, disk_index, eps, limit)
    except NotDecided:
        return
    window_violation = None
    for n in range(WINDOW):
        g = gauge_value(disk, model.at(n).subtract(limit))
        if g == math.inf or not eps.ge_value(n, g):
            window_violation = n
            break
    if report.holds:
        assert window_violation is None
    else:
        n = report.violating_pair[0]
        g = gauge_value(disk, model.at(n).subtract(limit))
        assert g == math.inf or not eps.ge_value(n, g)


@pytest.mark.parametrize("seed", range(40))
def test_gauge_value_between_partial_sum_and_envelope(seed):
    rng = np.random.default_rng(2000 + seed)
    v = random_vector(rng)
    disk = DiskForm("sum")
    g = gauge_value(disk, v)
    horizon = 300
    partial = sum((disk.weight.value(k) * abs(v.value(k))
                   for k in range(horizon)), Fraction(0))
    tail_bound = sum((abs(a) * abs(s) ** horizon / (1 - abs(s))
                      for a, s in v.tails), Fraction(0))
    assert partial <= g <= partial + tail_bound

    sup_disk = DiskForm("sup")
    gs = gauge_value(sup_disk, v)
    sup_partial = max((sup_disk.weight.value(k) * abs(v.value(k))
                       for k in range(horizon)), default=Fraction(0))
    assert sup_partial <= gs
    assert gs <= max(sup_partial, tail_bound)


@pytest.mark.parametrize("seed", range(20))
def test_subsequences_evaluate_consistently(seed):
    rng = np.random.default_rng(3000 + seed)
    model = random_model(rng)
    a = int(rng.integers(1, 4))
    b = int(rng.integers(0, 3))
    sub = model.subsequence(a, b)
    for n in range(12):
        assert sub.at(n) == model.at(a * n + b)


# weighted disks, inverse-polynomial budgets, prefixes and windows that are
# not nested (stride 2, an offset, or a decaying ratio): the draws above
# reach none of them
SMALL_RATIOS = [Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3),
                Fraction(-1, 3), Fraction(1, 4)]
WEIGHTED_DISKS = [DiskForm(kind, weight) for kind in ("sum", "sup")
                  for weight in (WeightForm.geometric(1, Fraction(3, 2)),
                                 WeightForm.polynomial(1, 1))]


def pick(rng, values):
    return values[rng.integers(len(values))]


def small_vector(rng):
    prefix = {int(rng.integers(0, 4)): pick(rng, COEFFS)
              for _ in range(int(rng.integers(0, 3)))}
    tails = (((pick(rng, COEFFS), pick(rng, SMALL_RATIOS)),)
             if rng.random() < 0.5 else ())
    v = SeqVector(prefix, tails, max(prefix, default=-1) + 1)
    return SeqVector.unit(int(rng.integers(0, 4)), 1) if v.is_zero else v


def windowed_model(rng):
    geo = [GeoTerm(1, 1, small_vector(rng))] if rng.random() < 0.5 else []
    for _ in range(int(rng.integers(1, 3))):
        geo.append(GeoTerm(pick(rng, COEFFS), pick(rng, SMALL_RATIOS),
                           small_vector(rng)))
    u = SeqVector.geometric(pick(rng, COEFFS), abs(pick(rng, SMALL_RATIOS)))
    stride, offset, ratio = pick(rng, [(2, 0, 1), (1, 1, 1), (1, 2, 1),
                                       (1, 0, Fraction(1, 2))])
    window = WindowTerm(pick(rng, COEFFS), u, stride, offset, ratio)
    prefix = tuple(small_vector(rng) for _ in range(int(rng.integers(0, 3))))
    return SequenceModel(prefix, tuple(geo), (window,))


def inverse_poly_eps(rng):
    return EpsForm("invpoly", pick(rng, [Fraction(1), Fraction(4),
                                         Fraction(16)]),
                   alpha=pick(rng, [Fraction(1, 2), Fraction(1), Fraction(2)]),
                   beta=pick(rng, [Fraction(1), Fraction(2)]),
                   power=int(rng.integers(1, 3)))


def violates(disk, eps, m, diff):
    g = gauge_value(disk, diff)
    return g == math.inf or not eps.ge_value(m, g)


@pytest.mark.parametrize("seed", range(30))
def test_weighted_windowed_decisions_match_window(seed):
    rng = np.random.default_rng([0x51DE, seed])
    disk = pick(rng, WEIGHTED_DISKS)
    space = ModelSpace((disk,))
    model = windowed_model(rng)
    eps = inverse_poly_eps(rng)
    xs = [model.at(n) for n in range(WINDOW)]
    limit = model.limit_vector()
    for check in (cauchy_check, convergence_check):
        try:
            report = check(model, space, 0, eps)
        except NotDecided:
            continue  # outside the decidable fragment, honestly reported
        if check is cauchy_check:
            window = ((m, n, xs[m]) for m in range(WINDOW)
                      for n in range(m + 1, WINDOW))
        else:
            window = ((n, n, limit) for n in range(WINDOW))
        if report.holds:
            assert not any(violates(disk, eps, m, xs[n].subtract(base))
                           for m, n, base in window)
        else:
            m, n = report.violating_pair
            base = model.at(m) if check is cauchy_check else limit
            assert violates(disk, eps, m, model.at(n).subtract(base))


# sha256 of golden_decisions(); a change to any decision, certified_from,
# violating pair or NotDecided message of these cases shows here
GOLDEN_DIGEST = (
    "641cb6e79b663938a7cd05f212da1f7522c1f2a6b0e00e9e88f9a3a4639d9f31")


def golden_decisions():
    """One line per Cauchy and convergence decision over seeded models, with
    "yes", "no" and NotDecided outcomes: even seeds get a generous budget."""
    space = ModelSpace((DiskForm("sum"), DiskForm("sup")))
    both = (cauchy_check, convergence_check)
    cases = []
    for seed in range(12):
        rng = np.random.default_rng([0x601D, seed])
        disk_index = int(rng.integers(0, 2))
        model = random_model(rng)
        eps = (random_eps(rng) if seed % 2
               else EpsForm.geometric(8, Fraction(9, 10)))
        cases.append((f"seed {seed}", model, disk_index, eps, both))
    half = EpsForm.geometric(1, Fraction(1, 2))
    unit = SeqVector.unit(0, 1)
    # "tiny" reaches the scan cap; Cauchy hunts up to that cap take seconds,
    # so it is decided for convergence only
    cases += [
        # a growing term with a zero vector adds nothing: the zero sequence
        ("growing zero", SequenceModel(
            geo_terms=(GeoTerm(1, 1, SeqVector.zero(), 1),)), 0, half,
         (convergence_check,)),
        # decays too slowly for the budget, but only past the scan cap
        ("tiny", SequenceModel(geo_terms=(
            GeoTerm(Fraction(1, 10**400), Fraction(3, 4), unit),)), 1, half,
         (convergence_check,)),
        # (m+1)^4 (999/1000)^m rises until m near 4,000
        ("slow peak", SequenceModel(geo_terms=(
            GeoTerm(1, Fraction(999, 1000), unit, 4),)), 0, half, both),
        # the second tail outweighs the first until t near 6,800
        ("late sign", SequenceModel(geo_terms=(GeoTerm(1, Fraction(1, 2),
            SeqVector({}, ((1, Fraction(99, 100)),
                           (10**30, Fraction(98, 100))))),)), 0, half, both),
    ]
    lines = []
    for name, model, disk_index, eps, checks in cases:
        for check in checks:
            try:
                rep = check(model, space, disk_index, eps)
                out = (f"{rep.decision} {rep.witness.get('certified_from')} "
                       f"{rep.violating_pair}")
            except NotDecided as exc:
                out = f"NotDecided: {exc}"
            lines.append(f"{name} {check.__name__}: {out}")
    return lines


def test_golden_decisions():
    lines = golden_decisions()
    outcomes = {line.split(": ")[1].split()[0] for line in lines}
    assert outcomes == {"yes", "no", "NotDecided"}
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == GOLDEN_DIGEST, "\n".join(lines)
