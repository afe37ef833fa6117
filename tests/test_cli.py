import json
import os
import subprocess
import sys
import time
import types

import pytest

from borno.cli import (
    FAIL_VERDICTS,
    PASS_VERDICTS,
    builtin_instances,
    main,
    run_instance,
)
from borno.errors import SchemaError
from borno.serialize import SCHEMA, instance_digest


# sha256 of each built-in instance's canonical JSON: a change to the instance
# format or to a built-in instance shows here first
BUILTIN_DIGESTS = {
    "golden-pair":
        "102a79dbb492000ab357ce32cdada745935616de61dcc0506f58de05ef05ce32",
    "nilpotent":
        "97d67bbfb634af123417171b621c78b4f2d708e394fdc4b12f617b8511ae1c21",
    "contraction-hull":
        "84c286511e377d1b228197f4e7122a026579f26c218be66d02066fd125a9ebe7",
    "trig-grid":
        "24ca17e39bb032919ce5088ebac9cc3afdd05b7e9cad7c6538663c8efc92c5ad",
    "matrix-tower":
        "ac2fce99040f24952ceda17f5f4a60d25bc0e8d40eb9b750787628ad4ce5fcf3",
    "interval-restriction":
        "11a1187c004fdc0422e1eacf32e8aa9a7bf626d014098e6794eceb2bf4321864",
    "trig-fejer":
        "a25464c5c4184eb1460524f254d1f081af0f063560904a801f905f5428e58b8b",
    "cauchy-geometric":
        "24f4419369bbd5f5f8c2702e55e1b21ef3a0f6f3e61b9b8e08f03f200d88a247",
    "completion-demo":
        "a8faa50410461003a92fd3c0ffeb2eb8800505113ab64dee9c547195257bdba0",
    "approx-truncation":
        "736aacf79c9ae2c1fcb5111b87f4652da1c348ac16c98be36a50d0381e704cdc",
}


DELETE = object()

# (built-in instance, path of the edit, new value or DELETE, the path the
# error must name): each is an input error, and none may reach a kernel
MALFORMED = [
    ("golden-pair", ("payload", "extra"), 1, "payload"),
    ("contraction-hull", ("payload", "extra"), 1, "payload"),
    ("trig-grid", ("payload", "extra"), 1, "payload"),
    ("cauchy-geometric", ("payload", "extra"), 1, "payload"),
    ("completion-demo", ("payload", "extra"), 1, "payload"),
    ("approx-truncation", ("payload", "extra"), 1, "payload"),
    ("golden-pair", ("config", "extra"), 1, "config"),
    ("cauchy-geometric", ("payload", "space", "disks", 0, "extra"), 1,
     "payload.space.disks[0]"),
    ("cauchy-geometric", ("payload", "space", "disks", 0, "weight", "extra"),
     1, "payload.space.disks[0].weight"),
    ("cauchy-geometric", ("payload", "sequence", "geo_terms", 0, "extra"), 1,
     "payload.sequence.geo_terms[0]"),
    ("cauchy-geometric", ("payload", "eps", "extra"), 1, "payload.eps"),
    ("approx-truncation", ("payload", "ops", "extra"), 1, "payload.ops"),
    ("approx-truncation", ("payload", "gauge", "weight", "extra"), 1,
     "payload.gauge.weight"),
    ("cauchy-geometric", ("payload", "space", "disks", 0, "kind"), DELETE,
     "payload.space.disks[0]"),
    ("cauchy-geometric", ("payload", "sequence", "geo_terms", 0, "coeff"),
     DELETE, "payload.sequence.geo_terms[0]"),
    ("cauchy-geometric", ("payload", "sequence", "window_terms"),
     [{"coeff": "1"}], "payload.sequence.window_terms[0]"),
    ("approx-truncation", ("payload", "set", "ratio"), DELETE, "payload.set"),
    ("approx-truncation", ("payload", "ops"),
     [{"kind": "truncation", "orders": [1]}], "payload.ops"),
    ("cauchy-geometric", ("payload", "disk"), -1, "payload.disk"),
    ("cauchy-geometric", ("payload", "disk"), 3, "payload.disk"),
    ("cauchy-geometric", ("payload", "disk"), 5, "payload.disk"),
    ("cauchy-geometric", ("payload", "eps"),
     {"kind": "invpoly", "amp": "1", "power": 1, "beta": "0"}, "payload.eps"),
]

# values of the wrong type or shape, which crashed with a traceback or were
# misread before every value had a reader: (instance, path, value, the
# start of the error message)
MISTYPED = [
    ("trig-grid", ("payload", "fixture"), ["x"], "unknown fixture"),
    ("golden-pair", ("command",), ["jsr"], "instance.command:"),
    ("golden-pair", ("config",), [1], "config:"),
    ("golden-pair", ("config", "depth"), [12], "config.depth:"),
    ("golden-pair", ("payload", "set", "descriptor", "dim"), [2],
     "payload.set.descriptor:"),
    ("golden-pair", ("payload", "set", "generators", 0, 0), 7,
     "payload.set.generators[0][0]:"),
    ("golden-pair", ("payload", "set", "generators", 0, 0), [[1, 0]],
     "payload.set.generators[0]:"),
    ("contraction-hull", ("payload", "r"), [1], "payload.r:"),
    ("cauchy-geometric", ("payload", "disk"), [0], "payload.disk:"),
    ("cauchy-geometric", ("payload", "limit"), {}, "payload.limit:"),
    ("cauchy-geometric", ("payload", "space", "disks"), {},
     "payload.space.disks:"),
    ("cauchy-geometric", ("payload", "space", "tails_admitted"), "false",
     "payload.space.tails_admitted:"),
    ("cauchy-geometric", ("payload", "space", "disks", 0, "weight"), 5,
     "payload.space.disks[0].weight:"),
    ("cauchy-geometric", ("payload", "sequence", "geo_terms"), 5,
     "payload.sequence.geo_terms:"),
    ("cauchy-geometric",
     ("payload", "sequence", "geo_terms", 0, "vector", "tails"), [5],
     "payload.sequence.geo_terms[0].vector.tails[0]:"),
    ("approx-truncation", ("payload", "ops", "orders"), 5,
     "payload.ops.orders:"),
]


def edited(name, path, value):
    """Built-in instance ``name`` with ``path`` set to ``value``, or removed
    for DELETE."""
    inst = builtin_instances()[name]
    *head, last = path
    obj = inst
    for key in head:
        obj = obj[key]
    if value is DELETE:
        del obj[last]
    else:
        obj[last] = value
    return inst


def run_cli(args):
    return main(list(args))


def write_fixture(tmp_path, name):
    path = tmp_path / f"{name}.json"
    assert run_cli(["fixture", name, "--out", str(path)]) == 0
    return path


def report_of(tmp_path, name, extra=()):
    inst = write_fixture(tmp_path, name)
    out = tmp_path / f"{name}-report.json"
    code = run_cli(["run", "--input", str(inst), "--out", str(out), *extra])
    with open(out) as fh:
        return code, json.load(fh)


class TestFixtures:
    def test_every_builtin_validates_and_runs(self, tmp_path):
        for name, inst in builtin_instances().items():
            assert inst["schema"] == "borno/2"
        for name in ("golden-pair", "nilpotent", "contraction-hull",
                     "cauchy-geometric", "completion-demo",
                     "approx-truncation"):
            code, report = report_of(tmp_path, name)
            assert code in (0, 1, 2)
            assert report["schema"] == "borno/2"

    @pytest.mark.parametrize("name", sorted(builtin_instances()))
    def test_builtin_verdicts_are_known_words(self, tmp_path, name):
        # every verdict word is one the exit code reads, or "inconclusive"
        _code, report = report_of(tmp_path, name)
        assert set(report["verdicts"].values()) <= (
            PASS_VERDICTS | FAIL_VERDICTS | {"inconclusive"})

    def test_unknown_fixture_exits_three(self, tmp_path, capsys):
        assert run_cli(["fixture", "nope",
                        "--out", str(tmp_path / "x.json")]) == 3

    def test_golden_pair_certifies(self, tmp_path):
        code, report = report_of(tmp_path, "golden-pair")
        assert code == 0
        assert report["results"]["lower"] >= 1.618
        assert report["verdicts"]["estimate"] == "pass"

    def test_negative_control_exits_one(self, tmp_path):
        code, report = report_of(tmp_path, "interval-restriction")
        assert code == 1
        assert report["verdicts"]["isoradial"] == "fail"

    def test_subcommand_alias_checks_command(self, tmp_path):
        inst = write_fixture(tmp_path, "golden-pair")
        assert run_cli(["jsr", "--input", str(inst)]) == 0
        assert run_cli(["cauchy", "--input", str(inst)]) == 3


class TestErrors:
    def test_malformed_json_exits_three(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli(["run", "--input", str(bad)]) == 3

    def test_unknown_command_rejected(self, tmp_path):
        bad = tmp_path / "cmd.json"
        bad.write_text(json.dumps({"schema": SCHEMA, "command": "wat",
                                   "payload": {}, "config": {}}))
        assert run_cli(["run", "--input", str(bad)]) == 3

    def test_unknown_field_rejected(self, tmp_path):
        bad = tmp_path / "field.json"
        inst = builtin_instances()["golden-pair"]
        inst["surprise"] = 1
        bad.write_text(json.dumps(inst))
        assert run_cli(["run", "--input", str(bad)]) == 3

    def test_wrong_schema_rejected(self, tmp_path, capsys):
        bad = tmp_path / "schema.json"
        inst = builtin_instances()["golden-pair"]
        inst["schema"] = "borno/1"
        bad.write_text(json.dumps(inst))
        assert run_cli(["run", "--input", str(bad)]) == 3
        assert "expected schema" in capsys.readouterr().err

    def test_bounded_set_interpretation_rejected(self, tmp_path, capsys):
        inst = builtin_instances()["golden-pair"]
        inst["payload"]["set"]["interpretation"] = "set"
        path = tmp_path / "interpretation.json"
        path.write_text(json.dumps(inst))
        assert run_cli(["jsr", "--input", str(path)]) == 3
        assert "interpretation" in capsys.readouterr().err

    def test_grid_distances_rejected(self, tmp_path, capsys):
        from borno.algebra import (GridFunctionAlgebra, GridSpec,
                                   MatrixAlgebra, bounded_set, grid_element)
        from borno.serialize import bounded_set_to_json

        desc = GridFunctionAlgebra(GridSpec.interval(0.0, 1.0, 2),
                                   MatrixAlgebra(1))
        s = bounded_set_to_json(bounded_set([grid_element(desc,
                                                          [[[0.5]], [[1.0]]])]))
        s["descriptor"]["distances"] = [[0.0, 1.0], [1.0, 0.0]]
        path = tmp_path / "distances.json"
        path.write_text(json.dumps({"schema": SCHEMA, "command": "jsr",
                                    "payload": {"set": s}, "config": {}}))
        assert run_cli(["jsr", "--input", str(path)]) == 3
        assert "distances" in capsys.readouterr().err

    @pytest.mark.parametrize("points", [
        ["a", "b"], [True, False], [0.0, float("inf")], [0.0, float("nan")],
        [[1], [2]], [0.0, 0.0], [1, 1.0], "ab"],
        ids=["string", "boolean", "infinite", "nan", "list", "repeated",
             "repeated-int", "not-a-list"])
    def test_bad_grid_points_rejected(self, tmp_path, capsys, points):
        from borno.algebra import (GridFunctionAlgebra, GridSpec,
                                   MatrixAlgebra, bounded_set, grid_element)
        from borno.serialize import bounded_set_to_json

        desc = GridFunctionAlgebra(GridSpec.interval(0.0, 1.0, 2),
                                   MatrixAlgebra(1))
        s = bounded_set_to_json(bounded_set([grid_element(desc,
                                                          [[[0.5]], [[1.0]]])]))
        s["descriptor"]["points"] = points
        path = tmp_path / "points.json"
        path.write_text(json.dumps({"schema": SCHEMA, "command": "jsr",
                                    "payload": {"set": s}, "config": {}}))
        assert run_cli(["jsr", "--input", str(path)]) == 3
        assert "grid descriptor" in capsys.readouterr().err

    def test_unknown_map_fixture_exits_three(self, tmp_path):
        inst = builtin_instances()["trig-grid"]
        inst["payload"]["fixture"] = "nope"
        with pytest.raises(SchemaError):
            run_instance(inst, {})
        path = tmp_path / "nope.json"
        path.write_text(json.dumps(inst))
        assert run_cli(["run", "--input", str(path)]) == 3

    def test_space_horizon_field_rejected(self, tmp_path, capsys):
        inst = builtin_instances()["cauchy-geometric"]
        inst["payload"]["space"]["horizon"] = 64
        path = tmp_path / "horizon.json"
        path.write_text(json.dumps(inst))
        assert run_cli(["cauchy", "--input", str(path)]) == 3
        assert "horizon" in capsys.readouterr().err

    def test_missing_input_exits_three(self):
        assert run_cli(["run"]) == 3

    @pytest.mark.parametrize("name, path, value, where", MALFORMED,
                             ids=[f"{where}:{'no-' if value is DELETE else ''}"
                                  f"{path[-1]}={value!r}"[:60]
                                  for _n, path, value, where in MALFORMED])
    def test_malformed_instance_exits_three(self, tmp_path, capsys, name,
                                            path, value, where):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(edited(name, path, value)))
        assert run_cli(["run", "--input", str(bad)]) == 3
        assert f"input error: {where}:" in capsys.readouterr().err

    @pytest.mark.parametrize("name, path, value, message", MISTYPED,
                             ids=[message for *_, message in MISTYPED])
    def test_mistyped_value_exits_three(self, tmp_path, capsys, name, path,
                                        value, message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(edited(name, path, value)))
        assert run_cli(["run", "--input", str(bad)]) == 3
        assert f"input error: {message}" in capsys.readouterr().err

    def test_numerical_failure_exits_four(self, tmp_path):
        inst = builtin_instances()["golden-pair"]
        half = json.loads(json.dumps(inst))
        gens = half["payload"]["set"]["generators"]
        for g in gens:
            for row in g:
                for entry in row:
                    entry[0] *= 0.5
                    entry[1] *= 0.5
        hull_inst = {
            "schema": SCHEMA,
            "command": "hull",
            "payload": {"set": half["payload"]["set"], "r": 1.0,
                        "max_products": 3},
            "config": {},
        }
        path = tmp_path / "hull.json"
        path.write_text(json.dumps(hull_inst))
        assert run_cli(["run", "--input", str(path)]) == 4

    def test_non_optimal_lp_exits_four(self, tmp_path, monkeypatch):
        # the hull instance's LPs report HiGHS's iteration limit: a numerical
        # failure (exit 4), not a fail verdict
        import borno.algebra

        inst = builtin_instances()["golden-pair"]
        hull_inst = {
            "schema": SCHEMA,
            "command": "hull",
            "payload": {"set": inst["payload"]["set"], "r": 2.0,
                        "max_products": 256},
            "config": {},
        }
        path = tmp_path / "hull.json"
        path.write_text(json.dumps(hull_inst))
        assert run_cli(["run", "--input", str(path)]) == 0
        core, options = borno.algebra._highs()

        class Stalled(core._Highs):
            def getModelStatus(self):
                return core.HighsModelStatus.kIterationLimit

        stalled = types.SimpleNamespace(**{**vars(core), "_Highs": Stalled})
        monkeypatch.setattr(borno.algebra, "_highs", lambda: (stalled, options))
        assert run_cli(["run", "--input", str(path)]) == 4


class TestDeferredScipy:
    LOADED = ("print('scipy.optimize' in sys.modules,"
              " 'scipy.optimize._highspy' in sys.modules)\n")

    @staticmethod
    def run_python(code):
        import borno

        src = os.path.dirname(os.path.dirname(borno.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        return done.stdout.split()

    def test_import_loads_neither_optimizer_nor_highs(self):
        assert self.run_python("import sys\nimport borno\n"
                               + self.LOADED) == ["False", "False"]

    def test_hull_lps_load_only_the_highs_extension(self, tmp_path):
        # golden-pair's hull at r = 2 solves LPs: HiGHS's extension is
        # loaded, scipy's optimizer package is not
        inst = builtin_instances()["golden-pair"]
        path, out = tmp_path / "hull.json", tmp_path / "report.json"
        path.write_text(json.dumps({
            "schema": SCHEMA, "command": "hull",
            "payload": {"set": inst["payload"]["set"], "r": 2.0,
                        "max_products": 256},
            "config": {}}))
        code = (
            "import sys\n"
            "import borno.algebra\n"
            "from borno.cli import main\n"
            f"print(main(['run', '--input', {str(path)!r}, '--out', {str(out)!r}]))\n"
            "print(borno.algebra._highs.cache_info().currsize)\n"
            + self.LOADED
        )
        assert self.run_python(code) == ["0", "1", "False", "False"]

    def test_hull_without_lp_never_imports_scipy(self, tmp_path):
        # contraction-hull's one candidate and its closure product are
        # decided by decompositions, so no LP and no scipy.optimize import
        inst = write_fixture(tmp_path, "contraction-hull")
        out = tmp_path / "report.json"
        code = (
            "import sys\n"
            "from borno.cli import main\n"
            f"code = main(['run', '--input', {str(inst)!r}, '--out', {str(out)!r}])\n"
            "print(code)\n" + self.LOADED
        )
        assert self.run_python(code) == ["0", "False", "False"]
        with open(out) as fh:
            report = json.load(fh)
        report.pop("wall_time_ms")
        assert report == {
            "schema": SCHEMA,
            "command": "hull",
            "instance_digest": BUILTIN_DIGESTS["contraction-hull"],
            "toolkit_version": "0.1.0",
            "verdicts": {"closure": "pass"},
            "results": {"scale": 1.0, "closure_defect": 0.0,
                        "n_generators": 1},
        }


class TestApproxProperty:
    def test_rank_budget_gives_fail(self):
        inst = builtin_instances()["approx-truncation"]
        inst["payload"]["tol"] = "1/1" + "0" * 45  # below 2^-128
        report = run_instance(inst, {})
        assert report["verdicts"]["approximation_property"] == "fail"
        assert "rank budget" in report["results"]["property"]["error"]

    def test_non_compact_envelope_exits_three(self, tmp_path, capsys):
        # (3/2)^k / (k+1)^3 is not summable: an input error, not a kernel bug
        inst = builtin_instances()["approx-truncation"]
        inst["payload"]["set"] = {"kind": "invpoly", "amp": "1", "power": 3}
        inst["payload"]["gauge"] = {
            "kind": "l1", "weight": {"coeff": "1", "base": "3/2", "power": 0}}
        path = tmp_path / "approx.json"
        path.write_text(json.dumps(inst))
        assert run_cli(["run", "--input", str(path)]) == 3
        assert "not compact" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["0", "-1/100"])
    @pytest.mark.parametrize("kind", ["l1", "l2", "sup"])
    def test_nonpositive_tolerance_exits_three(self, tmp_path, capsys, kind,
                                               tol):
        # a tolerance of 0 is never met by a geometric box's truncations,
        # and -1/100 would pass under l2, where it is squared
        inst = builtin_instances()["approx-truncation"]
        inst["payload"]["gauge"]["kind"] = kind
        inst["payload"]["tol"] = tol
        path = tmp_path / "approx.json"
        path.write_text(json.dumps(inst))
        start = time.perf_counter()
        assert run_cli(["run", "--input", str(path)]) == 3
        assert time.perf_counter() - start < 10
        assert "tolerance must be positive" in capsys.readouterr().err

    def test_box_ratio_near_one_finishes(self, tmp_path):
        # ratio 999/1000 starts the box's tail sums near index 2,000; their
        # closed form costs the same whatever the start
        inst = builtin_instances()["approx-truncation"]
        inst["payload"]["set"]["ratio"] = "999/1000"
        inst["payload"]["gauge"]["kind"] = "l1"
        inst["payload"]["ops"]["orders"] = [1, 2, 3]
        path, out = tmp_path / "approx.json", tmp_path / "report.json"
        path.write_text(json.dumps(inst))
        start = time.perf_counter()
        assert run_cli(["run", "--input", str(path), "--out", str(out)]) == 1
        assert time.perf_counter() - start < 10
        report = json.loads(out.read_text())
        assert report["verdicts"] == {"uniform": "converges",
                                      "equivalence": "agree",
                                      "approximation_property": "fail"}
        # the smallest rank whose tail rate meets the tolerance
        assert ("extrapolated rank 13809"
                in report["results"]["property"]["error"])

    def test_kernel_bug_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise ZeroDivisionError("kernel bug")

        monkeypatch.setattr("borno.cli.local_approx_property_check", broken)
        with pytest.raises(ZeroDivisionError):
            run_instance(builtin_instances()["approx-truncation"], {})


class TestDeterminism:
    @pytest.mark.parametrize("name", ["golden-pair", "cauchy-geometric",
                                      "approx-truncation"])
    def test_reports_identical_across_thread_counts(self, tmp_path, name):
        inst = write_fixture(tmp_path, name)
        outputs = []
        for threads in ("1", "4", "0"):
            out = tmp_path / f"{name}-{threads}.json"
            code = run_cli(["run", "--input", str(inst), "--out", str(out),
                            "--threads", threads])
            assert code in (0, 1, 2)
            with open(out) as fh:
                report = json.load(fh)
            report.pop("wall_time_ms")
            outputs.append(json.dumps(report, sort_keys=True))
        assert outputs[0] == outputs[1] == outputs[2]

    def test_threads_environment_is_not_read(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BORNO_THREADS", "x")
        inst = write_fixture(tmp_path, "golden-pair")
        assert run_cli(["run", "--input", str(inst),
                        "--out", str(tmp_path / "report.json")]) == 0

    def test_builtin_digests_are_pinned(self):
        digests = {name: instance_digest(inst)
                   for name, inst in builtin_instances().items()}
        assert digests == BUILTIN_DIGESTS

    def test_digest_is_stable(self):
        inst = builtin_instances()["golden-pair"]
        assert instance_digest(inst) == instance_digest(
            json.loads(json.dumps(inst)))

    def test_rerun_identical_modulo_timing(self, tmp_path):
        inst = builtin_instances()["nilpotent"]
        a = run_instance(inst, {})
        b = run_instance(inst, {})
        a.pop("wall_time_ms"), b.pop("wall_time_ms")
        assert a == b


class TestExplicitPayloads:
    def test_apple_with_inline_maps(self, tmp_path):
        import numpy as np
        from borno.algebra import MatrixAlgebra, bounded_set, matrix_element
        from borno.maps import Homomorphism
        from borno.serialize import bounded_set_to_json, map_to_json

        ident = Homomorphism.identity(MatrixAlgebra(2))
        inst = {
            "schema": SCHEMA,
            "command": "apple",
            "payload": {
                "map": map_to_json(ident),
                "sigmas": [map_to_json(ident)],
                "h": map_to_json(ident),
                "set": bounded_set_to_json(
                    bounded_set([matrix_element(0.5 * np.eye(2))])),
            },
            "config": {"depth": 3, "samples": 2, "tgrid": 9},
        }
        path = tmp_path / "apple.json"
        path.write_text(json.dumps(inst))
        out = tmp_path / "apple-report.json"
        assert run_cli(["run", "--input", str(path), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["verdicts"]["apple"] == "pass"
        assert len(report["results"]["homotopy"]["t_grid"]) == 9

    def test_convergence_mode(self, tmp_path):
        from fractions import Fraction
        from borno.closedforms import EpsForm
        from borno.seqspace import (DiskForm, GeoTerm, SeqVector,
                                    SequenceModel)
        from borno.serialize import (disk_form_to_json, eps_to_json,
                                     sequence_to_json, vector_to_json)

        model = SequenceModel(geo_terms=(
            GeoTerm(1, 1, SeqVector.unit(1, 1)),
            GeoTerm(-1, Fraction(1, 2), SeqVector.unit(1, 1))))
        inst = {
            "schema": SCHEMA,
            "command": "cauchy",
            "payload": {
                "space": {"disks": [disk_form_to_json(DiskForm("sum"))],
                          "tails_admitted": True},
                "sequence": sequence_to_json(model),
                "disk": 0,
                "eps": eps_to_json(EpsForm.geometric(1, Fraction(1, 2))),
                "mode": "convergence",
                "limit": vector_to_json(SeqVector.unit(1, 1)),
            },
            "config": {},
        }
        path = tmp_path / "conv.json"
        path.write_text(json.dumps(inst))
        assert run_cli(["run", "--input", str(path)]) == 0

    def test_isoradial_with_inline_map(self, tmp_path):
        from borno.fixtures import corner_embedding
        from borno.serialize import map_to_json

        inst = {
            "schema": SCHEMA,
            "command": "isoradial",
            "payload": {"map": map_to_json(corner_embedding(2, 3))},
            "config": {"samples": 2, "depth": 3},
        }
        path = tmp_path / "iso.json"
        path.write_text(json.dumps(inst))
        assert run_cli(["run", "--input", str(path)]) == 0


class TestCsv:
    def test_csv_flattening(self, tmp_path):
        inst = write_fixture(tmp_path, "approx-truncation")
        out = tmp_path / "rep.json"
        assert run_cli(["run", "--input", str(inst), "--out", str(out),
                        "--csv"]) == 0
        csv_path = tmp_path / "rep.csv"
        assert csv_path.exists()
        text = csv_path.read_text()
        assert "rates" in text


class TestDocumentedPaths:
    """CLI paths the README shows, run in process."""

    @staticmethod
    def run(tmp_path, args, inst=None):
        """(exit code, report) of ``args``, with ``inst`` as the input file."""
        out = tmp_path / "report.json"
        if inst is not None:
            path = tmp_path / "instance.json"
            path.write_text(json.dumps(inst))
            args = [*args, "--input", str(path)]
        code = run_cli([*args, "--out", str(out)])
        return code, (json.loads(out.read_text()) if out.exists() else None)

    @staticmethod
    def apple_payload(**changes):
        import numpy as np
        from borno.algebra import MatrixAlgebra, bounded_set, matrix_element
        from borno.maps import Homomorphism
        from borno.serialize import bounded_set_to_json, map_to_json

        ident = map_to_json(Homomorphism.identity(MatrixAlgebra(2)))
        payload = {"map": ident, "sigmas": [ident], "h": ident,
                   "set": bounded_set_to_json(
                       bounded_set([matrix_element(0.5 * np.eye(2))]))}
        return {"schema": SCHEMA, "command": "apple",
                "payload": {**payload, **changes},
                "config": {"depth": 3, "samples": 2, "tgrid": 5}}

    def test_fixture_flag(self, tmp_path):
        code, report = self.run(tmp_path, ["isoradial", "--fixture",
                                           "interval-restriction",
                                           "--samples", "2"])
        assert code == 1
        assert report["verdicts"] == {"isoradial": "fail"}
        assert report["instance_digest"] == instance_digest(
            {"schema": SCHEMA, "command": "isoradial",
             "payload": {"fixture": "interval-restriction"}, "config": {}})

    def test_bare_map_file(self, tmp_path):
        from borno.fixtures import corner_embedding
        from borno.serialize import map_to_json

        bare = map_to_json(corner_embedding(2, 3))
        assert set(bare) == {"source", "target", "basis_action"}
        code, report = self.run(tmp_path, ["isoradial", "--samples", "2",
                                           "--depth", "3"], bare)
        assert code == 0
        assert report["verdicts"] == {"isoradial": "pass"}
        assert report["instance_digest"] == instance_digest(
            {"schema": SCHEMA, "command": "isoradial",
             "payload": {"map": bare}, "config": {}})
        # only isoradial and apple read a bare map
        assert self.run(tmp_path, ["run"], bare)[0] == 3

    def test_inconclusive_exits_two(self, tmp_path):
        # at depth 1 the golden pair's interval is [1, golden ratio]
        code, report = self.run(tmp_path, ["jsr", "--depth", "1"],
                                builtin_instances()["golden-pair"])
        assert code == 2
        assert report["verdicts"] == {"estimate": "inconclusive"}
        assert report["results"]["status"] == "depth-limited"

    def test_incomplete_space_with_csv(self, tmp_path):
        from borno.seqspace import DiskForm, ModelSpace
        from borno.serialize import model_space_to_json

        space = model_space_to_json(ModelSpace((DiskForm("sum"),), False))
        code, report = self.run(tmp_path, ["complete", "--csv"],
                                {"schema": SCHEMA, "command": "complete",
                                 "payload": {"space": space}, "config": {}})
        assert code == 1
        assert report["verdicts"] == {"disk_0": "incomplete",
                                      "cross_validation": "agree"}
        rows = (tmp_path / "report.csv").read_text().splitlines()
        assert "disks[0].condition_iii,,False" in rows
        assert "disks[0].condition_iv,,False" in rows

    def test_non_finite_result_is_a_string(self, tmp_path):
        # the search stops where a product's norm overflows (see
        # test_jsr.py); here a generator's row sum does, so no level bounds
        # rho and the report carries its upper bound as "inf"
        from borno.algebra import bounded_set, matrix_element
        from borno.serialize import bounded_set_to_json

        big = matrix_element([[1e308, 1e308], [0.0, 1e308]], "maxrow")
        inst = {"schema": SCHEMA, "command": "jsr", "config": {"depth": 4},
                "payload": {"set": bounded_set_to_json(bounded_set([big]))}}
        with pytest.warns(RuntimeWarning, match="overflow"):
            code, report = self.run(tmp_path, ["run"], inst)
        assert code == 2
        assert report["results"]["upper"] == "inf"

    def test_overflowing_op2_norm_is_depth_limited(self, tmp_path):
        # the generator's op2 norm exceeds the float range: no upper bound
        from borno.algebra import bounded_set, matrix_element
        from borno.serialize import bounded_set_to_json

        big = matrix_element([[1.5e308, 1.5e308], [0.0, 0.0]])
        inst = {"schema": SCHEMA, "command": "jsr", "config": {"depth": 4},
                "payload": {"set": bounded_set_to_json(bounded_set([big]))}}
        code, report = self.run(tmp_path, ["run"], inst)
        assert code == 2
        assert report["verdicts"] == {"estimate": "inconclusive"}
        assert report["results"]["upper"] == "inf"

    def test_apple_without_sigmas_uses_the_identity(self, tmp_path):
        code, report = self.run(tmp_path, ["apple"],
                                self.apple_payload(sigmas=[]))
        assert code == 0
        assert report["verdicts"] == {"apple": "pass"}
        assert report["results"]["sigma_rates"]["rates"] == [0.0]

    def test_toolkit_error_exits_one(self, tmp_path, capsys):
        # the set lives in M1 while h acts on M2
        from borno.algebra import bounded_set, scalar_element
        from borno.serialize import bounded_set_to_json

        inst = self.apple_payload(set=bounded_set_to_json(
            bounded_set([scalar_element(0.5)])))
        assert self.run(tmp_path, ["apple"], inst) == (1, None)
        assert capsys.readouterr().err.startswith(
            "error: curvature set: descriptor mismatch")
