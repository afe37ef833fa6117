import json
import os
import subprocess
import sys

import pytest

from borno.cli import builtin_instances, main, run_instance
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


class TestDeferredScipy:
    def test_hull_without_lp_never_imports_scipy(self, tmp_path):
        # contraction-hull's one candidate and its closure product are
        # decided by decompositions, so no LP and no scipy.optimize import
        import borno

        inst = write_fixture(tmp_path, "contraction-hull")
        out = tmp_path / "report.json"
        code = (
            "import sys\n"
            "from borno.cli import main\n"
            f"code = main(['run', '--input', {str(inst)!r}, '--out', {str(out)!r}])\n"
            "print(code, 'scipy.optimize' in sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(borno.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout.split() == ["0", "False"]
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
        from borno.serialize import sequence_to_json, vector_to_json

        model = SequenceModel(geo_terms=(
            GeoTerm(1, 1, SeqVector.unit(1, 1)),
            GeoTerm(-1, Fraction(1, 2), SeqVector.unit(1, 1))))
        inst = {
            "schema": SCHEMA,
            "command": "cauchy",
            "payload": {
                "space": {"disks": [DiskForm("sum").as_dict()],
                          "tails_admitted": True},
                "sequence": sequence_to_json(model),
                "disk": 0,
                "eps": EpsForm.geometric(1, Fraction(1, 2)).as_dict(),
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
