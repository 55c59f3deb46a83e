"""End-to-end tests of the command line interface and its exit-code contract."""

import json
import subprocess
import sys

import pytest

from aglerkit.cli import (
    EXIT_INCONCLUSIVE,
    EXIT_NEGATIVE,
    EXIT_NOFILE,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    main,
)
from aglerkit.pick import NOT_SOLVABLE, SOLVABLE_UNIQUE
from aglerkit.serialize import FORMAT_TAG


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def classic_poly_payload():
    # p = 2 - z1 - z2
    return {
        "polynomial": {
            "bidegree": [1, 1],
            "coeffs": [[[2.0, 0.0], [-1.0, 0.0]], [[-1.0, 0.0], [0.0, 0.0]]],
        }
    }


def interior_zero_payload():
    # p = z1 - 1/2, vanishing inside the bidisk
    return {
        "polynomial": {"bidegree": [1, 0], "coeffs": [[[-0.5, 0.0]], [[1.0, 0.0]]]}
    }


def boundary_line_payload():
    # p = z1 - 1, vanishing only on the boundary line z1 = 1
    return {
        "polynomial": {"bidegree": [1, 0], "coeffs": [[[-1.0, 0.0]], [[1.0, 0.0]]]}
    }


def boundary_cube_payload():
    # p = (2 - z1 - z2)**3, a triple zero at the torus point (1, 1)
    coeffs = [[8.0, -12.0, 6.0, -1.0], [-12.0, 12.0, -3.0, 0.0],
              [6.0, -3.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0]]
    return {
        "polynomial": {
            "bidegree": [3, 3],
            "coeffs": [[[c, 0.0] for c in row] for row in coeffs],
        }
    }


def product_average_smap_payload():
    # F(z1, z2, w) = (z1 z2 + w) / 2 in the flat rational encoding
    return {
        "n": 2,
        "numerator": {"nvars": 3, "terms": {"1,1,0": [0.5, 0.0], "0,0,1": [0.5, 0.0]}},
        "denominator": {"nvars": 3, "terms": {"0,0,0": [1.0, 0.0]}},
    }


def swap_retract_payload():
    # (z1, z2) -> (z2, z1), written with bare polynomial component objects
    return {
        "n": 2,
        "components": [
            {"nvars": 2, "terms": {"0,1": [1.0, 0.0]}},
            {"nvars": 2, "terms": {"1,0": [1.0, 0.0]}},
        ],
    }


def parabola_retract_payload():
    # (z1, z2) -> (z1, z1^2)
    return {
        "n": 2,
        "components": [
            {"type": "polynomial", "data": {"nvars": 2, "terms": {"1,0": [1.0, 0.0]}}},
            {"type": "polynomial", "data": {"nvars": 2, "terms": {"2,0": [1.0, 0.0]}}},
        ],
    }


@pytest.fixture(scope="module")
def classic_certificate(tmp_path_factory):
    """Decompose the classic polynomial once and reuse the certificate file."""
    root = tmp_path_factory.mktemp("cli_cert")
    inp = write_json(root / "classic.json", classic_poly_payload())
    out = root / "cert.json"
    code = main(["decompose", "--input", inp, "--output", str(out)])
    assert code == EXIT_OK
    return out


class TestStability:
    def test_classic_is_stable_exit_0(self, tmp_path, capsys):
        inp = write_json(tmp_path / "p.json", classic_poly_payload())
        assert main(["stability", "--input", inp]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["format"] == FORMAT_TAG
        assert payload["command"] == "stability"
        assert payload["report"]["verdict"] in ("StableOpen", "StableClosedStrict")

    def test_interior_zero_exit_2(self, tmp_path, capsys):
        inp = write_json(tmp_path / "p.json", interior_zero_payload())
        assert main(["stability", "--input", inp]) == EXIT_NEGATIVE
        payload = json.loads(capsys.readouterr().out)
        assert payload["report"]["verdict"] == "ZeroFound"
        assert "witness" in payload["report"]

    def test_boundary_zero_line_exit_0(self, tmp_path, capsys):
        # the slice z1 = 1 vanishes identically, but it lies on the torus
        inp = write_json(tmp_path / "p.json", boundary_line_payload())
        assert main(["stability", "--input", inp]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["report"]["verdict"] == "StableOpen"

    def test_boundary_cube_is_inconclusive_exit_3(self, tmp_path, capsys):
        inp = write_json(tmp_path / "p.json", boundary_cube_payload())
        assert main(["stability", "--input", inp]) == EXIT_INCONCLUSIVE
        payload = json.loads(capsys.readouterr().out)
        assert payload["report"]["verdict"] == "Inconclusive"

    def test_missing_file_exit_66(self, tmp_path):
        assert (
            main(["stability", "--input", str(tmp_path / "absent.json")])
            == EXIT_NOFILE
        )

    def test_junk_payload_exit_64(self, tmp_path):
        inp = write_json(tmp_path / "junk.json", {"nonsense": 1})
        assert main(["stability", "--input", inp]) == EXIT_USAGE

    def test_invalid_json_text_exit_64(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["stability", "--input", str(path)]) == EXIT_USAGE


class TestDecompose:
    def test_classic_certificate_meets_tolerance(self, classic_certificate):
        payload = json.loads(classic_certificate.read_text())
        assert payload["command"] == "decompose"
        assert payload["certificate"]["residual"] <= 1e-8
        assert payload["stability"]["verdict"] in ("StableOpen", "StableClosedStrict")

    def test_constant_one_at_bidegree_11_decomposes_cleanly(self, tmp_path, capsys):
        coeffs = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
        inp = write_json(
            tmp_path / "one.json",
            {"polynomial": {"bidegree": [1, 1], "coeffs": coeffs}},
        )
        assert main(["decompose", "--input", inp]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["certificate"]["residual"] <= 1e-12

    def test_constant_at_bidegree_00_gives_empty_certificate(self, tmp_path, capsys):
        inp = write_json(
            tmp_path / "one.json",
            {"polynomial": {"bidegree": [0, 0], "coeffs": [[[1.0, 0.0]]]}},
        )
        assert main(["decompose", "--input", inp]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["certificate"]["residual"] <= 1e-12
        assert payload["certificate"]["G_A"] == []
        assert payload["stability"]["min_root_modulus"] is None

    def test_unstable_input_gated_before_solving(self, tmp_path, capsys):
        inp = write_json(tmp_path / "bad.json", interior_zero_payload())
        assert main(["decompose", "--input", inp]) == EXIT_NEGATIVE
        payload = json.loads(capsys.readouterr().out)
        assert payload["stability"]["verdict"] == "ZeroFound"
        assert "certificate" not in payload

    def test_boundary_zero_line_certifies_and_verifies(self, tmp_path):
        inp = write_json(tmp_path / "p.json", boundary_line_payload())
        out = tmp_path / "cert.json"
        assert main(["decompose", "--input", inp, "--output", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["stability"]["verdict"] == "StableOpen"
        report = str(tmp_path / "verify.json")
        assert main(["verify", "--input", str(out), "--output", report]) == EXIT_OK

    def test_iteration_budget_running_out_is_inconclusive_exit_3(self, tmp_path, capsys):
        # the cube has a certificate; stopping at --max-iter proves nothing
        inp = write_json(tmp_path / "p.json", boundary_cube_payload())
        out = tmp_path / "cert.json"
        code = main(["decompose", "--input", inp, "--max-iter", "300", "--output", str(out)])
        assert code == EXIT_INCONCLUSIVE
        assert "best residual" in capsys.readouterr().err
        assert not out.exists()


class TestVerify:
    def test_round_trip_passes(self, classic_certificate, tmp_path, capsys):
        code = main(["verify", "--input", str(classic_certificate)])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["verification"]["passed"] is True
        assert payload["verification"]["identity1_max"] <= 1e-6
        assert payload["verification"]["cs_max_violation"] <= 1e-8
        assert payload["bounds"]["passed"] is True

    def test_corrupted_certificate_fails_with_witness(
        self, classic_certificate, tmp_path, capsys
    ):
        payload = json.loads(classic_certificate.read_text())
        payload["certificate"]["G_A"][0][0][0] += 0.05
        bad = write_json(tmp_path / "corrupt.json", payload)
        assert main(["verify", "--input", bad]) == EXIT_VERIFY_FAILED
        report = json.loads(capsys.readouterr().out)
        assert report["verification"]["passed"] is False
        assert report["verification"]["identity1_max"] > 1e-6
        assert report["verification"]["witnesses"]

    def test_tol_reaches_the_bounds_check(self, classic_certificate, capsys):
        code = main(["verify", "--input", str(classic_certificate), "--tol", "1e-7"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["verification"]["tol"] == 1e-7
        assert payload["bounds"]["tol"] == 1e-7

    def test_zero_samples_is_a_usage_error(self, classic_certificate):
        code = main(
            ["verify", "--input", str(classic_certificate), "--samples", "0"]
        )
        assert code == EXIT_USAGE


class TestPick:
    def test_identity_data_solvable_unique(self, tmp_path, capsys):
        inp = write_json(
            tmp_path / "pick.json",
            {"nodes": [[0.0, 0.0], [0.5, 0.0]], "targets": [[0.0, 0.0], [0.5, 0.0]]},
        )
        assert main(["pick", "--input", inp]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == SOLVABLE_UNIQUE
        assert payload["max_defect"] <= 1e-9
        assert "interpolant" in payload

    def test_schwarz_violation_not_solvable_exit_2(self, tmp_path, capsys):
        inp = write_json(
            tmp_path / "pick.json",
            {"nodes": [[0.0, 0.0], [0.5, 0.0]], "targets": [[0.0, 0.0], [0.9, 0.0]]},
        )
        assert main(["pick", "--input", inp]) == EXIT_NEGATIVE
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == NOT_SOLVABLE
        assert payload["min_eig"] < 0
        assert "interpolant" not in payload


class TestFixedgraph:
    def test_product_average_graph_exit_0(self, tmp_path):
        inp = write_json(tmp_path / "smap.json", product_average_smap_payload())
        out = tmp_path / "graph.json"
        code = main(["fixedgraph", "--input", inp, "--output", str(out)])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["verdict"] == "graph"
        assert payload["schur_check"]["passed"] is True
        assert payload["graph"]["provenance"]["max_residual"] <= 1e-9
        assert payload["graph"]["provenance"]["slice_pick_min_eig"] >= -1e-8
        assert payload["fixed_points"][0]["classification"] == "interior"

    def test_tol_reaches_the_graph(self, tmp_path, capsys):
        inp = write_json(tmp_path / "smap.json", product_average_smap_payload())
        code = main(["fixedgraph", "--input", inp, "--grid", "5", "--tol", "1e-10"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["graph"]["provenance"]["tol"] == 1e-10

    def test_boundary_attractor_exit_2(self, tmp_path, capsys):
        # F(z, w) = (1 + w)/2 has no interior fixed point
        inp = write_json(
            tmp_path / "smap.json",
            {
                "n": 1,
                "numerator": {
                    "nvars": 2,
                    "terms": {"0,0": [0.5, 0.0], "0,1": [0.5, 0.0]},
                },
            },
        )
        assert main(["fixedgraph", "--input", inp]) == EXIT_NEGATIVE
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "no_interior_fixed_point"


class TestRetract:
    def test_swap_map_exit_2(self, tmp_path):
        inp = write_json(tmp_path / "swap.json", swap_retract_payload())
        assert main(["retract", "--input", inp]) == EXIT_NEGATIVE

    def test_parabola_normal_form_exit_0(self, tmp_path):
        inp = write_json(tmp_path / "rho.json", parabola_retract_payload())
        out = tmp_path / "nf.json"
        code = main(["retract", "--input", inp, "--output", str(out)])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        form = payload["normal_form"]
        assert form["k"] == 1
        assert form["e_sources"] == []
        assert len(form["f_components"]) == 1
        assert form["diagnostics"]["normal_form_residual"] <= 1e-8


class TestUsageAndDeterminism:
    def test_no_subcommand_exit_64(self):
        assert main([]) == EXIT_USAGE

    def test_unknown_flag_exit_64(self, tmp_path):
        inp = write_json(tmp_path / "p.json", classic_poly_payload())
        assert main(["stability", "--input", inp, "--bogus"]) == EXIT_USAGE

    def test_missing_required_input_flag_exit_64(self):
        assert main(["stability"]) == EXIT_USAGE

    def test_failed_run_leaves_no_output_file(self, tmp_path):
        inp = write_json(tmp_path / "junk.json", {"nonsense": 1})
        out = tmp_path / "never.json"
        assert main(["stability", "--input", inp, "--output", str(out)]) == EXIT_USAGE
        assert not out.exists()

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        inp = write_json(tmp_path / "p.json", classic_poly_payload())
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        for out in (first, second):
            assert main(["decompose", "--input", inp, "--output", str(out)]) == EXIT_OK
        assert first.read_bytes() == second.read_bytes()

    def test_stdout_reports_are_byte_identical(self, tmp_path, capsys):
        inp = write_json(tmp_path / "smap.json", product_average_smap_payload())
        assert main(["fixedgraph", "--input", inp]) == EXIT_OK
        first = capsys.readouterr().out
        assert main(["fixedgraph", "--input", inp]) == EXIT_OK
        second = capsys.readouterr().out
        assert first == second

    def test_thread_env_var_tolerated(self, tmp_path, monkeypatch, capsys):
        inp = write_json(tmp_path / "p.json", classic_poly_payload())
        monkeypatch.setenv("AGLERKIT_THREADS", "not-a-number")
        assert main(["stability", "--input", inp]) == EXIT_OK
        monkeypatch.setenv("AGLERKIT_THREADS", "2")
        assert main(["stability", "--input", inp]) == EXIT_OK

    def test_console_entry_point_runs(self, tmp_path):
        inp = write_json(tmp_path / "p.json", classic_poly_payload())
        proc = subprocess.run(
            [sys.executable, "-m", "aglerkit.cli", "stability", "--input", inp],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_OK
        assert json.loads(proc.stdout)["command"] == "stability"
