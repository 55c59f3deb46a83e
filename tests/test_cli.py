"""End-to-end tests of the command line interface and its exit-code contract."""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from aglerkit import cli
from aglerkit.cli import (
    EXIT_INCONCLUSIVE,
    EXIT_NEGATIVE,
    EXIT_NOFILE,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    build_parser,
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


def boundary_square_payload():
    # p = (2 - z1 - z2)**2, a double zero at (1, 1): only a contracted warm start certifies it
    coeffs = [[4.0, -4.0, 1.0], [-4.0, 2.0, 0.0], [1.0, 0.0, 0.0]]
    return {
        "polynomial": {
            "bidegree": [2, 2],
            "coeffs": [[[c, 0.0] for c in row] for row in coeffs],
        }
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


def boundary_attractor_smap_payload():
    # F(z, w) = (1 + w)/2 has no interior fixed point
    return {
        "n": 1,
        "numerator": {"nvars": 2, "terms": {"0,0": [0.5, 0.0], "0,1": [0.5, 0.0]}},
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

    def test_unwritable_output_exit_66_names_the_path(self, tmp_path, capsys):
        # a missing directory and a path through a file both exit 66, with no traceback
        inp = write_json(tmp_path / "p.json", classic_poly_payload())
        for out in (tmp_path / "nodir" / "r.json", tmp_path / "p.json" / "r.json"):
            assert main(["stability", "--input", inp, "--output", str(out)]) == EXIT_NOFILE
            captured = capsys.readouterr()
            assert str(out.parent) in captured.err and "Traceback" not in captured.err

    def test_junk_payload_exit_64(self, tmp_path):
        inp = write_json(tmp_path / "junk.json", {"nonsense": 1})
        assert main(["stability", "--input", inp]) == EXIT_USAGE

    def test_invalid_json_text_exit_64(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["stability", "--input", str(path)]) == EXIT_USAGE

    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
    def test_tol_not_finite_and_positive_exit_64(self, tmp_path, capsys, tol):
        # a negative tol reads the stable 2 - z1 - z2 as inconclusive (exit 3),
        # and nan lets z1 - 1/2 pass as stable; checked before the input
        for name, payload in (("p", classic_poly_payload()), ("bad", interior_zero_payload())):
            inp = write_json(tmp_path / (name + ".json"), payload)
            assert main(["stability", "--input", inp, "--tol", tol]) == EXIT_USAGE
        assert main(["stability", "--input", str(tmp_path / "absent.json"),
                     "--tol", tol]) == EXIT_USAGE
        assert capsys.readouterr().out == ""


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
        assert payload["stability"]["verdict"] == "StableClosedStrict"
        assert "min_root_modulus" not in payload["stability"]

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

    @pytest.mark.parametrize(
        "flags", [["--max-iter", "0"], ["--max-iter", "-5"], ["--tol", "0"], ["--tol", "-1e-9"],
                  ["--tol", "nan"], ["--tol", "inf"]]
    )
    def test_bad_budget_or_tolerance_exit_64(self, tmp_path, capsys, flags):
        # checked before the input is read, so an unstable input exits 64 too
        for name, payload in (("p", classic_poly_payload()), ("bad", interior_zero_payload())):
            inp = write_json(tmp_path / (name + ".json"), payload)
            assert main(["decompose", "--input", inp] + flags) == EXIT_USAGE
        assert capsys.readouterr().out == ""

    def test_lapack_failure_is_inconclusive_exit_3(self, tmp_path, monkeypatch, capsys):
        # LinAlgError subclasses ValueError, which would otherwise read as bad input
        def failing_lstsq(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")

        square = write_json(tmp_path / "square.json", boundary_square_payload())
        monkeypatch.setattr(np.linalg, "lstsq", failing_lstsq)
        # a failed polish step ends each warm start, so none is accepted
        assert main(["decompose", "--input", square, "--max-iter", "200"]) == EXIT_INCONCLUSIVE
        assert "best residual" in capsys.readouterr().err

        inp = write_json(tmp_path / "p.json", classic_poly_payload())

        def solve_calling_lstsq(*args, **kwargs):
            return failing_lstsq()

        # a LAPACK failure that escapes the solver is inconclusive too
        monkeypatch.setattr(cli, "solve_gram", solve_calling_lstsq)
        assert main(["decompose", "--input", inp]) == EXIT_INCONCLUSIVE
        assert "SVD did not converge" in capsys.readouterr().err


class TestVerify:
    def test_round_trip_passes(self, classic_certificate, tmp_path, capsys):
        code = main(["verify", "--input", str(classic_certificate)])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["verification"]["passed"] is True
        assert payload["verification"]["identity1_max"] <= 1e-6
        assert payload["verification"]["cs_max_violation"] <= 1e-8
        assert payload["bounds"]["passed"] is True

    def test_unreadable_input_exit_66_names_the_path(self, classic_certificate, capsys):
        # a path through a file (NotADirectoryError) and a directory both exit 66,
        # not 1, which would read as a failed verification
        for path in (str(classic_certificate / "x"), str(classic_certificate.parent)):
            assert main(["verify", "--input", path]) == EXIT_NOFILE
            captured = capsys.readouterr()
            assert path in captured.err and "Traceback" not in captured.err
            assert captured.out == ""

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

    def test_p_tilde_that_is_not_the_reflection_of_p_exit_64(self, classic_certificate, tmp_path, capsys):
        # verify recomputes p~ from p, so a stored p_tilde unlike it is refused, not ignored
        genuine = json.loads(classic_certificate.read_text())
        tampered = json.loads(classic_certificate.read_text())
        tampered["certificate"]["p_tilde"]["coeffs"][0][0][0] += 5.0
        assert main(["verify", "--input", write_json(tmp_path / "genuine.json", genuine)]) == EXIT_OK
        capsys.readouterr()
        assert main(["verify", "--input", write_json(tmp_path / "tampered.json", tampered)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert "p_tilde" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("key", ["A_polys", "B_polys"])
    def test_factors_that_do_not_factor_the_grams_exit_64(self, classic_certificate, tmp_path, capsys, key):
        # the kernels are built from G_A and G_B, so stored factors unlike them are refused, not ignored
        tampered = json.loads(classic_certificate.read_text())
        tampered["certificate"][key][0]["coeffs"][0][0][0] += 5.0
        assert main(["verify", "--input", write_json(tmp_path / "tampered.json", tampered)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert key in captured.err
        assert captured.out == ""

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

    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
    def test_tol_not_finite_and_positive_exit_64(self, classic_certificate, capsys, tol):
        # a negative tol fails a good certificate (exit 1); checked before the input
        assert main(["verify", "--input", str(classic_certificate)]) == EXIT_OK
        capsys.readouterr()
        assert main(["verify", "--input", str(classic_certificate), "--tol", tol]) == EXIT_USAGE
        assert capsys.readouterr().out == ""


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

    @staticmethod
    def blaschke_payload():
        # data of a degree-2 Blaschke product: the Pick matrix is singular
        nodes = 0.6 * np.exp(2j * np.pi * np.arange(5) / 5) * (0.5 + 0.1 * np.arange(5))
        a = 0.3 + 0.2j
        targets = nodes * (nodes - a) / (1 - np.conj(a) * nodes)
        return {
            "nodes": [[z.real, z.imag] for z in nodes],
            "targets": [[z.real, z.imag] for z in targets],
        }

    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
    def test_tol_not_finite_and_positive_exit_64(self, tmp_path, capsys, tol):
        # a negative tol reads the Blaschke data as not solvable (exit 2);
        # checked before the input
        inp = write_json(tmp_path / "pick.json", self.blaschke_payload())
        assert main(["pick", "--input", inp]) == EXIT_OK
        capsys.readouterr()
        assert main(["pick", "--input", inp, "--tol", tol]) == EXIT_USAGE
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("tol", [-1.0, 0.0, float("nan"), float("inf")])
    def test_file_tol_not_finite_and_positive_exit_64(self, tmp_path, capsys, tol):
        # without the check, tol -1 read the Blaschke data as not solvable (exit 2)
        # and nan as Solvable instead of SolvableUnique
        inp = write_json(tmp_path / "pick.json", {**self.blaschke_payload(), "tol": tol})
        assert main(["pick", "--input", inp]) == EXIT_USAGE
        assert capsys.readouterr().out == ""
        # the flag overrides the file's value
        assert main(["pick", "--input", inp, "--tol", "1e-9"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["verdict"] == SOLVABLE_UNIQUE

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
        inp = write_json(tmp_path / "smap.json", boundary_attractor_smap_payload())
        assert main(["fixedgraph", "--input", inp]) == EXIT_NEGATIVE
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "no_interior_fixed_point"

    def test_map_under_a_rational_key_exit_64(self, tmp_path, capsys):
        # the map's numerator and denominator sit at the top level of the payload
        payload = product_average_smap_payload()
        nested = {"n": payload["n"], "rational": {k: payload[k] for k in ("numerator", "denominator")}}
        inp = write_json(tmp_path / "smap.json", nested)
        assert main(["fixedgraph", "--input", inp]) == EXIT_USAGE
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "flags", [["--samples", "0"], ["--radius", "1.5"], ["--radius", "-0.5"]]
    )
    def test_out_of_range_flags_exit_64(self, tmp_path, capsys, flags):
        inp = write_json(tmp_path / "smap.json", product_average_smap_payload())
        assert main(["fixedgraph", "--input", inp] + flags) == EXIT_USAGE
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("flags", [["--radius", "1.5"], ["--grid", "0"]])
    def test_grid_flags_checked_before_the_map_exit_64(self, tmp_path, capsys, flags):
        # a map with no interior fixed point never reaches the graph
        inp = write_json(tmp_path / "smap.json", boundary_attractor_smap_payload())
        assert main(["fixedgraph", "--input", inp] + flags) == EXIT_USAGE
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
    def test_tol_not_finite_and_positive_exit_64(self, tmp_path, capsys, tol):
        # a negative tol fails every Newton solve, a false "no fixed point"
        # (exit 2), and 0 fails the graph solve (exit 3); checked before the map
        for name, payload in (("graph", product_average_smap_payload()),
                              ("boundary", boundary_attractor_smap_payload())):
            inp = write_json(tmp_path / (name + ".json"), payload)
            assert main(["fixedgraph", "--input", inp, "--tol", tol]) == EXIT_USAGE
        assert capsys.readouterr().out == ""


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

    def test_conjugation_lists_one_entry_per_coordinate(self, tmp_path):
        # (z1, z2) -> (-z2, z2): the copy in slot 1 carries the map w -> -w
        payload = {
            "n": 2,
            "components": [
                {"nvars": 2, "terms": {"0,1": [-1.0, 0.0]}},
                {"nvars": 2, "terms": {"0,1": [1.0, 0.0]}},
            ],
        }
        out = tmp_path / "nf.json"
        assert main(["retract", "--input", write_json(tmp_path / "rho.json", payload),
                     "--output", str(out)]) == EXIT_OK
        conjugation = json.loads(out.read_text())["normal_form"]["conjugation"]
        assert conjugation["order"] == [1, 0]
        assert conjugation["moebius"][0] is None
        assert sorted(conjugation["moebius"][1]) == ["factor", "point"]

    def test_zero_samples_exit_64(self, tmp_path, capsys):
        # (z1, (z1 + z2) / 2) is not idempotent: the default run exits 2
        inp = write_json(
            tmp_path / "rho.json",
            {
                "n": 2,
                "components": [
                    {"nvars": 2, "terms": {"1,0": [1.0, 0.0]}},
                    {"nvars": 2, "terms": {"1,0": [0.5, 0.0], "0,1": [0.5, 0.0]}},
                ],
            },
        )
        assert main(["retract", "--input", inp]) == EXIT_NEGATIVE
        assert main(["retract", "--input", inp, "--samples", "0"]) == EXIT_USAGE
        assert capsys.readouterr().out == ""

    def test_radius_outside_unit_interval_exit_64(self, tmp_path):
        inp = write_json(tmp_path / "rho.json", parabola_retract_payload())
        for radius in ("1.5", "-0.5"):
            assert main(["retract", "--input", inp, "--radius", radius]) == EXIT_USAGE

    def test_grid_below_one_exit_64(self, tmp_path, capsys):
        # the constant map needs no grid solve, the identity only disk_points
        constant = {"n": 1, "components": [
            {"type": "polynomial", "data": {"nvars": 1, "terms": {"0": [0.3, 0.0]}}}]}
        identity = {"n": 1, "components": [
            {"type": "polynomial", "data": {"nvars": 1, "terms": {"1": [1.0, 0.0]}}}]}
        for name, payload in (("constant", constant), ("identity", identity)):
            inp = write_json(tmp_path / (name + ".json"), payload)
            assert main(["retract", "--input", inp]) == EXIT_OK
            capsys.readouterr()
            for grid in ("0", "-3"):
                assert main(["retract", "--input", inp, "--grid", grid]) == EXIT_USAGE
            assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
    def test_tol_not_finite_and_positive_exit_64(self, tmp_path, capsys, tol):
        # (z1, 0.5 z1^2 + (0.3 + 0.1i) z1) is idempotent; a negative tol
        # would read it as leaving the polydisk (exit 2)
        idempotent = {"n": 2, "components": [
            {"nvars": 2, "terms": {"1,0": [1.0, 0.0]}},
            {"nvars": 2, "terms": {"2,0": [0.5, 0.0], "1,0": [0.3, 0.1]}}]}
        for name, payload in (("parabola", parabola_retract_payload()), ("idem", idempotent)):
            inp = write_json(tmp_path / (name + ".json"), payload)
            assert main(["retract", "--input", inp]) == EXIT_OK
            capsys.readouterr()
            assert main(["retract", "--input", inp, "--tol", tol]) == EXIT_USAGE
        assert capsys.readouterr().out == ""


def with_literal(path, payload, literal):
    """Write payload as JSON with each "@" string replaced by a bare number literal."""
    path.write_text(json.dumps(payload).replace('"@"', literal))
    return str(path)


class TestNonFiniteInput:
    """Python's json reads NaN, Infinity and 1e999 (as inf); input pairs refuse them."""

    LITERALS = ["NaN", "Infinity", "1e999"]

    @staticmethod
    def refused(argv, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert "non-finite" in captured.err

    @pytest.mark.parametrize("literal", LITERALS)
    def test_retract_coefficient_exit_64(self, tmp_path, capsys, literal):
        payload = parabola_retract_payload()
        payload["components"][1]["data"]["terms"]["2,0"] = ["@", 0.0]
        self.refused(["retract", "--input", with_literal(tmp_path / "rho.json", payload, literal)], capsys)

    @pytest.mark.parametrize("literal", LITERALS)
    def test_fixedgraph_coefficient_exit_64(self, tmp_path, capsys, literal):
        payload = product_average_smap_payload()
        payload["numerator"]["terms"]["1,1,0"] = [0.5, "@"]
        self.refused(["fixedgraph", "--input", with_literal(tmp_path / "smap.json", payload, literal)], capsys)

    @pytest.mark.parametrize("literal", LITERALS)
    def test_pick_node_exit_64(self, tmp_path, capsys, literal):
        payload = {"nodes": [[0.0, 0.0], ["@", 0.0]], "targets": [[0.0, 0.0], [0.5, 0.0]]}
        self.refused(["pick", "--input", with_literal(tmp_path / "pick.json", payload, literal)], capsys)

    @pytest.mark.parametrize("key, literal", [("residual", "NaN"), ("residual", "Infinity"),
                                              ("residual", "1e999"), ("tol", "NaN")])
    def test_certificate_residual_or_tol_exit_64(self, classic_certificate, tmp_path, capsys, key, literal):
        payload = json.loads(classic_certificate.read_text())
        payload["certificate"][key] = "@"
        inp = with_literal(tmp_path / "cert.json", payload, literal)
        code = main(["verify", "--input", inp])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert "finite" in captured.err


def readme_synopsis():
    """Subcommand -> set of flags, from the README "Command line" code block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    synopsis = {}
    for line in block.strip().splitlines():
        words = line.split()
        assert words[0] == "aglerkit"
        synopsis[words[1]] = set(re.findall(r"--[a-z-]+", line))
    return synopsis


class TestUsageAndDeterminism:
    def test_readme_synopsis_lists_every_flag(self):
        subparsers = next(
            action
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        flags = {
            name: {
                option
                for action in sub._actions
                for option in action.option_strings
                if option.startswith("--") and option != "--help"
            }
            for name, sub in subparsers.choices.items()
        }
        assert readme_synopsis() == flags

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
        # the child imports the package under test, also when pytest alone put it on sys.path
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "aglerkit.cli", "stability", "--input", inp],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == EXIT_OK
        assert json.loads(proc.stdout)["command"] == "stability"
