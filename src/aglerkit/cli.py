"""Command line interface.

Every subcommand reads a JSON input file, runs one pipeline from the
library, and emits a canonical JSON report either to --output (written
atomically) or to stdout.  Outputs carry no timestamps and all random
draws are seeded, so rerunning a command with the same inputs produces a
byte-identical file.  decompose draws nothing: its --seed is only recorded
in the certificate.

Exit codes:
    0   success (verdict favorable)
    1   a verification check failed
    2   definitive negative: zero found, not solvable, not idempotent,
        or structurally inconsistent input
    3   inconclusive or degenerate (no verdict either way), including a
        Gram solve whose every warm start, and the widened pair, stays
        above --tol, and a LAPACK failure
    64  command line usage error or malformed input, including a certificate
        whose p_tilde is not p's reflection or, when its checks pass, whose
        A_polys or B_polys do not factor G_A or G_B
    66  input file missing or unreadable, or output file not writable
        (the message names the path)
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .errors import (
    DegenerateContinuationError,
    DomainError,
    InconsistencyError,
    InfeasibleError,
    NotSolvableError,
)
from .fixedgraph import CLASS_INTERIOR, SchurMap, continue_graph, find_fixed_w
from .kernels import KernelBundle, check_bounds, verify_decomposition
from .pick import NOT_SOLVABLE, PickProblem, is_solvable, solve
from .poly2 import BivariatePolynomial
from .retract import RetractMap, normal_form
from .serialize import FORMAT_TAG, canonical_dumps, load_json, write_json_atomic
from .sos import SosCertificate, gram_from_factors, solve_gram
from .stability import INCONCLUSIVE, ZERO_FOUND, check_stability

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_NEGATIVE = 2
EXIT_INCONCLUSIVE = 3
EXIT_USAGE = 64
EXIT_NOFILE = 66


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with code 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("%s: error: %s\n" % (self.prog, message))
        raise SystemExit(EXIT_USAGE)


def _emit(payload, output):
    text_ready = dict(payload)
    text_ready["format"] = FORMAT_TAG
    if output:
        write_json_atomic(output, text_ready)
    else:
        sys.stdout.write(canonical_dumps(text_ready))


def _polynomial_from(payload):
    if isinstance(payload, dict) and "polynomial" in payload:
        payload = payload["polynomial"]
    return BivariatePolynomial.from_json(payload)


def _require_tol(tol):
    """A --tol that is not finite and positive is a usage error, before any work."""
    if not 0.0 < tol < np.inf:
        raise ValueError("--tol must be finite and positive")


def _cmd_stability(args):
    _require_tol(args.tol)
    payload = load_json(args.input)
    p = _polynomial_from(payload)
    disk_grid = max(8, int(args.grid) // 8)
    report = check_stability(
        p, torus_grid=int(args.grid), disk_grid=disk_grid, tol=args.tol
    )
    _emit({"command": "stability", "report": report.to_json()}, args.output)
    if report.verdict == ZERO_FOUND:
        return EXIT_NEGATIVE
    if report.verdict == INCONCLUSIVE:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _cmd_decompose(args):
    if int(args.max_iter) < 1:
        raise ValueError("--max-iter must be positive")
    _require_tol(args.tol)
    payload = load_json(args.input)
    p = _polynomial_from(payload)
    pre = check_stability(p, torus_grid=128, disk_grid=16, tol=args.tol)
    if pre.verdict == ZERO_FOUND:
        _emit(
            {"command": "decompose", "stability": pre.to_json()},
            args.output,
        )
        return EXIT_NEGATIVE
    cert = solve_gram(
        p, tol=args.tol, max_iter=int(args.max_iter), seed=int(args.seed)
    )
    _emit(
        {
            "command": "decompose",
            "stability": pre.to_json(),
            "certificate": cert.to_json(),
        },
        args.output,
    )
    return EXIT_OK


def _require_factors_of_grams(cert):
    """ValueError unless A_polys and B_polys factor G_A and G_B up to rounding.

    An entry of sum_k a_k a_k* may differ from the stored Gram by at most
    8 (r + 2) eps max_i (sum_k |a_k|^2)_ii for r factors, which covers the
    rounding of the solver's two products of the same factors.
    """
    n, m = cert.p.bidegree
    for name, polys, gram, degrees in (("A_polys", cert.a_polys, cert.gram_a, (n - 1, m)),
                                       ("B_polys", cert.b_polys, cert.gram_b, (n, m - 1))):
        rebuilt = gram_from_factors(polys, *degrees)
        bound = 8 * (len(polys) + 2) * np.finfo(float).eps * np.max(rebuilt.diagonal().real, initial=0.0)
        if not np.all(np.abs(rebuilt - gram) <= bound):
            raise ValueError("%s do not factor G_%s within the rounding bound %.1e" % (name, name[0], bound))


def _cmd_verify(args):
    if int(args.samples) < 1:
        raise ValueError("samples must be a positive integer")
    _require_tol(args.tol)
    payload = load_json(args.input)
    if isinstance(payload, dict) and "certificate" in payload:
        payload = payload["certificate"]
    cert = SosCertificate.from_json(payload)
    bundle = KernelBundle.from_certificate(cert)
    report = verify_decomposition(
        bundle, samples=int(args.samples), seed=int(args.seed), tol=args.tol
    )
    bounds = check_bounds(
        bundle, samples=int(args.samples), seed=int(args.seed) + 1, tol=args.tol
    )
    if report.passed and bounds.passed:  # the Grams certify p, so their stored factors must be theirs
        _require_factors_of_grams(cert)
    _emit(
        {
            "command": "verify",
            "verification": report.to_json(),
            "bounds": bounds.to_json(),
        },
        args.output,
    )
    return EXIT_OK if (report.passed and bounds.passed) else EXIT_VERIFY_FAILED


def _cmd_pick(args):
    if args.tol is not None:
        _require_tol(args.tol)
    payload = load_json(args.input)
    if args.tol is not None:
        payload = {**payload, "tol": args.tol}
    problem = PickProblem.from_json(payload)
    verdict, min_eig = is_solvable(problem)
    result = {"command": "pick", "verdict": verdict, "min_eig": min_eig}
    if verdict == NOT_SOLVABLE:
        _emit(result, args.output)
        return EXIT_NEGATIVE
    interpolant = solve(problem)
    defect = max(
        abs(interpolant(node) - target)
        for node, target in zip(problem.nodes, problem.targets)
    )
    result["interpolant"] = interpolant.to_json()
    result["max_defect"] = float(defect)
    _emit(result, args.output)
    return EXIT_OK


def _cmd_fixedgraph(args):
    if not 0.0 < args.radius <= 1.0 or int(args.grid) < 1:
        raise ValueError("--radius must lie in (0, 1] and --grid must be positive")
    _require_tol(args.tol)
    payload = load_json(args.input)
    smap = SchurMap.from_json(payload)
    schur_report = smap.check_schur(samples=int(args.samples), seed=int(args.seed))
    records = find_fixed_w(smap, [0.0] * smap.n, tol=args.tol)
    interior = [r for r in records if r.classification == CLASS_INTERIOR]
    result = {
        "command": "fixedgraph",
        "schur_check": schur_report,
        "fixed_points": [r.to_json() for r in records],
    }
    if not interior:
        result["verdict"] = "no_interior_fixed_point"
        _emit(result, args.output)
        return EXIT_NEGATIVE
    graph = continue_graph(
        smap,
        interior[0],
        radius=args.radius,
        grid=int(args.grid),
        tol=args.tol,
        seed=int(args.seed) + 1,
    )
    result["verdict"] = "graph"
    result["graph"] = graph.to_json()
    _emit(result, args.output)
    return EXIT_OK


def _cmd_retract(args):
    payload = load_json(args.input)
    rho = RetractMap.from_json(payload)
    form = normal_form(
        rho,
        tol=args.tol,
        grid=int(args.grid),
        radius=args.radius,
        seed=int(args.seed),
        samples=int(args.samples),
    )
    _emit({"command": "retract", "normal_form": form.to_json()}, args.output)
    return EXIT_OK


def build_parser():
    parser = _Parser(
        prog="aglerkit",
        description=(
            "Certified Agler decompositions on the bidisk: stability, "
            "sum-of-squares certificates, kernel verification, Pick "
            "interpolation, fixed-point graphs, retract normal forms."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")
    sub.required = True

    def common(p, tol):
        p.add_argument("--input", required=True, help="path to the JSON input")
        p.add_argument("--output", default=None, help="write the report here (default stdout)")
        p.add_argument("--tol", type=float, default=tol, help="tolerance")

    p_stab = sub.add_parser("stability", help="zero-free verdict on the closed bidisk")
    common(p_stab, tol=1e-9)
    p_stab.add_argument("--grid", type=int, default=512,
                        help="torus grid per axis of min_modulus, the strict torus bound and the slice scan")
    p_stab.set_defaults(handler=_cmd_stability)

    p_dec = sub.add_parser("decompose", help="sum-of-squares Gram certificate")
    common(p_dec, tol=1e-9)
    p_dec.add_argument(
        "--seed", type=int, default=42, help="recorded in the certificate; draws nothing"
    )
    p_dec.add_argument(
        "--max-iter", type=int, default=200000,
        help="Gauss-Newton step cap per polish, except of p's own pair (at most 100)",
    )
    p_dec.set_defaults(handler=_cmd_decompose)

    p_ver = sub.add_parser("verify", help="recheck a certificate by sampling")
    common(p_ver, tol=1e-9)
    p_ver.add_argument("--seed", type=int, default=1234, help="random seed")
    p_ver.add_argument("--samples", type=int, default=500, help="sample pairs")
    p_ver.set_defaults(handler=_cmd_verify)

    p_pick = sub.add_parser("pick", help="Nevanlinna-Pick solvability and interpolant")
    common(p_pick, tol=None)
    p_pick.set_defaults(handler=_cmd_pick)

    p_fg = sub.add_parser("fixedgraph", help="fixed-point graph of a Schur-class map")
    common(p_fg, tol=1e-12)
    p_fg.add_argument("--seed", type=int, default=1914, help="random seed")
    p_fg.add_argument("--samples", type=int, default=200, help="Schur check samples")
    p_fg.add_argument("--grid", type=int, default=20, help="nodes per axis")
    p_fg.add_argument("--radius", type=float, default=0.9, help="grid radius")
    p_fg.set_defaults(handler=_cmd_fixedgraph)

    p_ret = sub.add_parser("retract", help="normal form of an idempotent self-map")
    common(p_ret, tol=1e-9)
    p_ret.add_argument("--seed", type=int, default=23, help="random seed")
    p_ret.add_argument("--samples", type=int, default=400,
                       help="samples for the modulus fallback and for idempotence of rational or large maps")
    p_ret.add_argument("--grid", type=int, default=12, help="nodes per free axis")
    p_ret.add_argument("--radius", type=float, default=0.85, help="grid radius")
    p_ret.set_defaults(handler=_cmd_retract)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_OK
    try:
        return args.handler(args)
    except OSError as exc:  # reading --input or writing --output; names the path
        sys.stderr.write("cannot open file: %s\n" % exc)
        return EXIT_NOFILE
    except (NotSolvableError, InconsistencyError, DomainError) as exc:
        sys.stderr.write("%s\n" % exc)
        return EXIT_NEGATIVE
    except (DegenerateContinuationError, InfeasibleError, np.linalg.LinAlgError) as exc:
        sys.stderr.write("%s\n" % exc)
        return EXIT_INCONCLUSIVE
    except (KeyError, ValueError, TypeError) as exc:
        sys.stderr.write("malformed input: %s\n" % exc)
        return EXIT_USAGE


def entry():
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
