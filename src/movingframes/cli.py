"""Command-line interface.

Subcommands:
    gen-full       enumerate every operator for a given n
    gen-min        build the minimal balanced set for a given n
    check-balance  exact balance verdict for a stored operator set
    check-funtf    numerical moving-frame certification
    matrix         print the pairing matrix
    demo-erasure   compare erasure robustness of a frame against a basis

Exit codes: 0 success / verdict true, 1 verdict false, 2 usage error,
3 malformed input document.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .balance import build_minimal_balanced, build_pairing_matrix, is_balanced
from .documents import DocumentError, document_dict, read_document
from .framecheck import (DEFAULT_NUM_SAMPLES, DEFAULT_TIGHTNESS_TOL,
                         operator_images, reconstruct, verify_moving_funtf,
                         witness_unbalanced)
from .operators import DEFAULT_ENUMERATION_CAP, enumerate_full
from .sphere import project_tangent, sample_sphere, tangent_basis

EXIT_OK = 0
EXIT_VERDICT_FALSE = 1
EXIT_USAGE = 2
EXIT_MALFORMED = 3


def _emit_text(text: str, output: str | None) -> None:
    if output is None or output == "-":
        sys.stdout.write(text)
    else:
        try:
            Path(output).write_text(text, encoding="utf-8")
        except OSError as exc:  # a usage error (exit 2), never a verdict
            raise ValueError(f"cannot write {output}: {exc.strerror}") from exc


def _emit(payload, output: str | None) -> None:
    _emit_text(json.dumps(payload, indent=2) + "\n", output)


def cmd_gen_full(args) -> int:
    try:
        a_set = enumerate_full(args.n, cap=args.cap_override)
    except ValueError as exc:
        hint = " (see --cap-override)" if args.n > args.cap_override else ""
        print(f"error: {exc}{hint}", file=sys.stderr)
        return EXIT_USAGE
    _emit(document_dict(a_set, generator="full-enumeration",
                        timestamp=not args.no_timestamp), args.output)
    return EXIT_OK


def cmd_gen_min(args) -> int:
    a_set = build_minimal_balanced(args.n)
    _emit(document_dict(a_set, generator="theorem-3.4",
                        timestamp=not args.no_timestamp), args.output)
    return EXIT_OK


def cmd_check_balance(args) -> int:
    a_set = read_document(args.file)
    report = is_balanced(a_set)
    _emit(report.to_dict(), args.output)
    return EXIT_OK if report.balanced else EXIT_VERDICT_FALSE


def cmd_check_funtf(args) -> int:
    a_set = read_document(args.file)
    report = verify_moving_funtf(a_set, num_samples=args.samples, seed=args.seed,
                                 tolerance=args.tol)
    payload = report.to_dict()
    if not report.tight:
        balance = is_balanced(a_set)
        if not balance.balanced:
            payload["witness"] = witness_unbalanced(a_set, balance).to_dict()
    _emit(payload, args.output)
    return EXIT_OK if report.tight else EXIT_VERDICT_FALSE


def cmd_matrix(args) -> int:
    _emit_text(build_pairing_matrix(args.n).as_text() + "\n", args.output)
    return EXIT_OK


def cmd_demo_erasure(args) -> int:
    a_set = read_document(args.file)
    if args.erase >= len(a_set):
        print(f"error: cannot erase {args.erase} of {len(a_set)} coefficients",
              file=sys.stderr)
        return EXIT_USAGE
    balance = is_balanced(a_set)
    if not balance.balanced:
        print("error: erasure demo requires a balanced operator set", file=sys.stderr)
        return EXIT_USAGE

    d = a_set.dim
    constant = len(a_set) / (d - 1)
    rng = np.random.default_rng(args.point_seed)
    frame_errors = []
    basis_errors = []
    for _ in range(args.trials):
        a = rng.standard_normal(d)
        a /= np.linalg.norm(a)
        x = project_tangent(a, rng.standard_normal(d))

        coeffs = operator_images(a_set, a) @ x
        erased = rng.choice(len(a_set), size=args.erase, replace=False)
        coeffs[erased] = 0.0
        frame_errors.append(float(np.linalg.norm(reconstruct(a_set, a, coeffs, constant) - x)))

        basis = tangent_basis(a)
        bcoeffs = basis @ x
        # The baseline basis only has 2n-1 coordinates to lose.
        lost = rng.choice(d - 1, size=min(args.erase, d - 1), replace=False)
        basis_errors.append(float(np.linalg.norm(bcoeffs[lost])))

    _emit({
        "trials": args.trials,
        "erased": args.erase,
        "error_norm_frame": float(np.mean(frame_errors)),
        "error_norm_basis_baseline": float(np.mean(basis_errors)),
    }, args.output)
    return EXIT_OK


def at_least(minimum, kind=int):
    """An argparse type: a finite ``kind`` value no smaller than ``minimum``."""
    def parse(text: str):
        value = kind(text)
        # NaN fails every comparison and infinity the second, so both are refused
        if not minimum <= value < float("inf"):
            raise argparse.ArgumentTypeError(f"must be finite and >= {minimum}, got {text!r}")
        return value
    parse.__name__ = kind.__name__  # argparse reports bad text as "invalid <name> value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("-o", "--output", metavar="FILE",
                        help="write output here instead of stdout")
    document = argparse.ArgumentParser(add_help=False, parents=[output])
    document.add_argument("--no-timestamp", action="store_true",
                          help="omit the created timestamp from documents")

    parser = argparse.ArgumentParser(
        prog="movingframes",
        description="Signed-involution vector fields and moving tight frames on odd spheres.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-full", parents=[document],
                       help="enumerate all operators for dimension 2n")
    p.add_argument("n", type=int)
    p.add_argument("--cap-override", type=at_least(1), metavar="N",
                   default=DEFAULT_ENUMERATION_CAP,
                   help=f"raise the enumeration cap (default {DEFAULT_ENUMERATION_CAP})")
    p.set_defaults(func=cmd_gen_full)

    p = sub.add_parser("gen-min", parents=[document],
                       help="build the minimal balanced set of (2n-1)*2^(n-1) operators")
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_gen_min)

    p = sub.add_parser("check-balance", parents=[output],
                       help="exact balance verdict for an operator-set document")
    p.add_argument("file")
    p.set_defaults(func=cmd_check_balance)

    p = sub.add_parser("check-funtf", parents=[output],
                       help="certify a moving tight frame numerically")
    p.add_argument("file")
    p.add_argument("--tol", type=at_least(0.0, float), default=DEFAULT_TIGHTNESS_TOL,
                   help=f"tightness tolerance (default {DEFAULT_TIGHTNESS_TOL})")
    p.add_argument("--samples", type=at_least(1), default=DEFAULT_NUM_SAMPLES,
                   help=f"random sphere points to check (default {DEFAULT_NUM_SAMPLES})")
    p.add_argument("--seed", type=at_least(0), default=0,
                   help="seed for random sphere points (default 0)")
    p.set_defaults(func=cmd_check_funtf)

    p = sub.add_parser("matrix", parents=[output], help="print the pairing matrix")
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("demo-erasure", parents=[output],
                       help="compare reconstruction error after coefficient erasures")
    p.add_argument("file")
    p.add_argument("--erase", type=at_least(0), default=1, metavar="M",
                   help="coefficients to zero per trial (default 1)")
    p.add_argument("--point-seed", type=at_least(0), default=0)
    p.add_argument("--trials", type=at_least(1), default=100)
    p.set_defaults(func=cmd_demo_erasure)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
