"""Command-line interface.

Subcommands:
    gen-full       enumerate every operator for a given n
    gen-min        build the balanced set of Theorem 3.4 for a given n
    check-balance  exact balance verdict for a stored operator set
    check-funtf    moving-frame certification, exact with a float cross-check
    matrix         print the pairing matrix
    demo-erasure   compare erasure robustness of a frame against a basis

Exit codes: 0 success / verdict true, 1 verdict false, 2 usage error
(among them an n above the size cap, a failed allocation and an output
that cannot be written), 3 malformed input document.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from typing import Iterable

import numpy as np

from . import __version__
from .balance import (DEFAULT_MATRIX_CAP, DEFAULT_THEOREM_SET_CAP, build_minimal_balanced,
                      build_pairing_matrix, is_balanced)
from .documents import DocumentError, document_chunks, read_document
from .framecheck import (DEFAULT_NUM_SAMPLES, DEFAULT_TIGHTNESS_TOL,
                         operator_images, reconstruct, verify_moving_funtf,
                         witness_unbalanced)
from .operators import DEFAULT_ENUMERATION_CAP, enumerate_full
from .sphere import project_tangent, tangent_basis

EXIT_OK = 0
EXIT_VERDICT_FALSE = 1
EXIT_USAGE = 2
EXIT_MALFORMED = 3


def _to_devnull(stream) -> None:
    """Point ``stream``, whose reader is gone, at devnull, so the flush at exit cannot fail."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


def _emit(chunks: Iterable[str], output: str | None) -> None:
    """Write the text pieces to ``output``, or to stdout for None or "-"."""
    to_stdout = output is None or output == "-"
    try:
        with nullcontext(sys.stdout) if to_stdout else open(output, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
            fh.flush()  # so that a closed stdout fails here, not at exit
    except OSError as exc:  # a usage error (exit 2), never a verdict
        if to_stdout:
            _to_devnull(sys.stdout)
        raise ValueError(f"cannot write {'stdout' if to_stdout else output}: "
                         f"{exc.strerror}") from exc


def _emit_json(payload, output: str | None) -> None:
    _emit((json.dumps(payload, indent=2), "\n"), output)


def _capped(args):
    """``args.build(args.n, cap=args.cap_override)``; a refusal above the cap names the option."""
    try:
        return args.build(args.n, cap=args.cap_override)
    except ValueError as exc:
        hint = " (see --cap-override)" if args.n > args.cap_override else ""
        raise ValueError(f"{exc}{hint}") from exc


def cmd_gen(args) -> int:
    _emit(document_chunks(_capped(args), generator=args.generator,
                          timestamp=not args.no_timestamp), args.output)
    return EXIT_OK


def cmd_check_balance(args) -> int:
    a_set = read_document(args.file)
    report = is_balanced(a_set)
    _emit_json(report.to_dict(), args.output)
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
    _emit_json(payload, args.output)
    return EXIT_OK if report.tight else EXIT_VERDICT_FALSE


def cmd_matrix(args) -> int:
    rows = _capped(args).tolist()
    _emit(("\n".join(" ".join(map(str, row)) for row in rows), "\n"), args.output)
    return EXIT_OK


def cmd_demo_erasure(args) -> int:
    a_set = read_document(args.file)
    if args.erase >= len(a_set):
        raise ValueError(f"cannot erase {args.erase} of {len(a_set)} coefficients")
    if not is_balanced(a_set).balanced:
        raise ValueError("erasure demo requires a balanced operator set")

    d = a_set.dim
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
        frame_errors.append(float(np.linalg.norm(reconstruct(a_set, a, coeffs) - x)))

        basis = tangent_basis(a)
        bcoeffs = basis @ x
        # The baseline basis only has 2n-1 coordinates to lose.
        lost = rng.choice(d - 1, size=min(args.erase, d - 1), replace=False)
        basis_errors.append(float(np.linalg.norm(bcoeffs[lost])))

    _emit_json({
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

    def sized(name: str, parent, cap: int, func, build, help: str,
              generator: str | None = None) -> None:
        p = sub.add_parser(name, parents=[parent], help=help)
        p.add_argument("n", type=int)
        p.add_argument("--cap-override", type=at_least(1), metavar="N", default=cap,
                       help=f"raise the cap on n (default {cap})")
        p.set_defaults(func=func, build=build, generator=generator)

    sized("gen-full", document, DEFAULT_ENUMERATION_CAP, cmd_gen, enumerate_full,
          "enumerate all operators for dimension 2n", "full-enumeration")
    sized("gen-min", document, DEFAULT_THEOREM_SET_CAP, cmd_gen, build_minimal_balanced,
          "build the balanced set of Theorem 3.4, (2n-1)*2^(n-1) operators", "theorem-3.4")

    p = sub.add_parser("check-balance", parents=[output],
                       help="exact balance verdict for an operator-set document")
    p.add_argument("file")
    p.set_defaults(func=cmd_check_balance)

    p = sub.add_parser("check-funtf", parents=[output],
                       help="certify a moving tight frame, exactly, with a float cross-check")
    p.add_argument("file")
    p.add_argument("--tol", type=at_least(0.0, float), default=DEFAULT_TIGHTNESS_TOL,
                   help="bound on the float cross-check, times max(1, C) for the frame "
                        f"constant C; the exact coefficients decide (default {DEFAULT_TIGHTNESS_TOL})")
    p.add_argument("--samples", type=at_least(1), default=DEFAULT_NUM_SAMPLES,
                   help=f"random sphere points to check (default {DEFAULT_NUM_SAMPLES})")
    p.add_argument("--seed", type=at_least(0), default=0,
                   help="seed for random sphere points (default 0)")
    p.set_defaults(func=cmd_check_funtf)

    sized("matrix", output, DEFAULT_MATRIX_CAP, cmd_matrix, build_pairing_matrix,
          "print the pairing matrix")

    p = sub.add_parser("demo-erasure", parents=[output],
                       help="compare reconstruction error after coefficient erasures")
    p.add_argument("file")
    p.add_argument("--erase", type=at_least(0), default=1, metavar="M",
                   help="coefficients to zero per trial (default 1)")
    p.add_argument("--point-seed", type=at_least(0), default=0)
    p.add_argument("--trials", type=at_least(1), default=100)
    p.set_defaults(func=cmd_demo_erasure)

    return parser


def _error(message) -> None:
    """Print the ``error:`` line, which cannot raise: a closed stderr goes to devnull."""
    try:
        print(f"error: {message}", file=sys.stderr, flush=True)
    except OSError:
        _to_devnull(sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DocumentError as exc:
        _error(exc)
        return EXIT_MALFORMED
    except ValueError as exc:
        _error(exc)
        return EXIT_USAGE
    except MemoryError as exc:  # e.g. a sample count too large to allocate
        _error(str(exc) or "out of memory")
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
