"""Command-line front end: enumerate, groundstate, verify, sequence, count-classes, simulate."""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache

from . import checks, counting
from .diagrams import (
    BasisTooLargeError,
    encode_partners,
    label_text,
    orbit_summary,
    representative_codes,
    require_rankable,
    shared_basis,
    shared_orbit_labels,
)
from .kernel import groundstate, serialize_groundstate

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
EXIT_OUT_OF_MEMORY = 4
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as for a tool that SIGPIPE ended


def resolve_cache_dir(flag_value):
    """Explicit flag, then BRAUER_CACHE_DIR, then a local .brauer-cache directory."""
    if flag_value:
        return flag_value
    env = os.environ.get("BRAUER_CACHE_DIR")
    if env:
        return env
    return ".brauer-cache"


def at_least(minimum: int | float):
    """An argparse type of the minimum's number type (int or float) refusing values
    below `minimum`, NaN included, as a usage error, before any work."""
    kind = type(minimum)

    def parse(text: str):
        if not (value := kind(text)) >= minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value
    parse.__name__ = kind.__name__  # named in argparse's message for a malformed number
    return parse


def _orbit_labels(length: int) -> list[list[str]]:
    """Per orbit, the sorted compact forms of its members' labels."""
    return [sorted(map(label_text, labels)) for labels in shared_orbit_labels(length)]


def cmd_enumerate(args) -> int:
    if args.classes:
        sizes = orbit_summary(args.length).sizes
        for code, size in zip(representative_codes(args.length), sizes):
            print(f"{code} {size}")
    else:
        for row in shared_basis(args.length).partners.tolist():
            print(encode_partners(row))
    return EXIT_OK


def cmd_groundstate(args) -> int:
    cache_dir = resolve_cache_dir(args.cache_dir)
    if args.format == "json":
        sys.stdout.write(serialize_groundstate(groundstate(args.length, cache_dir=cache_dir)))
        return EXIT_OK
    state = groundstate(args.length, cache_dir=cache_dir)
    codes = representative_codes(args.length)
    rows = zip(codes, state.sizes, state.weights, _orbit_labels(args.length))
    if args.format == "csv":
        print("representative,size,weight,label")
        for code, size, weight, labels in rows:
            print(f"\"{code}\",{size},{weight},{';'.join(labels)}")
    else:
        width = max(map(len, codes))
        for code, size, weight, labels in rows:
            tag = f"  [{' '.join(labels)}]" if labels else ""
            print(f"{code.ljust(width)}  size {size:3d}  weight {weight}{tag}")
    return EXIT_OK


def cmd_verify(args) -> int:
    cache_dir = resolve_cache_dir(args.cache_dir)
    require_rankable(args.max_length)
    states = {
        length: groundstate(length, cache_dir=cache_dir)
        for length in range(2, args.max_length + 1)
    }
    which = args.which
    results: list[checks.CheckResult] = []
    if which in ("integrality", "all"):
        results.extend(checks.verify_integrality(s) for s in states.values())
    if which in ("maximality", "all"):
        results.extend(
            checks.verify_maximality(s) for s in states.values() if s.length % 2 == 0
        )
    if which in ("sum-rule", "all"):
        results.extend(checks.verify_sum_rule(s) for s in states.values())
    if which in ("factorization", "all"):
        results.append(checks.verify_factorization(states))
    if which in ("degrees", "all"):
        results.append(checks.verify_degrees(states))

    if args.format == "json":
        print(json.dumps([r.to_json_obj() for r in results], indent=2, sort_keys=True))
    else:
        for r in results:
            print(f"{r.check:<14} L={r.length:<3} {r.status:<5} {r.details}")
    return EXIT_CHECK_FAILED if any(r.failed for r in results) else EXIT_OK


def cmd_sequence(args) -> int:
    cache_dir = resolve_cache_dir(args.cache_dir)
    require_rankable(2 * args.max_n)
    states = {
        2 * n: groundstate(2 * n, cache_dir=cache_dir)
        for n in range(1, args.max_n + 1)
    }
    values = checks.long_permutation_sequence(args.max_n, states)
    print(" ".join(str(v) for v in values))
    oracle = checks.REFERENCE.long_permutation_weights
    overlap = min(len(values), len(oracle))
    if values[:overlap] != list(oracle[:overlap]):
        print(f"reference check: MISMATCH within the first {overlap} terms", file=sys.stderr)
        return EXIT_CHECK_FAILED
    print(f"reference check: ok (first {overlap} terms match the stored prefix)",
          file=sys.stderr)
    return EXIT_OK


def cmd_count_classes(args) -> int:
    require_rankable(2 * min(args.max_n, args.max_enumerate_length // 2))
    mismatch = False
    print("n formula enumerated match")
    for n in range(1, args.max_n + 1):
        formula = counting.class_count(n)
        if 2 * n <= args.max_enumerate_length:
            enumerated = len(orbit_summary(2 * n))
            ok = enumerated == formula
            mismatch = mismatch or not ok
            print(f"{n} {formula} {enumerated} {'yes' if ok else 'NO'}")
        else:
            print(f"{n} {formula} - -")
    return EXIT_CHECK_FAILED if mismatch else EXIT_OK


def cmd_simulate(args) -> int:
    cache_dir = resolve_cache_dir(args.cache_dir)
    report = checks.monte_carlo_crosscheck(
        args.length, args.samples, args.seed, burn_in=args.burn_in, cache_dir=cache_dir
    )
    if args.format == "json":
        payload = {
            "L": report.length,
            "samples": report.samples,
            "seed": report.seed,
            "burn_in": report.burn_in,
            "orbits": [
                {
                    "representative": e.representative,
                    "exact": str(e.exact),
                    "empirical": e.empirical,
                    "stderr": e.stderr,
                    "z": e.zscore,
                }
                for e in report.estimates
            ],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"L={report.length} samples={report.samples} seed={report.seed} "
              f"burn_in={report.burn_in}")
        for e in report.estimates:
            print(f"{e.representative:<20} exact {float(e.exact):.6f}  "
                  f"empirical {e.empirical:.6f}  stderr {e.stderr:.6f}  z {e.zscore:+.2f}")
    if args.z_limit is not None and not report.within(args.z_limit):
        print(f"z-score limit {args.z_limit} exceeded (max |z| = {report.max_abs_z:.2f})",
              file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="brauerloop",
        description="Exact ground states of the periodic Brauer loop model on chord diagrams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--cache-dir", default=None,
                       help="result cache directory (default: $BRAUER_CACHE_DIR or .brauer-cache)")

    p = sub.add_parser("enumerate", help="list diagrams or symmetry classes")
    p.add_argument("--length", type=at_least(2), required=True)
    p.add_argument("--classes", action="store_true", help="one row per orbit with its size")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("groundstate", help="compute the exact ground state of one length")
    p.add_argument("--length", type=at_least(2), required=True)
    p.add_argument("--format", choices=("table", "csv", "json"), default="table")
    add_common(p)
    p.set_defaults(func=cmd_groundstate)

    p = sub.add_parser("verify", help="run the verification checks up to a length")
    p.add_argument("--max-length", type=at_least(2), required=True)
    p.add_argument("--which", default="all",
                   choices=("integrality", "factorization", "maximality",
                            "sum-rule", "degrees", "all"))
    p.add_argument("--format", choices=("table", "json"), default="table")
    add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sequence", help="weights of the reversal permutation for n = 1..max")
    p.add_argument("--max-n", type=at_least(1), required=True)
    add_common(p)
    p.set_defaults(func=cmd_sequence)

    p = sub.add_parser("count-classes", help="closed-form class counts vs enumeration")
    p.add_argument("--max-n", type=at_least(1), required=True)
    p.add_argument("--max-enumerate-length", type=at_least(2), default=14,
                   help="largest length to cross-check by explicit enumeration")
    p.set_defaults(func=cmd_count_classes)

    p = sub.add_parser("simulate", help="Monte Carlo cross-check of one ground state")
    p.add_argument("--length", type=at_least(2), required=True)
    p.add_argument("--samples", type=at_least(100), default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--burn-in", type=at_least(0), default=None)
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.add_argument("--z-limit", type=at_least(0.0), default=None,
                   help="fail (exit 1) if any orbit z-score exceeds this bound")
    add_common(p)
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except BrokenPipeError:
        # The reader closed stdout. Fd 1 goes to devnull so that the final
        # flush of what is still buffered fails quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except BasisTooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory in {args.command}{detail}", file=sys.stderr)
        return EXIT_OUT_OF_MEMORY
    except (ValueError, ArithmeticError, RuntimeError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
