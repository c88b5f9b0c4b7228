"""Command-line interface: every operation behind one executable.

The CLI only parses arguments, dispatches to the library and renders the
result as text, CSV or JSON; the verification suites live in ``verify``.
Text and CSV are written row by row from strings the handler has formatted,
CSV by comma joins, as no field needs quoting; only the mode asked for is ever joined.
Success with --json prints exactly one envelope object {schema_version,
command, input, payload, timing}, byte for byte as json.dumps writes it,
though the matrix rows of resistance and forest are written by join; timing
stays outside the payload so payloads are byte-identical across runs.  Exit
codes: 0 success, 1 domain error or OSError (the class name goes to stderr),
2 usage error.  Rationals are serialized as decimal strings so arbitrary
precision survives JSON.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import cache

from . import __version__
from .codes import code_count, degree_profile, enumerate_codes, parse_code, require_walk
from .errors import OrderOutOfRange, ThresholdWalkError
from .kemeny import (
    _bounds_for,
    _require_code_length,
    kemeny_degree_form,
    kemeny_from_code,
    kemeny_spectral_form,
    pineapple_argmax,
    pineapple_kemeny,
)
from .resistance import _verify_orderings, resistance_closed_form, resistance_matrix
from .search import _checkpoint_in, max_kemeny_search
from .spectral import laplacian_spectrum
from .verify import SUITES, verify_code

SCHEMA_VERSION = "1"
ENUMERATE_MAX_ORDER = 26  # the listing holds all 2^(n-2) codes at once, whatever order the search reaches


@dataclass
class CommandOutput:
    """A handler's result; text and csv_rows (header first) are iterated once, only in their mode.

    joined_rows names the payload's last key when it holds rows of strings of
    digits and '/' only; --json writes those rows by join instead of json.dumps.
    """

    payload: dict
    text: Iterable[str] = ()
    csv_rows: Iterable[list] | None = None
    exit_code: int = 0
    joined_rows: str | None = None


def _frac_obj(value: Fraction) -> dict:
    return {"num": _int_str(value.numerator), "den": _int_str(value.denominator), "float": float(value)}


def _frac_str(value: Fraction) -> str:
    return f"{_int_str(value.numerator)}/{_int_str(value.denominator)}"


def _ratio_formatter(den: int) -> Callable[[int], str]:
    """x -> _frac_str(Fraction(x, den)) in one gcd, each reduced denominator formatted once."""
    tail = cache(lambda g: "/" + _int_str(den // g))

    def ratio(x: int) -> str:
        g = math.gcd(x, den)
        return _int_str(x // g) + tail(g)

    return ratio


def _moment_formatter(den: int, kemeny: Fraction) -> Callable[[int], tuple[str, str]]:
    """x -> (_frac_str(mu), _frac_str(mu - kemeny)) for mu = Fraction(x, den).

    The reduced denominators are few: each is formatted once.
    """
    k_num, k_den = kemeny.numerator, kemeny.denominator
    den_str = cache(_int_str)

    def moment(x: int) -> tuple[str, str]:
        # mu = p / q reduced in one gcd; alpha = mu - K reduced as Fraction
        # subtraction does: t / (s K.den) can share with its denominator only
        # factors of g = gcd(q, K.den), cheaper than one gcd over den * K.den
        g = math.gcd(x, den)
        p, q = x // g, den // g
        g = math.gcd(q, k_den)
        s = q // g
        t = p * (k_den // g) - k_num * s
        h = math.gcd(t, g)
        return f"{_int_str(p)}/{den_str(q)}", f"{_int_str(t // h)}/{den_str(s * (k_den // h))}"

    return moment


def _int_str(value: int) -> str:
    """Decimal digits of any int; str() refuses ints over 4300 digits on newer Pythons,
    so those go through Decimal."""
    try:
        return str(value)
    except ValueError:
        return str(Decimal(value))


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_compute(args) -> CommandOutput:
    code = parse_code(args.code)
    exact = kemeny_degree_form(code) if args.method == "degree" else kemeny_from_code(code)
    payload: dict = {"n": code.n, "m": exact.m, "method": args.method}
    if args.method == "spectral":
        payload["kemeny"] = {"num": None, "den": None, "float": kemeny_spectral_form(code).value}
    else:
        payload["kemeny"] = _frac_obj(exact.exact)
    if args.method == "all":
        degree = kemeny_degree_form(code)
        spectral = kemeny_spectral_form(code)
        payload["routes"] = {
            "codevec": _frac_obj(exact.exact),
            "degree": _frac_obj(degree.exact),
            "spectral": spectral.value,
        }
        payload["agreement"] = {
            "exact_routes_equal": exact.exact == degree.exact,
            "spectral_abs_diff": abs(spectral.value - exact.value),
        }
    if code.n >= 3:
        bounds = _bounds_for(code.n, exact)
        payload["bounds"] = {
            "linear": bounds.linear_bound,
            "sparse": bounds.sparse_bound,
            "hold": bounds.both_hold,
        }
    else:
        payload["bounds"] = None

    def text():
        yield f"code {code}  n={code.n}  m={exact.m}"
        if args.method == "spectral":
            yield f"K = {payload['kemeny']['float']!r} (spectral route, floating)"
        else:
            yield f"K = {_frac_str(exact.exact)} = {float(exact.exact)!r}"
        if args.method == "all":
            yield f"routes agree: exact={payload['agreement']['exact_routes_equal']}"
        if code.n >= 3:
            yield (
                f"bounds: K < {bounds.linear_bound} and K < {bounds.sparse_bound!r}: "
                + ("both hold" if bounds.both_hold else "VIOLATED")
            )

    return CommandOutput(payload, text())


def _cmd_spectrum(args) -> CommandOutput:
    code = parse_code(args.code)
    spectrum = laplacian_spectrum(code)
    require_walk(code)
    tau = _int_str(spectrum.tree_count())
    payload = {"n": code.n, "lambda": list(spectrum.eigenvalues), "sorted": list(spectrum.sorted()), "tau": tau}

    def text():
        yield "lambda (basis order): " + " ".join(map(str, payload["lambda"]))
        yield "sorted: " + " ".join(map(str, payload["sorted"]))
        yield f"tau = {tau}"

    return CommandOutput(payload, text())


def _cmd_resistance(args) -> CommandOutput:
    code = parse_code(args.code)
    if args.pair is not None:
        j, v = args.pair
        value = resistance_closed_form(code, j, v)
        payload = {"n": code.n, "pair": [j, v], "r": _frac_str(value)}
        return CommandOutput(payload, [_frac_str(value)])
    profile = resistance_matrix(code)
    row, col, ratio = profile.row, profile.col, cache(_ratio_formatter(profile.den))
    rows = profile.matrix(lambda j, v: ratio(row[j] + col[v]), "0/1")
    header = [f"v{p}" for p in range(1, code.n + 1)]
    text = (" ".join(row) for row in rows)
    return CommandOutput({"n": code.n, "r": rows}, text, [header, *rows], joined_rows="r")


def _cmd_forest(args) -> CommandOutput:
    code = parse_code(args.code)
    profile = resistance_matrix(code)
    (A, B), int_str = profile.f_terms(), cache(_int_str)
    rows = profile.matrix(lambda j, v: int_str(A[j] + B[v]), "0")
    tau = _int_str(profile.tau)
    lines = [*rows, ["tau", tau]]
    header = [f"v{p}" for p in range(1, code.n + 1)]
    text = (",".join(row) for row in lines)
    return CommandOutput({"n": code.n, "tau": tau, "f": rows}, text, [header, *lines], joined_rows="f")


def _cmd_access(args) -> CommandOutput:
    code = parse_code(args.code)
    profile = resistance_matrix(code)
    report = _verify_orderings(code, profile)
    moments = map(cache(_moment_formatter(profile.den, profile.kemeny)), profile.mu_num)
    mu, alpha = map(list, zip(*moments))
    payload = {
        "mu": mu,
        "alpha": alpha,
        "degrees": list(degree_profile(code).degrees),
        "ordering_ok": report.all_pass,
    }
    text = [
        "mu: " + " ".join(payload["mu"]),
        "alpha: " + " ".join(payload["alpha"]),
        "degrees: " + " ".join(str(x) for x in payload["degrees"]),
        f"ordering_ok: {report.all_pass}",
    ]
    return CommandOutput(payload, text)


def _cmd_pineapple(args) -> CommandOutput:
    n = args.n
    if args.r is not None:
        values = [(n, args.r, pineapple_kemeny(n, args.r))]
    elif args.sweep:
        _require_code_length(n)
        # r = 0 is always swept, so pineapple_kemeny refuses every n < 3
        values = [(n, r, pineapple_kemeny(n, r)) for r in range(max(n - 1, 1))]
    else:
        best = pineapple_argmax(n)
        payload = {
            "n": n,
            "r_star": best.r_star,
            "k_star": _frac_obj(best.k_star),
            "tied_rs": list(best.tied_rs),
            "predicted_set": list(best.predicted_set),
        }
        text = [
            f"argmax r = {best.r_star}  K = {_frac_str(best.k_star)} = {float(best.k_star)!r}",
            f"ties: {list(best.tied_rs)}  predicted window: {list(best.predicted_set)}",
        ]
        return CommandOutput(payload, text)
    rows = [
        {"n": n, "r": r, "num": str(k.numerator), "den": str(k.denominator), "float": float(k)} for n, r, k in values
    ]
    lines = [[str(v) for v in row.values()] for row in rows]  # str of a float is its repr
    return CommandOutput({"rows": rows}, (",".join(line) for line in lines), [list(rows[0]), *lines])


def _cmd_search(args) -> CommandOutput:
    checkpoint = args.checkpoint
    if checkpoint is None:
        checkpoint_dir = os.environ.get("CHECKPOINT_DIR")
        if checkpoint_dir:
            checkpoint = _checkpoint_in(checkpoint_dir, args.n)
    report = max_kemeny_search(args.n, checkpoint=checkpoint)
    payload = {
        "n": report.n,
        "argmax_code": report.argmax_code,
        "k": _frac_obj(report.k_exact),
        "is_pineapple": report.is_pineapple,
        "r": report.r,
        "ties": list(report.ties),
        "codes_examined": report.codes_examined,
        "predicted_asymptote": report.predicted_asymptote,
    }
    row = [
        str(report.n),
        report.argmax_code,
        str(report.k_exact.numerator),
        str(report.k_exact.denominator),
        repr(report.k_float),
        str(report.is_pineapple).lower(),
        "" if report.r is None else str(report.r),
        f"{report.seconds:.3f}",
    ]
    text = [
        f"n={report.n}  argmax {report.argmax_code}  "
        f"K = {_frac_str(report.k_exact)} = {report.k_float!r}",
        f"is_pineapple={report.is_pineapple} r={report.r}  "
        f"codes={report.codes_examined}  seconds={report.seconds:.3f}",
    ]
    header = ["n", "argmax_code", "k_num", "k_den", "k_float", "is_pineapple", "r", "seconds"]
    return CommandOutput(payload, text, [header, row])


def _cmd_enumerate(args) -> CommandOutput:
    if args.n > ENUMERATE_MAX_ORDER:
        raise OrderOutOfRange(f"enumerate supports n <= {ENUMERATE_MAX_ORDER}, got {args.n}")
    codes = [str(c) for c in enumerate_codes(args.n)]
    payload = {"n": args.n, "count": code_count(args.n), "codes": codes}
    return CommandOutput(payload, codes, itertools.chain([["code"]], ([c] for c in codes)))


def _cmd_verify(args) -> CommandOutput:
    code = parse_code(args.code)
    suites = verify_code(code, SUITES if args.suite == "all" else (args.suite,))
    ok = all(entry["pass"] for entry in suites.values())
    payload = {"code": str(code), "n": code.n, "suites": suites, "pass": ok}
    text = [f"{name}: {'PASS' if entry['pass'] else 'FAIL'}" for name, entry in suites.items()]
    text.append("all: PASS" if ok else "all: FAIL")
    return CommandOutput(payload, text, exit_code=0 if ok else 1)


# ---------------------------------------------------------------------------
# parser and dispatch


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use; parse_args fills a fresh namespace per call."""
    common = argparse.ArgumentParser(add_help=False)
    style = common.add_mutually_exclusive_group()
    style.add_argument("--json", action="store_true", help="emit one JSON envelope")
    style.add_argument("--csv", action="store_true", help="emit CSV with a header row")
    common.add_argument("--quiet", action="store_true", help="suppress stdout on success")

    parser = argparse.ArgumentParser(
        prog="thresholdwalk",
        description="Exact random-walk analytics for threshold graphs, driven by construction codes.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("compute", parents=[common], help="Kemeny's constant and its upper bounds")
    p.add_argument("code", help="construction code (plain or block notation)")
    p.add_argument("--method", choices=["all", "codevec", "degree", "spectral"], default="all")
    p.set_defaults(handler=_cmd_compute)

    p = sub.add_parser("spectrum", parents=[common], help="integer Laplacian spectrum and tree count")
    p.add_argument("code")
    p.set_defaults(handler=_cmd_spectrum)

    p = sub.add_parser("resistance", parents=[common], help="exact effective resistances")
    p.add_argument("--pair", nargs=2, type=int, metavar=("J", "V"), help="one vertex pair (default: the full matrix)")
    p.add_argument("code")
    p.set_defaults(handler=_cmd_resistance)

    p = sub.add_parser("forest", parents=[common], help="spanning-2-forest counts and tau")
    p.add_argument("code")
    p.set_defaults(handler=_cmd_forest)

    p = sub.add_parser("access", parents=[common], help="moments and accessibility indices")
    p.add_argument("code")
    p.set_defaults(handler=_cmd_access)

    p = sub.add_parser("pineapple", parents=[common], help="the closed-form pineapple family")
    p.add_argument("--n", type=int, required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--r", type=int, default=None)
    group.add_argument("--sweep", action="store_true")
    p.set_defaults(handler=_cmd_pineapple)

    p = sub.add_parser("search", parents=[common], help="exhaustive Kemeny maximum at order n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--checkpoint", default=None, help="progress file (defaults under CHECKPOINT_DIR)")
    p.set_defaults(handler=_cmd_search)

    p = sub.add_parser("verify", parents=[common], help="cross-check closed forms against oracles")
    p.add_argument("code")
    p.add_argument("--suite", choices=[*SUITES, "all"], default="all")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("enumerate", parents=[common], help="list all connected codes of order n")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_enumerate)

    return parser


def _print_envelope(envelope: dict, joined_rows: str | None) -> None:
    """print(json.dumps(envelope)), with the rows of payload[joined_rows] written one by one by join.

    Those rows hold only digits and '/', which JSON writes as they are.  They
    are the payload's last key, so with them emptied the last '[]' of the
    envelope's JSON is theirs: only timing follows.
    """
    if joined_rows is None:
        print(json.dumps(envelope))
        return
    payload = envelope["payload"]
    head, _, tail = json.dumps({**envelope, "payload": {**payload, joined_rows: []}}).rpartition("[]")
    write = sys.stdout.write
    write(head + "[")
    separator = '["'
    for row in payload[joined_rows]:
        write(separator + '", "'.join(row) + '"]')
        separator = ', ["'
    write("]" + tail + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "handler"):
        parser.print_help(sys.stderr)
        return 2
    started = time.perf_counter()
    try:
        output = args.handler(args)
    except (ThresholdWalkError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - started
    if args.quiet:
        return output.exit_code
    try:
        if args.json:
            envelope = {
                "schema_version": SCHEMA_VERSION,
                "command": args.command,
                "input": {
                    key: value
                    for key, value in vars(args).items()
                    if key not in {"handler", "command", "json", "csv", "quiet"} and value is not None
                },
                "payload": output.payload,
                "timing": {"seconds": elapsed},
            }
            _print_envelope(envelope, output.joined_rows)
        elif args.csv and output.csv_rows is not None:
            sys.stdout.writelines(",".join(row) + "\n" for row in output.csv_rows)
        else:
            for line in output.text:
                print(line)
        sys.stdout.flush()
    except BrokenPipeError as exc:
        # the reader closed early: what is still buffered goes to the null device,
        # so that the interpreter's flush at exit raises nothing more
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return output.exit_code


if __name__ == "__main__":
    sys.exit(main())
