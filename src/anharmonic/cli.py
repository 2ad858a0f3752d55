"""Command-line interface: spectrum tables, WKB integrals, Stokes graphs, verify.

Output files are deterministic: fixed key order, fixed float formatting (17
significant digits in JSON, 15 in CSV), no timestamps; repeated invocations
with the same flags are byte-identical.  Exit codes: 0 success, 2 numerical
failure, 64 usage error (a float flag that is not finite or out of its range
among them, named in the message).
"""
from __future__ import annotations

import argparse
import io
import json
import math
import sys
from dataclasses import asdict, astuple, fields

from . import __version__
from .model import OscillatorParams
from .action import reduced_wkb_integral, wkb_phase
from .spectral import SpectrumRecord, spectrum_table
from .geometry import complex_to_json_dict, stokes_complex, trajectory_csv_rows
from .checks import report_dict, run_checks

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_NUMERICAL = 2
EXIT_USAGE = 64


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the contract reserves 2 for numerical
    # failures and uses 64 for usage problems
    def error(self, message):
        raise _UsageError(message)


def _real(low: float = -math.inf, closed: bool = True):
    """argparse type of a float flag: finite and >= low (> low unless closed)."""
    def real(text: str) -> float:
        value = float(text)
        if not (math.isfinite(value) and (value > low or (closed and value == low))):
            raise argparse.ArgumentTypeError("must be finite and %s %g, got %r"
                                             % (">=" if closed else ">", low, text))
        return value
    return real


# ---------------------------------------------------------------------------
# deterministic serialization

def _json_scalar(x) -> str:
    if x is None:
        return "null"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        if math.isnan(x) or math.isinf(x):
            return '"%s"' % repr(x)
        return format(x, ".17g")
    raise TypeError(f"unsupported scalar {type(x)!r}")


def dumps_json(obj, indent: int = 1, _level: int = 0) -> str:
    """JSON text with insertion-ordered keys and 17-significant-digit floats."""
    pad = " " * (indent * (_level + 1))
    close_pad = " " * (indent * _level)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            "%s%s: %s" % (pad, json.dumps(str(k)), dumps_json(v, indent, _level + 1))
            for k, v in obj.items()
        ]
        return "{\n%s\n%s}" % (",\n".join(items), close_pad)
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        flat = all(not isinstance(v, (dict, list, tuple)) for v in seq)
        if flat:
            return "[%s]" % ", ".join(
                json.dumps(v) if isinstance(v, str) else _json_scalar(v) for v in seq
            )
        items = [pad + dumps_json(v, indent, _level + 1) for v in seq]
        return "[\n%s\n%s]" % (",\n".join(items), close_pad)
    if isinstance(obj, str):
        return json.dumps(obj)
    return _json_scalar(obj)


def _csv_cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return format(x, ".15g")
    s = str(x)
    if any(c in s for c in ',"\r\n'):
        s = '"%s"' % s.replace('"', '""')
    return s


def _csv_text(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_csv_cell(c) for c in row) for row in rows)
    return "\r\n".join(lines) + "\r\n"


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with io.open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _meta(command: str) -> dict:
    return {"schema_version": 1, "tool_version": __version__, "command": command}


# ---------------------------------------------------------------------------
# subcommands

def _add_output(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None, help="output file (default: stdout)")
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="output format")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="anharmonic",
                 description="Spectra of radial anharmonic oscillators: ODE "
                             "integration, Bohr-Sommerfeld quantisation, and "
                             "closed-form asymptotics, cross-validated.")
    ap.add_argument("--version", action="version", version="anharmonic %s" % __version__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="eigenvalue table by one or all methods")
    sp.add_argument("--alpha", type=_real(0.0, closed=False), required=True)
    sp.add_argument("--ell", type=_real(-0.5, closed=False), required=True)
    sp.add_argument("--n-max", type=int, required=True)
    sp.add_argument("--method", choices=("exact", "bs", "asym", "all"), default="all")
    sp.add_argument("--rel-tol", type=_real(0.0, closed=False), default=1e-9,
                    help="relative tolerance of the exact eigenvalues")
    _add_output(sp)

    wp = sub.add_parser("wkb", help="action integral I or blown-up integrals J1, J2")
    wp.add_argument("--alpha", type=_real(0.0, closed=False), required=True)
    wp.add_argument("--kind", choices=("I", "J1", "J2"), required=True)
    wp.add_argument("--energy", type=_real(), default=None, help="E for kind I")
    wp.add_argument("--ell", type=_real(-0.5, closed=False), default=None, help="ell for kind I")
    wp.add_argument("--u", type=_real(0.0), default=None, help="argument for kind J1")
    wp.add_argument("--nu", type=_real(), default=None, help="argument for kind J2")
    wp.add_argument("--abs-tol", type=_real(0.0), default=1e-12,
                    help="absolute tolerance of the quadrature")
    wp.add_argument("--out", default=None, help="output file (default: stdout)")

    st = sub.add_parser("stokes", help="trace the Stokes complex of theta-trajectories")
    st.add_argument("--alpha", type=_real(0.0, closed=False), required=True)
    st.add_argument("--ell", type=_real(-0.5, closed=False), required=True)
    st.add_argument("--energy", type=_real(), required=True)
    st.add_argument("--theta", type=_real(), default=0.5 * math.pi,
                    help="trajectory angle (default pi/2, the Stokes complex)")
    st.add_argument("--window", type=_real(), nargs=2, default=None,
                    metavar=("LO", "HI"),
                    help="restrict turning points to cover arguments [LO, HI]")
    st.add_argument("--no-polylines", action="store_true",
                    help="omit traced points from JSON output")
    _add_output(st)

    vp = sub.add_parser("verify", help="run the verification suite and report")
    vp.add_argument("--profile", choices=("quick", "full"), default="quick")
    _add_output(vp)
    return ap


def cmd_spectrum(args) -> int:
    if args.n_max < 0:
        raise _UsageError("--n-max must be >= 0")
    methods = ("exact", "bs", "asym") if args.method == "all" else (args.method,)
    records = spectrum_table(args.alpha, args.ell, args.n_max, methods=methods,
                             rel_tol=args.rel_tol)
    if args.format == "csv":
        header = [f.name for f in fields(SpectrumRecord)]
        _emit(_csv_text(header, [astuple(r) for r in records]), args.out)
    else:
        doc = _meta("spectrum")
        doc.update({
            "alpha": args.alpha,
            "ell": args.ell,
            "n_max": args.n_max,
            "method": args.method,
            "rows": [asdict(r) for r in records],
        })
        _emit(dumps_json(doc), args.out)
    return EXIT_OK


def cmd_wkb(args) -> int:
    if args.kind == "I":
        if args.energy is None or args.ell is None:
            raise _UsageError("--kind I needs --energy and --ell")
        value = wkb_phase(OscillatorParams(args.alpha, args.energy, args.ell),
                          abs_tol=args.abs_tol)
        arg_name, arg_value = "energy", args.energy
    elif args.kind == "J1":
        if args.u is None:
            raise _UsageError("--kind J1 needs --u")
        value = reduced_wkb_integral(args.alpha, "J1", args.u, abs_tol=args.abs_tol)
        arg_name, arg_value = "u", args.u
    else:
        if args.nu is None:
            raise _UsageError("--kind J2 needs --nu")
        value = reduced_wkb_integral(args.alpha, "J2", args.nu, abs_tol=args.abs_tol)
        arg_name, arg_value = "nu", args.nu
    doc = _meta("wkb")
    doc.update({"alpha": args.alpha, "kind": args.kind, arg_name: arg_value})
    if args.kind == "I":
        doc["ell"] = args.ell
    doc["value"] = value
    _emit(dumps_json(doc), args.out)
    return EXIT_OK


def cmd_stokes(args) -> int:
    params = OscillatorParams(args.alpha, args.energy, args.ell)
    window = tuple(args.window) if args.window is not None else None
    if window is not None and window[0] > window[1]:
        raise _UsageError("--window needs LO <= HI, got %g %g" % window)
    sc = stokes_complex(params, sector_window=window, theta=args.theta)
    if args.format == "csv":
        header = ["edge_index", "source", "target", "point_index", "re_x", "im_x", "arg_x"]
        rows = []
        for i, e in enumerate(sc.edges):
            for k, (re, im, arg) in enumerate(trajectory_csv_rows(e.trajectory)):
                rows.append([i, e.source, e.target, k, re, im, arg])
        _emit(_csv_text(header, rows), args.out)
    else:
        doc = _meta("stokes")
        doc["theta"] = args.theta
        doc.update(complex_to_json_dict(sc, params,
                                        include_polylines=not args.no_polylines))
        _emit(dumps_json(doc), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    def progress(name: str) -> None:
        print("running %s ..." % name, file=sys.stderr, flush=True)

    results = run_checks(args.profile, progress=progress)
    doc = report_dict(results, args.profile, __version__)
    if args.format == "csv":
        header = ["criterion", "name", "passed", "measured", "bound"]
        rows = [[r.criterion, r.name, str(r.passed).lower(), r.measured, r.bound]
                for r in results]
        _emit(_csv_text(header, rows), args.out)
    else:
        _emit(dumps_json(doc), args.out)
    for r in results:
        print("criterion %2d %-28s %s" % (r.criterion, r.name,
                                          "PASS" if r.passed else "FAIL"),
              file=sys.stderr)
    return EXIT_OK if doc["passed"] else EXIT_NUMERICAL


_DISPATCH = {
    "spectrum": cmd_spectrum,
    "wkb": cmd_wkb,
    "stokes": cmd_stokes,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as ex:
        print("usage error: %s" % ex, file=sys.stderr)
        return EXIT_USAGE
    try:
        return _DISPATCH[args.command](args)
    except _UsageError as ex:
        print("usage error: %s" % ex, file=sys.stderr)
        return EXIT_USAGE
    except (RuntimeError, ValueError, ArithmeticError) as ex:
        print("numerical failure: %s" % ex, file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
