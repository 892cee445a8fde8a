"""Command-line front end.

Subcommands mirror the library pipeline: ``params`` (effectivity parameters
and the rank threshold), ``construct`` (auxiliary basis), ``bound``
(certified lower bound for an integer linear form at xi), ``logbound``
(certified lower bound for |ln f(xi) - a/b|), ``scan`` (a table of logbound
rows over a denominator range, CSV output), ``n0`` (the threshold formula).

Reports are JSON on stdout with sorted keys; every exact value is emitted as
a decimal or p/q string, never as floating point.  Exit codes: 0 success or
Certified, 2 NotCertified or ExhaustedN, 3 malformed input.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys as _sys
from fractions import Fraction
from pathlib import Path

from . import auxiliary, forms, logmeasure, zeroestimate
from .efunction import DiffSystem, extract_params
from .errors import (EfcertError, ExhaustedN, InputError,
                     MissingExponentBound)
from .evalcert import RatInterval
from .sysdesc import (emit_system, frac_str, parse_rational, parse_system,
                      poly_str, resolve_system_path)

EXIT_OK = 0
EXIT_NOT_CERTIFIED = 2
EXIT_INPUT = 3

# Ceilings on the work arguments, well above every tested value (n 48,
# --bmax 10, --precision 1024, --window 1); a larger value exits 3 before
# any work.
_MAX_N = 96
_MAX_BMAX = 40
_MAX_PRECISION = 4096
_MAX_WINDOW = 2
_CEILINGS = (("n", "--n", _MAX_N), ("n_start", "--n-start", _MAX_N),
             ("n_max", "--n-max", _MAX_N), ("bmax", "--bmax", _MAX_BMAX),
             ("precision", "--precision", _MAX_PRECISION))


def frac_decimal(x: Fraction, places: int = 40) -> str:
    """Fixed-point decimal string, truncated toward zero; deterministic."""
    x = Fraction(x)
    sign = "-" if x < 0 else ""
    x = abs(x)
    whole, rem = divmod(x.numerator, x.denominator)
    digits = rem * 10 ** places // x.denominator
    return f"{sign}{frac_str(whole)}.{str(digits).zfill(places)}"


def _interval_dict(iv: RatInterval) -> dict:
    return {"lo": frac_str(iv.lo), "hi": frac_str(iv.hi),
            "decimal_lo": frac_decimal(iv.lo), "decimal_hi": frac_decimal(iv.hi)}


def _attempts_list(attempts) -> list:
    return [{"n": a.n, "status": a.status, "reason": a.reason}
            for a in attempts]


def certificate_dict(cert: forms.BoundCertificate) -> dict:
    return {
        "status": cert.status,
        "n": cert.n,
        "eps1": frac_str(cert.eps1),
        "xi": frac_str(cert.xi),
        "target": [frac_str(a) for a in cert.target],
        "target_height": frac_str(max(abs(a) for a in cert.target)),
        "selected_rows": list(cert.selected_rows),
        "ell": cert.ell + 1,
        "delta": frac_str(cert.delta),
        "target_cofactor": frac_str(cert.target_cofactor),
        "form_cofactors": [frac_str(c) for c in cert.form_cofactors],
        "row_upper_bounds": [frac_str(u) for u in cert.row_upper_bounds],
        "f_ell_lower": frac_str(cert.f_ell_lower),
        "lower_bound": None if cert.lower_bound is None
        else frac_str(cert.lower_bound),
        "lower_bound_decimal": None if cert.lower_bound is None
        else frac_decimal(cert.lower_bound, 60),
        "attempts": _attempts_list(cert.attempts),
    }


def logresult_dict(res: logmeasure.LogBoundResult) -> dict:
    indep = dict(res.beta_independent_params)
    indep["T"] = poly_str(indep["T"])
    return {
        "xi": frac_str(res.xi),
        "a": res.a,
        "b": res.b,
        "beta": frac_str(res.beta),
        "status": res.status,
        "path": res.path,
        "bound": None if res.bound is None else frac_str(res.bound),
        "bound_decimal": None if res.bound is None
        else frac_decimal(res.bound, 60),
        "forms_certificate": None if res.forms_certificate is None
        else certificate_dict(res.forms_certificate),
        "forms_failure": res.forms_failure,
        "forms_bound": None if res.forms_bound is None
        else frac_str(res.forms_bound),
        "interval_bound": frac_str(res.interval_bound),
        "omega_upper": frac_str(res.omega_upper),
        "f_value": _interval_dict(res.f_value),
        "exp_value": _interval_dict(res.exp_value),
        "oracle_distance": None if res.oracle_distance is None
        else _interval_dict(res.oracle_distance),
        "half_value_guard": res.half_value_guard,
        "beta_dependent": {k: (None if v is None else frac_str(v))
                           for k, v in res.beta_dependent_params.items()},
        "beta_independent": indep,
    }


def emit_report(doc: dict, stream=None) -> None:
    stream = stream or _sys.stdout
    stream.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="efcert", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("params", help="effectivity parameters and n0 bound")
    p.add_argument("system")

    p = sub.add_parser("construct", help="auxiliary basis report")
    p.add_argument("system")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps1", default=None)

    p = sub.add_parser("bound", help="certified lower bound for a linear form")
    p.add_argument("system")
    p.add_argument("--xi", required=True)
    p.add_argument("--target", required=True,
                   help="comma-separated integer coefficients a1,...,am")
    p.add_argument("--n-start", type=int, default=1)
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--eps1", default=None)
    p.add_argument("--precision", type=int, default=256)

    p = sub.add_parser("logbound",
                       help="certified lower bound for |ln f(xi) - a/b|")
    p.add_argument("system")
    p.add_argument("--xi", required=True)
    p.add_argument("--approx", required=True, help="rational a/b")
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--precision", type=int, default=256)

    p = sub.add_parser("scan", help="logbound table over denominators <= bmax")
    p.add_argument("system")
    p.add_argument("--xi", required=True)
    p.add_argument("--bmax", type=int, required=True)
    p.add_argument("--window", required=True)
    p.add_argument("--csv", default=None)
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted and ignored: rows run serially")
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--precision", type=int, default=256)

    p = sub.add_parser("n0", help="rank threshold bound from (m, q, E)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--exponent-bound", type=int, required=True)

    p = sub.add_parser("emit", help="reserialize a system description")
    p.add_argument("system")
    return parser


_PARSER = build_parser()


def _check_ceilings(args):
    for dest, option, ceiling in _CEILINGS:
        value = getattr(args, dest, None)
        if value is not None and value > ceiling:
            raise InputError(f"{option} {value} exceeds the ceiling {ceiling}")
    window = getattr(args, "window", None)
    if window is not None and parse_rational(window) > _MAX_WINDOW:
        raise InputError(
            f"--window {window} exceeds the ceiling {_MAX_WINDOW}")


def _load(arg: str) -> tuple[DiffSystem, str]:
    path = resolve_system_path(arg)
    return parse_system(path), path.name


def _system_parameters(system: DiffSystem,
                       n0: zeroestimate.N0Bound | None) -> dict:
    """The effectivity parameters and n0 bound shared by ``params`` and
    ``bound``; the exponent ceiling and n0 are None when n0 is."""
    params = extract_params(system)
    return {
        "m": system.m,
        "p": params.p,
        "q": params.q,
        "E": frac_str(params.E),
        "T": poly_str(params.T),
        "exponent_ceiling": None if n0 is None else n0.exponent_ceiling,
        "n0_bound": None if n0 is None else n0.value,
    }


def _n0_if_bounded(system: DiffSystem) -> zeroestimate.N0Bound | None:
    """n0_for_system, or None when a point lacks an exponent bound."""
    try:
        return zeroestimate.n0_for_system(system)
    except MissingExponentBound:
        return None


def _log_config(args) -> logmeasure.LogConfig:
    return logmeasure.LogConfig(precision_bits=args.precision,
                                n_max=args.n_max)


def cmd_params(args) -> int:
    system, name = _load(args.system)
    n0 = _n0_if_bounded(system)
    doc = {
        "command": "params",
        "system": name,
        **_system_parameters(system, n0),
        "eps1_default": frac_str(auxiliary.default_eps1(system.m)),
        "growth": None if system.growth is None else {
            "C": frac_str(system.growth.C), "D": frac_str(system.growth.D),
            "provenance": system.growth.provenance},
        "exponent_points": None if n0 is None else [
            {"point": e.point, "kind": e.kind, "modulus": frac_str(e.modulus)}
            for e in n0.points],
    }
    emit_report(doc)
    return EXIT_OK


def cmd_construct(args) -> int:
    system, name = _load(args.system)
    eps1 = parse_rational(args.eps1) if args.eps1 else None
    basis = auxiliary.construct(system, args.n, eps1)
    doc = {
        "command": "construct",
        "system": name,
        "n": basis.n,
        "eps1": frac_str(basis.eps1),
        "tau": basis.tau,
        "achieved_order": basis.achieved_order,
        "achieved_exact": basis.achieved_exact,
        "height": frac_str(basis.height),
        "polynomials": [poly_str(p) for p in basis.polys],
    }
    emit_report(doc)
    return EXIT_OK


def _parse_target(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part.strip()) for part in text.split(","))
    except ValueError:
        raise InputError(f"target must be comma-separated integers: {text!r}")


def _parameter_block(system: DiffSystem, n0: zeroestimate.N0Bound | None,
                     cert: forms.BoundCertificate) -> dict:
    """The report's parameter block: the _system_parameters block with the
    eps1, tau and t1 of the certificate's degree."""
    block = _system_parameters(system, n0)
    ladder = forms.ladder_length(system.m, block["q"], block["p"], cert.n,
                                 cert.eps1)
    return {
        **block,
        "eps1": frac_str(cert.eps1),
        "tau": auxiliary.vanishing_order_target(system.m, cert.n, cert.eps1),
        "t1": ladder - system.m,
    }


def cmd_bound(args) -> int:
    system, name = _load(args.system)
    xi = parse_rational(args.xi)
    target = _parse_target(args.target)
    eps1 = parse_rational(args.eps1) if args.eps1 else None
    n_max = args.n_max
    if n_max is None:
        n0 = zeroestimate.n0_for_system(system)
        n_max = forms.default_n_max(n0.value)
    else:
        n0 = _n0_if_bounded(system)
    doc = {"command": "bound", "system": name, "xi": frac_str(xi),
           "target": [frac_str(a) for a in target], "n_max": n_max}
    try:
        cert = forms.adaptive_bound(system, xi, target,
                                    n_start=args.n_start, n_max=n_max,
                                    eps1=eps1, precision_bits=args.precision)
    except ExhaustedN as exc:
        doc["status"] = "exhausted_n"
        doc["attempts"] = _attempts_list(exc.attempts)
        emit_report(doc)
        return EXIT_NOT_CERTIFIED
    doc["certificate"] = certificate_dict(cert)
    doc["parameters"] = _parameter_block(system, n0, cert)
    doc["status"] = cert.status
    emit_report(doc)
    return EXIT_OK if cert.certified else EXIT_NOT_CERTIFIED


def cmd_logbound(args) -> int:
    system, name = _load(args.system)
    xi = parse_rational(args.xi)
    approx = parse_rational(args.approx)
    config = _log_config(args)
    doc = {"command": "logbound", "system": name, "xi": frac_str(xi),
           "approx": frac_str(approx)}
    try:
        res = logmeasure.log_lower_bound(system, xi, approx.numerator,
                                         approx.denominator, config)
    except ExhaustedN as exc:
        doc["status"] = "exhausted_n"
        doc["error"] = str(exc)
        emit_report(doc)
        return EXIT_NOT_CERTIFIED
    doc["result"] = logresult_dict(res)
    doc["status"] = res.status
    emit_report(doc)
    return EXIT_OK if res.certified else EXIT_NOT_CERTIFIED


SCAN_COLUMNS = ("b", "a", "bound", "oracle_distance", "path", "n_used")


def scan_rows_to_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SCAN_COLUMNS)
    for row in rows:
        n_used = ""
        if row.forms_certificate is not None:
            n_used = row.forms_certificate.n
        writer.writerow([
            row.b, row.a,
            "" if row.bound is None else frac_str(row.bound),
            "" if row.oracle_distance is None
            else frac_decimal(row.oracle_distance.hi),
            row.path, n_used,
        ])
    return buf.getvalue()


def cmd_scan(args) -> int:
    system, name = _load(args.system)
    xi = parse_rational(args.xi)
    window = parse_rational(args.window)
    if args.csv:
        # before any row: append mode leaves the contents of an existing
        # file as they were if the scan fails
        try:
            open(args.csv, "a", encoding="utf-8").close()
        except OSError as exc:
            raise InputError(f"cannot write {args.csv}: {exc}") from None
    rows = logmeasure.measure_scan(system, xi, args.bmax, window,
                                   _log_config(args))
    text = scan_rows_to_csv(rows)
    if args.csv:
        try:
            Path(args.csv).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise InputError(f"cannot write {args.csv}: {exc}") from None
    else:
        _sys.stdout.write(text)
    summary = {
        "command": "scan",
        "system": name,
        "xi": frac_str(xi),
        "bmax": args.bmax,
        "window": frac_str(window),
        "rows": len(rows),
        "certified_rows": sum(1 for r in rows if r.certified),
    }
    try:
        c_fit, d_fit = logmeasure.exponent_fit(rows)
        summary["exponent_fit"] = {"c": f"{c_fit:.6f}", "d": f"{d_fit:.6f}"}
    except EfcertError:
        summary["exponent_fit"] = None
    if args.csv:
        emit_report(summary)
    else:
        emit_report(summary, stream=_sys.stderr)
    all_ok = all(r.certified for r in rows)
    return EXIT_OK if all_ok else EXIT_NOT_CERTIFIED


def cmd_n0(args) -> int:
    bound = zeroestimate.n0_bound(args.m, args.q, args.exponent_bound)
    emit_report({
        "command": "n0",
        "m": bound.m,
        "q": bound.q,
        "exponent_ceiling": bound.exponent_ceiling,
        "n0_bound": bound.value,
    })
    return EXIT_OK


def cmd_emit(args) -> int:
    system, _ = _load(args.system)
    _sys.stdout.write(emit_system(system))
    return EXIT_OK


_COMMANDS = {
    "params": cmd_params,
    "construct": cmd_construct,
    "bound": cmd_bound,
    "logbound": cmd_logbound,
    "scan": cmd_scan,
    "n0": cmd_n0,
    "emit": cmd_emit,
}


_VALUE_OPTIONS = ("--approx", "--xi", "--target", "--window", "--eps1")


def _join_negative_values(argv: list[str]) -> list[str]:
    """Rewrite ["--approx", "-1/4"] as ["--approx=-1/4"] so argparse does not
    mistake negative rationals or targets for option names."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_OPTIONS and i + 1 < len(argv) \
                and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = _sys.argv[1:]
    argv = _join_negative_values(list(argv))
    try:
        args = _PARSER.parse_args(argv)
        _check_ceilings(args)
        return _COMMANDS[args.subcommand](args)
    except InputError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_INPUT
    except ExhaustedN as exc:
        print(f"not certified: {exc}", file=_sys.stderr)
        return EXIT_NOT_CERTIFIED
    except EfcertError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
