"""Command-line front end.

Subcommands expose the library pipelines as plot-ready CSV/JSON emitters:

  attenuate  P(2 J_Z) of a lossy NOON state plus c_n versus transmission
  splitter   C_n and c_n of the beam-splitter output state versus order
  dynamics   Josephson evolution: P(m), <J_Z>, c_n versus time, with the
             tunnelling period in the metadata
  fringes    binned-count probability scan over the analysis phase and its
             Fourier magnitudes
  infer      squeezing parameter, coherence bound and the two-atom inference
             chain over ingested data rows

``--config FILE`` names a JSON object whose entries are parsed as the flags
they name (``eta_steps`` is ``--eta-steps``), with the same types and
choices: each becomes one ``--key=value`` token right after the subcommand,
so flags given on the line come later and win.  A non-string value is passed
as its JSON text, and ``null`` leaves a flag at its default.

Exit codes: 0 success, 2 validation error (including a request too large for
memory), 3 numerical failure.  An unknown flag or config key, a bad value or
a missing required flag exits 2 through argparse's ``SystemExit(2)`` with
its usage message; ``main`` returns the other codes.  Output is written
atomically.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import channels, coherence, dynamics, interferometry, squeezing, states
from .errors import NoOscillationError, NumericalError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

DEFAULT_PRECISION = 12


# ---------------------------------------------------------------------------
# formatting and output plumbing
# ---------------------------------------------------------------------------


def format_float(value: float, precision: int) -> str:
    if value == 0:
        return "0"  # normalize -0.0
    return f"{value:.{precision}g}"


def csv_text(header: list[str], rows: list[list], precision: int, comments=()) -> str:
    """Comment lines, the header, then each row through one %-template: a
    column of integers as ``str(int)``, any other number as
    ``format_float`` writes it."""
    spec = f"%.{precision}g"
    columns = list(zip(*rows))
    specs = []
    for index, column in enumerate(columns):
        integral = [issubclass(kind, (int, np.integer)) for kind in set(map(type, column))]
        if all(integral):
            specs.append("%d")
        elif not any(integral):
            specs.append(spec)
        else:  # a mixed column, cell by cell
            columns[index] = [str(int(v)) if isinstance(v, (int, np.integer))
                              else format_float(float(v), precision) for v in column]
            specs.append("%s")
    # Every cell is written after a ",", so a "-0" cell, which %g writes for
    # -0.0 alone (its exponents have two digits), is ",-0" before "," or
    # "\n"; the two passes catch adjacent ones.  The leading "," goes last.
    body = "".join(map(f",{','.join(specs)}\n".__mod__, zip(*columns)))
    for old, new in ((",-0,", ",0,"), (",-0,", ",0,"), (",-0\n", ",0\n")):
        body = body.replace(old, new)
    lines = [f"# {comment}" for comment in comments]
    lines.append(",".join(header))
    return "\n".join(lines) + "\n" + body.replace("\n,", "\n")[1:]


_FLOAT_WORDS = {"-0": "0.0", "nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(text: str) -> str:
    """JSON text of the float that the %g text ``text`` reads as:
    repr(float(text)), with -0 as 0.0 (``format_float`` writes -0.0 as 0)
    and nan and the infinities as json.dumps writes them."""
    return _FLOAT_WORDS.get(text) or repr(float(text))


def _json_floats(values, precision: int) -> list[str]:
    """repr(float(format_float(x, precision))) of each float x, in JSON.

    Up to 15 significant digits (DBL_DIG) a decimal in the normal range is
    the shortest repr of the float it parses to.  So a %g text is already
    that repr when it has a "." (repr writes 5 as 5.0) and neither an "e+"
    (repr writes that form in full below 1e16) nor an "e-3" (e-30 to e-39,
    and from e-300 on, where subnormals hold fewer digits)."""
    texts = map(f"%.{precision}g".__mod__, values)
    if precision > 15:
        return list(map(_json_float, texts))
    return [t if "." in t and "e+" not in t and "e-3" not in t else _json_float(t) for t in texts]


def _json_scalars(values, precision: int) -> list[str] | None:
    """JSON text of each value of a list of scalars, floats rounded to
    ``precision`` digits; None when the list holds a container."""
    kinds = set(map(type, values))
    if kinds == {int}:
        return list(map(int.__repr__, values))
    if all(issubclass(kind, float) for kind in kinds):
        return _json_floats(values, precision)
    if any(issubclass(kind, (dict, list, tuple)) for kind in kinds):
        return None
    return [_json_floats([v], precision)[0] if isinstance(v, float) else json.dumps(v) for v in values]


def _json_key(key) -> str:
    """A key as json.dumps writes it, a non-string one in its JSON text."""
    return json.dumps(key if isinstance(key, str) else json.dumps(key))


def _json_rows(items: list, precision: int, pad: str) -> str | None:
    """The items of a non-empty list joined at ``pad`` when they are scalars,
    or flat records sharing one key set, which are formatted column by column
    and written through one %-template; None for any other list."""
    first = items[0]
    if not (isinstance(first, dict) and first):
        texts = _json_scalars(items, precision)
        return None if texts is None else ("," + pad).join(texts)
    if any(isinstance(value, (dict, list, tuple)) for value in first.values()):
        return None
    keys = first.keys()
    if not all(isinstance(item, dict) and item.keys() == keys for item in items):
        return None
    names = sorted(keys)
    columns = []
    for name in names:
        texts = _json_scalars([item[name] for item in items], precision)
        if texts is None:
            return None
        columns.append(texts)
    inner = pad + "  "
    fields = ",".join(f"{inner}{_json_key(name).replace('%', '%%')}: %s" for name in names)
    template = "{" + fields + pad + "}"
    return ("," + pad).join(map(template.__mod__, zip(*columns)))


def _json_parts(obj, precision: int, pad: str, parts: list[str]) -> None:
    """Append the JSON text of ``obj`` to ``parts`` as ``json.dumps`` writes
    it with ``sort_keys=True, indent=2``; ``pad`` is a newline plus the
    indentation of ``obj``'s own line."""
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        sep = "{" + inner
        for key in sorted(obj):
            parts.append(f"{sep}{_json_key(key)}: ")
            _json_parts(obj[key], precision, inner, parts)
            sep = "," + inner
        parts.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            parts.append("[]")
            return
        rows = _json_rows(obj, precision, inner)
        if rows is not None:
            parts.append(f"[{inner}{rows}{pad}]")
            return
        sep = "[" + inner
        for item in obj:
            parts.append(sep)
            _json_parts(item, precision, inner, parts)
            sep = "," + inner
        parts.append(pad + "]")
    else:
        parts.append(_json_scalars([obj], precision)[0])


def json_text(obj, precision: int) -> str:
    """``obj`` as JSON with sorted keys and an indent of 2, each float
    rounded to ``precision`` significant digits."""
    parts: list[str] = []
    _json_parts(obj, precision, "\n", parts)
    parts.append("\n")
    return "".join(parts)


def write_output(path: str | None, text: str) -> None:
    """Write atomically (temp file + rename); stdout when no path is given."""
    if path is None:
        sys.stdout.write(text)
        return
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=target.parent, prefix=f".{target.name}.")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp_name, 0o666 & ~umask)  # mkstemp defaults to 0600
        os.replace(tmp_name, target)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


def _emit(args: argparse.Namespace, payload, tables, comments=None) -> None:
    """Write a command's result in the chosen ``--format``, building only
    that form: the JSON of ``payload()`` to ``--output``, or each
    (suffix, header, rows) of ``tables()`` as CSV to ``--output`` plus the
    suffix (``--output`` itself for an empty suffix).  ``comments`` maps
    names to floats, written as one ``# name=value ...`` line above each
    table."""
    precision = args.precision
    if args.format == "json":
        write_output(args.output, json_text(payload(), precision))
        return
    stamp = " ".join(f"{k}={format_float(v, precision)}" for k, v in (comments or {}).items())
    for suffix, header, rows in tables():
        path = f"{args.output}{suffix}" if suffix else args.output
        write_output(path, csv_text(header, rows, precision, [stamp] if stamp else ()))


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _parse_orders(text: str, total_number: int) -> list[int]:
    if text == "all":
        return list(range(1, total_number + 1))
    try:
        orders = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"bad orders list {text!r}") from exc
    if not orders or any(o < 1 for o in orders):
        raise ValueError("orders must be positive integers")
    return orders


def _parse_time_token(token: str, period: float) -> float:
    token = token.strip()
    if "T" in token:
        if token == "T":
            return period
        if token.startswith("T/"):
            return period / float(token[2:])
        if token.startswith("T*"):
            return period * float(token[2:])
        raise ValueError(f"bad time token {token!r} (use T, T/k or T*x)")
    return float(token)


def _parse_times(spec: str, period: float) -> list[float]:
    spec = spec.strip()
    if spec.startswith("grid:"):
        parts = spec.split(":")
        if len(parts) != 4:
            raise ValueError("grid times must look like grid:START:STOP:COUNT")
        start = _parse_time_token(parts[1], period)
        stop = _parse_time_token(parts[2], period)
        count = int(parts[3])
        if count < 2:
            raise ValueError("grid needs at least 2 samples")
        return list(np.linspace(start, stop, count))
    times = [_parse_time_token(tok, period) for tok in spec.split(",") if tok.strip()]
    if not times:
        raise ValueError("empty times specification")
    return times


def _config_argv(argv: list[str]) -> list[str]:
    """``argv`` with the entries of its ``--config`` file inserted right
    after the subcommand, one ``--key=value`` token each, so that argparse
    checks them as it checks flags and flags on the line, coming later, win.
    A non-string value is passed as its JSON text; a null entry is left out."""
    finder = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    finder.add_argument("--config")
    try:
        path = finder.parse_known_args(argv)[0].config
    except argparse.ArgumentError:  # a bare --config: the subcommand's parser reports it
        return argv
    if path is None:
        return argv
    with open(path) as handle:
        entries = json.load(handle)
    if not isinstance(entries, dict) or "config" in entries:
        raise ValueError("config file must hold a JSON object without a config entry")
    flags = [f"--{key.replace('_', '-')}={val if isinstance(val, str) else json.dumps(val)}"
             for key, val in entries.items() if val is not None]
    return argv[:1] + flags + argv[1:]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_attenuate(args: argparse.Namespace) -> int:
    n, eta = args.n, args.eta
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    if args.eta_steps < 2:
        raise ValueError("eta-steps must be >= 2")
    orders = [n] if args.orders is None else _parse_orders(args.orders, n)
    state = states.make_noon(n)

    dist = channels.lossy_number_distribution(state, channels.LossSetting.uniform(eta))

    etas = np.linspace(0.0, 1.0, args.eta_steps)
    bounds = coherence.order_coherences(state.amplitudes, orders).bound[0]
    base = dict(zip(orders, bounds.tolist()))
    curves = {"eta": list(etas), **{f"c_{o}": [base[o] * e**o for e in etas] for o in orders}}
    curve_header = ["eta"] + [f"c_{o}" for o in orders]

    _emit(
        args,
        lambda: {"distribution": {str(k): v for k, v in dist.items()}, "curves": curves,
                 "n": n, "eta": eta},
        lambda: [
            ("_distribution.csv", ["two_jz", "probability"], list(dist.items())),
            ("_cn.csv", curve_header, list(zip(*(curves[name] for name in curve_header)))),
        ],
    )
    return EXIT_OK


def cmd_splitter(args: argparse.Namespace) -> int:
    report = coherence.coherence_report(states.make_binomial_splitter(args.n))
    if args.eta is None:
        header = ["n", "C_n", "c_n", "norm", "S", "delta"]
        _emit(args, report.to_json, lambda: [("", header, [
            [e.order, e.fidelity, e.bound, e.norm, e.s_value, report.spread] for e in report.orders
        ])])
        return EXIT_OK
    etas = [float(tok) for tok in args.eta.split(",") if tok.strip()]
    if any(not 0.0 <= e <= 1.0 for e in etas):
        raise ValueError("eta values must lie in [0, 1]")
    # Each row is eta^n times the lossless c_n.  That equals the lossy
    # state's c_n only while eta^N min_m P(m) stays above SUPPORT_EPS, which
    # keeps S and the normalization unchanged.  At eta = 0.8 it holds for
    # N = 20, where the two agree to 4e-15; at N = 30 and 40 the lossy c_n
    # is 0 to 14 and 0 to 23 times this value.
    rows = [[entry.order, e, entry.bound * e**entry.order] for entry in report.orders for e in etas]
    _emit(
        args,
        lambda: {"rows": [{"n": r[0], "eta": r[1], "c_n": r[2]} for r in rows]},
        lambda: [("", ["n", "eta", "c_n"], rows)],
    )
    return EXIT_OK


def cmd_dynamics(args: argparse.Namespace) -> int:
    n = args.n
    system = dynamics.build_hamiltonian(n, args.g, args.kappa)
    initial = states.make_number_pair(args.nl, n)
    period = dynamics.tunnelling_period(system, initial)
    times = _parse_times(args.times, period.value)
    orders = [n - 2 * args.nl] if args.orders is None else _parse_orders(args.orders, n)
    trace = dynamics.evolve(system, initial, times, orders, t_n=period)

    def tables():
        header = ["t"] + [f"p_{m}" for m in range(n + 1)] + [f"c_{o}" for o in orders]
        rows = [
            [t, *trace.pm_distributions[i], *(trace.cn_series[o][i] for o in orders)]
            for i, t in enumerate(trace.times)
        ]
        return [("", header, rows)]

    _emit(
        args,
        lambda: {
            "t_n_spectral": period.spectral,
            "t_n_scan": period.scanned,
            "t_n_relative_difference": period.relative_difference,
            "times": list(trace.times),
            "pm": [list(row) for row in trace.pm_distributions],
            "jz_mean": list(trace.jz_mean),
            "c_n": {str(o): list(series) for o, series in trace.cn_series.items()},
        },
        tables,
        {"t_n_spectral": period.spectral, "t_n_scan": period.scanned,
         "rel_diff": period.relative_difference},
    )
    return EXIT_OK


def cmd_fringes(args: argparse.Namespace) -> int:
    try:
        recipe_obj = json.loads(args.state)
    except json.JSONDecodeError as exc:
        raise ValueError(f"--state must be a JSON recipe: {exc}") from exc
    state = states.StateRecipe.from_json(recipe_obj).build()
    scan = interferometry.binned_probability_scan(state, args.m, args.k)
    _emit(
        args,
        lambda: {"phases": list(scan.phases), "p_geq_M": list(scan.probabilities),
                 "spectrum": list(scan.spectrum), "dominant_omega": scan.dominant_frequency(),
                 "m": args.m},
        lambda: [
            ("_scan.csv", ["phi", "p_geq_M"], list(zip(scan.phases, scan.probabilities))),
            ("_spectrum.csv", ["omega", "magnitude"], list(enumerate(scan.spectrum))),
        ],
    )
    print(f"dominant_omega={scan.dominant_frequency()}")
    return EXIT_OK


def cmd_infer(args: argparse.Namespace) -> int:
    rows = squeezing.read_squeeze_rows(args.data)
    reports = []
    for index, data in enumerate(rows):
        xi, axis = squeezing.transverse_squeeze_parameter(data)
        entry = {
            "row": index,
            "n": data.mean_n,
            "xi": xi,
            "xi_axis": axis,
            "min_order": None,
            "certified": False,
        }
        if xi > 0:  # xi = 0, no spread along the axis, bounds no order
            bound = squeezing.coherence_bound(xi, data.mean_n)
            entry.update(min_order=bound.min_order, certified=bound.certified)
        try:
            inference = squeezing.infer_two_atom_coherence(data).to_json()
            entry["chain"] = inference["chain"]
            entry["two_atom"] = {
                "certified": inference["certified"],
                "margin": inference["margin"],
            }
        except ValueError as exc:
            entry["chain"] = []
            entry["two_atom"] = {"certified": False, "error": str(exc)}
        reports.append(entry)
    write_output(args.output, json_text({"rows": reports}, args.precision))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noon-coherence",
        description="Two-mode quantum-coherence pipelines with CSV/JSON output.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, prefix: bool = False,
               formats: tuple[str, ...] = ("csv", "json")) -> None:
        p.add_argument("--output", required=prefix, help="output prefix (JSON: output path)"
                       if prefix else "output path (default: stdout)")
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--precision", type=int, default=DEFAULT_PRECISION,
                       help="significant digits for emitted floats (default %(default)s)")
        p.add_argument("--config", help="JSON file whose entries are parsed as the flags they name")

    p = sub.add_parser("attenuate", help="lossy NOON state distribution and c_n curves")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--orders", default=None, help="comma list or 'all' (default: N)")
    p.add_argument("--eta-steps", dest="eta_steps", type=int, default=21)
    common(p, prefix=True)
    p.set_defaults(func=cmd_attenuate)

    p = sub.add_parser("splitter", help="beam-splitter state coherence vs order")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eta", default=None, help="comma list of transmissions")
    common(p)
    p.set_defaults(func=cmd_splitter)

    p = sub.add_parser("dynamics", help="Josephson evolution trace")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--g", type=float, required=True)
    p.add_argument("--nl", type=int, required=True)
    p.add_argument("--kappa", type=float, default=1.0)
    p.add_argument("--orders", default=None, help="comma list or 'all' (default: N-2*nl)")
    p.add_argument("--times", required=True,
                   help="comma list of times (T, T/k, T*x allowed) or grid:START:STOP:COUNT")
    common(p)
    p.set_defaults(func=cmd_dynamics)

    p = sub.add_parser("fringes", help="binned-count probability scan and spectrum")
    p.add_argument("--state", required=True,
                   help='state recipe JSON, e.g. {"kind": "noon", "n": 5}')
    p.add_argument("--m", type=int, required=True, help="bin threshold: count n_c >= M")
    p.add_argument("--k", type=int, default=256, help="phase grid size (power of two)")
    common(p, prefix=True)
    p.set_defaults(func=cmd_fringes)

    p = sub.add_parser("infer", help="squeezing-based coherence inference from CSV rows")
    p.add_argument("--data", required=True, help="CSV with columns n,jx,jy,jz,jy2,jz2")
    common(p, formats=("json",))
    p.set_defaults(func=cmd_infer)

    return parser


def main(argv=None) -> int:
    """Run one subcommand and return its exit code.  A bad flag or config
    entry leaves through argparse's ``SystemExit(2)`` with the usage message."""
    parser = build_parser()
    try:
        args = parser.parse_args(_config_argv(sys.argv[1:] if argv is None else list(argv)))
        if args.precision < 1:
            parser.error("argument --precision: must be >= 1")
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError as exc:  # the requested size does not fit in memory
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NoOscillationError, NumericalError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
