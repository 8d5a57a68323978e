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

Exit codes: 0 success, 2 validation error (including a request too large for
memory), 3 numerical failure.  Output is written atomically.
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


def _round_floats(obj, precision: int):
    if isinstance(obj, float):
        return float(format_float(obj, precision))
    if isinstance(obj, dict):
        return {key: _round_floats(val, precision) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(val, precision) for val in obj]
    return obj


def csv_text(header: list[str], rows: list[list], precision: int, comments=()) -> str:
    def cell(value) -> str:
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        return format_float(float(value), precision)

    lines = [f"# {comment}" for comment in comments]
    lines.append(",".join(header))
    lines.extend(",".join(cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def json_text(obj, precision: int) -> str:
    return json.dumps(_round_floats(obj, precision), sort_keys=True, indent=2) + "\n"


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


def _parse_time_token(token: str, period: float | None) -> float:
    token = token.strip()
    if "T" in token:
        if period is None:
            raise ValueError("times reference T but no tunnelling period is available")
        if token == "T":
            return period
        if token.startswith("T/"):
            return period / float(token[2:])
        if token.startswith("T*"):
            return period * float(token[2:])
        raise ValueError(f"bad time token {token!r} (use T, T/k or T*x)")
    return float(token)


def _parse_times(spec: str, period: float | None) -> list[float]:
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


def _apply_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    if not getattr(args, "config", None):
        return
    with open(args.config) as handle:
        overrides = json.load(handle)
    if not isinstance(overrides, dict):
        raise ValueError("config file must hold a JSON object")
    known = set(vars(args)) - {"config", "func", "command"}
    unknown = set(overrides) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key, value in overrides.items():
        if getattr(args, key) is None:
            setattr(args, key, value)


def _output_style(args: argparse.Namespace) -> tuple[str, int]:
    fmt = args.format if args.format is not None else "csv"
    precision = int(args.precision) if args.precision is not None else DEFAULT_PRECISION
    if precision < 1:
        raise ValueError("precision must be >= 1")
    return fmt, precision


def _require(args: argparse.Namespace, *names: str) -> None:
    missing = [name for name in names if getattr(args, name) is None]
    if missing:
        raise ValueError(f"missing required option(s): {', '.join('--' + m for m in missing)}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_attenuate(args: argparse.Namespace) -> int:
    _require(args, "n", "eta", "output")
    n = int(args.n)
    eta = float(args.eta)
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    steps = int(args.eta_steps if args.eta_steps is not None else 21)
    if steps < 2:
        raise ValueError("eta-steps must be >= 2")
    orders = _parse_orders(args.orders, n) if args.orders is not None else [n]
    fmt, precision = _output_style(args)
    state = states.make_noon(n)

    dist = channels.lossy_number_distribution(state, channels.LossSetting.uniform(eta))
    dist_rows = [[two_jz, prob] for two_jz, prob in dist.items()]

    etas = np.linspace(0.0, 1.0, steps)
    bounds = coherence.order_coherences(state.amplitudes, orders).bound[0]
    base = dict(zip(orders, bounds.tolist()))
    curve_rows = [
        [e] + [base[o] * e**o for o in orders] for e in etas
    ]
    curve_header = ["eta"] + [f"c_{o}" for o in orders]

    if fmt == "json":
        payload = {
            "distribution": {str(k): v for k, v in dist.items()},
            "curves": {
                "eta": list(etas),
                **{f"c_{o}": [base[o] * e**o for e in etas] for o in orders},
            },
            "n": n,
            "eta": eta,
        }
        write_output(args.output, json_text(payload, precision))
    else:
        write_output(
            f"{args.output}_distribution.csv",
            csv_text(["two_jz", "probability"], dist_rows, precision),
        )
        write_output(
            f"{args.output}_cn.csv", csv_text(curve_header, curve_rows, precision)
        )
    return EXIT_OK


def cmd_splitter(args: argparse.Namespace) -> int:
    _require(args, "n")
    n = int(args.n)
    state = states.make_binomial_splitter(n)
    fmt, precision = _output_style(args)
    report = coherence.coherence_report(state)
    if args.eta is None:
        if fmt == "json":
            write_output(args.output, json_text(report.to_json(), precision))
        else:
            header = ["n", "C_n", "c_n", "norm", "S", "delta"]
            rows = [
                [e.order, e.fidelity, e.bound, e.norm, e.s_value, report.spread]
                for e in report.orders
            ]
            write_output(args.output, csv_text(header, rows, precision))
        return EXIT_OK
    etas = [float(tok) for tok in str(args.eta).split(",") if tok.strip()]
    if any(not 0.0 <= e <= 1.0 for e in etas):
        raise ValueError("eta values must lie in [0, 1]")
    # Each row is eta^n times the lossless c_n.  That equals the lossy
    # state's c_n only while eta^N min_m P(m) stays above SUPPORT_EPS, which
    # keeps S and the normalization unchanged.  At eta = 0.8 it holds for
    # N = 20, where the two agree to 4e-15; at N = 30 and 40 the lossy c_n
    # is 0 to 14 and 0 to 23 times this value.
    rows = []
    for entry in report.orders:
        for e in etas:
            rows.append([entry.order, e, entry.bound * e**entry.order])
    if fmt == "json":
        payload = {
            "rows": [{"n": r[0], "eta": r[1], "c_n": r[2]} for r in rows]
        }
        write_output(args.output, json_text(payload, precision))
    else:
        write_output(args.output, csv_text(["n", "eta", "c_n"], rows, precision))
    return EXIT_OK


def cmd_dynamics(args: argparse.Namespace) -> int:
    _require(args, "n", "g", "nl", "times")
    n, g, nl = int(args.n), float(args.g), int(args.nl)
    kappa = float(args.kappa if args.kappa is not None else 1.0)
    system = dynamics.build_hamiltonian(n, g, kappa)
    initial = states.make_number_pair(nl, n)
    period = dynamics.tunnelling_period(system, initial)
    times = _parse_times(args.times, period.value)
    orders = _parse_orders(args.orders, n) if args.orders is not None else [n - 2 * nl]
    trace = dynamics.evolve(system, initial, times, orders, t_n=period)
    fmt, precision = _output_style(args)
    if fmt == "json":
        payload = {
            "t_n_spectral": period.spectral,
            "t_n_scan": period.scanned,
            "t_n_relative_difference": period.relative_difference,
            "times": list(trace.times),
            "pm": [list(row) for row in trace.pm_distributions],
            "jz_mean": list(trace.jz_mean),
            "c_n": {str(o): list(series) for o, series in trace.cn_series.items()},
        }
        write_output(args.output, json_text(payload, precision))
        return EXIT_OK
    header = (
        ["t"]
        + [f"p_{m}" for m in range(n + 1)]
        + [f"c_{o}" for o in orders]
    )
    rows = []
    for i, t in enumerate(trace.times):
        row = [t] + list(trace.pm_distributions[i]) + [
            trace.cn_series[o][i] for o in orders
        ]
        rows.append(row)
    comments = [
        f"t_n_spectral={format_float(period.spectral, precision)}"
        f" t_n_scan={format_float(period.scanned, precision)}"
        f" rel_diff={format_float(period.relative_difference, precision)}"
    ]
    write_output(args.output, csv_text(header, rows, precision, comments))
    return EXIT_OK


def cmd_fringes(args: argparse.Namespace) -> int:
    _require(args, "state", "m", "output")
    try:
        recipe_obj = json.loads(args.state)
    except json.JSONDecodeError as exc:
        raise ValueError(f"--state must be a JSON recipe: {exc}") from exc
    recipe = states.StateRecipe.from_json(recipe_obj)
    state = recipe.build()
    grid = int(args.k if args.k is not None else 256)
    scan = interferometry.binned_probability_scan(state, int(args.m), grid)
    fmt, precision = _output_style(args)
    scan_rows = [[phi, p] for phi, p in zip(scan.phases, scan.probabilities)]
    spec_rows = [[omega, mag] for omega, mag in enumerate(scan.spectrum)]
    if fmt == "json":
        payload = {
            "phases": list(scan.phases),
            "p_geq_M": list(scan.probabilities),
            "spectrum": list(scan.spectrum),
            "dominant_omega": scan.dominant_frequency(),
            "m": int(args.m),
        }
        write_output(args.output, json_text(payload, precision))
    else:
        write_output(
            f"{args.output}_scan.csv",
            csv_text(["phi", "p_geq_M"], scan_rows, precision),
        )
        write_output(
            f"{args.output}_spectrum.csv",
            csv_text(["omega", "magnitude"], spec_rows, precision),
        )
    print(f"dominant_omega={scan.dominant_frequency()}")
    return EXIT_OK


def cmd_infer(args: argparse.Namespace) -> int:
    _require(args, "data")
    rows = squeezing.read_squeeze_rows(args.data)
    _, precision = _output_style(args)
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
    write_output(args.output, json_text({"rows": reports}, precision))
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

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--output", default=None, help="output path (or prefix)")
        p.add_argument("--format", choices=("csv", "json"), default=None)
        p.add_argument("--precision", type=int, default=None,
                       help="significant digits for emitted floats (default 12)")
        p.add_argument("--config", default=None,
                       help="JSON file supplying values for omitted flags")

    p = sub.add_parser("attenuate", help="lossy NOON state distribution and c_n curves")
    p.add_argument("--n", type=int)
    p.add_argument("--eta", type=float)
    p.add_argument("--orders", default=None, help="comma list or 'all' (default: N)")
    p.add_argument("--eta-steps", dest="eta_steps", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_attenuate)

    p = sub.add_parser("splitter", help="beam-splitter state coherence vs order")
    p.add_argument("--n", type=int)
    p.add_argument("--eta", default=None, help="comma list of transmissions")
    common(p)
    p.set_defaults(func=cmd_splitter)

    p = sub.add_parser("dynamics", help="Josephson evolution trace")
    p.add_argument("--n", type=int)
    p.add_argument("--g", type=float)
    p.add_argument("--nl", type=int)
    p.add_argument("--kappa", type=float, default=None)
    p.add_argument("--orders", default=None, help="comma list or 'all' (default: N-2*nl)")
    p.add_argument("--times", default=None,
                   help="comma list of times (T, T/k, T*x allowed) or grid:START:STOP:COUNT")
    common(p)
    p.set_defaults(func=cmd_dynamics)

    p = sub.add_parser("fringes", help="binned-count probability scan and spectrum")
    p.add_argument("--state", default=None,
                   help='state recipe JSON, e.g. {"kind": "noon", "n": 5}')
    p.add_argument("--m", type=int, help="bin threshold: count events with n_c >= M")
    p.add_argument("--k", type=int, default=None, help="phase grid size (power of two)")
    common(p)
    p.set_defaults(func=cmd_fringes)

    p = sub.add_parser("infer", help="squeezing-based coherence inference from CSV rows")
    p.add_argument("--data", default=None, help="CSV with columns n,jx,jy,jz,jy2,jz2")
    common(p)
    p.set_defaults(func=cmd_infer)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args, parser)
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
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
