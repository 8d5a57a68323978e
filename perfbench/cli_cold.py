"""cli_cold: README commands, each in a fresh interpreter.

Most of each command is interpreter start and import, so this workload shows
import-time changes and skips most kernels.  Even rounds use the arguments of
the checked-in fixtures and compare against them; odd rounds use seeded
arguments and closed forms.  In the traced run the same commands go through
``cli.main(argv)`` in-process, where the layers can be wrapped.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from common import (
    FIXTURES,
    KnownDefect,
    Op,
    binomial_amplitudes,
    check_cn_bound,
    check_distribution,
    check_scan,
    compare_to_fixture,
    expect,
    expect_close,
    noon_loss_distribution,
    pure_orders,
    read_csv,
    spread_of,
    tolerances,
)

VARIANTS = 4
TRACED_ROUNDS = 2
FRINGES_NORM_DRIFT = KnownDefect(
    "fringes exits 2 (norm drift in mode_transform) for binomial input from N = 34",
    "check: exit 2: error: amplitudes not normalized",
)


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str
    stderr: str


def run_subprocess(argv: list[str], cwd: Path, env: dict) -> CliResult:
    proc = subprocess.run(
        [sys.executable, "-m", "noon_coherence.cli", *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    return CliResult(proc.returncode, proc.stdout, proc.stderr)


def run_in_process(argv: list[str], cwd: Path) -> CliResult:
    from noon_coherence import cli

    out, err = io.StringIO(), io.StringIO()
    previous = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        os.chdir(previous)
    return CliResult(code, out.getvalue(), err.getvalue())


def setup(seed: int, ctx):
    rng = np.random.default_rng(seed)
    work = ctx.work_dir
    if ctx.in_process:
        import noon_coherence.cli  # noqa: F401  imported once, as the other workloads do

        execute = lambda argv: run_in_process(argv, work)  # noqa: E731
    else:
        execute = lambda argv: run_subprocess(argv, work, ctx.child_env)  # noqa: E731
    variants = [_variant(rng, work, i) for i in range(VARIANTS)]
    return lambda r: _round(execute, work, variants[r % VARIANTS], fixture_args=r % 2 == 0)


def _variant(rng: np.random.Generator, work: Path, index: int) -> dict:
    rows = work / f"rows_{index}.csv"
    xis = rng.uniform(0.3, 1.5, size=4)
    lines = ["n,jx,jy,jz,jy2,jz2"]
    for xi in xis:  # minimum-uncertainty rows with J_Z^2 = xi^2 N/4, as in criterion 8
        jz2 = float(xi) ** 2 * 25.0
        lines.append(f"100,48,0,0,{625.0 / jz2!r},{jz2!r}")
    rows.write_text("\n".join(lines) + "\n")
    return {
        "eta": round(float(rng.uniform(0.5, 0.95)), 6),
        "etas": sorted(round(float(x), 6) for x in rng.uniform(0.3, 1.0, size=3)),
        "phase": round(float(rng.uniform(0, 2 * np.pi)), 6),
        "m": int(rng.integers(11, 17)),
        "k": int(rng.integers(3, 9)),
        "grid_end": round(float(rng.uniform(0.8, 1.2)), 6),
        "rows": rows,
    }


def _round(execute, work: Path, v: dict, fixture_args: bool) -> list[Op]:
    def op(name, argv, check, defect=None):
        return Op(name, lambda _: execute(argv), _exit_ok(check), defect)

    eta = 0.8 if fixture_args else v["eta"]
    etas = [0.5, 0.8] if fixture_args else v["etas"]
    phase = 0.0 if fixture_args else v["phase"]
    m = 12 if fixture_args else v["m"]
    rows = FIXTURES / "infer_rows.csv" if fixture_args else v["rows"]
    eta_list = ",".join(repr(e) for e in etas)
    cat = json.dumps({"kind": "embedded_initial", "n": 20, "n_l": 4, "phase": phase})
    binomial = json.dumps({"kind": "binomial_splitter", "n": 40})
    return [
        op("attenuate/N=50", ["attenuate", "--n", "50", "--eta", repr(eta), "--output", "att"],
           lambda _: _check_attenuate(work / "att", 50, eta, "attenuate_noon50" if fixture_args else None)),
        op("attenuate/N=500", ["attenuate", "--n", "500", "--eta", repr(eta), "--output", "att500"],
           lambda _: _check_attenuate(work / "att500", 500, eta, None)),
        op("splitter/N=100", ["splitter", "--n", "100", "--output", "spl.csv"],
           lambda _: _check_splitter(work / "spl.csv", 100)),
        op("splitter/N=100/eta", ["splitter", "--n", "100", "--eta", eta_list, "--output", "lossy.csv"],
           lambda _: _check_splitter_eta(work / "lossy.csv", 100, etas, fixture_args)),
        op("splitter/N=500/json", ["splitter", "--n", "500", "--format", "json", "--output", "s500.json"],
           lambda _: _check_splitter_json(work / "s500.json", 500)),
        op("dynamics/N=5/fixture", ["dynamics", "--n", "5", "--g", "10", "--nl", "0", "--orders", "all",
                                    "--times", "0,T/6,T/3,T/2", "--output", "dyn5.csv"],
           lambda _: compare_to_fixture(work / "dyn5.csv", "dynamics_n5_g10.csv")),
        op("dynamics/N=20/T_k", ["dynamics", "--n", "20", "--g", "4", "--nl", "4", "--orders", "12",
                                 "--times", f"0,T/6,T/{v['k']},T/4", "--output", "dyn.csv"],
           lambda _: _check_dynamics(work / "dyn.csv", 20, 4, [0.0, 1 / 6, 1 / v["k"], 1 / 4])),
        op("dynamics/N=20/grid", ["dynamics", "--n", "20", "--g", "4", "--nl", "4", "--orders", "12",
                                  "--times", f"grid:0:T*{v['grid_end']!r}:200", "--output", "grid.csv"],
           lambda _: _check_dynamics(work / "grid.csv", 20, 4, list(np.linspace(0, v["grid_end"], 200)))),
        op("fringes/cat/N=20", ["fringes", "--state", cat, "--m", str(m), "--output", "fr"],
           lambda res: _check_fringes(res, work / "fr", 20, 12, "fringes_embedded" if fixture_args else None)),
        op("fringes/binomial/N=40", ["fringes", "--state", binomial, "--m", "20", "--output", "frb"],
           lambda res: _check_fringes(res, work / "frb", 40, None, None), FRINGES_NORM_DRIFT),
        op("infer", ["infer", "--data", str(rows), "--output", "report.json"],
           lambda _: _check_infer(work / "report.json", rows, fixture_args)),
    ]


def _exit_ok(check):
    def checked(result: CliResult) -> None:
        expect(result.code == 0, f"exit {result.code}: {result.stderr.strip()[-200:]}")
        check(result)

    return checked


def _check_attenuate(prefix: Path, n: int, eta: float, fixture: str | None) -> None:
    dist_path, cn_path = Path(f"{prefix}_distribution.csv"), Path(f"{prefix}_cn.csv")
    if fixture:
        compare_to_fixture(dist_path, f"{fixture}_distribution.csv")
        compare_to_fixture(cn_path, f"{fixture}_cn.csv")
        return
    _, rows = read_csv(dist_path)
    dist = {int(r["two_jz"]): float(r["probability"]) for r in rows}
    check_distribution(dist, noon_loss_distribution(n, eta, eta))
    _, rows = read_csv(cn_path)
    expect(len(rows) == 21, "c_n curve does not have 21 transmissions")
    for row in rows:  # c_N of the attenuated NOON state is eta^N
        e = float(row["eta"])
        expect_close(f"c_{n}({e})", float(row[f"c_{n}"]), e**n, relative=True)


def _splitter_reference(n: int):
    amps = binomial_amplitudes(n).astype(complex)
    return pure_orders(amps)[:3] + (spread_of(amps),)


def _check_splitter(path: Path, n: int) -> None:
    _, rows = read_csv(path)
    big_c, small_c, norms, spread = _splitter_reference(n)
    expect(len(rows) == n, "splitter output does not cover orders 1..N")
    for row in rows:
        order = int(row["n"])
        expect(int(row["delta"]) == spread, f"spread {row['delta']}, expected {spread}")
        expect_close(f"norm_{order}", float(row["norm"]), norms[order - 1])
        expect_close(f"C_{order}", float(row["C_n"]), big_c[order - 1])
        expect_close(f"c_{order}", float(row["c_n"]), small_c[order - 1])


def _check_splitter_eta(path: Path, n: int, etas: list[float], fixture: bool) -> None:
    if fixture:
        compare_to_fixture(path, "splitter_n100_lossy.csv")
        return
    _, rows = read_csv(path)
    _, small_c, _, _ = _splitter_reference(n)
    expect(len(rows) == n * len(etas), "splitter --eta output has the wrong row count")
    for row in rows:  # equal loss scales the order-n bound by eta^n
        order, e = int(row["n"]), float(row["eta"])
        expect_close(f"c_{order}({e})", float(row["c_n"]), small_c[order - 1] * e**order)


def _check_splitter_json(path: Path, n: int) -> None:
    report = json.loads(path.read_text())
    big_c, small_c, norms, spread = _splitter_reference(n)
    expect(report["spread"] == spread and report["fixed_total"] == n, "spread or fixed_total differ")
    expect(len(report["orders"]) == n, "report does not cover orders 1..N")
    for entry in report["orders"]:
        order = entry["n"]
        expect_close(f"norm_{order}", entry["norm"], norms[order - 1])
        expect_close(f"C_{order}", entry["C_n"], big_c[order - 1])
        expect_close(f"c_{order}", entry["c_n"], small_c[order - 1])


def _check_dynamics(path: Path, n: int, n_l: int, fractions: list[float]) -> None:
    comments, rows = read_csv(path)
    fields = dict(item.split("=") for item in comments[0].split())
    spectral, scanned = float(fields["t_n_spectral"]), float(fields["t_n_scan"])
    # 4096 scan samples over ten half-periods resolve T to about 0.25 %.
    expect(abs(spectral - scanned) <= 1e-2 * spectral, "spectral and scanned period disagree")
    expect(len(rows) == len(fractions), "wrong number of time rows")
    order = n - 2 * n_l
    eq = tolerances()["EQ_TOL"]
    for row, fraction in enumerate(fractions):
        values = rows[row]
        expect_close("t", float(values["t"]), fraction * spectral)
        probs = np.array([float(values[f"p_{m}"]) for m in range(n + 1)])
        expect_close("norm", float(probs.sum()), 1.0)
        # C_n and the support excess need magnitudes only, which P(m) gives.
        big_c, _, _, excess = pure_orders(np.sqrt(np.maximum(probs, 0.0)))
        c_n = float(values[f"c_{order}"])
        expect(c_n >= -eq, f"c_{order} = {c_n} is negative")
        check_cn_bound(np.array([c_n]), big_c[order - 1 : order], excess[order - 1 : order], f"c_{order} at t[{row}]")
    expect_close("p(t=0)", float(rows[0][f"p_{n - n_l}"]), 1.0)


def _check_fringes(result: CliResult, prefix: Path, n: int, separation: int | None, fixture: str | None) -> None:
    if fixture:
        compare_to_fixture(Path(f"{prefix}_scan.csv"), f"{fixture}_scan.csv")
        compare_to_fixture(Path(f"{prefix}_spectrum.csv"), f"{fixture}_spectrum.csv")
    _, scan = read_csv(Path(f"{prefix}_scan.csv"))
    _, spectrum = read_csv(Path(f"{prefix}_spectrum.csv"))
    probs = [float(r["p_geq_M"]) for r in scan]
    mags = [float(r["magnitude"]) for r in spectrum]
    dominant = int(result.stdout.strip().rsplit("=", 1)[-1])
    band = n if separation is None else separation
    check_scan(probs, mags, dominant, band, len(probs), separation)


def _check_infer(path: Path, rows_path: Path, fixture: bool) -> None:
    if fixture:
        compare_to_fixture(path, "infer_report.json")
        return
    report = json.loads(path.read_text())["rows"]
    _, rows = read_csv(rows_path)
    expect(len(report) == len(rows), "one report row per data row")
    for entry, row in zip(report, rows):
        n, jy2, jz2 = float(row["n"]), float(row["jy2"]), float(row["jz2"])
        axis = "jy" if jy2 < jz2 else "jz"
        xi = math.sqrt(min(jy2, jz2)) / (math.sqrt(n) / 2)
        expect(entry["xi_axis"] == axis, f"squeezed axis {entry['xi_axis']}, expected {axis}")
        expect_close("xi", entry["xi"], xi)
        expect_close("min_order", entry["min_order"], math.sqrt(n) / xi)
        expect(entry["certified"] == (xi < 1.0), "certified flag")
        expect(entry["two_atom"]["certified"] == (jz2 < n / 4 < jy2), "two-atom certified flag")
