import json
import subprocess
import sys
from pathlib import Path

import pytest

from noon_coherence import cli

from helpers import cli_env

FIXTURES = Path(__file__).parent / "fixtures"


def run_cli(args, cwd, threads=None):
    return subprocess.run(
        [sys.executable, "-m", "noon_coherence.cli", *args],
        cwd=cwd,
        env=cli_env(threads),
        capture_output=True,
        text=True,
    )


def test_attenuate_matches_fixture(tmp_path):
    result = run_cli(
        ["attenuate", "--n", "50", "--eta", "0.8", "--output", "out"], tmp_path
    )
    assert result.returncode == 0, result.stderr
    for suffix in ("distribution", "cn"):
        produced = (tmp_path / f"out_{suffix}.csv").read_bytes()
        golden = (FIXTURES / f"attenuate_noon50_{suffix}.csv").read_bytes()
        assert produced == golden


def test_splitter_matches_fixture(tmp_path):
    result = run_cli(["splitter", "--n", "5", "--output", "spl.csv"], tmp_path)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "spl.csv").read_bytes() == (FIXTURES / "splitter_n5.csv").read_bytes()


def test_splitter_lossy_matches_fixture(tmp_path):
    result = run_cli(
        ["splitter", "--n", "100", "--eta", "0.5,0.8", "--output", "spl.csv"], tmp_path
    )
    assert result.returncode == 0, result.stderr
    assert (
        tmp_path / "spl.csv"
    ).read_bytes() == (FIXTURES / "splitter_n100_lossy.csv").read_bytes()


def test_dynamics_matches_fixture(tmp_path):
    result = run_cli(
        [
            "dynamics", "--n", "5", "--g", "10", "--nl", "0",
            "--orders", "all", "--times", "0,T/6,T/3,T/2",
            "--output", "dyn.csv",
        ],
        tmp_path,
    )
    assert result.returncode == 0, result.stderr
    assert (
        tmp_path / "dyn.csv"
    ).read_bytes() == (FIXTURES / "dynamics_n5_g10.csv").read_bytes()


def test_fringes_matches_fixture_and_prints_peak(tmp_path):
    result = run_cli(
        [
            "fringes", "--state", '{"kind": "embedded_initial", "n": 20, "n_l": 4}',
            "--m", "12", "--output", "fr",
        ],
        tmp_path,
    )
    assert result.returncode == 0, result.stderr
    assert "dominant_omega=12" in result.stdout
    for suffix in ("scan", "spectrum"):
        produced = (tmp_path / f"fr_{suffix}.csv").read_bytes()
        golden = (FIXTURES / f"fringes_embedded_{suffix}.csv").read_bytes()
        assert produced == golden


def test_infer_matches_fixture(tmp_path):
    result = run_cli(
        ["infer", "--data", str(FIXTURES / "infer_rows.csv"), "--output", "rep.json"],
        tmp_path,
    )
    assert result.returncode == 0, result.stderr
    assert (
        tmp_path / "rep.json"
    ).read_bytes() == (FIXTURES / "infer_report.json").read_bytes()
    report = json.loads((tmp_path / "rep.json").read_text())
    assert [row["xi"] for row in report["rows"]] == pytest.approx([0.3, 0.5, 0.9])


def test_outputs_identical_across_runs_and_threads(tmp_path):
    blobs = []
    for tag, threads in (("a", 1), ("b", 4), ("c", None)):
        result = run_cli(
            [
                "fringes", "--state", '{"kind": "embedded_initial", "n": 9, "n_l": 2}',
                "--m", "5", "--k", "64", "--output", f"fr_{tag}",
            ],
            tmp_path,
            threads=threads,
        )
        assert result.returncode == 0, result.stderr
        blobs.append(
            (tmp_path / f"fr_{tag}_scan.csv").read_bytes()
            + (tmp_path / f"fr_{tag}_spectrum.csv").read_bytes()
        )
    assert blobs[0] == blobs[1] == blobs[2]


def test_fringes_binomial_n40_succeeds(tmp_path):
    result = run_cli(
        [
            "fringes", "--state", '{"kind": "binomial_splitter", "n": 40}',
            "--m", "20", "--output", "fr",
        ],
        tmp_path,
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "fr_spectrum.csv").exists()


def test_stdout_output_when_no_path(tmp_path):
    result = run_cli(["splitter", "--n", "3"], tmp_path)
    assert result.returncode == 0
    assert result.stdout.startswith("n,C_n,c_n,norm,S,delta")


def test_json_format(tmp_path):
    result = run_cli(["splitter", "--n", "4", "--format", "json"], tmp_path)
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert len(payload["orders"]) == 4


def test_validation_errors_exit_2(tmp_path):
    assert run_cli(["attenuate", "--n", "5", "--eta", "1.5", "--output", "x"], tmp_path).returncode == 2
    assert run_cli(["attenuate", "--n", "5", "--output", "x"], tmp_path).returncode == 2
    assert run_cli(["fringes", "--state", "not json", "--m", "1", "--output", "x"], tmp_path).returncode == 2
    assert run_cli(["fringes", "--state", '{"kind": "noon", "n": 4, "oops": 1}', "--m", "1", "--output", "x"], tmp_path).returncode == 2
    assert run_cli(["dynamics", "--n", "4", "--g", "1", "--nl", "0", "--times", "0,Q/3"], tmp_path).returncode == 2


def test_memory_error_exits_2(monkeypatch, capsys):
    def exhausted(args):
        raise MemoryError("Unable to allocate 1.00 TiB")

    monkeypatch.setattr(cli, "cmd_splitter", exhausted)
    assert cli.main(["splitter", "--n", "5"]) == 2
    assert capsys.readouterr().err.startswith("error: out of memory")


def test_numerical_failure_exit_3(tmp_path):
    result = run_cli(
        ["dynamics", "--n", "100", "--g", "1", "--nl", "0", "--times", "0,T/2"], tmp_path
    )
    assert result.returncode == 3
    assert "numerical failure" in result.stderr


def test_config_file_supplies_flags(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"n": 3, "precision": 6}))
    result = run_cli(["splitter", "--config", str(config)], tmp_path)
    assert result.returncode == 0
    assert result.stdout.startswith("n,C_n,c_n,norm,S,delta")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 3, "bogus": 1}))
    assert run_cli(["splitter", "--config", str(bad)], tmp_path).returncode == 2


def test_explicit_flags_override_config(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"n": 3}))
    result = run_cli(["splitter", "--n", "2", "--config", str(config)], tmp_path)
    assert result.returncode == 0
    assert len(result.stdout.strip().splitlines()) == 3  # header + orders 1..2


def test_fixtures_cross_check_against_oracles():
    # The golden files were generated once; every regression run re-verifies
    # their content against the library-level oracles, not just their bytes.
    import csv
    import math

    import numpy as np

    from noon_coherence import catness_fidelity
    from noon_coherence.states import make_binomial_splitter

    with open(FIXTURES / "attenuate_noon50_cn.csv") as fh:
        for row in csv.DictReader(fh):
            eta = float(row["eta"])
            assert abs(float(row["c_50"]) - eta**50) <= 1e-11 * max(1.0, eta**50)

    with open(FIXTURES / "attenuate_noon50_distribution.csv") as fh:
        dist = {int(r["two_jz"]): float(r["probability"]) for r in csv.DictReader(fh)}
    assert abs(sum(dist.values()) - 1.0) < 1e-9
    assert max((k for k in dist if k > 0), key=lambda k: dist[k]) == 40

    state5 = make_binomial_splitter(5)
    with open(FIXTURES / "splitter_n5.csv") as fh:
        for row in csv.DictReader(fh):
            entry = catness_fidelity(state5, int(row["n"]))
            assert abs(float(row["C_n"]) - entry.fidelity) < 1e-10
            assert abs(float(row["c_n"]) - entry.bound) < 1e-10
            mom = math.factorial(5) / (2 ** int(row["n"]) * math.factorial(5 - int(row["n"])))
            assert abs(entry.bound - entry.norm * mom / entry.s_value) < 1e-12

    with open(FIXTURES / "dynamics_n5_g10.csv") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    assert float(rows[-1]["c_5"]) > 0.99  # the T/2 sample is the formed cat
    for row in rows:
        total = sum(float(row[f"p_{m}"]) for m in range(6))
        assert abs(total - 1.0) < 1e-9

    with open(FIXTURES / "fringes_embedded_spectrum.csv") as fh:
        spec = {int(r["omega"]): float(r["magnitude"]) for r in csv.DictReader(fh)}
    assert max((w for w in spec if w >= 1), key=lambda w: spec[w]) == 12
    # amplitudes sit at m = 4 and m = 16 only, so the scan holds the
    # frequencies 0 and 12 and every other bin is an exact zero
    assert sorted(spec) == list(range(129))
    assert all(spec[w] == 0.0 for w in spec if w not in (0, 12))
    with open(FIXTURES / "fringes_embedded_scan.csv") as fh:
        scan = [float(r["p_geq_M"]) for r in csv.DictReader(fh)]
    assert abs(spec[0] - float(np.mean(scan))) < 1e-10

    report = json.loads((FIXTURES / "infer_report.json").read_text())
    assert [r["xi"] for r in report["rows"]] == pytest.approx([0.3, 0.5, 0.9])
    assert [r["min_order"] for r in report["rows"]] == pytest.approx(
        list(np.sqrt(100) / np.array([0.3, 0.5, 0.9]))
    )
    assert all(r["two_atom"]["certified"] for r in report["rows"])


def test_output_overwrites_atomically(tmp_path):
    target = tmp_path / "spl.csv"
    target.write_text("stale")
    result = run_cli(["splitter", "--n", "3", "--output", "spl.csv"], tmp_path)
    assert result.returncode == 0
    assert target.read_text().startswith("n,C_n")
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".spl")]
    assert leftovers == []
