import json
import math
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from noon_coherence import cli, coherence, dynamics
from noon_coherence.errors import NumericalError
from noon_coherence.states import make_number_pair

from helpers import cli_env, reference_csv_text, reference_json_text

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


def test_infer_reports_zero_xi_as_no_bound(tmp_path):
    (tmp_path / "rows.csv").write_text("n,jx,jy,jz,jy2,jz2\n100,0,0,0,25,0\n100,40,0,0,40,10\n")
    result = run_cli(["infer", "--data", "rows.csv", "--output", "rep.json"], tmp_path)
    assert result.returncode == 0, result.stderr
    first, second = json.loads((tmp_path / "rep.json").read_text())["rows"]
    assert first["xi"] == 0.0 and first["xi_axis"] == "jz"
    assert first["min_order"] is None and first["certified"] is False
    assert second["xi"] == pytest.approx(math.sqrt(10) / 5)
    assert second["min_order"] == pytest.approx(10 / (math.sqrt(10) / 5))
    assert second["certified"] is True


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


def test_splitter_json_matches_fixture(tmp_path):
    result = run_cli(["splitter", "--n", "5", "--format", "json", "--output", "spl.json"], tmp_path)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "spl.json").read_bytes() == (FIXTURES / "splitter_n5.json").read_bytes()


JSON_PRECISIONS = (1, 3, 12, 17)
JSON_COMMANDS = {
    **{f"splitter-{n}": ["splitter", "--n", str(n)] for n in (1, 2, 5, 40, 500)},
    "splitter-eta": ["splitter", "--n", "100", "--eta", "0.5,0.8"],
    "attenuate": ["attenuate", "--n", "50", "--eta", "0.8", "--orders", "all"],
    "dynamics": ["dynamics", "--n", "20", "--g", "4", "--nl", "4", "--orders", "all",
                 "--times", "grid:0:T:20"],
    "fringes": ["fringes", "--state", '{"kind": "embedded_initial", "n": 20, "n_l": 4}', "--m", "12"],
    "infer": ["infer", "--data", str(FIXTURES / "infer_rows.csv")],
    "infer-zero-xi": ["infer", "--data", "rows.csv"],
}


@pytest.mark.parametrize("argv", JSON_COMMANDS.values(), ids=JSON_COMMANDS.keys())
def test_json_text_matches_the_standard_encoder_on_every_command(monkeypatch, tmp_path, argv):
    (tmp_path / "rows.csv").write_text("n,jx,jy,jz,jy2,jz2\n100,0,0,0,25,0\n100,40,0,0,40,10\n")
    writer, payloads = cli.json_text, []

    def spy(obj, precision):
        payloads.append(obj)
        return writer(obj, precision)

    monkeypatch.setattr(cli, "json_text", spy)
    monkeypatch.chdir(tmp_path)
    assert cli.main([*argv, "--format", "json", "--output", "out.json"]) == 0
    (payload,) = payloads
    for precision in JSON_PRECISIONS:
        assert writer(payload, precision) == reference_json_text(payload, precision), precision


def test_json_text_matches_the_standard_encoder_on_edge_cases():
    edge = {
        "orders": [{"n": 3, "S": math.nan, "s_pair": None, "c_n": 0.0, "elements": []}],
        "floats": [math.inf, -math.inf, -0.0, 0.0, 5.0, -5.0, 123456789012.0, 1e15, 1e16,
                   5e-5, 1e-4, 2.5e-300, np.float64(0.1), np.float64(-0.0), np.float64(1e300)],
        "flags": [True, False, None, 0, -7, 10**20],
        "empty": [[], {}, (), [[]], [{}]],
        "10": 1, "2": 2, "-1": 3, "": 4,
        "text": ["quote \" back \\ tab \t newline \n", "é ☃ \U0001f600 \x00", ""],
        "esc\u00e9ped \"key\"": "value",
        "%s": [{"%d": 1.5, "a%%b": True, "c": "x%sy", "d": None},
               {"%d": -0.0, "a%%b": False, "c": "", "d": 2}],
        "records": [{"b": -0.0, "a": 1}, {"a": 2, "b": np.float64(2.5)}],
        "ragged": [{"a": 1}, {"b": 2}, {"a": 1, "b": 2}],
        "nested": [{"a": [1.0]}, {"a": {"x": ()}}],
        "mixed": [1, 2.5, "s", None, True, np.float64(3.0), math.nan, (1, 2.0)],
        "tuple": (0.25, 7),
    }
    rng = np.random.default_rng(23)
    mantissas = rng.uniform(-10.0, 10.0, 400)
    sweep = (mantissas * 10.0 ** rng.integers(-30, 31, 400)).tolist()
    sweep += [float(10**k) for k in range(25)] + [1.5 * 10.0**k for k in range(-8, 20)]
    sweep += np.round(mantissas * 1e6).tolist() + [0.1 + 0.2, 1 / 3, 2.0 / 3.0, 999999999999.5]
    # subnormals hold fewer than 15 digits, and the smallest normals print as them
    sweep += [5e-324, -1e-320, 1.5e-310, 2.2250738585072014e-308, 2.225073858507201e-308, 1e-300]
    for precision in JSON_PRECISIONS:
        assert cli.json_text(edge, precision) == reference_json_text(edge, precision), precision
        for scalar in (1.5, -0.0, math.nan, -math.inf, "x", None, 7, True, [], {}):
            assert cli.json_text(scalar, precision) == reference_json_text(scalar, precision)
    for precision in range(1, 18):
        payload = {"list": sweep, "records": [{"x": x, "i": i} for i, x in enumerate(sweep)]}
        assert cli.json_text(payload, precision) == reference_json_text(payload, precision), precision


def test_csv_text_matches_the_cell_by_cell_writer():
    rng = np.random.default_rng(9)
    values = (rng.uniform(-10.0, 10.0, 60) * 10.0 ** rng.integers(-20, 21, 60)).tolist()
    values += [0.0, -0.0, 5.0, 123456789012.0, 1e16, 5e-5, math.nan, math.inf, -math.inf]
    rows = [
        # -0.0 first, last and side by side; ints, numpy ints and bools; a
        # column that mixes large ints with floats
        [-0.0, i, np.int64(-i), -0.0, -0.0, x, np.float64(x), i % 2 == 0,
         10**14 + i if i % 2 else x, np.int32(i) if i % 3 else -0.0, -0.0]
        for i, x in enumerate(values)
    ]
    header = [f"h{k}" for k in range(len(rows[0]))]
    for precision in JSON_PRECISIONS:
        expected = reference_csv_text(header, rows, precision, ["t=1 x=2"])
        assert cli.csv_text(header, rows, precision, ["t=1 x=2"]) == expected, precision
        assert cli.csv_text(["only"], [[-0.0], [0.0]], precision) == "only\n0\n0\n"
    assert cli.csv_text(["a", "b"], [], 12) == "a,b\n"


def test_validation_errors_exit_2(tmp_path):
    assert run_cli(["attenuate", "--n", "5", "--eta", "1.5", "--output", "x"], tmp_path).returncode == 2
    assert run_cli(["attenuate", "--n", "5", "--output", "x"], tmp_path).returncode == 2
    assert run_cli(["fringes", "--state", "not json", "--m", "1", "--output", "x"], tmp_path).returncode == 2
    assert run_cli(["fringes", "--state", '{"kind": "noon", "n": 4, "oops": 1}', "--m", "1", "--output", "x"], tmp_path).returncode == 2
    assert run_cli(["dynamics", "--n", "4", "--g", "1", "--nl", "0", "--times", "0,Q/3"], tmp_path).returncode == 2


@pytest.mark.parametrize("phase", ["NaN", "Infinity"])
def test_fringes_rejects_a_non_finite_phase(tmp_path, phase):
    state = '{"kind": "noon", "n": 5, "phase": %s}' % phase
    result = run_cli(["fringes", "--state", state, "--m", "2", "--output", "x"], tmp_path)
    assert result.returncode == 2
    assert "amplitudes must be finite" in result.stderr
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "recipe",
    ['{"kind": "noon", "n": 5.7}', '{"kind": "noon", "n": true}', '{"kind": "noon", "n": "5"}',
     '{"kind": "embedded_initial", "n": 20, "n_l": 2.9}', '{"kind": "noon", "n": 5, "phase": true}',
     '5'],
)
def test_fringes_rejects_recipe_values_it_would_coerce(tmp_path, recipe):
    result = run_cli(["fringes", "--state", recipe, "--m", "1", "--output", "x"], tmp_path)
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("row", ["100,40,0,0,nan,10", "100,inf,0,0,40,10", "100,40,0,0,40,-inf",
                                 "100,40,0,0,40,10,7"])
def test_infer_rejects_non_finite_and_long_rows(tmp_path, row):
    (tmp_path / "rows.csv").write_text(f"n,jx,jy,jz,jy2,jz2\n100,40,0,0,40,10\n{row}\n")
    result = run_cli(["infer", "--data", "rows.csv", "--output", "rep.json"], tmp_path)
    assert result.returncode == 2
    assert "malformed squeezing CSV at line 3" in result.stderr
    assert not (tmp_path / "rep.json").exists()


def test_infer_takes_only_json_format(tmp_path):
    data = str(FIXTURES / "infer_rows.csv")
    result = run_cli(["infer", "--data", data, "--format", "csv", "--output", "rep"], tmp_path)
    assert result.returncode == 2
    assert result.stderr.startswith("usage: noon-coherence infer")
    assert not list(tmp_path.iterdir())
    result = run_cli(["infer", "--data", data, "--format", "json", "--output", "rep.json"], tmp_path)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "rep.json").read_bytes() == (FIXTURES / "infer_report.json").read_bytes()


def test_splitter_csv_does_not_build_the_json_report(monkeypatch, tmp_path):
    def unused(self):
        raise AssertionError("the CSV form built the JSON report")

    monkeypatch.setattr(coherence.CoherenceReport, "to_json", unused)
    out = tmp_path / "spl.csv"
    assert cli.main(["splitter", "--n", "5", "--output", str(out)]) == 0
    assert out.read_bytes() == (FIXTURES / "splitter_n5.csv").read_bytes()


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


def test_norm_drift_is_a_numerical_failure(monkeypatch, capsys, tmp_path):
    exact = dynamics.evolve_amplitudes
    monkeypatch.setattr(
        dynamics, "evolve_amplitudes", lambda *args: (1.0 + 1e-6) * exact(*args)
    )
    system = dynamics.build_hamiltonian(4, 1.0)
    with pytest.raises(NumericalError, match="lost normalization"):
        dynamics.evolve(system, make_number_pair(0, 4), [0.0, 1.0])
    out = tmp_path / "out.csv"
    argv = ["dynamics", "--n", "4", "--g", "1", "--nl", "0", "--times", "0,1", "--output", str(out)]
    assert cli.main(argv) == 3
    assert capsys.readouterr().err.startswith("numerical failure:")
    assert not out.exists()


def test_config_file_supplies_flags(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"n": 3, "precision": 6}))
    result = run_cli(["splitter", "--config", str(config)], tmp_path)
    assert result.returncode == 0
    assert result.stdout.startswith("n,C_n,c_n,norm,S,delta")
    # each entry is parsed by the flag it names, so a wrong type, choice or
    # key exits 2 as it would on the line, and nothing is written
    for entry in [{"format": "xml"}, {"n": True}, {"precision": 6.9}, {"bogus": 1}, {"config": "x"}]:
        config.write_text(json.dumps({"n": 3, **entry}))
        result = run_cli(["splitter", "--config", str(config), "--output", "out.csv"], tmp_path)
        assert result.returncode == 2, entry
        assert "Traceback" not in result.stderr
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]
    # a bare --config is reported by the subcommand's own parser
    result = run_cli(["splitter", "--config"], tmp_path)
    assert result.returncode == 2
    assert result.stderr.startswith("usage: noon-coherence splitter")
    assert "argument --config: expected one argument" in result.stderr


@pytest.mark.parametrize(
    "argv, entries, flags",
    [
        (["dynamics", "--n", "20", "--g", "4", "--nl", "4", "--times", "0,T/6"],
         {"orders": 12}, ["--orders", "12"]),
        (["fringes", "--m", "2", "--k", "16"],
         {"state": {"kind": "noon", "n": 5}}, ["--state", '{"kind": "noon", "n": 5}']),
        (["attenuate", "--n", "6", "--eta", "0.5"], {"eta_steps": 5}, ["--eta-steps", "5"]),
        (["dynamics", "--n", "4", "--g", "1", "--nl", "0"], {"times": "-1,0"}, ["--times=-1,0"]),
        (["splitter", "--n", "3"], {"eta": None, "format": None, "precision": None}, []),
    ],
)
def test_config_entries_match_the_same_flags(tmp_path, argv, entries, flags):
    # non-string values arrive as JSON text, and a null entry keeps the default
    outputs = []
    for tag, extra in (("config", ["--config", "cfg.json"]), ("line", flags)):
        work = tmp_path / tag
        work.mkdir()
        (work / "cfg.json").write_text(json.dumps(entries))
        result = run_cli([*argv, *extra, "--output", "out"], work)
        assert result.returncode == 0, result.stderr
        written = {p.name: p.read_bytes() for p in work.iterdir() if p.name != "cfg.json"}
        outputs.append((result.stdout, written))
    assert outputs[0][1]
    assert outputs[0] == outputs[1]


def test_readme_cli_commands_run(tmp_path):
    # every noon-coherence line of the README's CLI block, continuations
    # joined and comments dropped, must run and write the files it names
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    commands = [argv[1:] for argv in commands if argv[:1] == ["noon-coherence"]]
    named = [
        name.strip()
        for line in block.splitlines()
        if line.startswith("# ->")
        for name in line[len("# ->"):].split(",")
    ]
    assert commands and named
    shutil.copy(FIXTURES / "infer_rows.csv", tmp_path / "rows.csv")
    for argv in commands:
        result = run_cli(argv, tmp_path)
        assert result.returncode == 0, (argv, result.stderr)
    for name in named:
        assert (tmp_path / name).stat().st_size > 0


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


def test_cli_runs_without_scipy(tmp_path):
    # a fresh interpreter in which any scipy import fails
    script = (
        "import runpy, sys\n"
        "class NoScipy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'scipy' or name.startswith('scipy.'):\n"
        "            raise ImportError('scipy is blocked: ' + name)\n"
        "sys.meta_path.insert(0, NoScipy())\n"
        "sys.argv = ['noon_coherence.cli', 'splitter', '--n', '5', '--output', 'spl.csv']\n"
        "runpy.run_module('noon_coherence.cli', run_name='__main__')\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=cli_env(), capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "spl.csv").read_bytes() == (FIXTURES / "splitter_n5.csv").read_bytes()
