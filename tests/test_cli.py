import argparse
import ast
import copy
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ncfatou import cli, series
from ncfatou.cli import ConfigError, main, run_config, schema_doc, validate


def write_cfg(tmp_path, name, cfg):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def test_missing_config_file():
    assert run_config("/nonexistent/config.json") == 2


def test_invalid_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert run_config(str(p)) == 2


def test_unknown_experiment(tmp_path, capsys):
    p = write_cfg(tmp_path, "cfg.json", {"experiment": "nonsense"})
    assert run_config(p) == 2
    assert "experiment" in capsys.readouterr().err


def test_boundary_radius_rejected_with_field_path(tmp_path, capsys):
    cfg = {"experiment": "inner-singular", "d": 1, "M": 0,
           "schedule": {"stages": [[1.0, 8]]},
           "schur_coeffs": {"1": [1.0, 0.0]}, "output_dir": "out"}
    p = write_cfg(tmp_path, "cfg.json", cfg)
    assert run_config(p) == 2
    err = capsys.readouterr().err
    assert "schedule.stages[0][0]" in err


def test_missing_symbol_source(tmp_path, capsys):
    cfg = {"experiment": "classical-fatou", "d": 1, "output_dir": "out"}
    p = write_cfg(tmp_path, "cfg.json", cfg)
    assert run_config(p) == 2
    assert "schur_series_file" in capsys.readouterr().err


def test_factor_experiment_end_to_end(tmp_path):
    cfg = {"experiment": "factor", "d": 2, "N": 8, "epsilon": 1.0,
           "tau": {"type": "vector-state",
                   "coeffs": {"e": [1.0, 0.0], "1": [0.5, 0.0]}},
           "residual_tol": 1e-8, "output_dir": "out", "seed": 0}
    p = write_cfg(tmp_path, "cfg.json", cfg)
    assert run_config(p, quiet=True) == 0
    out = tmp_path / "out"
    assert (out / "factor_psi.csv").exists()
    assert (out / "summary.txt").exists()
    header = (out / "factor_psi.csv").read_text().splitlines()[0]
    assert header == "# ncfatou factor seed=0"


def test_outdir_env_override(tmp_path, monkeypatch):
    override = tmp_path / "elsewhere"
    monkeypatch.setenv("NCFATOU_OUTDIR", str(override))
    cfg = {"experiment": "factor", "d": 1, "N": 6, "epsilon": 1.0,
           "tau": {"type": "vector-state", "coeffs": {"e": [1.0, 0.0]}},
           "output_dir": "ignored", "seed": 0}
    p = write_cfg(tmp_path, "cfg.json", cfg)
    assert run_config(p, quiet=True) == 0
    assert (override / "factor_psi.csv").exists()


def test_unwritable_output_location_exits_2_naming_it_and_its_source(tmp_path, monkeypatch,
                                                                     capsys):
    # a directory that cannot be made (under a regular file, or the file
    # itself), or a table that cannot be written, in run and in verify: one
    # line on stderr naming the path and where it came from, exit 2
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    (tmp_path / "out" / "summary.txt").mkdir(parents=True)
    cfg = {"experiment": "factor", "d": 1, "N": 6, "epsilon": 1.0,
           "tau": {"type": "vector-state", "coeffs": {"e": [1.0, 0.0]}}}
    cases = [({"output_dir": "a_file/x"}, None, ["run"], "output_dir"),
             ({}, str(blocker / "x"), ["run"], "NCFATOU_OUTDIR"),
             ({"output_dir": "out"}, None, ["run"], "output_dir"),
             (None, None, ["verify", "--output-dir", str(blocker)], "--output-dir"),
             (None, str(blocker), ["verify"], "NCFATOU_OUTDIR")]
    for extra, env, argv, source in cases:
        if env is None:
            monkeypatch.delenv("NCFATOU_OUTDIR", raising=False)
        else:
            monkeypatch.setenv("NCFATOU_OUTDIR", env)
        if extra is not None:
            argv = argv + [write_cfg(tmp_path, "cfg.json", {**cfg, **extra}), "--quiet"]
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("output error: cannot write ")
        assert f"({source} " in err, err


def test_failed_allocation_exits_3_with_one_line_and_no_output(tmp_path, monkeypatch,
                                                              capsys):
    # numpy raises a MemoryError subclass when it cannot allocate; the
    # runner here raises it without allocating anything
    def runner(c):
        raise MemoryError("Unable to allocate 512. TiB for an array")

    monkeypatch.delenv("NCFATOU_OUTDIR", raising=False)
    monkeypatch.setitem(cli.SCHEMAS, "factor", (cli.SCHEMAS["factor"][0], runner))
    cfg = {"experiment": "factor", "d": 2, "N": 4,
           "tau": {"type": "vector-state", "coeffs": {"e": [1.0, 0.0]}}}
    assert run_config(write_cfg(tmp_path, "cfg.json", cfg)) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("out of memory: Unable to allocate")
    assert not (tmp_path / "out").exists()


def test_basis_beyond_int64_exits_2_with_one_line_and_no_output(tmp_path, monkeypatch,
                                                                capsys):
    # 3^61 and 2^71 - 1 words: validation refuses the grade, N, a stage's
    # or symbol_grade, naming its field, before the runner, which would
    # build WordBasis(d, grade), is called.  So it does for 2^61 - 1
    # words, which int64 indexes but no machine's memory holds
    def runner(c):
        raise AssertionError("the runner ran")

    monkeypatch.delenv("NCFATOU_OUTDIR", raising=False)
    inner = {"experiment": "inner-singular", "d": 2, "M": 0, "schur_coeffs": {"1": [0.5, 0.0]}}
    for d, N, top, reason in ((3, 60, 70, "int64"), (2, 60, 60, "physical memory")):
        huge = {"d": d, "N": N}
        for cfg, path in (({"experiment": "factor", **huge,
                            "tau": {"type": "vector-state", "coeffs": {"e": [1.0, 0.0]}}}, "N"),
                          ({"experiment": "majorant", **huge,
                            "schur_coeffs": {"1": [0.3, 0.0]}}, "N"),
                          ({"experiment": "kernels", **huge,
                            "schur_coeffs": {"1": [0.3, 0.0]}}, "N"),
                          ({**inner, "schedule": {"stages": [[0.5, top]]}},
                           "schedule.stages[0][1]"),
                          ({**inner, "schedule": {"stages": [[0.4, 8], [0.5, top]]}},
                           "schedule.stages[1][1]"),
                          ({**inner, "symbol_grade": top,
                            "schedule": {"stages": [[0.5, 8]]}}, "symbol_grade")):
            exp = cfg["experiment"]
            monkeypatch.setitem(cli.SCHEMAS, exp, (cli.SCHEMAS[exp][0], runner))
            assert run_config(write_cfg(tmp_path, "cfg.json", cfg)) == 2, path
            err = capsys.readouterr().err
            grade = f"d = {d}, N = {N}" if "N" in cfg else f"d = 2, N = {top}"
            assert err.count("\n") == 1 and err.startswith(f"config error: {path}: {grade}: ")
            assert reason in err and "Traceback" not in err
            assert not (tmp_path / "out").exists()
    # the grade of the committed kernels config passes validation
    assert validate({"experiment": "kernels", "d": 2, "N": 20,
                     "schur_coeffs": {"1": [0.3, 0.0]}})["N"] == 20


def test_experiment_outputs_are_bit_identical(tmp_path):
    cfg = {"experiment": "factor", "d": 2, "N": 5, "epsilon": 1.0,
           "tau": {"type": "vector-state",
                   "coeffs": {"e": [1.0, 0.0], "2": [0.25, 0.25]}},
           "output_dir": "out", "seed": 7}
    p = write_cfg(tmp_path, "cfg.json", cfg)
    assert run_config(p, quiet=True) == 0
    first = (tmp_path / "out" / "factor_psi.csv").read_bytes()
    assert run_config(p, quiet=True) == 0
    assert (tmp_path / "out" / "factor_psi.csv").read_bytes() == first


def test_main_entry_requires_command():
    with pytest.raises(SystemExit):
        main([])


def test_main_builds_its_parser_once(tmp_path, monkeypatch, capsys):
    # the parser and its two subcommands are built on the first call alone
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli._parser.cache_clear()
    try:
        for _ in range(3):
            assert main(["run", str(tmp_path / "absent.json"), "--quiet"]) == 2
    finally:
        cli._parser.cache_clear()
    assert built[0] == "ncfatou" and len(built) == 3
    assert capsys.readouterr().err.count("config: ") == 3


def test_inner_singular_d2_small(tmp_path):
    # a scaled-down version of the matrix-free trend experiment
    cfg = {"experiment": "inner-singular", "d": 2, "M": 0,
           "epsilon_grid": [1.0], "recovery_buffer": 0,
           "schedule": {"stages": [[0.4, 8], [0.5, 8], [0.6, 8]]},
           "schur_coeffs": {"1": [0.7071067811865476, 0.0],
                            "2": [0.7071067811865476, 0.0]},
           "output_dir": "out", "seed": 0}
    p = write_cfg(tmp_path, "cfg.json", cfg)
    assert run_config(p, quiet=True) == 0
    lines = (tmp_path / "out" / "summary.txt").read_text()
    assert "vacuum resolvent strictly increasing = True" in lines


# ---------------------------------------------------------------------------
# schema validation: malformed configs exit 2, naming the field, before any
# numerics run

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
COMMITTED = {p.stem: json.loads(p.read_text()) for p in sorted(CONFIGS.glob("*.json"))}


def _no_numerics(c):
    raise AssertionError(f"{c['experiment']} reached numerics")


@pytest.fixture
def no_numerics(monkeypatch):
    for name, (fields, _) in list(cli.SCHEMAS.items()):
        monkeypatch.setitem(cli.SCHEMAS, name, (fields, _no_numerics))


FACTOR = {"experiment": "factor", "d": 1, "N": 4,
          "tau": {"type": "vector-state", "coeffs": {"e": [1.0, 0.0]}}}
KERNELS = {"experiment": "kernels", "d": 2, "N": 4, "schur_coeffs": {"1": [0.3, 0.0]}}
INNER = {"experiment": "inner-singular", "d": 1, "M": 0,
         "schedule": {"stages": [[0.5, 8]]}, "schur_coeffs": {"1": [1.0, 0.0]}}
MAJORANT = {"experiment": "majorant", "d": 1, "N": 4, "M": 2,
            "schur_coeffs": {"1": [0.5, 0.0]}}
DECOMPOSE = {"experiment": "decompose", "M": 2, "schedule": {"stages": [[0.5, 4]]},
             "measure_spec": {"point_masses": [[0.0, 1.0]]}}


def _with(base, **changes):
    cfg = copy.deepcopy(base)
    for path, value in changes.items():
        *head, last = path.split("__")
        node = cfg
        for key in head:
            node = node[key]
        node[last] = value
    return cfg


# each must exit 2 naming its field; without the schema table most of them
# exited 3 or 0, hung (grid <= 0) or ended in a traceback
MALFORMED = [
    (_with(FACTOR, epsilon="x"), "epsilon"),
    (_with(FACTOR, residual_tol="x"), "residual_tol"),
    (_with(INNER, tolerances={"cg_tol": 1e-10}), "tolerances.cg_tol"),
    (_with(KERNELS, row_norm_cap="x"), "row_norm_cap"),
    (_with(FACTOR, d=0), "d"),
    (_with(KERNELS, seed=-1), "seed"),
    (_with(FACTOR, tau__coeffs={"7": [1.0, 0.0]}), "tau.coeffs.7"),
    (_with(KERNELS, max_level=0), "max_level"),
    (_with(MAJORANT, M=6), "M"),
    (_with(KERNELS, schur_coeffs={"1": ["a", 0]}), "schur_coeffs.1[0]"),
    (_with(FACTOR, tau__coeffs={"e": ["a", 0]}), "tau.coeffs.e[0]"),
    (_with(FACTOR, N=True), "N"),
    (_with(INNER, epsilon_grid=[0.25, True]), "epsilon_grid[1]"),
    (_with(FACTOR, tyop=1), "tyop"),
    (_with(DECOMPOSE, measure_spec={"grid": 0}), "measure_spec.grid"),
    (_with(DECOMPOSE, measure_spec={"grid": -4}), "measure_spec.grid"),
    (_with(INNER, M=9), "schedule.stages[0][1]"),
    (_with(INNER, tolerances={"null_tol": 1e-10}), "tolerances.null_tol"),
    (_with(FACTOR, tau__coeffs={"11111": [1.0, 0.0]}), "tau.coeffs.11111"),
    (_with(INNER, schedule={"tail_tol": 1e-8, "j_min": 4, "j_max": 2}), "schedule.j_max"),
    (_with(DECOMPOSE, measure_spec={"density": {"type": "poisson", "value": 1.0}}),
     "measure_spec.density.value"),
    (_with(FACTOR, tau={"type": "radial", "coeffs": {"e": [1.0, 0.0]}}), "tau.coeffs"),
    (_with(FACTOR, epsilon=0), "epsilon"),
    (_with(KERNELS, schur_series_file="b.csv"), "schur_series_file"),
    ({"experiment": "classical-fatou", "schur_series_file": "x" * 300}, "schur_series_file"),
]


@pytest.mark.parametrize("cfg,field", MALFORMED, ids=[f for _, f in MALFORMED])
def test_malformed_config_exits_2_naming_the_field(cfg, field, tmp_path, capsys, no_numerics):
    assert run_config(write_cfg(tmp_path, "cfg.json", cfg)) == 2
    assert f"config error: {field}:" in capsys.readouterr().err


def test_grid_is_rounded_up_to_a_power_of_two(tmp_path):
    # a grid is rounded up to the power of two the moments need, so 3 and 32
    # give the same result
    results = []
    for grid in (3, 32):
        cfg = _with(DECOMPOSE, measure_spec={"grid": grid, "point_masses": [[0.5, 1.0]]})
        assert run_config(write_cfg(tmp_path, "cfg.json", cfg), quiet=True) == 0
        results.append((tmp_path / "out" / "decompose_summary.csv").read_text())
    assert results[0] == results[1]


def test_validate_fills_every_default():
    c = validate(dict(INNER, d=2, schur_coeffs={"2": [0.5, 0.0]}))
    assert c["recovery_buffer"] == 0 and c["symbol_grade"] == 4 and c["seed"] == 0
    assert c["epsilon_grid"] == [0.25, 1.0] and c["output_dir"] == "out"
    assert c["tolerances"] == {"singular_tol": 0.05}
    assert c["schur_coeffs"] == {(2,): 0.5 + 0j}
    c = validate({k: v for k, v in INNER.items() if k != "schedule"})
    assert c["recovery_buffer"] == 8
    assert c["schedule"] == {"tail_tol": 1e-8, "j_min": 1, "j_max": 10,
                             "memory_budget_mb": 512.0}


def test_importing_the_cli_leaves_scipy_sparse_unloaded():
    # no scipy module, which no module of the package imports, nor a
    # worker pool (concurrent.futures): every run works on the calling thread
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", "import sys, ncfatou.cli; "
                           "print(*(m in sys.modules for m in ('scipy', 'concurrent.futures')))"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False False"


def test_no_module_of_the_package_imports_scipy():
    # numpy is the one runtime dependency: no import of scipy in the
    # package's source, at module level or inside a function
    found = []
    for path in sorted((ROOT / "src" / "ncfatou").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {name}" for name in names
                      if name.split(".")[0] == "scipy"]
    assert found == []


def test_runs_with_scipy_blocked_reproduce_the_golden_files(tmp_path):
    # with every scipy import failing, classical-fatou, factor_toeplitz and
    # verify reach every Toeplitz fill, Cholesky factor, numpy solve and d = 1
    # band solve of a run, exit 0 and write their golden files byte for byte
    # (BLAS at one thread, as the golden files)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    runs = {"classical_fatou": ["run", str(CONFIGS / "classical_fatou.json"), "--quiet"],
            "factor_toeplitz": ["run", str(CONFIGS / "factor_toeplitz.json"), "--quiet"],
            "verify": ["verify", "--suite", "core", "--quiet"]}
    script = ("import json, os, sys\nsys.modules['scipy'] = None\n"
              "from ncfatou.cli import main\n"
              "for out, argv in json.loads(sys.argv[1]):\n"
              "    os.environ['NCFATOU_OUTDIR'] = out\n"
              "    assert main(argv) == 0, argv\n")
    args = json.dumps([(str(tmp_path / n), argv) for n, argv in runs.items()])
    proc = subprocess.run([sys.executable, "-c", script, args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    for n in runs:
        goldens = sorted((CONFIGS / "out" / n).iterdir())
        assert [p.name for p in goldens] == sorted(p.name for p in (tmp_path / n).iterdir())
        for golden in goldens:
            assert (tmp_path / n / golden.name).read_bytes() == golden.read_bytes(), golden


def test_coupled_schedule_below_M_exits_2(tmp_path, capsys):
    cfg = _with(INNER, M=9, schedule={"tail_tol": 0.1, "j_max": 2})
    assert run_config(write_cfg(tmp_path, "cfg.json", cfg), quiet=True) == 2
    assert "config error: schedule:" in capsys.readouterr().err


def test_symbol_degree_beyond_a_stage_grade_exits_2(tmp_path, capsys, monkeypatch):
    # a config fault, found before the coupled limit runs: one line naming schedule
    monkeypatch.setattr(cli, "rn_derivative", lambda *a, **k: pytest.fail("numerics ran"))
    cfg = {"experiment": "classical-fatou", "M": 2, "schedule": {"stages": [[0.5, 3]]},
           "schur_coeffs": {"1111": [0.5, 0]}}
    assert run_config(write_cfg(tmp_path, "cfg.json", cfg), quiet=True) == 2
    assert capsys.readouterr().err == (
        "config error: schedule: stage grade 3 is below the symbol degree 4\n")


@pytest.mark.parametrize("cfg", [
    {"experiment": "classical-fatou", "schur_coeffs": {"1": [0.5, 0.0]}},
    _with(INNER, d=2, schur_coeffs={"1": [0.5, 0.0], "2": [0.5, 0.0]})])
def test_coupled_schedule_beyond_its_memory_budget_exits_2(tmp_path, capsys, cfg):
    # no grade-1 basis fits the budget: a config error naming the field
    cfg = _with(cfg, schedule={"memory_budget_mb": 1e-9})
    assert run_config(write_cfg(tmp_path, "cfg.json", cfg), quiet=True) == 2
    err = capsys.readouterr().err
    assert "config error: schedule.memory_budget_mb: schedule infeasible" in err


def test_coupled_grades_beyond_physical_memory_exit_2(tmp_path, capsys, monkeypatch):
    # the memory budget has no upper bound: at four times physical memory
    # the d = 2 coupled schedule reaches a basis that does not fit.  That
    # is a config error naming the budget, found before the coupled limit
    # allocates anything, with one line and no output directory.  d = 1
    # caps its grade at 2,000,000 words, so the same budget passes there
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    cfg = {"experiment": "inner-singular", "d": 2, "M": 0,
           "schedule": {"memory_budget_mb": 4 * ram / 2 ** 20},
           "schur_coeffs": {"1": [0.5, 0.0]}}
    monkeypatch.setattr(cli, "rn_derivative", lambda *a, **k: pytest.fail("numerics ran"))
    out = tmp_path / "new" / "out"
    monkeypatch.setenv("NCFATOU_OUTDIR", str(out))
    path = write_cfg(tmp_path, "cfg.json", cfg)
    tracemalloc.start()
    try:
        assert run_config(path, quiet=True) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert err.startswith("config error: schedule.memory_budget_mb: d = 2, N = ")
    assert err.count("\n") == 1 and "physical memory" in err
    assert not (tmp_path / "new").exists()
    assert peak < 2 ** 20
    d1 = cli._schedule(validate({**cfg, "d": 1}))
    assert d1.max_grade() <= 2_000_000


@pytest.mark.parametrize("cfg, field", [
    (_with(INNER, M=9, schedule={"tail_tol": 0.1, "j_max": 2}), "schedule"),
    (_with(INNER, schedule={"memory_budget_mb": 1e-9}), "schedule.memory_budget_mb"),
    ({"experiment": "classical-fatou", "M": 2, "schedule": {"stages": [[0.5, 3]]},
      "schur_coeffs": {"1111": [0.5, 0]}}, "schedule")])
def test_config_fault_raised_by_a_runner_leaves_no_output_directory(tmp_path, capsys,
                                                                    monkeypatch, cfg, field):
    # the coupled-grade, memory-budget and symbol-degree checks run inside
    # the runner; the output directory is made only after it returns
    out = tmp_path / "new" / "out"
    monkeypatch.setenv("NCFATOU_OUTDIR", str(out))
    assert run_config(write_cfg(tmp_path, "cfg.json", cfg), quiet=True) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field}: ") and err.count("\n") == 1
    assert not (tmp_path / "new").exists()


REFUSE_THREADS = ("import threading\n"
                  "def refuse(self):\n"
                  "    raise AssertionError('a thread was started')\n"
                  "threading.Thread.start = refuse\n")


def _run_majorant(tmp_path, config, argv_extra=(), prelude=""):
    """Run a committed majorant config in a fresh process, BLAS at one
    thread as the golden files, after the code prelude; return the bytes
    it writes by file name."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               NCFATOU_OUTDIR=str(tmp_path))
    script = prelude + "import sys\nfrom ncfatou.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    argv = ["run", str(CONFIGS / f"{config}.json"), *argv_extra, "--quiet"]
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return {p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())}


def test_majorant_runner_starts_no_thread(tmp_path):
    # the r_grid runs on the calling thread: with Thread.start refused the
    # run exits 0 and writes its golden files
    out = _run_majorant(tmp_path, "majorant_d2", prelude=REFUSE_THREADS)
    golden = {p.name: p.read_bytes() for p in sorted((CONFIGS / "out" / "majorant_d2").iterdir())}
    assert out == golden


@pytest.mark.parametrize("config", ["majorant_d1", "majorant_d2"])
def test_run_threads_flag_has_no_effect(config, tmp_path):
    one = _run_majorant(tmp_path / "one", config, ["--threads", "1"])
    four = _run_majorant(tmp_path / "four", config, ["--threads", "4"])
    assert one and one == four


def test_verify_threads_flag_is_gone():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--threads", "2"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# file contents are config too

def _message(fn, arg):
    """The message of the exception fn(arg) raises, as this Python words it."""
    try:
        fn(arg)
    except (TypeError, ValueError) as exc:
        return str(exc)
    raise AssertionError(f"{fn.__name__}({arg!r}) raised nothing")


# problem -> (file contents, the message after "config error: <field>: <path>: ")
BAD_FILES = {
    "header": ("word,real,imag\n1,0.5,0.0\n", "expected header word,re,im"),
    "long word": ("word,re,im\ne,1.0,0.0\n11111,0.5,0.0\n",
                  "word of length 5 exceeds truncation 4"),
    "value": ("word,re,im\ne,1.0,0.0\n1,half,0.0\n", _message(float, "half")),
    "short row": ("word,re,im\ne,1.0,0.0\n1,0.5\n", _message(float, None)),
    "repeated word": ("word,re,im\ne,1.0,0.0\n1,0.5,0\n1,0.3,0\n", "repeated word '1'"),
    "nan value": ("word,re,im\ne,1.0,0.0\n1,nan,0\n",
                  "word '1' has a value that is not finite: nan, 0.0"),
    "inf value": ("word,re,im\ne,inf,0.0\n1,0.5,0\n",
                  "word 'e' has a value that is not finite: inf, 0.0"),
}


@pytest.mark.parametrize("problem", sorted(BAD_FILES))
@pytest.mark.parametrize("cfg,field", [
    ({"experiment": "classical-fatou", "schur_series_file": "b.csv"}, "schur_series_file"),
    ({**FACTOR, "tau": {"type": "radial", "schur_series_file": "b.csv"}},
     "tau.schur_series_file"),
    ({**DECOMPOSE, "measure_spec": None, "moments_file": "b.csv"}, "moments_file"),
], ids=["symbol", "tau", "moments"])
def test_bad_file_contents_exit_2(cfg, field, problem, tmp_path, capsys):
    # one line that names the field and the path once
    cfg = {k: v for k, v in cfg.items() if v is not None}
    text, message = BAD_FILES[problem]
    (tmp_path / "b.csv").write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before any numerics could warn
        assert run_config(write_cfg(tmp_path, "cfg.json", cfg), quiet=True) == 2
    err = capsys.readouterr().err
    assert err == f"config error: {field}: {tmp_path / 'b.csv'}: {message}\n"


@pytest.mark.parametrize("first,second,word", [("1", " 1", "1"), ("e", "", "e")])
@pytest.mark.parametrize("cfg,field", [({"experiment": "classical-fatou"}, "schur_coeffs"),
                                       (FACTOR, "tau__coeffs")], ids=["symbol", "tau"])
def test_inline_word_given_twice_exits_2(cfg, field, first, second, word, tmp_path, capsys):
    # as a file's repeated word: the second key is refused, not kept over the first
    cfg = _with(cfg, **{field: {first: [0.5, 0.0], second: [0.1, 0.0]}})
    assert run_config(write_cfg(tmp_path, "cfg.json", cfg), quiet=True) == 2
    err = capsys.readouterr().err
    assert err == f"config error: {field.replace('__', '.')}.{second}: repeated word {word!r}\n"


def test_moments_file_without_the_unit_word_exits_2(tmp_path, capsys):
    (tmp_path / "b.csv").write_text("word,re,im\n1,0.5,0\n")
    cfg = {**DECOMPOSE, "moments_file": "b.csv"}
    del cfg["measure_spec"]
    assert run_config(write_cfg(tmp_path, "cfg.json", cfg), quiet=True) == 2
    err = capsys.readouterr().err
    assert err == (f"config error: moments_file: {tmp_path / 'b.csv'}: "
                   "moment file must contain the unit word 'e'\n")


def test_non_positive_symbol_exits_3(tmp_path, capsys):
    # the moments (1, 2) belong to no positive measure: at r = 0.5 the
    # symbol eps + Re H(r e^it) = 1.25 + 2 cos t of the first stage dips
    # below zero, and N = 16 leaves words beyond the recovery corner
    (tmp_path / "m.csv").write_text("word,re,im\ne,1,0\n1,2,0\n")
    cfg = {**DECOMPOSE, "measure_spec": None, "moments_file": "m.csv",
           "schedule": {"stages": [[0.5, 16]]}}
    cfg = {k: v for k, v in cfg.items() if v is not None}
    assert run_config(write_cfg(tmp_path, "cfg.json", cfg), quiet=True) == 3
    err = capsys.readouterr().err
    assert "not positive at r = 0.5, N = 16: min s = -7.500e-01" in err


def test_symbol_with_a_boundary_germ_exits_3(tmp_path, capsys):
    # |B(0)| = 1: rn_derivative converts the symbol to its Clark measure
    # before the first stage, and that conversion checks the germ
    cfg = {"experiment": "classical-fatou", "output_dir": str(tmp_path),
           "schur_coeffs": {"e": [1, 0], "1": [0.1, 0]}}
    assert run_config(write_cfg(tmp_path, "cfg.json", cfg), quiet=True) == 3
    assert "germ condition violated" in capsys.readouterr().err


def test_d1_factor_of_a_tau_the_probes_miss_exits_3(tmp_path, capsys):
    # the radial measure of the non-Schur symbol 1.2 Z passes the Rayleigh
    # probes, and the Cholesky factor of the indefinite eps I + tau fails
    cfg = _with(FACTOR, N=8, epsilon=1.0, tau={
        "type": "radial", "r": 0.9, "schur_coeffs": {"1": [1.2, 0.0]}},
        output_dir=str(tmp_path))
    assert run_config(write_cfg(tmp_path, "cfg.json", cfg), quiet=True) == 3
    err = capsys.readouterr().err
    assert "eps I + tau is not positive definite at eps = 1.0" in err


def test_factor_of_a_non_positive_tau_exits_3(tmp_path, capsys):
    # the radial measure of the non-Schur symbol 1.5 Z1 + 1.5 Z2 passes the
    # Rayleigh probes, and a pivot of the prefix-tree sweep of eps I + tau
    # that is not positive names it
    cfg = _with(FACTOR, d=2, N=6, epsilon=1.0, tau={
        "type": "radial", "r": 0.9, "schur_coeffs": {"1": [1.5, 0.0], "2": [1.5, 0.0]}},
        output_dir=str(tmp_path))
    assert run_config(write_cfg(tmp_path, "cfg.json", cfg), quiet=True) == 3
    err = capsys.readouterr().err
    assert "eps I + tau is not positive definite at eps = 1.0" in err


# ---------------------------------------------------------------------------
# mutated copies of the committed configs

def _paths(node, path=()):
    """Every (path, is_leaf) in a JSON tree."""
    if isinstance(node, (dict, list)):
        if isinstance(node, dict):
            yield path, False
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _paths(child, path + (key,))
    else:
        yield path, True


def _get(node, path):
    for key in path:
        node = node[key]
    return node


def _still_valid(path, value):
    """Leaves where a mutation gives another valid config: coefficient
    parts and angles are signed reals, and any string names an output
    directory."""
    if value == -1 and not isinstance(value, bool):
        return "schur_coeffs" in path or "coeffs" in path or path[-3:-2] == ("point_masses",) \
            and path[-1] == 0
    return value == "x" and path == ("output_dir",)


def _required(name, path):
    top = {"experiment", "schur_series_file", "schur_coeffs", "measure_spec", "tau"}
    return (len(path) == 1 and (path[0] in top or path[0] == "N" and
                                COMMITTED[name]["experiment"] in ("factor", "majorant"))
            or path in {("tau", "type"), ("tau", "coeffs"), ("tau", "schur_series_file"),
                        ("measure_spec", "density", "type")})


@st.composite
def mutations(draw):
    name = draw(st.sampled_from(sorted(COMMITTED)))
    cfg = copy.deepcopy(COMMITTED[name])
    paths = list(_paths(cfg))
    kind = draw(st.sampled_from(["replace", "add", "drop", "repeat"]))
    drops = [p for p, _ in paths if p and _required(name, p)]
    if kind == "drop" and drops:
        path = draw(st.sampled_from(drops))
        del _get(cfg, path[:-1])[path[-1]]
        return name, cfg, True
    repeats = [p for p, leaf in paths if not leaf and p[-1:] in (("coeffs",), ("schur_coeffs",))]
    if kind == "repeat" and repeats:
        # a second key that names a word already given
        coeffs = _get(cfg, draw(st.sampled_from(repeats)))
        key = draw(st.sampled_from(sorted(coeffs)))
        coeffs["" if key == "e" else " " + key] = [0.0, 0.0]
        return name, cfg, True
    if kind == "add":
        path = draw(st.sampled_from([p for p, leaf in paths if not leaf]))
        _get(cfg, path)["tyop"] = 1
        return name, cfg, True
    path = draw(st.sampled_from([p for p, leaf in paths if leaf]))
    value = draw(st.sampled_from(["x", True, None, -1, [], {}]))
    _get(cfg, path[:-1])[path[-1]] = value
    return name, cfg, not _still_valid(path, value)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutation=mutations())
def test_mutated_configs_exit_2_before_numerics(mutation, tmp_path, no_numerics):
    name, cfg, invalid = mutation
    if not invalid:
        validate(cfg, CONFIGS)
        return
    with pytest.raises(ConfigError):
        validate(cfg, CONFIGS)
    for csv_file in CONFIGS.glob("*.csv"):
        shutil.copy(csv_file, tmp_path)
    assert run_config(write_cfg(tmp_path, "cfg.json", cfg), quiet=True) == 2


# ---------------------------------------------------------------------------
# committed configs and their golden outputs

def _read_table(path):
    lines = path.read_text().splitlines()
    return lines[:2], [line.split(",") for line in lines[2:]]


@pytest.mark.parametrize("name", ["classical_fatou", "inner_singular", "decompose_mixture",
                                  "factor_toeplitz", "factor_vector_state", "majorant_d1",
                                  "majorant_d2", "inner_singular_d2", "kernels_d2"])
def test_outputs_match_golden_files(name, tmp_path, monkeypatch):
    monkeypatch.setenv("NCFATOU_OUTDIR", str(tmp_path))
    assert run_config(str(CONFIGS / f"{name}.json"), quiet=True) == 0
    golden = sorted((CONFIGS / "out" / name).glob("*.csv"))
    assert golden and [p.name for p in golden] == sorted(p.name for p in tmp_path.glob("*.csv"))
    for path in golden:
        (head, rows), (new_head, new_rows) = _read_table(path), _read_table(tmp_path / path.name)
        assert new_head == head and len(new_rows) == len(rows)
        text = [i for i, col in enumerate(head[1].split(",")) if col == "word"]
        num = [i for i in range(len(head[1].split(","))) if i not in text]
        for row, new_row in zip(rows, new_rows):
            assert [row[i] for i in text] == [new_row[i] for i in text]
            np.testing.assert_allclose([float(new_row[i]) for i in num],
                                       [float(row[i]) for i in num], rtol=1e-9, atol=1e-12)


def test_committed_outputs_are_byte_identical_to_the_golden_files(tmp_path):
    # the stage records' mode, basis size, CG residual and wall time enter no
    # CSV, kernels_d2 evaluates at all its points in one sweep, and the
    # factor and majorant configs read T_r's dense matrix as a Gram matrix:
    # every committed config, verify included, reproduces every file of its
    # golden directory byte for byte, in a process with BLAS at one thread,
    # the count the golden files assume
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    script = ("import os, sys\nfrom ncfatou.cli import run_config\n"
              "for cfg, out in zip(sys.argv[1::2], sys.argv[2::2]):\n"
              "    os.environ['NCFATOU_OUTDIR'] = out\n"
              "    assert run_config(cfg, quiet=True) == 0\n")
    args = [a for n in COMMITTED for a in (str(CONFIGS / f"{n}.json"), str(tmp_path / n))]
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    for n in COMMITTED:
        goldens = sorted((CONFIGS / "out" / n).iterdir())
        assert [p.name for p in goldens] == sorted(p.name for p in (tmp_path / n).iterdir())
        for golden in goldens:
            assert (tmp_path / n / golden.name).read_bytes() == golden.read_bytes(), golden


def test_kernels_evaluate_each_series_once(tmp_path, monkeypatch):
    # one sweep for H and one for B over all 2 * point_pairs points; the
    # kernels take those values and evaluate nothing themselves
    calls = []
    real = series.evaluate

    def counted(f, Z):
        calls.append((f.constant_term(), 1 if isinstance(Z, series.MatrixPoint) else len(Z)))
        return real(f, Z)

    monkeypatch.setattr(series, "evaluate", counted)
    monkeypatch.setattr(cli, "evaluate", counted)
    cfg = _with(KERNELS, N=14, point_pairs=3, output_dir=str(tmp_path))
    assert run_config(write_cfg(tmp_path, "k.json", cfg), quiet=True) == 0
    assert calls == [(1.0, 6), (0.0, 6)]  # H(0) = 1 first, then B(0) = 0


def test_kernels_make_one_szego_sweep_for_the_identity_and_one_for_the_floor(tmp_path,
                                                                             monkeypatch):
    # per point pair: both sides of the identity from one stacked sweep, and
    # the PSD floor's K(Z, Z) from another
    calls = []
    real = series.szego_kernel

    def counted(Z, W, P, order):
        calls.append(np.shape(P))
        return real(Z, W, P, order)

    monkeypatch.setattr(series, "szego_kernel", counted)
    monkeypatch.setenv("NCFATOU_OUTDIR", str(tmp_path))
    assert main(["run", str(CONFIGS / "kernels_d2.json"), "--quiet"]) == 0
    pairs = COMMITTED["kernels_d2"]["point_pairs"]
    assert len(calls) == 2 * pairs
    assert all(shape[0] == 3 for shape in calls[::2])


def test_committed_configs_validate():
    assert len(COMMITTED) == 10  # the nine experiments and verify
    for name, cfg in COMMITTED.items():
        assert validate(cfg, CONFIGS)["experiment"] == cfg["experiment"], name


def test_docs_list_the_schema_table():
    doc = schema_doc()
    assert cli.__doc__.endswith(doc + "\n") or cli.__doc__.endswith(doc)
    readme = (ROOT / "README.md").read_text()
    assert doc in readme
    for gone in ("null_tol", "verify --threads", "free Cauchy transform",
                 "GNS quotient isometries", "form-decomposition diagnostic",
                 "RadialOperator", "radial_operator", "`left_multiplier`", "`concat`",
                 "gram_matvec", "y_inv", "FockVector.inner", "FockVector.norm",
                 "basis_vector", "`vacuum`", "write_series_csv", "write_moments_csv",
                 "herglotz_integral", "_GradedProduct", "graded_multiplier",
                 "graded_inverse", "transpose_unitary", "worker pool"):
        assert gone not in readme and gone not in cli.__doc__
