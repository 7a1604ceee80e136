"""End-to-end checks of the command line interface.

Each test drives ``main`` in-process with a throwaway output directory; one
test starts the ``dhmc`` console script as a separate process: the installed
script when it is on ``PATH``, otherwise the entry point that
``pyproject.toml`` declares, called in a fresh interpreter.
"""

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

import dhmc
from dhmc import SampleStore, SamplerConfig, min_ess_report, run_chain
from dhmc.cli import (COMPARE_FIELDS, DEFAULT_CONFIG, TRACE_FIELDS, _fmt,
                      _load_chain, _write_samples, _write_trace, load_config,
                      main)
from dhmc.models import build_model

from conftest import small_jolly_seber


def write_config(path, **overrides):
    cfg = {
        "model": {"name": "gaussian", "params": {"dim": 2}},
        "sampler": {"kernel": "dhmc", "eps_range": 0.9, "path_len": 3,
                    "n_samples": 80, "n_warmup": 40},
        "seed": 11,
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(value)
        else:
            cfg[key] = value
    path.write_text(yaml.safe_dump(cfg))
    return path


def run_cli(*argv):
    return main([str(a) for a in argv])


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


# ----------------------------------------------------------------------- run


def test_run_writes_artifacts(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.yaml", output_dir=str(tmp_path / "out"))
    assert run_cli("run", "--config", cfg) == 0
    assert "wrote 1 chain(s)" in capsys.readouterr().out
    out = tmp_path / "out"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 11 and manifest["chains"] == 1
    assert manifest["model"] == "gaussian" and manifest["kernel"] == "dhmc"
    config_bytes = (out / "config.yaml").read_bytes()
    assert manifest["config_sha256"] == hashlib.sha256(config_bytes).hexdigest()
    resolved = yaml.safe_load(config_bytes)
    assert resolved["format"] == "csv"  # defaults are spelled out

    header, rows = read_csv(out / "chain_00" / "samples.csv")
    assert header == ["x0", "x1"]
    assert len(rows) == 80
    report = json.loads((out / "chain_00" / "report.json").read_text())
    assert report["param_names"] == ["x0", "x1"]
    assert report["n_samples"] == 80 and report["divergences"] == 0
    t_header, t_rows = read_csv(out / "chain_00" / "trace.csv")
    assert t_header[:3] == ["iteration", "accepted", "delta_H"]
    assert len(t_rows) == 80


def test_run_is_deterministic(tmp_path):
    for name in ("a", "b"):
        cfg = write_config(tmp_path / f"{name}.yaml",
                           output_dir=str(tmp_path / name))
        assert run_cli("run", "--config", cfg) == 0
    for fname in ("samples.csv", "trace.csv"):
        assert (tmp_path / "a" / "chain_00" / fname).read_bytes() == \
            (tmp_path / "b" / "chain_00" / fname).read_bytes()


def test_run_seed_override(tmp_path):
    cfg = write_config(tmp_path / "c.yaml", output_dir=str(tmp_path / "a"))
    assert run_cli("run", "--config", cfg) == 0
    cfg2 = write_config(tmp_path / "c2.yaml", output_dir=str(tmp_path / "b"))
    assert run_cli("run", "--config", cfg2, "--seed", 12) == 0
    manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
    assert manifest["seed"] == 12
    assert (tmp_path / "a" / "chain_00" / "samples.csv").read_bytes() != \
        (tmp_path / "b" / "chain_00" / "samples.csv").read_bytes()


@pytest.mark.parametrize("overrides,fragment", [
    ({"seed": None}, "seed is required"),
    ({"model": {"name": None}}, "model.name is required"),
    ({"bogus": 1}, "'bogus'"),
    ({"sampler": {"bogus": 1}}, "'sampler.bogus'"),
    ({"chains": 0}, "chains must be >= 1"),
    ({"format": "parquet"}, "format must be csv or jsonl"),
    ({"sampler": {"eps_range": [0.5, 0.2]}}, "0 < min <= max"),
    ({"sampler": {"eps_range": None, "tune_eps": False}},
     "eps_range is required when stepsize tuning is off"),
    ({"sampler": {"mass": {"m_disc": [-1.0]}}}, "m_disc must be a 1-d array"),
    # errors that need the model
    ({"model": {"name": "pmf", "params": {}},
      "sampler": {"mass": {"m_disc": [1.0, 2.0]}}},
     "m_disc has length 2, expected 1"),
    ({"model": {"name": "pmf", "params": {}}, "sampler": {"kernel": "hmc"}},
     "hmc requires an all-smooth target"),
    ({"model": {"name": "pmf", "params": {}},
      "sampler": {"kernel": "rwm", "rwm_cov": [1.0, 2.0]}},
     "diagonal rwm_cov must be length dim"),
    # malformed values, each named by its field
    ({"seed": "x"}, "seed must be an integer, got 'x'"),
    ({"seed": -1}, "seed must be >= 0"),
    ({"chains": "two"}, "chains must be an integer, got 'two'"),
    ({"sampler": {"n_samples": "lots"}}, "n_samples must be an integer"),
    ({"sampler": {"path_len": "long"}}, "path_len must be an integer or a"),
    ({"sampler": {"eps_range": ["a", 1]}}, "eps_range must be a (min, max) pair"),
    ({"sampler": {"target_stat": "high"}}, "target_stat must be a number"),
    ({"sampler": {"mass": {"m_disc": "abc"}}}, "sampler.mass: could not convert"),
    ({"sampler": {"kernel": "rwm", "rwm_cov": ["a", "b"]}},
     "rwm_cov must be numeric"),
])
def test_run_config_errors(tmp_path, capsys, overrides, fragment):
    cfg = write_config(tmp_path / "c.yaml", output_dir=str(tmp_path / "out"),
                       **overrides)
    assert run_cli("run", "--config", cfg) == 2
    assert fragment in capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # nothing written


def test_run_rejects_an_empty_output_dir(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.yaml", output_dir=str(tmp_path / "out"))
    assert run_cli("run", "--config", cfg, "--out", "") == 2
    assert "output_dir must be a non-empty path" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_unwritable_output_dir_exits_3(tmp_path, capsys):
    # a path below a regular file: permission bits do not stop root
    (tmp_path / "file").write_text("")
    cfg = write_config(tmp_path / "c.yaml")
    out = tmp_path / "file" / "sub"
    assert run_cli("run", "--config", cfg, "--out", out) == 3
    assert "error: cannot write run artifacts: " in capsys.readouterr().err


def test_run_rejects_a_non_integer_worker_count(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path / "c.yaml", output_dir=str(tmp_path / "out"))
    monkeypatch.setenv("DHMC_MAX_WORKERS", "two")
    assert run_cli("run", "--config", cfg) == 2
    assert "error: DHMC_MAX_WORKERS must be an integer" in capsys.readouterr().err
    assert not (tmp_path / "out" / "manifest.json").exists()


def test_run_missing_config_file(tmp_path, capsys):
    assert run_cli("run", "--config", tmp_path / "absent.yaml") == 2
    assert "config file not found" in capsys.readouterr().err


def test_run_unknown_model(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.yaml", model={"name": "zigzag"},
                       output_dir=str(tmp_path / "out"))
    assert run_cli("run", "--config", cfg) == 3
    assert "cannot build model" in capsys.readouterr().err


def test_run_numeric_failure_exits_4(tmp_path, capsys, monkeypatch):
    build = dhmc.cli.build_model

    def nan_midway(*args):
        model = build(*args)
        potential, calls = model.potential, []

        def flaky(theta):
            calls.append(1)
            return np.nan if len(calls) == 30 else potential(theta)

        model.potential = flaky
        return model

    monkeypatch.setattr(dhmc.cli, "build_model", nan_midway)
    cfg = write_config(tmp_path / "c.yaml", output_dir=str(tmp_path / "out"))
    assert run_cli("run", "--config", cfg) == 4
    assert "error: numeric failure: " in capsys.readouterr().err


def test_run_jsonl_round_trip(tmp_path):
    cfg = write_config(tmp_path / "c.yaml", output_dir=str(tmp_path / "out"),
                       format="jsonl")
    assert run_cli("run", "--config", cfg) == 0
    lines = (tmp_path / "out" / "chain_00" / "samples.jsonl").read_text().strip().split("\n")
    assert len(lines) == 80
    rec = json.loads(lines[0])
    assert set(rec) == {"x0", "x1"}
    assert run_cli("diagnose", tmp_path / "out", "--batches", 10) == 0
    assert (tmp_path / "out" / "ess.json").exists()


def test_run_embedded_model_writes_decoded_and_raw(tmp_path):
    cfg = write_config(tmp_path / "c.yaml", output_dir=str(tmp_path / "out"),
                       model={"name": "binomial_n", "params": {"n_max": 30}},
                       sampler={"kernel": "mwg", "eps_range": [0.4, 1.2],
                                "n_samples": 60, "n_warmup": 30})
    assert run_cli("run", "--config", cfg) == 0
    header, rows = read_csv(tmp_path / "out" / "chain_00" / "samples.csv")
    assert header == ["N", "N_emb"]
    emap = build_model("binomial_n", {"n_max": 30}, None, 0).embeddings[0]
    for decoded, raw in rows:
        assert float(decoded) == int(decoded)  # written as an integer
        assert int(decoded) == emap.decode(float(raw))


def _reference_samples(store, fmt):
    """The samples file written one value at a time, with ``_fmt`` for csv
    and one ``json.dumps`` record per row for jsonl."""
    cols = []
    for i, name in enumerate(store.names):
        emap = store.embeddings.get(i)
        if emap is None:
            cols.append((name, store.draws[:, i], False))
        else:
            cols.append((name, emap.decode(store.draws[:, i]), True))
            cols.append((name + "_emb", store.draws[:, i], False))
    rows = range(store.n_samples)
    if fmt == "jsonl":
        return "".join(json.dumps({h: int(v[r]) if is_int else float(v[r])
                                   for h, v, is_int in cols}) + "\n"
                       for r in rows)
    lines = [",".join(h for h, _, _ in cols)]
    lines += [",".join(_fmt(int(v[r]) if is_int else float(v[r]))
                       for _, v, is_int in cols) for r in rows]
    return "\n".join(lines) + "\n"


def _reference_trace(store):
    lines = [",".join(TRACE_FIELDS)]
    lines += [",".join(_fmt(v) for v in (i,) + row)
              for i, row in enumerate(store.trace.tolist())]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_writers_match_the_per_value_reference(tmp_path, fmt):
    model = small_jolly_seber()
    cfg = SamplerConfig(kernel="dhmc", path_len=3, n_warmup=20, n_samples=40,
                        seed=5)
    full = run_chain(model, None, cfg)
    assert full.embeddings  # decoded integer and ``_emb`` columns
    # a diverged row, and one of each boolean value
    full.trace[3] = (False, np.inf, 2, 21, 9, 0.25, 3, True)
    full.trace[4] = (True, -0.0, 0, 21, 8, 1e-300, 2, False)
    # non-finite draws, which json.dumps spells NaN and Infinity
    odd = SampleStore(names=["a", "b"],
                      draws=np.array([[np.nan, -np.inf], [np.inf, 1e-310]]))
    empty = replace(full, draws=full.draws[:0], trace=full.trace[:0])
    # rows in runs, as rejections leave them: a 0.0 row then a -0.0 row,
    # which must stay apart, a run of NaN rows and a lone last row; the
    # embedded coordinates keep valid values
    smooth = [i for i in range(len(full.names)) if i not in full.embeddings]
    zero, neg, nan = (full.draws[r].copy() for r in (1, 1, 2))
    zero[smooth], neg[smooth], nan[smooth] = 0.0, -0.0, np.nan
    rows = [full.draws[0]] * 3 + [zero, neg] + [nan] * 4 + [full.draws[5]]
    runs = replace(full, draws=np.array(rows), trace=full.trace[:len(rows)])
    for k, store in enumerate((full, odd, empty, runs)):
        out = tmp_path / str(k)
        out.mkdir()
        path = _write_samples(store, str(out), fmt)
        assert Path(path).read_text() == _reference_samples(store, fmt)
        path = _write_trace(store, str(out))
        assert Path(path).read_text() == _reference_trace(store)
    header = (tmp_path / "2" / f"samples.{fmt}").read_text()
    assert header.count("\n") == (fmt == "csv")  # header only, or empty
    assert (tmp_path / "2" / "trace.csv").read_text().count("\n") == 1


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_load_chain_round_trips_the_run_chain_store(tmp_path, monkeypatch,
                                                    fmt):
    stores = []

    def capture(*args, **kwargs):
        stores.append(run_chain(*args, **kwargs))
        return stores[-1]

    monkeypatch.setattr(dhmc.cli, "run_chain", capture)
    dirs = {}
    for n in (100, 1, 0):
        dirs[n] = tmp_path / f"n{n}"
        cfg = write_config(tmp_path / f"n{n}.yaml", output_dir=str(dirs[n]),
                           format=fmt,
                           model={"name": "binomial_n", "params": {}},
                           sampler={"eps_range": None, "n_samples": n})
        assert run_cli("run", "--config", cfg) == 0
    store = stores[0]
    assert run_cli("diagnose", dirs[100]) == 0
    loaded, report, raw = _load_chain(str(dirs[100] / "chain_00"))
    assert loaded.draws.tobytes() == store.decoded_column(0).tobytes()
    np.testing.assert_array_equal(raw["N_emb"], store.draws[:, 0])
    assert loaded.names == store.names == report["param_names"]
    assert loaded.embeddings == {}
    assert len(loaded.trace) == len(loaded.warmup_trace) == 0
    assert (loaded.kernel, loaded.eps_range) == (store.kernel, store.eps_range)
    np.testing.assert_array_equal(loaded.mass.m_disc, store.mass.m_disc)
    for counter in ("divergences", "potential_evals", "warmup_evals",
                    "warmup_divergences", "warnings"):
        assert getattr(loaded, counter) == getattr(store, counter), counter
    ess = json.loads((dirs[100] / "ess.json").read_text())
    assert ess["chains"][0]["min_ess"] == min_ess_report(store).min_ess

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        one, _, _ = _load_chain(str(dirs[1] / "chain_00"))
        empty, _, _ = _load_chain(str(dirs[0] / "chain_00"))
    assert one.draws.shape == (1, 1)
    assert one.draws.tobytes() == stores[1].decoded_column(0).tobytes()
    assert empty.draws.shape == (0, 1)
    assert run_cli("diagnose", dirs[0]) == 3


def test_load_chain_parses_each_run_of_lines_once(tmp_path, monkeypatch):
    cfg = write_config(tmp_path / "c.yaml", output_dir=str(tmp_path / "out"),
                       model={"name": "binomial_n", "params": {}},
                       sampler={"eps_range": None, "n_samples": 5})
    assert run_cli("run", "--config", cfg) == 0
    chain_dir = tmp_path / "out" / "chain_00"
    path = chain_dir / "samples.csv"
    # repeated lines, a blank line in the middle, 0.0 and -0.0, and no
    # newline after the last line
    path.write_text("N,N_emb\n" + "3,3.25\n" * 3 + "\n"
                    + "4,0.0\n4,-0.0\n4,-0.0\n" + "nan,nan\n" * 2
                    + "5,5.5\n5,5.5")
    loadtxt, parsed = np.loadtxt, []

    def spy(lines, *args, **kwargs):
        parsed.append(list(lines))
        return loadtxt(parsed[-1], *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loaded, _, raw = _load_chain(str(chain_dir))
        expected = loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    assert expected.shape == (10, 2)
    assert parsed == [["3,3.25\n", "4,0.0\n", "4,-0.0\n", "nan,nan\n",
                       "5,5.5\n", "5,5.5"]]
    got = np.column_stack([raw["N"], raw["N_emb"]])
    assert got.tobytes() == expected.tobytes()
    assert loaded.draws.tobytes() == expected[:, :1].tobytes()


# ------------------------------------------------------------------ diagnose


def test_diagnose_summary_needs_two_chains(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.yaml", output_dir=str(tmp_path / "two"),
                       chains=2, sampler={"n_samples": 400, "n_warmup": 60})
    assert run_cli("run", "--config", cfg) == 0
    assert run_cli("diagnose", tmp_path / "two") == 0
    assert "worst min ESS" in capsys.readouterr().out
    payload = json.loads((tmp_path / "two" / "ess.json").read_text())
    assert len(payload["chains"]) == 2
    assert "summary" in payload
    assert payload["summary"]["n_chains"] == 2

    cfg = write_config(tmp_path / "c1.yaml", output_dir=str(tmp_path / "one"),
                       sampler={"n_samples": 400, "n_warmup": 60})
    assert run_cli("run", "--config", cfg) == 0
    assert run_cli("diagnose", tmp_path / "one") == 0
    payload = json.loads((tmp_path / "one" / "ess.json").read_text())
    assert len(payload["chains"]) == 1 and "summary" not in payload


def test_diagnose_param_subset(tmp_path):
    cfg = write_config(tmp_path / "c.yaml", output_dir=str(tmp_path / "out"),
                       sampler={"n_samples": 300, "n_warmup": 40})
    assert run_cli("run", "--config", cfg) == 0
    assert run_cli("diagnose", tmp_path / "out", "--params", "x1") == 0
    payload = json.loads((tmp_path / "out" / "ess.json").read_text())
    assert payload["chains"][0]["names"] == ["x1"]


def test_diagnose_failures(tmp_path, capsys):
    assert run_cli("diagnose", tmp_path / "nowhere") == 3
    assert "cannot read run artifacts" in capsys.readouterr().err
    cfg = write_config(tmp_path / "c.yaml", output_dir=str(tmp_path / "short"),
                       sampler={"n_samples": 30, "n_warmup": 10})
    assert run_cli("run", "--config", cfg) == 0
    assert run_cli("diagnose", tmp_path / "short") == 3  # < 2 draws per batch
    assert "need at least" in capsys.readouterr().err
    assert run_cli("diagnose", tmp_path / "short", "--batches", 10) == 0


# ------------------------------------------------------------------- compare


def _two_runs(tmp_path, kernel_b="rwm"):
    cfg = write_config(tmp_path / "a.yaml", output_dir=str(tmp_path / "run_a"),
                       sampler={"n_samples": 400, "n_warmup": 100})
    assert run_cli("run", "--config", cfg) == 0
    cfg = write_config(tmp_path / "b.yaml", output_dir=str(tmp_path / "run_b"),
                       sampler={"kernel": kernel_b, "eps_range": None,
                                "path_len": 1, "n_samples": 400,
                                "n_warmup": 100})
    assert run_cli("run", "--config", cfg) == 0
    return tmp_path / "run_a", tmp_path / "run_b"


def test_compare_ranks_runs(tmp_path, capsys):
    a, b = _two_runs(tmp_path)
    assert run_cli("compare", a, b, "--out", tmp_path / "cmp") == 0
    out = capsys.readouterr().out
    assert "min_ess" in out and "rel_iter_cost" in out
    header, rows = read_csv(tmp_path / "cmp" / "compare.csv")
    assert header == list(COMPARE_FIELDS)
    assert len(rows) == 2
    ess = [float(r[header.index("min_ess")]) for r in rows]
    assert ess == sorted(ess, reverse=True)
    costs = [float(r[header.index("rel_iter_cost")]) for r in rows]
    assert min(costs) == 1.0 and all(c >= 1.0 for c in costs)


def test_compare_errors(tmp_path, capsys):
    a, _ = _two_runs(tmp_path)
    assert run_cli("compare", a) == 2
    assert "at least two" in capsys.readouterr().err
    assert run_cli("compare", a, tmp_path / "missing") == 3
    cfg = write_config(tmp_path / "p.yaml", output_dir=str(tmp_path / "pmf"),
                       model={"name": "pmf", "params": {}},
                       sampler={"kernel": "mwg", "eps_range": [0.4, 1.0],
                                "n_samples": 400, "n_warmup": 50})
    assert run_cli("run", "--config", cfg) == 0
    assert run_cli("compare", a, tmp_path / "pmf") == 2
    assert "different models" in capsys.readouterr().err


# ------------------------------------------------------------------ plotdata


def test_plotdata_trajectory(tmp_path, capsys):
    cfg = write_config(tmp_path / "p.yaml", output_dir=str(tmp_path / "pmf"),
                       model={"name": "pmf", "params": {}},
                       sampler={"kernel": "mwg", "eps_range": [0.4, 1.0],
                                "n_samples": 100, "n_warmup": 20})
    assert run_cli("run", "--config", cfg) == 0
    assert run_cli("plotdata", tmp_path / "pmf", "--kind", "trajectory",
                   "--steps", 5) == 0
    header, rows = read_csv(tmp_path / "pmf" / "plot_trajectory.csv")
    assert header == ["update", "coord", "flipped", "theta_0"]
    assert len(rows) == 1 + 5  # the start plus one row per coordinate update
    assert all(r[2] in ("0", "1") for r in rows)

    gauss = write_config(tmp_path / "g.yaml", output_dir=str(tmp_path / "g"))
    assert run_cli("run", "--config", gauss) == 0
    assert run_cli("plotdata", tmp_path / "g", "--kind", "trajectory") == 2
    assert "all-discontinuous" in capsys.readouterr().err


def test_plotdata_marginal2d(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.yaml", output_dir=str(tmp_path / "out"))
    assert run_cli("run", "--config", cfg) == 0
    assert run_cli("plotdata", tmp_path / "out", "--kind", "marginal2d",
                   "--params", "x0", "x1", "--bins", 8) == 0
    header, rows = read_csv(tmp_path / "out" / "plot_marginal2d.csv")
    assert header == ["x0", "x1", "count"]
    assert len(rows) == 64
    assert sum(int(r[2]) for r in rows) == 80
    assert run_cli("plotdata", tmp_path / "out", "--kind", "marginal2d",
                   "--params", "x0") == 2
    assert "exactly two" in capsys.readouterr().err
    assert run_cli("plotdata", tmp_path / "out", "--kind", "marginal2d",
                   "--params", "x0", "nope") == 2


def test_plotdata_funcdraws(tmp_path, capsys):
    cfg = write_config(tmp_path / "a.yaml", output_dir=str(tmp_path / "arch"),
                       model={"name": "arch_cp",
                              "params": {"T": 40, "k_max": 1}},
                       sampler={"kernel": "dhmc", "eps_range": [0.05, 0.1],
                                "path_len": 3, "n_samples": 25,
                                "n_warmup": 20})
    assert run_cli("run", "--config", cfg) == 0
    assert run_cli("plotdata", tmp_path / "arch", "--kind", "funcdraws",
                   "--ndraws", 10) == 0
    header, rows = read_csv(tmp_path / "arch" / "plot_funcdraws.csv")
    assert header == ["draw", "t", "a", "b"]
    assert len(rows) == 10 * 39  # ndraws x (T - 1) level segments

    gauss = write_config(tmp_path / "g.yaml", output_dir=str(tmp_path / "g"))
    assert run_cli("run", "--config", gauss) == 0
    assert run_cli("plotdata", tmp_path / "g", "--kind", "funcdraws") == 2
    assert "level paths" in capsys.readouterr().err
    assert run_cli("plotdata", tmp_path / "g", "--kind", "sparkline") == 2


# ---------------------------------------------------- corrupted run artifacts


def _set_report(run, **fields):
    path = run / "chain_00" / "report.json"
    report = json.loads(path.read_text())
    report.update(fields)
    path.write_text(json.dumps(report))


def _non_numeric_samples(run):
    path = run / "chain_00" / "samples.csv"
    header = path.read_text().split("\n")[0]
    path.write_text(header + "\n" + ",".join(["x"] * len(header.split(",")))
                    + "\n")


def _no_emb_column(run):
    path = run / "chain_00" / "samples.csv"
    rows = [line.split(",") for line in path.read_text().splitlines()]
    keep = [i for i, h in enumerate(rows[0]) if not h.endswith("_emb")]
    assert len(keep) < len(rows[0])
    path.write_text("".join(",".join(r[i] for i in keep) + "\n" for r in rows))


def _unknown_model(run):
    path = run / "config.yaml"
    path.write_text(path.read_text().replace("name: pmf", "name: zigzag"))


# (corruption, whether diagnose and compare read it; plotdata always does)
CORRUPTIONS = {
    "unknown-model": (_unknown_model, False),
    "bad-yaml": (lambda run: (run / "config.yaml").write_text("model: [\n"),
                 False),
    "non-numeric-samples": (_non_numeric_samples, True),
    "scalar-eps-range": (lambda run: _set_report(run, eps_range_used=5), True),
    "negative-mass": (lambda run: _set_report(run, mass_disc=[-1.0]), True),
    "no-emb-column": (_no_emb_column, True),
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_corrupted_run_directory_exits_3(tmp_path, capsys, corruption):
    cfg = write_config(tmp_path / "p.yaml", output_dir=str(tmp_path / "good"),
                       model={"name": "pmf", "params": {}},
                       sampler={"kernel": "mwg", "eps_range": [0.4, 1.0],
                                "n_samples": 100, "n_warmup": 20})
    assert run_cli("run", "--config", cfg) == 0
    good, bad = tmp_path / "good", tmp_path / "bad"
    shutil.copytree(good, bad)
    corrupt, read_by_all = CORRUPTIONS[corruption]
    corrupt(bad)
    capsys.readouterr()
    verbs = [("plotdata", bad, "--kind", "trajectory", "--steps", 2)]
    if read_by_all:
        verbs += [("diagnose", bad, "--batches", 10),
                  ("compare", good, bad, "--batches", 10,
                   "--out", tmp_path / "cmp")]
    for argv in verbs:
        assert run_cli(*argv) == 3, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "numeric" not in err, argv
    assert not (bad / "ess.json").exists()
    assert not (tmp_path / "cmp").exists()


@pytest.mark.parametrize("argv", [
    ["run", "--config", "c.yaml", "--chains", "0"],
    ["run", "--config", "c.yaml", "--chains", "two"],
    ["diagnose", "run", "--batches", "0"],
    ["compare", "a", "b", "--batches", "-5"],
    ["plotdata", "run", "--kind", "marginal2d", "--bins", "0"],
    ["plotdata", "run", "--kind", "trajectory", "--steps", "0"],
    ["plotdata", "run", "--kind", "funcdraws", "--ndraws", "-3"],
])
def test_count_options_must_be_positive(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "must be a positive integer" in capsys.readouterr().err


# ------------------------------------------------------------- miscellaneous


def _parallel_matches_serial(tmp_path, monkeypatch, **overrides):
    cfg = write_config(tmp_path / "s.yaml", output_dir=str(tmp_path / "serial"),
                       chains=2, **overrides)
    assert run_cli("run", "--config", cfg) == 0
    cfg = write_config(tmp_path / "p.yaml", output_dir=str(tmp_path / "par"),
                       chains=2, **overrides)
    monkeypatch.setenv("DHMC_MAX_WORKERS", "2")
    assert run_cli("run", "--config", cfg) == 0
    for chain in ("chain_00", "chain_01"):
        assert (tmp_path / "serial" / chain / "samples.csv").read_bytes() == \
            (tmp_path / "par" / chain / "samples.csv").read_bytes()


def test_parallel_chains_match_serial(tmp_path, monkeypatch):
    _parallel_matches_serial(tmp_path, monkeypatch)


def test_parallel_chains_match_serial_with_embedded_counts(tmp_path,
                                                           monkeypatch):
    # each worker unpickles the model with its EmbeddingMaps
    _parallel_matches_serial(tmp_path, monkeypatch, model={
        "name": "jolly_seber", "synth_seed": 3,
        "params": {"u1": 60, "p": [0.5] * 4, "phi": [0.8] * 3, "n_max": 400}})


def test_chain_seeds_differ(tmp_path):
    cfg = write_config(tmp_path / "c.yaml", output_dir=str(tmp_path / "out"),
                       chains=2)
    assert run_cli("run", "--config", cfg) == 0
    assert (tmp_path / "out" / "chain_00" / "samples.csv").read_bytes() != \
        (tmp_path / "out" / "chain_01" / "samples.csv").read_bytes()


def test_load_config_fills_defaults(tmp_path):
    p = tmp_path / "c.yaml"
    p.write_text(yaml.safe_dump({"model": {"name": "gaussian"}, "seed": 1}))
    cfg = load_config(str(p))
    assert cfg["sampler"]["path_len"] == DEFAULT_CONFIG["sampler"]["path_len"]
    assert cfg["chains"] == 1 and cfg["format"] == "csv"
    assert cfg["model"]["params"] == {}


def declared_console_script(name):
    """The ``module:attr`` that ``[project.scripts]`` in pyproject.toml maps
    ``name`` to, or None."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10: match the line instead
        section = re.search(r"^\[project\.scripts\][^\n]*\n(.*?)(?=^\[|\Z)",
                            text, re.M | re.S)
        entry = section and re.search(
            rf"^{re.escape(name)}\s*=\s*[\"']([^\"']*)[\"']", section.group(1),
            re.M)
        return entry.group(1) if entry else None
    return tomllib.loads(text)["project"]["scripts"].get(name)


def test_console_script_help():
    target = declared_console_script("dhmc")
    assert target == "dhmc.cli:main"
    if shutil.which("dhmc"):
        cmd = ["dhmc", "--help"]
    else:
        # What the script pip generates from the entry point does.
        module, attr = target.split(":")
        wrapper = ("import sys; sys.argv[0] = 'dhmc'; "
                   f"from {module} import {attr}; sys.exit({attr}())")
        cmd = [sys.executable, "-c", wrapper, "--help"]
    src_dir = str(Path(dhmc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src_dir, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0
    assert "usage" in proc.stdout.lower()
    for word in ("run", "diagnose", "compare", "plotdata"):
        assert word in proc.stdout


def test_missing_subcommand_exits():
    with pytest.raises(SystemExit):
        main([])
