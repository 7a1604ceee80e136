"""Command-line harness: run chains, score them, compare runs, dump plot data.

Verbs
-----

- ``dhmc run --config cfg.yaml``: warmup + sampling for each chain, writing
  ``chain_XX/samples.csv`` (decoded value per parameter, plus the raw
  embedded value as ``<name>_emb`` for discrete coordinates), ``trace.csv``,
  ``report.json``, and a run-level ``manifest.json`` + resolved
  ``config.yaml``.  Reruns of the same config are byte-identical.
- ``dhmc diagnose RUN_DIR``: batch-means effective sample sizes per parameter
  with the cross-chain mean and interval when several chains exist.
- ``dhmc compare RUN_DIR...``: table of ESS per 100 samples, ESS per million
  potential evaluations, mean path length and relative iteration cost.
- ``dhmc plotdata RUN_DIR --kind {trajectory,marginal2d,funcdraws}``: plain
  CSV files ready for plotting, no rendering.

Exit codes, one rule for every verb: 2 for a configuration or usage error
(``run`` then writes nothing), 3 for a model, data file or run artifact that
cannot be built, read or written (an unknown model too, in a config or in a
run directory), 4 for a numeric failure.  ``DHMC_MAX_WORKERS`` caps chain-level
parallelism; the default of 1 runs chains sequentially in-process (the
results are identical either way).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys

import numpy as np
import yaml

from .core import ConfigError, ContractError, DhmcError, MassSpec, PhaseState
from .core import sample_momentum
from .diagnostics import min_ess_report, summarize
from .integrators import coord_sweep
from .models import build_model
from .samplers import (TRACE_DTYPE, SampleStore, SamplerConfig, chain_setup,
                       config_value, run_chain)

__all__ = ["main", "load_config", "DEFAULT_CONFIG"]

DEFAULT_CONFIG = {
    "model": {"name": None, "params": {}, "data": None, "synth_seed": 0},
    "sampler": {"kernel": "dhmc", "eps_range": None, "path_len": 10,
                "n_samples": 1000, "n_warmup": 500, "target_stat": None,
                "tune_eps": None, "tune_mass": None, "rwm_cov": None,
                "mass": None},
    "chains": 1,
    "seed": None,
    "output_dir": "dhmc_run",
    "format": "csv",
}


def _merge(defaults: dict, user: dict, path: str = "") -> dict:
    out = dict(defaults)
    for key, value in user.items():
        where = f"{path}{key}"
        if key not in defaults:
            raise ConfigError(f"unknown configuration key {where!r}")
        if isinstance(defaults[key], dict) and not (key == "params"):
            if value is None:
                continue
            if not isinstance(value, dict):
                raise ConfigError(f"{where!r} must be a mapping")
            out[key] = _merge(defaults[key], value, where + ".")
        else:
            out[key] = value
    return out


def load_config(path: str) -> dict:
    """Parse a YAML config file and fill in every default.

    The minimal config is a model name and a seed; everything else has a
    documented default (see DEFAULT_CONFIG).
    """
    try:
        with open(path) as fh:
            user = yaml.safe_load(fh) or {}
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {exc.filename}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if not isinstance(user, dict):
        raise ConfigError(f"{path} must contain a mapping at the top level")
    cfg = _merge(DEFAULT_CONFIG, user)
    return cfg


def _validate_run_config(cfg: dict) -> SamplerConfig:
    """Check the run-level keys; the sampler fields are SamplerConfig's."""
    if not cfg["model"]["name"]:
        raise ConfigError("model.name is required")
    if cfg["seed"] is None:
        raise ConfigError("seed is required")
    cfg["chains"] = config_value(cfg["chains"], "chains")
    if cfg["chains"] < 1:
        raise ConfigError(f"chains must be >= 1, got {cfg['chains']}")
    if cfg["format"] not in ("csv", "jsonl"):
        raise ConfigError(f"format must be csv or jsonl, got {cfg['format']!r}")
    if not cfg["output_dir"]:
        raise ConfigError("output_dir must be a non-empty path")
    sampler = dict(cfg["sampler"])
    mass = sampler.pop("mass")
    if mass is not None:
        if not isinstance(mass, dict):
            raise ConfigError("sampler.mass must be a mapping with m_disc/diag_smooth")
        try:
            mass = MassSpec(m_disc=mass.get("m_disc", []),
                            diag_smooth=mass.get("diag_smooth"))
        except (TypeError, ValueError) as exc:  # ContractError included
            raise ConfigError(f"sampler.mass: {exc}") from None
    scfg = SamplerConfig(seed=cfg["seed"], mass=mass, **sampler)
    cfg["seed"] = scfg.seed  # the resolved config.yaml records the integer
    return scfg


class _Unreadable(DhmcError):
    """A model, data file or run artifact that cannot be built or read."""


def _build_model(m: dict):
    """The model of a config's ``model`` section."""
    try:
        return build_model(m["name"], m["params"], m["data"], m["synth_seed"])
    except FileNotFoundError as exc:
        raise _Unreadable(f"data file not found: {exc}") from None
    except (DhmcError, OSError, KeyError, TypeError) as exc:
        raise _Unreadable(f"cannot build model {m.get('name')!r}: {exc}") from None


def _fmt(v) -> str:
    """Round-trip decimal formatting: shortest digits that reparse exactly."""
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def _column_strs(col: np.ndarray):
    """Lazy ``_fmt`` strings of one column, converted to Python values once."""
    vals = col.tolist()
    if col.dtype == np.bool_:
        return map(("0", "1").__getitem__, vals)
    if col.dtype.kind in "iu":
        return map(str, vals)
    return map(repr, vals)


def _write_rows(path: str, header: str, template: str, cols: list,
                reps=None):
    """Write ``header``, then ``template % row`` for each row of ``cols``,
    ``reps[k]`` times for row k when given: a run is formatted once."""
    lines = map(template.__mod__, zip(*cols))
    if reps is not None:
        lines = map(str.__mul__, lines, reps)
    with open(path, "w") as fh:
        fh.write(header)
        fh.writelines(lines)
    return path


def _write_samples(store, chain_dir: str, fmt: str):
    """Decoded value per parameter, plus ``<name>_emb`` for embedded ones."""
    draws, reps = store.draws, None
    if fmt == "csv":
        # rejected proposals repeat the draw before; bitwise, so that -0.0
        # stays apart from 0.0 and NaN rows merge
        bits = draws.view(np.int64)
        new = np.ones(len(draws), dtype=bool)
        new[1:] = (bits[1:] != bits[:-1]).any(axis=1)
        starts = np.flatnonzero(new)
        reps = np.diff(np.append(starts, len(draws))).tolist()
        draws = draws[starts]
    heads, cols = [], []
    for i, name in enumerate(store.names):
        emap = store.embeddings.get(i)
        if emap is not None:
            heads.append(name)
            cols.append(emap.decode(draws[:, i]))
            name += "_emb"
        heads.append(name)
        cols.append(draws[:, i])
    if fmt == "jsonl":
        path = os.path.join(chain_dir, "samples.jsonl")
        with open(path, "w") as fh:
            fh.writelines(json.dumps(dict(zip(heads, row))) + "\n"
                          for row in zip(*(c.tolist() for c in cols)))
        return path
    return _write_rows(os.path.join(chain_dir, "samples.csv"),
                       ",".join(heads) + "\n",
                       ",".join(["%s"] * len(heads)) + "\n",
                       [_column_strs(c) for c in cols], reps)


TRACE_FIELDS = ("iteration",) + TRACE_DTYPE.names


def _write_trace(store, chain_dir: str):
    trace = store.trace
    cols = [map(str, range(len(trace)))]
    cols += [_column_strs(trace[name]) for name in TRACE_DTYPE.names]
    return _write_rows(os.path.join(chain_dir, "trace.csv"),
                       ",".join(TRACE_FIELDS) + "\n",
                       ",".join(["%s"] * len(TRACE_FIELDS)) + "\n", cols)


def _chain_report(store, index: int, scfg: SamplerConfig, model_name: str) -> dict:
    mass = store.mass
    return {
        "chain": index,
        "model": model_name,
        "kernel": store.kernel,
        "param_names": list(store.names),
        "embedded": sorted(int(i) for i in store.embeddings),
        "n_samples": store.n_samples,
        "n_warmup": scfg.n_warmup,
        "eps_range_used": [float(store.eps_range[0]), float(store.eps_range[1])],
        "acceptance_rate": _json_float(store.acceptance_rate()),
        "move_fraction": _json_float(store.move_fraction()),
        "mean_path_len": _json_float(store.mean_path_len()),
        "divergences": int(store.divergences),
        "warmup_divergences": int(store.warmup_divergences),
        "potential_evals": int(store.potential_evals),
        "warmup_evals": int(store.warmup_evals),
        "mass_disc": [float(v) for v in mass.m_disc],
        "mass_diag_smooth": None if mass.diag_smooth is None
        else [float(v) for v in mass.diag_smooth],
        "tuning_warnings": list(store.warnings),
    }


def _json_float(v: float):
    v = float(v)
    return v if math.isfinite(v) else None


def _chain_worker(payload):
    model, scfg, seed_seq, chain_dir, fmt, index, model_name = payload
    rng = np.random.default_rng(seed_seq)
    store = run_chain(model, None, scfg, rng)
    os.makedirs(chain_dir, exist_ok=True)
    _write_samples(store, chain_dir, fmt)
    _write_trace(store, chain_dir)
    report = _chain_report(store, index, scfg, model_name)
    with open(os.path.join(chain_dir, "report.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report


def _versions() -> dict:
    import scipy
    try:
        from importlib.metadata import version
        own = version("dhmc")
    except Exception:
        own = "unknown"
    return {"python": ".".join(str(v) for v in sys.version_info[:3]),
            "numpy": np.__version__, "scipy": scipy.__version__, "dhmc": own}


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    overrides = {"output_dir": args.out, "chains": args.chains,
                 "seed": args.seed, "format": args.format}
    cfg.update((k, v) for k, v in overrides.items() if v is not None)
    scfg = _validate_run_config(cfg)
    workers = config_value(os.environ.get("DHMC_MAX_WORKERS", "1"),
                           "DHMC_MAX_WORKERS")
    model = _build_model(cfg["model"])
    chain_setup(model, scfg)

    out_dir = cfg["output_dir"]
    os.makedirs(out_dir, exist_ok=True)
    resolved = yaml.safe_dump(cfg, sort_keys=True)
    with open(os.path.join(out_dir, "config.yaml"), "w") as fh:
        fh.write(resolved)
    manifest = {
        "config_sha256": hashlib.sha256(resolved.encode()).hexdigest(),
        "seed": cfg["seed"],
        "chains": cfg["chains"],
        "model": cfg["model"]["name"],
        "kernel": scfg.kernel,
        "format": cfg["format"],
        "versions": _versions(),
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")

    seeds = np.random.SeedSequence(cfg["seed"]).spawn(cfg["chains"])
    payloads = [
        (model, scfg, seeds[c], os.path.join(out_dir, f"chain_{c:02d}"),
         cfg["format"], c, cfg["model"]["name"])
        for c in range(cfg["chains"])
    ]
    if workers > 1 and cfg["chains"] > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(workers, cfg["chains"])) as pool:
            reports = list(pool.map(_chain_worker, payloads))
    else:
        reports = [_chain_worker(p) for p in payloads]

    total_div = sum(r["divergences"] for r in reports)
    print(f"wrote {cfg['chains']} chain(s) to {out_dir} "
          f"({total_div} divergent iterations)")
    return 0


def _chain_dirs(run_dir: str) -> list:
    dirs = sorted(d for d in os.listdir(run_dir)
                  if d.startswith("chain_")
                  and os.path.isdir(os.path.join(run_dir, d)))
    if not dirs:
        raise FileNotFoundError(f"no chain_* directories under {run_dir}")
    return [os.path.join(run_dir, d) for d in dirs]


def _load_chain(chain_dir: str):
    """Read one chain's artifacts; returns (store, report, raw).

    The store holds the decoded draws and the run's settings and counters
    from ``report.json``; ``raw`` maps each samples-file header to its
    column.  A samples file must hold a column per parameter and a
    ``<name>_emb`` column per coordinate the report lists as embedded.
    A ``samples.csv`` is streamed: only its distinct lines, one per run of
    equal lines, are kept and parsed, then repeated.
    """
    with open(os.path.join(chain_dir, "report.json")) as fh:
        report = json.load(fh)
    names = report["param_names"]
    columns = names + [names[i] + "_emb" for i in report["embedded"]]
    csv_path = os.path.join(chain_dir, "samples.csv")
    jsonl_path = os.path.join(chain_dir, "samples.jsonl")
    if os.path.exists(csv_path):
        lines, reps, prev = [], [], None
        with open(csv_path) as fh:
            header = fh.readline().strip().split(",")
            for line in fh:
                if line == prev:
                    reps[-1] += 1
                elif line != "\n":  # loadtxt skips blank lines too
                    lines.append(line)
                    reps.append(1)
                    prev = line
        # loadtxt warns on no lines and returns the wrong width
        table = (np.loadtxt(lines, delimiter=",", ndmin=2) if lines
                 else np.empty((0, len(header))))
        del lines
        table = np.repeat(table, reps, axis=0)
        raw = {h: table[:, i] for i, h in enumerate(header)}
    elif os.path.exists(jsonl_path):
        records = []
        with open(jsonl_path) as fh:
            for line in fh:
                if line.strip():
                    records.append(json.loads(line))
        header = list(records[0]) if records else columns
        raw = {h: np.array([float(rec[h]) for rec in records]) for h in header}
    else:
        raise FileNotFoundError(f"no samples file in {chain_dir}")
    missing = [c for c in columns if c not in raw]
    if missing:
        raise ValueError(f"{chain_dir}: no samples column {missing}")
    lo, hi = report["eps_range_used"]
    store = SampleStore(
        names=list(names),
        draws=np.column_stack([raw[name] for name in names]),
        kernel=report["kernel"], eps_range=(float(lo), float(hi)),
        mass=MassSpec(m_disc=report["mass_disc"],
                      diag_smooth=report["mass_diag_smooth"]),
        divergences=report["divergences"],
        potential_evals=report["potential_evals"],
        warmup_evals=report["warmup_evals"],
        warmup_divergences=report["warmup_divergences"],
        warnings=report["tuning_warnings"])
    return store, report, raw


def _load_run(run_dir: str) -> list:
    """``_load_chain`` of every chain directory under ``run_dir``."""
    try:
        return [_load_chain(d) for d in _chain_dirs(run_dir)]
    except (OSError, LookupError, TypeError, ValueError) as exc:
        raise _Unreadable(f"cannot read run artifacts: {exc}") from None


def _score(fn, *args):
    """``fn(*args)`` for ``min_ess_report`` or ``summarize``; artifacts they
    cannot score (too few or constant draws) count as unreadable."""
    try:
        return fn(*args)
    except ContractError as exc:
        raise _Unreadable(str(exc)) from None


def cmd_diagnose(args) -> int:
    selector = args.params or None
    reports = [_score(min_ess_report, st, selector, args.batches)
               for st, _, _ in _load_run(args.run_dir)]
    payload = {"chains": [r.to_dict() for r in reports]}
    if len(reports) >= 2:
        payload["summary"] = _score(summarize, reports).to_dict()
    out_path = os.path.join(args.run_dir, "ess.json")
    with open(out_path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    worst = min(r.min_ess for r in reports)
    print(f"wrote {out_path} (worst min ESS {worst:.1f} over {len(reports)} chain(s))")
    return 0


def _run_metrics(run_dir: str, batches: int) -> dict:
    loaded = _load_run(run_dir)
    reports = [_score(min_ess_report, st, None, batches) for st, _, _ in loaded]
    chain_reports = [rep for _, rep, _ in loaded]
    min_ess = float(np.mean([r.min_ess for r in reports]))
    evals = float(np.mean([r["potential_evals"] for r in chain_reports]))
    n = loaded[0][0].n_samples
    return {
        "run": run_dir,
        "model": chain_reports[0]["model"],
        "kernel": chain_reports[0]["kernel"],
        "min_ess": min_ess,
        "n_samples": n,
        "ess_per_100": 100.0 * min_ess / n if n else float("nan"),
        "ess_per_1e6_evals": 1e6 * min_ess / evals if evals else float("nan"),
        "mean_path_len": float(np.mean(
            [r["mean_path_len"] or 0.0 for r in chain_reports])),
        "evals_per_iter": evals / n if n else float("nan"),
    }


COMPARE_FIELDS = ("run", "kernel", "min_ess", "ess_per_100",
                  "ess_per_1e6_evals", "mean_path_len", "rel_iter_cost")


def cmd_compare(args) -> int:
    if len(args.run_dirs) < 2:
        raise ConfigError("compare needs at least two run directories")
    rows = [_run_metrics(d, args.batches) for d in args.run_dirs]
    models = {r["model"] for r in rows}
    if len(models) > 1:
        raise ConfigError(f"runs target different models: {sorted(models)}")
    floor = min(r["evals_per_iter"] for r in rows)
    for r in rows:
        r["rel_iter_cost"] = r["evals_per_iter"] / floor if floor else float("nan")
    rows.sort(key=lambda r: -r["min_ess"])

    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "compare.csv")
    with open(csv_path, "w") as fh:
        fh.write(",".join(COMPARE_FIELDS) + "\n")
        for r in rows:
            fh.write(",".join(str(r[f]) if f in ("run", "kernel")
                              else _fmt(float(r[f])) for f in COMPARE_FIELDS) + "\n")

    text_rows = [[str(r[f]) if f in ("run", "kernel") else f"{r[f]:.4g}"
                  for f in COMPARE_FIELDS] for r in rows]
    widths = [max(len(f), *(len(tr[i]) for tr in text_rows))
              for i, f in enumerate(COMPARE_FIELDS)]
    print("  ".join(f.ljust(w) for f, w in zip(COMPARE_FIELDS, widths)))
    for tr in text_rows:
        print("  ".join(v.ljust(w) for v, w in zip(tr, widths)))
    print(f"wrote {csv_path}")
    return 0


def _run_model(run_dir: str):
    """The seed of a run directory and the model it sampled, from its
    resolved config."""
    try:
        with open(os.path.join(run_dir, "config.yaml")) as fh:
            cfg = yaml.safe_load(fh)
        seed, m = int(cfg["seed"]), dict(cfg["model"])
    except (OSError, KeyError, TypeError, ValueError, yaml.YAMLError) as exc:
        raise _Unreadable(f"cannot read run artifacts: {exc}") from None
    return seed, _build_model(m)


def _plot_trajectory(args, run_dir: str) -> str:
    seed, model = _run_model(run_dir)
    if len(model.smooth_idx):
        raise ConfigError("trajectory plot data needs an all-discontinuous target")
    store = _load_run(run_dir)[0][0]
    lo, hi = store.eps_range
    eps = 0.5 * (lo + hi)
    steps = args.steps
    rng = np.random.default_rng(seed + 9999)
    theta = model.initial_theta(rng)
    disc = model.disc_idx
    mass = MassSpec(m_disc=store.mass.m_disc)
    state = PhaseState(theta, sample_momentum(rng, mass, model.smooth_idx, disc),
                       model.smooth_idx, disc)
    order = rng.permutation(disc).tolist()
    path = os.path.join(run_dir, "plot_trajectory.csv")
    names = [f"theta_{i}" for i in range(model.dim)]
    with open(path, "w") as fh:
        fh.write("update,coord,flipped," + ",".join(names) + "\n")
        fh.write("0,-1,0," + ",".join(_fmt(v) for v in state.theta) + "\n")
        update = 0
        for _ in range(steps):
            for j in order:
                out = coord_sweep(model, state, [j], eps, mass)
                state = out.state
                update += 1
                fh.write(f"{update},{j},{out.flips}," +
                         ",".join(_fmt(v) for v in state.theta) + "\n")
    return path


def _plot_marginal2d(args, run_dir: str) -> str:
    if not args.params or len(args.params) != 2:
        raise ConfigError("marginal2d needs exactly two --params names")
    xs, ys = [], []
    for store, _, _ in _load_run(run_dir):
        for name in args.params:
            if name not in store.names:
                raise ConfigError(f"unknown parameter {name!r}; "
                                  f"choose from {store.names}")
        if store.n_samples:
            xs.append(store.decoded_column(store.names.index(args.params[0])))
            ys.append(store.decoded_column(store.names.index(args.params[1])))
    path = os.path.join(run_dir, "plot_marginal2d.csv")
    with open(path, "w") as fh:
        fh.write(f"{args.params[0]},{args.params[1]},count\n")
        if xs:
            x = np.concatenate(xs)
            y = np.concatenate(ys)
            counts, xe, ye = np.histogram2d(x, y, bins=args.bins)
            xc = 0.5 * (xe[:-1] + xe[1:])
            yc = 0.5 * (ye[:-1] + ye[1:])
            for i in range(len(xc)):
                for j in range(len(yc)):
                    fh.write(f"{_fmt(xc[i])},{_fmt(yc[j])},{int(counts[i, j])}\n")
    return path


def _plot_funcdraws(args, run_dir: str) -> str:
    _, model = _run_model(run_dir)
    if not hasattr(model, "level_paths"):
        raise ConfigError(f"model {model.name!r} has no piecewise level paths")
    store, report, raw = _load_run(run_dir)[0]
    names = report["param_names"]
    embedded = set(report["embedded"])
    path = os.path.join(run_dir, "plot_funcdraws.csv")
    with open(path, "w") as fh:
        fh.write("draw,t,a,b\n")
        n = store.n_samples
        take = min(args.ndraws, n)
        for k in range(n - take, n):
            theta = np.array([
                raw[name + "_emb"][k] if i in embedded else raw[name][k]
                for i, name in enumerate(names)])
            a_t, b_t = model.level_paths(theta)
            for t in range(len(a_t)):
                fh.write(f"{k},{t + 1},{_fmt(a_t[t])},{_fmt(b_t[t])}\n")
    return path


def cmd_plotdata(args) -> int:
    kinds = {"trajectory": _plot_trajectory, "marginal2d": _plot_marginal2d,
             "funcdraws": _plot_funcdraws}
    if args.kind not in kinds:
        raise ConfigError(f"unknown plot kind {args.kind!r}; choose from "
                          f"{sorted(kinds)}")
    path = kinds[args.kind](args, args.run_dir)
    print(f"wrote {path}")
    return 0


def _positive_int(text: str) -> int:
    """argparse type of the count options: an integer of at least 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dhmc",
        description="Sampler harness for discontinuous targets and embedded "
                    "discrete parameters.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run warmup + sampling per the config")
    p_run.add_argument("--config", required=True, help="YAML config path")
    p_run.add_argument("--out", help="output directory (overrides config)")
    p_run.add_argument("--chains", type=_positive_int, help="number of chains")
    p_run.add_argument("--seed", type=int, help="master seed (overrides config)")
    p_run.add_argument("--format", choices=("csv", "jsonl"),
                       help="samples file format")
    p_run.set_defaults(func=cmd_run)

    p_diag = sub.add_parser("diagnose", help="effective sample size report")
    p_diag.add_argument("run_dir")
    p_diag.add_argument("--params", nargs="*", help="parameter subset")
    p_diag.add_argument("--batches", type=_positive_int, default=25)
    p_diag.set_defaults(func=cmd_diagnose)

    p_cmp = sub.add_parser("compare", help="tabulate several runs on one model")
    p_cmp.add_argument("run_dirs", nargs="+")
    p_cmp.add_argument("--out", help="directory for compare.csv (default .)")
    p_cmp.add_argument("--batches", type=_positive_int, default=25)
    p_cmp.set_defaults(func=cmd_compare)

    p_plot = sub.add_parser("plotdata", help="emit plain-CSV plot data")
    p_plot.add_argument("run_dir")
    p_plot.add_argument("--kind", required=True)
    p_plot.add_argument("--params", nargs="*",
                        help="two parameter names for marginal2d")
    p_plot.add_argument("--bins", type=_positive_int, default=40)
    p_plot.add_argument("--steps", type=_positive_int, default=30,
                        help="sweeps for a trajectory dump")
    p_plot.add_argument("--ndraws", type=_positive_int, default=100,
                        help="posterior draws for funcdraws")
    p_plot.set_defaults(func=cmd_plotdata)
    return parser


def main(argv=None) -> int:
    """Run one verb; every error it raises is mapped to its exit code here."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        code, message = 2, str(exc)
    except _Unreadable as exc:
        code, message = 3, str(exc)
    except OSError as exc:  # every read converts its own, so this is a write
        code, message = 3, f"cannot write run artifacts: {exc}"
    except (DhmcError, ArithmeticError) as exc:
        code, message = 4, f"numeric failure: {exc}"
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
