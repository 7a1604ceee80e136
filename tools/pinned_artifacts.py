"""Run the pinned identity configs and print one sha256 per chain artifact.

Every config runs 2 chains from seed 11 with 60 warmup and 150 sampling
iterations and path length 8, through ``dhmc run``.  The output is a header
line with the python, numpy and scipy versions, then one line per
``samples.csv``, ``trace.csv`` and ``report.json``, and one per
``plot_trajectory.csv`` (``dhmc plotdata --kind trajectory``) of the runs of
an all-discontinuous model, in the format of ``sha256sum``, so the lines of
two trees can be compared with ``diff``:

    python tools/pinned_artifacts.py > after.txt

``--check`` compares the artifacts with the committed baseline
``pinned_artifacts.txt`` next to this script instead: it names each chain
whose artifacts moved, and fails without running anything when the versions
differ from the baseline's header, since other versions may round
differently.  The baseline is regenerated with

    python tools/pinned_artifacts.py > tools/pinned_artifacts.txt

The package is imported from the ``src`` directory next to this script.
``--keep DIR`` leaves the run directories in DIR instead of a temporary
directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir, "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from dhmc.cli import main  # noqa: E402

BASELINE = os.path.join(HERE, "pinned_artifacts.txt")

AR1 = ("ar1", {"dim": 20})
CONFIGS = (
    [("dhmc", m) for m in ("jolly_seber", "arch_cp", "binomial_n", "pmf",
                           "banana", "gaussian")]
    + [("dhmc_coordwise", m) for m in ("jolly_seber", "arch_cp", AR1,
                                       "gen_bayes", "banana")]
    + [("mwg", m) for m in ("jolly_seber", "arch_cp", AR1, "binomial_n",
                            "banana")]
    + [("hmc", m) for m in ("gaussian", AR1)]
    + [("rwm", m) for m in ("gaussian", "jolly_seber")]
)
CHAINS = 2
ARTIFACTS = ("samples.csv", "trace.csv", "report.json")
# All-discontinuous models, whose runs also get trajectory plot data.
TRAJECTORY = ("binomial_n", "pmf", "banana")


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_all(work: str) -> list:
    """Run every config under ``work``; returns (sha256, relative path)."""
    lines = []
    for kernel, model in CONFIGS:
        name, params = model if isinstance(model, tuple) else (model, {})
        label = f"{kernel}-{name}"
        cfg = {"model": {"name": name, "params": params},
               "sampler": {"kernel": kernel, "path_len": 8, "n_warmup": 60,
                           "n_samples": 150},
               "chains": CHAINS, "seed": 11}
        cfg_path = os.path.join(work, f"{label}.yaml")
        with open(cfg_path, "w") as fh:
            json.dump(cfg, fh)  # JSON is valid YAML
        out = os.path.join(work, label)
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", "--config", cfg_path, "--out", out])
        if code != 0:
            raise SystemExit(f"{label}: dhmc run exited with {code}")
        rels = [f"{label}/chain_{c:02d}/{art}"
                for c in range(CHAINS) for art in ARTIFACTS]
        if name in TRAJECTORY:
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(["plotdata", out, "--kind", "trajectory"])
            if code != 0:
                raise SystemExit(f"{label}: dhmc plotdata exited with {code}")
            rels.append(f"{label}/plot_trajectory.csv")
        lines.extend((_sha256(os.path.join(work, rel)), rel) for rel in rels)
    return lines


def version_header() -> str:
    return (f"# python {sys.version.split()[0]}, numpy {np.__version__}, "
            f"scipy {scipy.__version__}")


def moved_chains(expected: dict, lines: list) -> dict:
    """Chain directory -> the artifacts whose digest differs from
    ``expected`` (relative path -> digest), or that only one side has."""
    got = {rel: digest for digest, rel in lines}
    moved = {}
    for rel in sorted(set(expected) | set(got)):
        if expected.get(rel) != got.get(rel):
            chain, art = rel.rsplit("/", 1)
            moved.setdefault(chain, []).append(art)
    return moved


def cli(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--keep", help="directory for the run outputs")
    parser.add_argument("--check", action="store_true",
                        help="compare with the committed baseline")
    args = parser.parse_args(argv)
    if args.check:
        with open(BASELINE) as fh:
            header, *body = fh.read().splitlines()
        if header != version_header():
            print(f"version mismatch: the baseline was made with "
                  f"{header[2:]}, this is {version_header()[2:]}")
            return 1
        expected = {rel: digest for digest, rel in map(str.split, body)}
    if args.keep:
        os.makedirs(args.keep, exist_ok=True)
        lines = run_all(args.keep)
    else:
        with tempfile.TemporaryDirectory() as work:
            lines = run_all(work)
    if not args.check:
        print(version_header())
        for digest, rel in lines:
            print(f"{digest}  {rel}")
        return 0
    moved = moved_chains(expected, lines)
    for chain, arts in moved.items():
        print(f"moved: {chain}: {', '.join(arts)}")
    if moved:
        print(f"{len(moved)} chain(s) moved")
        return 1
    print(f"all {len(lines)} artifacts match the baseline")
    return 0


if __name__ == "__main__":
    sys.exit(cli())
