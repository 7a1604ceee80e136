"""Run the pinned identity configs and print one sha256 per chain artifact.

Every config runs 2 chains from seed 11 with 60 warmup and 150 sampling
iterations and path length 8, through ``dhmc run``.  The output has one line
per ``samples.csv``, ``trace.csv`` and ``report.json``, in the format of
``sha256sum``, so the lines of two trees can be compared with ``diff``:

    python tools/pinned_artifacts.py > after.txt

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

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from dhmc.cli import main  # noqa: E402

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
        for c in range(CHAINS):
            for art in ARTIFACTS:
                rel = f"{label}/chain_{c:02d}/{art}"
                lines.append((_sha256(os.path.join(work, rel)), rel))
    return lines


def cli(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--keep", help="directory for the run outputs")
    args = parser.parse_args(argv)
    if args.keep:
        os.makedirs(args.keep, exist_ok=True)
        lines = run_all(args.keep)
    else:
        with tempfile.TemporaryDirectory() as work:
            lines = run_all(work)
    for digest, rel in lines:
        print(f"{digest}  {rel}")
    return 0


if __name__ == "__main__":
    sys.exit(cli())
