"""Golden digests of the reference runs: the SHA-256 and size of every output.

The runs are the six shipped configs at their own seed and at ``--seed 5``;
configs/fringe_burst.yaml with ``apc.step_size: 1.0e4`` at seed 7, where
every descent step overshoots into a random kick, which no shipped config
reaches, and whose corrected fit fails, which its summary.json records; and
configs/calibrate.yaml at seeds 0, 3 and 17.  Each runs in process through
``polarlink.cli.main``, and its stdout is digested beside its files; a run
that exits other than 0 also records its exit code and stderr as
``<exit>``, which no run does now.  tests/golden.json holds the digests
with the numpy version that wrote them, and tests/test_golden.py re-runs
every run against it.

Run from the repository root:

    PYTHONPATH=src python3 benchmarks/golden.py [--update]

Without ``--update`` it exits 1 if any digest differs from tests/golden.json;
with it, it rewrites the file.  A change that means to move outputs updates
the file and says why.
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import yaml

from polarlink import cli

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden.json"
CONFIGS = ("probe", "fringe", "fringe_burst", "longrun_stabilized", "longrun_unstabilized", "calibrate")
KICK_RUN = "fringe_burst.yaml apc.step_size=1e4 --seed 7"

# Run name -> (config file, --seed or None for the config's own, apc overrides).
RUNS = {}
for _name in CONFIGS:
    RUNS[f"{_name}.yaml"] = (f"{_name}.yaml", None, {})
    RUNS[f"{_name}.yaml --seed 5"] = (f"{_name}.yaml", 5, {})
RUNS[KICK_RUN] = ("fringe_burst.yaml", 7, {"step_size": 1.0e4})
for _seed in (0, 3, 17):
    RUNS[f"calibrate.yaml --seed {_seed}"] = ("calibrate.yaml", _seed, {})


def _digest(data: bytes) -> dict:
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def digest_run(name: str, workdir: Path) -> dict:
    """Run ``name`` into a fresh directory under ``workdir``; the digest of
    each output file, and of stdout as ``<stdout>``, by file name, with the
    exit code and stderr as ``<exit>`` if the run exits other than 0."""
    config, seed, apc = RUNS[name]
    path = ROOT / "configs" / config
    workdir = Path(workdir)
    if apc:
        raw = yaml.safe_load(path.read_text())
        raw.setdefault("apc", {}).update(apc)
        path = workdir / f"{path.stem}_overridden.yaml"
        path.write_text(yaml.safe_dump(raw))
    out = workdir / name.replace(" ", "_").replace("=", "_")
    scenario = yaml.safe_load(path.read_text())["scenario"]
    argv = [scenario, "--config", str(path), "--out", str(out)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    digests = {f.name: _digest(f.read_bytes()) for f in sorted(out.iterdir())}
    digests["<stdout>"] = _digest(stdout.getvalue().encode())
    if code != 0:
        digests["<exit>"] = {"code": code, "stderr": stderr.getvalue()}
    return digests


def differences(name: str, expected: dict, got: dict, numpy_version: str) -> list:
    """One line per output file of run ``name`` whose digest differs."""
    lines = []
    for file in sorted(expected.keys() | got.keys()):
        if expected.get(file) != got.get(file):
            lines.append(
                f"{name}: {file} differs from tests/golden.json (recorded with numpy"
                f" {numpy_version}, run with numpy {np.__version__})"
            )
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true", help="rewrite tests/golden.json")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        runs = {name: digest_run(name, Path(tmp)) for name in RUNS}
    if args.update:
        GOLDEN.write_text(json.dumps({"numpy": np.__version__, "runs": runs}, indent=1) + "\n")
        print(f"wrote {len(runs)} runs to {GOLDEN.relative_to(ROOT)}")
        return
    golden = json.loads(GOLDEN.read_text())
    lines = []
    for name in RUNS:
        lines += differences(name, golden["runs"].get(name, {}), runs[name], golden["numpy"])
    print("\n".join(lines) or f"all {len(runs)} runs match tests/golden.json")
    sys.exit(1 if lines else 0)


if __name__ == "__main__":
    main()
