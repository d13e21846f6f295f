"""Mutated copies of the shipped configs exit cleanly, never with a traceback.

Every leaf of every shipped config is deleted, renamed, retyped, made
non-finite, negated, zeroed or set to a huge or a tiny magnitude.  Each
mutant runs in-process through ``cli.main`` and must exit 0, 2 (bad config,
before the run directory is made) or 3 (runtime error), with a message on
stderr for 2 and 3, and without a ``RuntimeWarning`` such as numpy's
overflow or division by zero.  The configs are shortened first so a mutant
that still runs stays cheap.
"""

import copy
import dataclasses
import math
import random
import warnings
from pathlib import Path

import pytest
import yaml

from polarlink import cli
from polarlink.apc import ApcConfig

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.yaml"))
# (scenario, path, value): shortened runs, the same code paths
SHORTEN = (
    ("longrun", ("duration_s",), 1800.0),
    ("calibrate", ("calibrate", "n_seeds"), 30),
    ("probe", ("duration_s",), 10.0),
)
DELETE, RENAME, NEGATE = object(), object(), object()
MUTATIONS = {
    "delete": DELETE,
    "rename": RENAME,
    "str": "abc",
    "list": [],
    "dict": {},
    "null": None,
    "true": True,
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
    "negate": NEGATE,
    "zero": 0,
    "1e300": 1e300,
    "1e-300": 1e-300,
}
# Type, non-finite, deleted and renamed values all meet the one config
# resolver, so a seeded draw of leaves per (config, mutation) pair covers them.
# Range rules differ from field to field (all of them in cli._check_ranges),
# so negate and zero run on every leaf.
PER_PAIR = 2
EVERY_LEAF = ("negate", "zero")
# No shipped config spells out its apc block, so negate and zero also run on
# every APC default, set explicitly in a copy of this config.
APC_CONFIG = "fringe_burst"


def load_shortened(path):
    with open(path) as f:
        cfg = yaml.safe_load(f)
    for scenario, keys, value in SHORTEN:
        if cfg["scenario"] == scenario:
            node = cfg
            for key in keys[:-1]:
                node = node[key]
            node[keys[-1]] = value
    return cfg


def leaves(node, path=()):
    """Paths (keys and list indices) of every non-container value."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from leaves(value, path + (key,))
        else:
            yield path + (key,)


def mutate(cfg, path, mutation):
    """A mutated deep copy of ``cfg``, or None when ``mutation`` does not apply."""
    cfg = copy.deepcopy(cfg)
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    key, value = path[-1], parent[path[-1]]
    if mutation is DELETE or mutation is RENAME:
        if isinstance(parent, list):
            return None
        del parent[key]
        if mutation is RENAME:
            parent[f"{key}_x"] = value
    elif mutation is NEGATE:
        if isinstance(value, bool):
            parent[key] = not value
        elif isinstance(value, (int, float)):
            parent[key] = -value
        else:
            return None
    else:
        parent[key] = mutation
    return cfg


def mutants(per_pair=PER_PAIR, seed=2024):
    """(id, scenario, config) of a seeded draw of mutants."""
    rng = random.Random(seed)
    for config in CONFIGS:
        base = load_shortened(config)
        paths = list(leaves(base))
        for name, mutation in MUTATIONS.items():
            applicable = [p for p in paths if mutate(base, p, mutation) is not None]
            if name not in EVERY_LEAF:
                applicable = rng.sample(applicable, min(per_pair, len(applicable)))
            for path in applicable:
                label = ".".join(str(k) for k in path)
                yield f"{config.stem}:{label}:{name}", base["scenario"], mutate(
                    base, path, mutation
                )
    base = load_shortened(next(c for c in CONFIGS if c.stem == APC_CONFIG))
    base["apc"] = {f.name: f.default for f in dataclasses.fields(ApcConfig)}
    for key in base["apc"]:
        for name in EVERY_LEAF:
            mutant = mutate(base, ("apc", key), MUTATIONS[name])
            yield f"{APC_CONFIG}:apc.{key}:{name}", base["scenario"], mutant


def test_draw_covers_every_mutation_on_every_config():
    drawn = {tuple(mid.split(":")[::2]) for mid, _, _ in mutants()}
    assert drawn == {(c.stem, name) for c in CONFIGS for name in MUTATIONS}


def test_mutants_exit_cleanly(tmp_path, capsys):
    failures = []
    for i, (mid, scenario, cfg) in enumerate(mutants()):
        path = tmp_path / f"m{i}.yaml"
        path.write_text(yaml.safe_dump(cfg))
        out = tmp_path / f"o{i}"
        # Warnings are recorded, not raised, so each mutant runs as it would.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = cli.main([scenario, "--config", str(path), "--out", str(out)])
            except Exception as e:  # a traceback is the failure this test looks for
                failures.append(f"{mid}: {type(e).__name__}: {e}")
                continue
        err = capsys.readouterr().err
        for w in caught:
            if issubclass(w.category, RuntimeWarning):
                failures.append(f"{mid}: RuntimeWarning: {w.message}")
        if code not in (0, 2, 3):
            failures.append(f"{mid}: exit {code}")
        elif code != 0 and not err.strip():
            failures.append(f"{mid}: exit {code} with empty stderr")
        elif code == 2 and out.exists():
            failures.append(f"{mid}: exit 2 after making the run directory")
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize("config", CONFIGS, ids=[c.stem for c in CONFIGS])
def test_shortened_config_runs(tmp_path, capsys, config):
    cfg = load_shortened(config)
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert cli.main([cfg["scenario"], "--config", str(path), "--out", str(tmp_path / "o")]) == 0
