"""Mutated copies of the shipped configs exit cleanly, never with a traceback.

Every leaf of every shipped config is deleted, renamed, retyped, made
non-finite, negated or zeroed.  Each mutant runs in-process through
``cli.main`` and must exit 0, 2 (bad config) or 3 (runtime error), with a
message on stderr for 2 and 3.  The configs are shortened first so a mutant
that still runs stays cheap.
"""

import copy
import math
import random
from pathlib import Path

import pytest
import yaml

from polarlink import cli

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
}
# Type, non-finite, deleted and renamed values all meet the one config
# resolver, so a seeded draw of leaves per (config, mutation) pair covers them.
# Range checks sit with each field, so negate and zero run on every leaf.
PER_PAIR = 2
EVERY_LEAF = ("negate", "zero")


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


def test_draw_covers_every_mutation_on_every_config():
    drawn = {tuple(mid.split(":")[::2]) for mid, _, _ in mutants()}
    assert drawn == {(c.stem, name) for c in CONFIGS for name in MUTATIONS}


def test_mutants_exit_cleanly(tmp_path, capsys):
    failures = []
    for i, (mid, scenario, cfg) in enumerate(mutants()):
        path = tmp_path / f"m{i}.yaml"
        path.write_text(yaml.safe_dump(cfg))
        try:
            code = cli.main([scenario, "--config", str(path), "--out", str(tmp_path / f"o{i}")])
        except Exception as e:  # a traceback is the failure this test looks for
            failures.append(f"{mid}: {type(e).__name__}: {e}")
            continue
        err = capsys.readouterr().err
        if code not in (0, 2, 3):
            failures.append(f"{mid}: exit {code}")
        elif code != 0 and not err.strip():
            failures.append(f"{mid}: exit {code} with empty stderr")
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize("config", CONFIGS, ids=[c.stem for c in CONFIGS])
def test_shortened_config_runs(tmp_path, capsys, config):
    cfg = load_shortened(config)
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert cli.main([cfg["scenario"], "--config", str(path), "--out", str(tmp_path / "o")]) == 0
