"""Workload definitions: each workload is a list of `predsync sweep` configs.

The benchmark's --seed shifts every seed_range by that many instance seeds,
so the same seed always gives the same configs.  The program only ever sees
the generated files.
"""

from __future__ import annotations

from pathlib import Path

MIS_TEMPLATES = ("simple", "consecutive", "interleaved", "parallel")

WORKLOADS = {
    # error measures dominate: 4 base-algorithm reruns, alpha oracle and
    # MIS enumeration per run
    "mis-sweep": [
        {"graph": "RANDOM_CONNECTED", "n": 18, "p": 0.3,
         "id_scheme": "SEEDED_PERMUTATION", "problem": "MIS", "template": t,
         "k_range": "0..10", "seed_range": (0, 19)}
        for t in MIS_TEMPLATES
    ],
    # 803-round runs with long traces: audit and traced simulation dominate,
    # the oracles hit their caps at once
    "line-allzeros": [
        {"graph": "LINE", "n": 800, "id_scheme": "INCREASING", "problem": "MIS",
         "pattern": "ALL_ZEROS", "template": t, "k_range": "0",
         "seed_range": (0, 0)}
        for t in ("simple", "interleaved")
    ],
    # the untraced solve inside make_predictions dominates; multi-slot edge
    # coloring outputs exercise the engine and the auditor
    "mm-vc-ec": [
        {"graph": "RANDOM_CONNECTED", "n": 60, "p": 0.1,
         "id_scheme": "SEEDED_PERMUTATION", "problem": problem, "template": t,
         "k_range": "0,2,4,6,8,10", "seed_range": (0, 4)}
        for problem in ("MAXIMAL_MATCHING", "VERTEX_COLORING", "EDGE_COLORING")
        for t in ("simple", "consecutive")
    ],
}


def _count(text: str) -> int:
    if ".." in text:
        lo, hi = text.split("..")
        return int(hi) - int(lo) + 1
    return len(text.split(","))


def configs(workload: str, seed: int) -> list[dict]:
    """The workload's configs with seed_range shifted for this seed."""
    out = []
    for cfg in WORKLOADS[workload]:
        lo, hi = cfg["seed_range"]
        out.append(dict(cfg, seed_range=f"{lo + seed}..{hi + seed}"))
    return out


def planned_runs(cfg: dict) -> int:
    return _count(cfg["k_range"]) * _count(cfg["seed_range"])


def graph(graphs, cfg: dict, seed: int):
    """The run's graph, built from the config without going through the CLI."""
    params = {key: cfg[key] for key in ("n", "p") if key in cfg}
    return graphs.generate(cfg["graph"], params, cfg["id_scheme"], seed)


def label(cfg: dict) -> str:
    return f"{cfg['problem']}-{cfg['template']}"


def render(cfg: dict) -> str:
    return "".join(f"{key} = {value}\n" for key, value in cfg.items())


def write_configs(workload: str, seed: int, directory: Path) -> list[tuple[dict, Path]]:
    """Write one config file per sweep; returns (config, path) pairs in order."""
    pairs = []
    for i, cfg in enumerate(configs(workload, seed)):
        path = directory / f"{i:02d}-{label(cfg)}.cfg"
        path.write_text(render(cfg))
        pairs.append((cfg, path))
    return pairs
