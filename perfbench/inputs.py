"""Seeded input files: every `@<name>` structure a workload names, written
as a `.st` file under a random vertex relabeling chosen by the seed.

Names: `K<n>` complete graph, `P<n>` pure set, `C<n>` chain (linear
order).  Verdicts and counts do not depend on the labeling, so any seed
must reproduce the same outcomes.
"""

from __future__ import annotations

import os
import random
import re

_NAME = re.compile(r"([KPC])(\d+)$")


def _relations(kind: str, n: int):
    if kind == "K":
        return "edge/2", "edge", [(u, v) for u in range(n) for v in range(n) if u != v]
    if kind == "C":
        return "lt/2", "lt", [(u, v) for u in range(n) for v in range(u + 1, n)]
    return "", None, []


def structure_text(name: str, rng: random.Random) -> str:
    m = _NAME.match(name)
    if m is None:
        raise ValueError(f"unknown input structure {name!r}")
    kind, n = m.group(1), int(m.group(2))
    signature, symbol, tuples = _relations(kind, n)
    perm = list(range(n))
    rng.shuffle(perm)
    lines = [f"signature: {signature}".rstrip(), f"size: {n}"]
    if symbol is not None:
        moved = sorted((perm[u], perm[v]) for u, v in tuples)
        lines.append(f"{symbol}: " + " ".join(f"({u},{v})" for u, v in moved))
    return "\n".join(lines) + "\n"


def input_names(decisions) -> list[str]:
    return sorted({tok[1:] for d in decisions for tok in d.argv if tok.startswith("@")})


def write_inputs(decisions, seed: str, directory: str) -> dict[str, str]:
    """Write one relabeled file per input name; returns name -> path."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for name in input_names(decisions):
        rng = random.Random(f"{seed}/{name}")
        path = os.path.join(directory, f"{name}.st")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(structure_text(name, rng))
        paths[name] = path
    return paths
