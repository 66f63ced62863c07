"""Equivalence check: digests of dimkit's outputs over a fixed seeded set.

A change that claims to keep dimkit's outputs byte-identical proves it
here.  Each input of each family is run in five modes, and every output
is hashed:
  default      `solve().to_json()` on the default route;
  verdict      the same solve's `status`, `matching` and `p9_checked` only,
               without `stats` and `reason`: a change to the search that
               claims to move no verdict or certificate reads `same` here
               even where it moves branch counts or a reason text;
  engine_only  `solve().to_json()` under ENGINE_ONLY (`SolveConfig(branch_budget=0)`,
               where the paper's engine decides every component the K4
               test and the dominating-edge test leave);
  p9           `classify_p9(g)`, state and witness, as JSON (the solve's
               JSON carries the state but not the witness);
  check        `cli.check_report(g)`, the report `dimkit check --json`
               prints: the first K4, diamond and butterfly counts, and
               the P9 state and witness.
The committed file `equivalence_digests.json` holds, per family and mode,
one 8-hex-digit digest per input and one digest over all of them.

Run from the repository root:

    PYTHONPATH=src python tests/equivalence.py          # compare, list moved inputs
    PYTHONPATH=src python tests/equivalence.py --write  # re-derive the digests

The comparison prints one line per family and mode and names each input
whose output moved; it exits 1 when any did.  A change that moves a digest
re-derives the file in the same change and says which inputs moved and why.
`test_equivalence.py` runs a slice of the set in tier-1.

Families:
  corpus7  every graph on at most 7 vertices up to isomorphism (995);
  gnp      seeded G(n, p), n = 8..40, p in GNP_PS;
  planted  `gen_planted(n, k, extra, seed)` with n = 20..400;
  c4       `gen_c4_augmented` with the same parameter draw, so no-dim;
  bench    the benchmark's seed-1 inputs (`perfbench/workloads.py`'s
           MAKERS: planted, inclass, then small, 2,055 graphs);
  deg3     planted d.i.m.s in graphs of maximum degree 3 (ROADMAP item 8),
           n = 10..400, so every input is `dim` (see `deg3_graph`).
The `explain` command is not covered yet.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path
from functools import cache
from typing import Iterator

from dimkit.cli import check_report
from dimkit.driver import SolveConfig, solve
from dimkit.generator import gen_c4_augmented, gen_planted, iter_small_corpus
from dimkit.graph import Graph
from dimkit.patterns import classify_p9

DIGESTS = Path(__file__).with_name("equivalence_digests.json")
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

FAMILIES = ("corpus7", "gnp", "planted", "c4", "bench", "deg3")
MODES = ("default", "verdict", "engine_only", "p9", "check")
VERDICT_KEYS = ("status", "matching", "p9_checked")

GNP_COUNT = 3000
GNP_PS = (0.05, 0.1, 0.15, 0.25, 0.4)
PLANTED_COUNT = 200
DEG3_COUNT = 200


def _gnp(i: int) -> Graph:
    rng = random.Random(3200 + i)
    n = rng.randint(8, 40)
    p = GNP_PS[i % len(GNP_PS)]
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def _planted_args(i: int) -> tuple[int, int, int, int]:
    rng = random.Random(4000 + i)
    n = rng.randint(20, 400)
    k = rng.randint(max(1, n // 8), n // 3)
    extra = rng.randint(k, min(2 * k * (n - 2 * k), 2 * n))
    return n, k, extra, i


def deg3_graph(i: int) -> Graph:
    """ROADMAP item 8's family: k matched pairs (3 | k, k <= 120) and 4k/3
    unmatched vertices, n = 10k/3.  A configuration pairing joins the two
    free stubs of each matched vertex to the three stubs of each unmatched
    one, redrawn until no edge repeats, so every vertex has degree 3 and
    the pairs form a d.i.m.; ids are shuffled."""
    rng = random.Random(5200 + i)
    k = 3 * rng.randint(1, 40)
    n = 10 * k // 3
    matched = [v for v in range(2 * k) for _ in range(2)]
    unmatched = [v for v in range(2 * k, n) for _ in range(3)]
    while True:
        rng.shuffle(unmatched)
        cross = set(zip(matched, unmatched))
        if len(cross) == len(matched):
            break
    ids = list(range(n))
    rng.shuffle(ids)
    pairs = [(2 * j, 2 * j + 1) for j in range(k)]
    return Graph.from_edges(n, [(ids[a], ids[b]) for a, b in pairs + sorted(cross)])


@cache
def _bench() -> list[Graph]:
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    from workloads import MAKERS

    return [Graph.from_edges(it["n"], it["edges"]) for make in MAKERS.values() for it in make(1)]


def family_size(family: str) -> int:
    if family == "bench":
        return len(_bench())
    return {
        "corpus7": 995, "gnp": GNP_COUNT, "planted": PLANTED_COUNT, "c4": PLANTED_COUNT,
        "deg3": DEG3_COUNT,
    }[family]


def inputs(family: str, indexes: range | list[int] | None = None) -> Iterator[tuple[int, Graph]]:
    """(index, graph) for the given indexes of a family, all by default."""
    if indexes is None:
        indexes = range(family_size(family))
    if family == "corpus7":
        corpus = list(iter_small_corpus(7))
        for i in indexes:
            yield i, corpus[i]
    elif family == "gnp":
        for i in indexes:
            yield i, _gnp(i)
    elif family == "planted":
        for i in indexes:
            yield i, gen_planted(*_planted_args(i)).graph
    elif family == "c4":
        for i in indexes:
            yield i, gen_c4_augmented(*_planted_args(i))
    elif family == "bench":
        for i in indexes:
            yield i, _bench()[i]
    elif family == "deg3":
        for i in indexes:
            yield i, deg3_graph(i)
    else:
        raise ValueError(f"unknown family {family!r}")


def outputs(g: Graph) -> dict[str, str]:
    """The text each mode digests for g; `default` and `verdict` share one
    solve."""
    solved = solve(g).to_json_dict()
    return {
        "default": json.dumps(solved),
        "verdict": json.dumps({key: solved[key] for key in VERDICT_KEYS}),
        "engine_only": solve(g, SolveConfig(branch_budget=0)).to_json(),
        "p9": json.dumps(classify_p9(g)),
        "check": json.dumps(check_report(g)),
    }


def output_digests(g: Graph) -> dict[str, str]:
    """{mode: the 8-hex-digit digest of its text} for g."""
    return {mode: hashlib.sha256(text.encode()).hexdigest()[:8] for mode, text in outputs(g).items()}


def digest_family(family: str) -> dict[str, dict[str, str]]:
    """{mode: {"digest", "inputs"}}: `inputs` concatenates the 8-digit
    digests of the inputs in index order, `digest` hashes that string."""
    per_mode: dict[str, list[str]] = {mode: [] for mode in MODES}
    for _, g in inputs(family):
        for mode, digest in output_digests(g).items():
            per_mode[mode].append(digest)
    out = {}
    for mode, digests in per_mode.items():
        joined = "".join(digests)
        out[mode] = {"digest": hashlib.sha256(joined.encode()).hexdigest(), "inputs": joined}
    return out


def committed() -> dict:
    return json.loads(DIGESTS.read_text())


def committed_digest(table: dict, family: str, mode: str, i: int) -> str:
    return table[family][mode]["inputs"][8 * i:8 * i + 8]


def main(argv: list[str]) -> int:
    if argv not in ([], ["--write"]):
        print(__doc__, file=sys.stderr)
        return 2
    table = {family: digest_family(family) for family in FAMILIES}
    if argv == ["--write"]:
        DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        print(f"wrote {DIGESTS}")
        return 0
    want = committed()
    moved_any = False
    for family in FAMILIES:
        for mode in MODES:
            got = table[family][mode]
            moved = [
                i for i in range(family_size(family))
                if got["inputs"][8 * i:8 * i + 8] != committed_digest(want, family, mode, i)
            ]
            moved_any |= bool(moved)
            state = "MOVED" if moved else "same"
            print(f"{family:8} {mode:12} {family_size(family):5} inputs  {got['digest'][:16]}  {state}")
            for i in moved:
                print(f"  moved: {family}/{i}")
    return 1 if moved_any else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
