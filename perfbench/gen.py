"""Generate one workload's inputs from its seed and write them as documents.

Usage: python3 perfbench/gen.py <workload> <seed> <workdir> <trace 0|1>

Runs in its own child process with ``src`` on the path.  It writes every
input a case reads into ``<workdir>/inputs`` and a ``manifest.json`` listing
the cases, their inputs and the answers known for them independently of the
routes being timed.  With tracing on it also records a span around each
``cklef.sampling`` call.
"""

from __future__ import annotations

import json
import os
import random
import sys

from benchtrace import Recorder

from cklef.cli import document_of, render_document, parse_document
from cklef.endo import identity_endomorphism, power
from cklef.graded import GradedSpace, graded_pairing
from cklef.sampling import random_complete_graph_endomorphism, random_inner_automorphism
from cklef.sft_core import validate_matrix

# The worked example E of the paper: its index and those of all its powers
# are 1, with M_0 = (1) on K_0 = Z and M_1 = (0) on K_1 = Z.
MAIN_DOCUMENT = """\
# worked example
n = 3
A = 110 111 011

[t1]
1,1 <- 2,1
1,2 <- 2,2
2,3,3 <- 2,3
2,3,2 <- 3,2
2 <- 1

[t2]
3,2 <- e

[t3]
3,3 <- 3
"""

# Desk matrices with the ranks of K_0 (free part) and K_1, known by hand:
# rank K_1 = dim ker(I - A^T), and the free part of K_0 has the same rank.
DESK = {
    "main": ([[1, 1, 0], [1, 1, 1], [0, 1, 1]], 1),
    "one": ([[1]], 1),
    "ones2": ([[1, 1], [1, 1]], 0),
    "golden": ([[1, 1], [1, 0]], 0),
    "ones3": ([[1, 1, 1], [1, 1, 1], [1, 1, 1]], 0),
}

POWERS = range(1, 9)
ZETA_TERMS = 8
REVALIDATED_POWERS = (3, 4)
KTHEORY_SIZES = (8, 16, 24, 32, 40)
PAIRING_DIMS = (4, 6, 8, 10)
ZETA_MODEL_DIMS = (4, 5, 6)


def _identity(r: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(r)] for i in range(r)]


class Generator:
    def __init__(self, workdir: str, rec: Recorder):
        self.inputs = os.path.join(workdir, "inputs")
        os.makedirs(self.inputs, exist_ok=True)
        self.rec = rec
        self.cases: list[dict] = []
        self.attempts = 0
        self.accepted = 0

    def write(self, name: str, text: str) -> str:
        with open(os.path.join(self.inputs, name), "w", encoding="utf-8") as fh:
            fh.write(text)
        return name

    def document(self, name: str, endo) -> str:
        return self.write(name, render_document(document_of(endo.matrix, "t", endo)))

    def case(self, case_id: str, kind: str, **params) -> None:
        self.cases.append({"id": case_id, "kind": kind, **params})

    def inner(self, matrix, rng: random.Random, depth: int):
        with self.rec.span("sampling.sample"):
            endo = random_inner_automorphism(matrix, rng, depth=depth)
        self.attempts += 1
        self.accepted += 1
        return endo

    def complete(self, matrix, rng: random.Random):
        with self.rec.span("sampling.sample"):
            endo, stats = random_complete_graph_endomorphism(matrix, rng, depth=2)
        self.attempts += stats.attempts
        self.accepted += stats.accepted
        return endo


def gen_smoke(g: Generator, rng: random.Random) -> None:
    """The cases every workload shares: E through every subcommand, and one
    seeded complete-graph sample through every route.  They keep each layer
    measured, a little, on every workload."""
    g.case("smoke-E", "smoke", doc=g.write("E.ck", MAIN_DOCUMENT), index=1, m0=[[1]], m1=[[0]])
    matrix = validate_matrix([[1, 1], [1, 1]])
    # K-theory of O_n is torsion, so M_0 and M_1 are empty and L = 0.
    doc = g.document("complete2.ck", g.complete(matrix, rng))
    g.case("complete2", "routes", doc=doc, index=0, m0=[], m1=[])


def gen_powers(g: Generator, rng: random.Random) -> None:
    doc = g.write("E.ck", MAIN_DOCUMENT)
    for n in POWERS:
        g.case(f"E^{n}", "power", doc=doc, n=n)
    g.case(f"zeta{ZETA_TERMS}", "zeta", doc=doc, terms=ZETA_TERMS)
    gen_smoke(g, rng)


def gen_crosscheck(g: Generator, rng: random.Random) -> None:
    main = parse_document(MAIN_DOCUMENT).build("t")
    e_doc = g.write("E.ck", MAIN_DOCUMENT)
    worked = dict(index=1, m0=[[1]], m1=[[0]])
    g.case("E", "routes", doc=e_doc, **worked)
    g.case("E^2", "routes", doc=g.document("E2.ck", power(main, 2)), **worked)
    for label, (rows, rank) in DESK.items():
        matrix = validate_matrix(rows)
        trivial = dict(index=0, m0=_identity(rank), m1=_identity(rank))
        doc = g.document(f"id-{label}.ck", identity_endomorphism(matrix))
        g.case(f"id-{label}", "routes", doc=doc, **trivial)
        doc = g.document(f"inner-{label}.ck", g.inner(matrix, rng, 2))
        g.case(f"inner-{label}", "routes", doc=doc, **trivial)
    matrix = validate_matrix([[1, 1, 1], [1, 1, 1], [1, 1, 1]])
    doc = g.document("complete3.ck", g.complete(matrix, rng))
    g.case("complete3", "routes", doc=doc, index=0, m0=[], m1=[])
    for n in REVALIDATED_POWERS:
        g.case(f"reval-E^{n}", "revalidate", doc=e_doc, n=n)
    gen_smoke(g, rng)


def _random_matrix(rng: random.Random, n: int) -> list[list[int]]:
    """Exactly n*n//2 ones, no zero row or column: the density is fixed so
    that cost depends on n, not on how many ones the seed happened to draw."""
    while True:
        ones = set(rng.sample(range(n * n), n * n // 2))
        rows = [[1 if i * n + j in ones else 0 for j in range(n)] for i in range(n)]
        if all(any(r) for r in rows) and all(any(r[j] for r in rows) for j in range(n)):
            return rows


def _random_block(rng: random.Random, rows: int, cols: int) -> list[list[int]]:
    return [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]


def gen_ktheory(g: Generator, rng: random.Random) -> None:
    for n in KTHEORY_SIZES:
        matrix = validate_matrix(_random_matrix(rng, n))
        # Written as JSON, not as a document: the document format cannot
        # name generator blocks past 10 ([t11] parses as generator 1 of t1).
        endo = g.inner(matrix, rng, 1)
        spec = {"rows": [list(r) for r in matrix.rows], "pairs": endo.raw_images}
        g.case(f"kt{n}", "ktheory", doc=g.write(f"inner{n}.json", json.dumps(spec)))
    for d in PAIRING_DIMS:
        parity = rng.randint(0, 1)
        space = GradedSpace(d, d)
        while True:
            blocks = [_random_block(rng, d, d) for _ in (0, 1)]
            if graded_pairing(space, space, parity, blocks).is_nondegenerate():
                break
        fmap = [_random_block(rng, d, d) for _ in (0, 1)]
        spec = {"d": d, "parity": parity, "pairing": blocks, "map": fmap}
        g.case(f"pairing{d}", "graded_pairing", doc=g.write(f"pairing{d}.json", json.dumps(spec)))
    for d in ZETA_MODEL_DIMS:
        spec = {"d": d, "map": [_random_block(rng, d, d) for _ in (0, 1)]}
        g.case(f"zetamodel{d}", "zeta_model", doc=g.write(f"zetamodel{d}.json", json.dumps(spec)))
    gen_smoke(g, rng)


WORKLOADS = {"powers": gen_powers, "crosscheck": gen_crosscheck, "ktheory": gen_ktheory}


def main() -> None:
    workload, seed, workdir, trace = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4] == "1"
    rec = Recorder("gen", trace)
    g = Generator(workdir, rec)
    WORKLOADS[workload](g, random.Random(seed))
    manifest = {
        "cases": g.cases,
        "sampling": {"attempts": g.attempts, "accepted": g.accepted},
        "spans": rec.spans,
    }
    with open(os.path.join(workdir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)


if __name__ == "__main__":
    main()
