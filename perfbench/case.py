"""Run one benchmark case in a fresh process and write its result.

Usage: python3 perfbench/case.py <workdir> <case id> <trace 0|1> <cap MiB>

The case calls the public functions of cklef in the order the CLI or a user
calls them.  Only those calls are timed.  The answer checks and the exact
size counts run after the timed region and are timed apart, so that the
parent can charge the rest of the child's life (interpreter start, import,
result output) to set-up.  A CkError, a MemoryError at the address-space cap
or any other exception ends the case as failed; an answer that disagrees
with the known value ends it as wrong.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

from benchtrace import Recorder

from cklef.cli import document_of, parse_document, render_document
from cklef.endo import build_endomorphism, path_map, power
from cklef.graded import (
    GradedSpace,
    dual_fundamental_class,
    fundamental_contraction,
    graded_map,
    graded_pairing,
    graded_trace,
    identity_map,
    index_pairing,
    zeta_model_check,
)
from cklef.index import (
    fredholm_index_truncated,
    gamma_parts,
    index_polynomial_parts,
    index_series,
    index_series_counted,
    propagation,
)
from cklef.ktheory import (
    induced_k0,
    k0_reduce,
    k_groups,
    lefschetz_number,
    zeta_coefficients,
    zeta_reconstruct,
)
from cklef.sft_core import count_paths, validate_matrix


def _pairs(endo) -> int:
    return sum(len(p) for p in endo.raw_images)


def _digits(kt) -> int:
    return max(len(str(abs(x))) for row in kt.snf.u for x in row)


def _words(matrix, lo: int, hi: int) -> int:
    """Allowable words of lengths lo..hi, counted with matrix powers."""
    return sum(
        count_paths(matrix, None, b, length)
        for length in range(max(lo, 1), hi + 1)
        for b in matrix.alphabet
    )


def _identity(r: int) -> tuple:
    return tuple(tuple(1 if i == j else 0 for j in range(r)) for i in range(r))


def _as_matrix(rows) -> tuple:
    return tuple(tuple(r) for r in rows)


def _trace(rows) -> int:
    return sum(rows[i][i] for i in range(len(rows)))


def _expect(problems: list, ok: bool, what: str) -> None:
    if not ok:
        problems.append(what)


# ---------------------------------------------------------------------------
# Case kinds: run_<kind> is timed, check_<kind> is not.
# ---------------------------------------------------------------------------


def run_power(spec, text, span):
    """parse -> power -> counted series -> induced K_0 -> Lefschetz -> render."""
    with span("cli.parse"):
        doc = parse_document(text)
    with span("endo.build"):
        e = doc.build("t")
    with span("endo.power"):
        p = power(e, spec["n"])
    with span("index.counted"):
        series = index_series_counted(p)
    with span("ktheory.induced_k0"):
        ind = induced_k0(p)
    with span("ktheory.lefschetz"):
        lef = lefschetz_number(p, k1_action=[[0]])
    with span("cli.render"):
        out = render_document(document_of(doc.matrix, f"tp{spec['n']}", p))
    return locals()


def check_power(spec, r, problems):
    n = spec["n"]
    _expect(problems, r["e"].valid, "E validates")
    _expect(problems, r["series"].stabilized_value == 1, f"index of E^{n} is 1")
    _expect(problems, r["ind"].free_part == ((1,),), f"M_0 of E^{n} is (1)")
    _expect(problems, r["lef"].value == 1, f"L(E^{n}) = 1")
    p = r["p"]
    return {
        "endo.pairs": _pairs(r["e"]) + _pairs(p),
        "endo.k": p.k,
        "index.propagation": propagation(p),
        "index.scan_depth": r["series"].params["depth"],
        "ktheory.u_digits": _digits(r["ind"].ktheory),
        "cli.doc_bytes": len(r["text"].encode()) + len(r["out"].encode()),
    }


def run_zeta(spec, text, span):
    """What `cklef zeta --terms <terms>` does."""
    terms = spec["terms"]
    with span("cli.parse"):
        doc = parse_document(text)
    with span("endo.build"):
        e = doc.build("t")
    with span("ktheory.k_groups"):
        kt = k_groups(doc.matrix)
    with span("ktheory.zeta_coeffs"):
        coeffs = zeta_coefficients(e, terms)
    with span("ktheory.zeta_fit"):
        rf = zeta_reconstruct(coeffs, kt.rank_k1, kt.rank_k0_free)
        predicted = rf.expand(terms + 3)[terms + 1:]
    return locals()


def check_zeta(spec, r, problems):
    terms = spec["terms"]
    _expect(problems, r["coeffs"] == [0] + [1] * terms, "zeta coefficients 0,1,1,...")
    rf = r["rf"]
    _expect(problems, rf.numerator == (0, 1) and rf.denominator == (1, -1), "fit is t/(1-t)")
    predicted = r["predicted"]
    _expect(problems, len(predicted) >= 2 and set(predicted) == {1}, "predicted next terms are 1")
    return {
        "endo.pairs": _pairs(r["e"]),
        "ktheory.u_digits": _digits(r["kt"]),
        "cli.doc_bytes": len(r["text"].encode()),
    }


def run_routes(spec, text, span):
    """`cklef validate`, `cklef index --method all`, k0map and lefschetz.

    Every route runs at the CLI's default parameters, except that gamma's
    m is raised to 1 where the default k + propagation is 0 (identities).
    """
    with span("cli.parse"):
        doc = parse_document(text)
    with span("endo.build"):
        e = doc.build("t")
    bound = propagation(e)
    psi = path_map(e)
    with span("index.counted"):
        counted = index_series_counted(e)
    with span("index.series"):
        series = index_series(psi)
    m = max(1, e.k + bound)
    with span("index.gamma"):
        shrink, stretch = gamma_parts(psi, m)
    n_param = max(bound, 1)
    with span("index.polynomial"):
        pos, neg = index_polynomial_parts(e, 1 + n_param + e.k, n_param)
    depth = e.k + 2 * bound + 2
    with span("index.fredholm"):
        fredholm = fredholm_index_truncated(psi, depth)
    with span("ktheory.k_groups"):
        kt = k_groups(doc.matrix)
    with span("ktheory.induced_k0"):
        ind = induced_k0(e)
    with span("ktheory.lefschetz"):
        lef = lefschetz_number(e, k1_action=spec["m1"])
    return locals()


def check_routes(spec, r, problems):
    want = spec["index"]
    idx = r["counted"].stabilized_value
    _expect(problems, r["e"].valid, "presentation validates")
    _expect(problems, idx == want, f"counted index {idx} == {want}")
    _expect(problems, r["series"].stabilized_value == idx, "series == counted")
    _expect(problems, r["shrink"] - r["stretch"] == idx, "gamma == counted")
    _expect(problems, r["pos"] - r["neg"] == idx, "polynomial == counted")
    _expect(problems, r["fredholm"] == idx, "fredholm == counted")
    m0, m1 = _as_matrix(spec["m0"]), _as_matrix(spec["m1"])
    _expect(problems, r["kt"].rank_k1 == len(m1), "rank K_1")
    _expect(problems, r["ind"].free_part == m0, "M_0")
    _expect(problems, r["lef"].value == _trace(m0) - _trace(m1) == want, "L = tr M_0 - tr M_1")
    e, b, matrix = r["e"], r["bound"], r["e"].matrix
    m, depth = r["m"], r["depth"]
    series_depth = r["series"].params["depth"]
    return {
        "endo.pairs": _pairs(e),
        "endo.k": e.k,
        "index.propagation": b,
        "index.scan_depth": r["counted"].params["depth"] + series_depth,
        "index.words": _words(matrix, 1, series_depth + b)
        + _words(matrix, m - b + 1, m + b)
        + _words(matrix, 1, depth + b),
        "ktheory.u_digits": _digits(r["kt"]),
        "cli.doc_bytes": len(r["text"].encode()),
    }


def run_smoke(spec, text, span):
    """Every subcommand on E: the routes case, then power, render, K_0
    classes and zeta, then the graded identity on E's rational K-theory.

    The graded map is alpha_* on K_0 (x) Q + K_1 (x) Q with the known K_1
    action; under the standard pairing its index pairing is L(E).
    """
    r = run_routes(spec, text, span)
    e, kt, n = r["e"], r["kt"], r["e"].matrix.n
    with span("endo.power"):
        p = power(e, 2)
    with span("cli.render"):
        out = render_document(document_of(e.matrix, "tp2", p))
    with span("ktheory.k0_reduce"):
        classes = [k0_reduce(kt, [1 if j == i else 0 for j in range(n)]) for i in range(n)]
    with span("ktheory.zeta_coeffs"):
        coeffs = zeta_coefficients(e, 5)
    with span("ktheory.zeta_fit"):
        rf = zeta_reconstruct(coeffs, kt.rank_k1, kt.rank_k0_free)
    space = GradedSpace(kt.rank_k0_free, kt.rank_k1)
    f = graded_map(space, space, 0, [r["ind"].free_part, spec["m1"]])
    pairing = graded_pairing(space, space, 0, [_identity(space.d0), _identity(space.d1)])
    with span("graded.index_pairing"):
        ip = index_pairing(pairing, f)
    with span("graded.contraction"):
        contraction = fundamental_contraction(pairing, dual_fundamental_class(pairing))
    with span("graded.zeta_model"):
        zeta_ok = zeta_model_check(f)
    r.update((k, v) for k, v in locals().items() if k != "r")
    return r


def check_smoke(spec, r, problems):
    counts = check_routes(spec, r, problems)
    _expect(problems, r["coeffs"] == [0, 1, 1, 1, 1, 1], "zeta coefficients 0,1,1,1,1,1")
    rf = r["rf"]
    _expect(problems, rf.numerator == (0, 1) and rf.denominator == (1, -1), "fit is t/(1-t)")
    _expect(problems, r["ip"] == r["lef"].value, "index pairing = L(E)")
    _expect(problems, r["contraction"] == identity_map(r["space"]), "contraction = identity")
    _expect(problems, r["zeta_ok"] is True, "graded zeta model")
    counts["endo.pairs"] += _pairs(r["p"])
    counts["cli.doc_bytes"] += len(r["out"].encode())
    counts["graded.dim"] = r["space"].d0 + r["space"].d1
    return counts


def run_revalidate(spec, text, span):
    """`cklef power --out`, then the written document parsed back, validated
    and put through the polynomial route."""
    n = spec["n"]
    with span("cli.parse"):
        doc = parse_document(text)
    with span("endo.build"):
        e = doc.build("t")
    with span("endo.power"):
        p = power(e, n)
    with span("cli.render"):
        out = render_document(document_of(doc.matrix, f"tp{n}", p))
    with span("cli.parse"):
        doc2 = parse_document(out)
    with span("endo.build"):
        q = doc2.build(f"tp{n}")
    bound = propagation(q)
    n_param = max(bound, 1)
    with span("index.polynomial"):
        pos, neg = index_polynomial_parts(q, 1 + n_param + q.k, n_param)
    return locals()


def check_revalidate(spec, r, problems):
    q = r["q"]
    _expect(problems, q.valid, "parsed-back power validates")
    _expect(problems, q.raw_images == r["p"].raw_images, "document round trip")
    _expect(problems, r["pos"] - r["neg"] == 1, "polynomial index is 1")
    return {
        "endo.pairs": _pairs(r["e"]) + _pairs(r["p"]) + _pairs(q),
        "endo.k": q.k,
        "index.propagation": r["bound"],
        "cli.doc_bytes": len(r["text"].encode()) + 2 * len(r["out"].encode()),
    }


def run_ktheory(spec, text, span):
    """build -> K-groups -> generator classes -> induced K_0 -> Lefschetz
    number with K_1 acting as the identity -> counted series."""
    spec_in = json.loads(text)
    with span("endo.build"):
        matrix = validate_matrix(spec_in["rows"])
        e = build_endomorphism(matrix, spec_in["pairs"])
    with span("ktheory.k_groups"):
        kt = k_groups(matrix)
    n = matrix.n
    with span("ktheory.k0_reduce"):
        classes = [k0_reduce(kt, [1 if j == i else 0 for j in range(n)]) for i in range(n)]
    with span("ktheory.induced_k0"):
        ind = induced_k0(e)
    with span("ktheory.lefschetz"):
        lef = lefschetz_number(e, k1_action=_identity(kt.rank_k1))
    with span("index.counted"):
        series = index_series_counted(e)
    return locals()


def check_ktheory(spec, r, problems):
    e, kt, ind = r["e"], r["kt"], r["ind"]
    n = e.matrix.n
    _expect(problems, e.valid, "inner automorphism validates")
    # An inner automorphism acts trivially on K-theory: index = L = 0.
    _expect(problems, r["series"].stabilized_value == 0, "index is 0")
    _expect(problems, r["lef"].value == 0, "L is 0")
    _expect(problems, ind.free_part == _identity(kt.rank_k0_free), "M_0 is the identity")
    images = [k0_reduce(kt, [ind.on_generators[j][i] for j in range(n)]) for i in range(n)]
    _expect(
        problems,
        all(a.same_class(c) for a, c in zip(images, r["classes"])),
        "alpha_*(e_i) = e_i in K_0",
    )
    return {
        "endo.pairs": _pairs(e),
        "endo.k": e.k,
        "index.propagation": propagation(e),
        "index.scan_depth": r["series"].params["depth"],
        "ktheory.u_digits": _digits(kt),
    }


def run_graded_pairing(spec, text, span):
    g = json.loads(text)
    space = GradedSpace(g["d"], g["d"])
    p = graded_pairing(space, space, g["parity"], g["pairing"])
    f = graded_map(space, space, 0, g["map"])
    with span("graded.index_pairing"):
        value = index_pairing(p, f)
    with span("graded.contraction"):
        contraction = fundamental_contraction(p, dual_fundamental_class(p))
    return locals()


def check_graded_pairing(spec, r, problems):
    _expect(problems, r["value"] == graded_trace(r["f"]), "index pairing = graded trace")
    _expect(problems, r["contraction"] == identity_map(r["space"]), "contraction = identity")
    return {"graded.dim": 2 * r["g"]["d"]}


def run_zeta_model(spec, text, span):
    g = json.loads(text)
    space = GradedSpace(g["d"], g["d"])
    f = graded_map(space, space, 0, g["map"])
    with span("graded.zeta_model"):
        ok = zeta_model_check(f)
    return locals()


def check_zeta_model(spec, r, problems):
    _expect(problems, r["ok"] is True, "supertrace series = rational expansion")
    return {"graded.dim": 2 * r["g"]["d"]}


KINDS = {
    "power": (run_power, check_power),
    "zeta": (run_zeta, check_zeta),
    "routes": (run_routes, check_routes),
    "smoke": (run_smoke, check_smoke),
    "revalidate": (run_revalidate, check_revalidate),
    "ktheory": (run_ktheory, check_ktheory),
    "graded_pairing": (run_graded_pairing, check_graded_pairing),
    "zeta_model": (run_zeta_model, check_zeta_model),
}


def main() -> None:
    workdir, case_id, trace, cap_mb = sys.argv[1], sys.argv[2], sys.argv[3] == "1", int(sys.argv[4])
    cap = cap_mb << 20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    with open(os.path.join(workdir, "manifest.json"), encoding="utf-8") as fh:
        spec = next(c for c in json.load(fh)["cases"] if c["id"] == case_id)
    with open(os.path.join(workdir, "inputs", spec["doc"]), encoding="utf-8") as fh:
        text = fh.read()
    run, check = KINDS[spec["kind"]]
    rec = Recorder(case_id, trace)
    result = {"status": "ok", "problems": [], "counts": {}}
    t0 = time.perf_counter()
    try:
        outputs = run(spec, text, rec.span)
        t1 = time.perf_counter()
    except Exception as exc:  # the case boundary: any error is a failed case
        t1 = time.perf_counter()
        outputs = None
        result["status"] = "failed"
        result["error"] = f"{type(exc).__name__}: {exc}"
        traceback.print_exc()
    if outputs is not None:
        result["counts"] = check(spec, outputs, result["problems"])
        if result["problems"]:
            result["status"] = "wrong"
    t2 = time.perf_counter()
    result.update(timed_s=t1 - t0, check_s=t2 - t1, spans=rec.spans)
    with open(os.path.join(workdir, f"result-{case_id}.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, default=str)


if __name__ == "__main__":
    main()
