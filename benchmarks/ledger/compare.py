#!/usr/bin/env python3
"""Compare two sets of ledger results: ``compare.py A.json... -- B.json...``

``A`` is the parent's runs, ``B`` the change's (``BENCH_<label>.json``
files written by ``run.py``).  For every workload and end-to-end
metric it prints both medians with their bases (how many runs), the
change, the bound the benchmark fixed, and a verdict:

``regressed``
    B's median is worse than A's by more than the bound.
``unresolved``
    the run-to-run spread of either side (distance between the
    quartiles as a share of the median) is wider than the bound, so a
    change of that size cannot be told from noise — unless every run
    of B reads better than every run of A.
``improved``
    both sides have at least two runs, every run of B reads better
    than every run of A, and the medians differ by more than the
    spread.
``unchanged``
    none of the above.

``failed_share`` has an absolute bound of 0: any failed operation in B
is a regression.  The derived ``dense2d_mp2 / dense2d`` throughput
ratio is printed for both sides.  Exits 1 if anything regressed.
"""

from __future__ import annotations

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
from stats import iqr_share, median  # noqa: E402


def load(paths) -> list[dict]:
    docs = []
    for p in paths:
        doc = json.loads(pathlib.Path(p).read_text(encoding="utf-8"))
        if not str(doc.get("schema", "")).startswith("repro-ledger/"):
            sys.exit(f"{p}: not a ledger result file")
        docs.append(doc)
    return docs


def values(docs, workload: str, metric: str) -> list[float]:
    out = []
    for doc in docs:
        w = doc["workloads"].get(workload, {})
        if w.get("status") != "ran":
            continue
        if metric == "failed_share":
            out.append(w["failed_share"])
        elif metric in w["end_to_end"]:
            out.append(w["end_to_end"][metric]["value"])
    return out


def verdict(a, b, better: str, bound: float) -> tuple[str, float, float]:
    """``(verdict, worse_by, spread)``; ``worse_by`` is the share of
    A's median by which B's median is worse (negative: better)."""
    ma, mb = median(a), median(b)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (mb - ma) / abs(ma) if ma else 0.0
    spread = max(iqr_share(a), iqr_share(b))
    if better == "lower":
        all_better = max(b) < min(a)
    else:
        all_better = min(b) > max(a)
    if all_better and -worse_by > spread and min(len(a), len(b)) >= 2:
        return "improved", worse_by, spread
    if spread > bound and not all_better:
        return "unresolved", worse_by, spread
    if worse_by > bound:
        return "regressed", worse_by, spread
    return "unchanged", worse_by, spread


def compare(a_docs, b_docs) -> tuple[list[dict], list[str]]:
    """Rows for every workload × metric, and the derived-ratio lines."""
    first = a_docs[0]
    spec = {m["name"]: m for m in first["end_to_end_spec"]}
    rows = []
    for workload in first["workloads"]:
        for metric in [*spec, "failed_share"]:
            a, b = values(a_docs, workload, metric), values(b_docs, workload, metric)
            if not a or not b:
                rows.append({"workload": workload, "metric": metric,
                             "verdict": "missing", "a": a, "b": b})
                continue
            if metric == "failed_share":
                v = "regressed" if median(b) > 0 else "unchanged"
                rows.append({"workload": workload, "metric": metric, "verdict": v,
                             "a": a, "b": b, "worse_by": median(b) - median(a),
                             "spread": 0.0, "bound": 0.0})
                continue
            bound = spec[metric]["bound"]
            v, worse_by, spread = verdict(a, b, spec[metric]["better"], bound)
            rows.append({"workload": workload, "metric": metric, "verdict": v,
                         "a": a, "b": b, "worse_by": worse_by, "spread": spread,
                         "bound": bound})
    derived = []
    for side, docs in (("A", a_docs), ("B", b_docs)):
        ratios = [d["derived"]["dense2d_mp2_over_dense2d"]["value"] for d in docs
                  if "dense2d_mp2_over_dense2d" in d.get("derived", {})]
        if ratios:
            derived.append(f"{side}: dense2d_mp2 / dense2d particle_steps_per_s = "
                           f"{median(ratios):.4g} (median of {len(ratios)} run(s))")
    return rows, derived


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--" not in argv:
        sys.exit(__doc__.split("\n\n")[0])
    cut = argv.index("--")
    a_docs, b_docs = load(argv[:cut]), load(argv[cut + 1:])
    if not a_docs or not b_docs:
        sys.exit("need at least one result file on each side of --")
    rows, derived = compare(a_docs, b_docs)
    print(f"{'workload':12s} {'metric':22s} {'A median (n)':>18s} {'B median (n)':>18s} "
          f"{'worse by':>9s} {'spread':>7s} {'bound':>6s}  verdict")
    for r in rows:
        if r["verdict"] == "missing":
            print(f"{r['workload']:12s} {r['metric']:22s} "
                  f"{'(no runs)':>18s} {'':>18s} {'':>9s} {'':>7s} {'':>6s}  missing")
            continue
        a, b = r["a"], r["b"]
        print(f"{r['workload']:12s} {r['metric']:22s} "
              f"{median(a):>14.6g} ({len(a)}) {median(b):>14.6g} ({len(b)}) "
              f"{100 * r['worse_by']:>+8.2f}% {100 * r['spread']:>6.2f}% "
              f"{100 * r['bound']:>5.1f}%  {r['verdict']}")
    for line in derived:
        print(line)
    bad = [r for r in rows if r["verdict"] in ("regressed", "missing")]
    print(f"{len(bad)} regressed or missing of {len(rows)} rows")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
