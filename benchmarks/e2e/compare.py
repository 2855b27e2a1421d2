"""Compare two sets of end-to-end benchmark results.

Usage::

    python3 benchmarks/e2e/compare.py BASE NEW

``BASE`` and ``NEW`` are each a directory of result JSONs written by
``bench.py -o`` (or a single such file; the all-workload form, a list, is
accepted too).  For every (end-to-end metric, workload) pair it prints
both sides' median and quartiles and one verdict, applying the bounds in
``BENCHMARK.json`` as the choosing-metrics guide rules:

* ``unresolved`` — either side's spread (quartile distance over median)
  is wider than the bound, unless every NEW run beats every BASE run;
* ``worse`` — NEW's median is worse than BASE's by more than the bound;
* ``better`` — NEW wins at least nine tenths of the run pairs (paired by
  seed, ties counting for neither) and the medians differ by more than
  BASE's quartile distance;
* ``within bound`` — otherwise.

It also reports any seed whose ``stats_digest`` differs between the sets
(a change to simulated results).  Exit code 1 when any pair is worse, 2
when the results were run with different ``--seconds`` (different
amounts of work) or no workload has results on both sides.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def load_results(where: str) -> list[dict]:
    """Untraced result documents from a file or a directory of files."""
    path = Path(where)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    docs = []
    for file in files:
        with open(file) as fh:
            data = json.load(fh)
        for doc in data if isinstance(data, list) else [data]:
            if isinstance(doc, dict) and "workload" in doc \
                    and not doc.get("trace"):
                docs.append(doc)
    return docs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base: list[float], new: list[float], pairs, better: str,
            bound: float) -> str:
    """The guide's rules for one (metric, workload) pair."""
    sign = 1.0 if better == "higher" else -1.0
    b1, bmed, b3 = quartiles(base)
    n1, nmed, n3 = quartiles(new)
    spread = max((b3 - b1) / abs(bmed) if bmed else 0.0,
                 (n3 - n1) / abs(nmed) if nmed else 0.0)
    all_better = min(sign * v for v in new) > max(sign * v for v in base)
    if spread > bound:
        return "better" if all_better else "unresolved"
    gain = sign * (nmed - bmed) / abs(bmed) if bmed else 0.0
    if gain < -bound:
        return "worse"
    wins = sum(1 for b, n in pairs if sign * n > sign * b)
    if (pairs and wins >= 0.9 * len(pairs)
            and sign * (nmed - bmed) > (b3 - b1)):
        return "better"
    return "within bound"


def compare(base_docs: list[dict], new_docs: list[dict], spec: dict
            ) -> tuple[list[dict], list[str]]:
    rows = []
    digest_notes = []
    workloads = [w["name"] for w in spec["workloads"]]
    for wl in workloads:
        base = {d["seed"]: d for d in base_docs if d["workload"] == wl}
        new = {d["seed"]: d for d in new_docs if d["workload"] == wl}
        if not base or not new:
            continue
        for seed in sorted(set(base) & set(new)):
            if base[seed].get("stats_digest") != new[seed].get("stats_digest"):
                digest_notes.append(f"{wl} seed {seed}: stats_digest "
                                    f"{base[seed].get('stats_digest')} != "
                                    f"{new[seed].get('stats_digest')}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            bvals = [d["metrics"][name]["value"] for d in base.values()]
            nvals = [d["metrics"][name]["value"] for d in new.values()]
            common = sorted(set(base) & set(new))
            if common:
                pairs = [(base[s]["metrics"][name]["value"],
                          new[s]["metrics"][name]["value"]) for s in common]
            else:
                pairs = list(zip(bvals, nvals))
            rows.append({
                "workload": wl, "metric": name, "unit": metric["unit"],
                "base": quartiles(bvals), "new": quartiles(nvals),
                "runs": (len(bvals), len(nvals)),
                "verdict": verdict(bvals, nvals, pairs, metric["better"],
                                   metric["bound"]),
                "bound": metric["bound"],
            })
    return rows, digest_notes


def render(rows: list[dict]) -> str:
    lines = [f"{'workload':12s} {'metric':16s} {'base q1/med/q3':>30s} "
             f"{'new q1/med/q3':>30s} {'change':>8s} {'bound':>6s}  verdict"]
    for r in rows:
        b, n = r["base"], r["new"]
        change = (n[1] - b[1]) / b[1] if b[1] else 0.0
        lines.append(
            f"{r['workload']:12s} {r['metric']:16s} "
            f"{b[0]:9.4g}/{b[1]:9.4g}/{b[2]:9.4g} "
            f"{n[0]:9.4g}/{n[1]:9.4g}/{n[2]:9.4g} "
            f"{change:+8.1%} {r['bound']:6.0%}  {r['verdict']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="directory or file of base results")
    parser.add_argument("new", help="directory or file of new results")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    base_docs, new_docs = load_results(args.base), load_results(args.new)
    amounts = {doc["seconds"] for doc in base_docs + new_docs}
    if len(amounts) > 1:
        print(f"the results measure different amounts of work (--seconds "
              f"{sorted(amounts)}); compare runs of one length",
              file=sys.stderr)
        return 2
    rows, digest_notes = compare(base_docs, new_docs, spec)
    if not rows:
        print("no workload has results on both sides", file=sys.stderr)
        return 2
    print(render(rows))
    for note in digest_notes:
        print(f"simulated results changed: {note}")
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    raise SystemExit(main())
