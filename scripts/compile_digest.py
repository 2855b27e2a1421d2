"""Digest of every RC compile over the figure sweep's machine space.

Compiles each benchmark for every core-size pair of ``SIZE_PAIRS`` (the
Figure 8/9 sweep), RC models 1-5 and issue widths 1 and 4 (600 compiles),
and hashes what the compiler emitted: the listing, resolved targets, entry
point, function ranges and the connect optimizer's report (counts and
edits).  Two source trees that print the same digest compile every one of
those points to the same program.

Usage::

    PYTHONPATH=src python scripts/compile_digest.py [--expect DIGEST]

With ``--expect`` the script exits 1 unless the digest equals *DIGEST*.
Register classes and opcodes hash by identity, so set iteration order
differs from run to run; running it under two ``PYTHONHASHSEED`` values
gates that no emitted program depends on either order.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.compiler import CompileOptions, compile_back  # noqa: E402
from repro.experiments import front_end  # noqa: E402
from repro.experiments.figures import SIZE_PAIRS, _config  # noqa: E402
from repro.isa.asmfmt import format_listing  # noqa: E402
from repro.rc import RCModel  # noqa: E402
from repro.workloads import ALL_BENCHMARKS  # noqa: E402

MODELS = (1, 2, 3, 4, 5)
WIDTHS = (1, 4)


def point_digest(name: str, int_core: int, fp_core: int, model: int,
                 width: int) -> tuple[str, str]:
    """(label, sha256) of one compile."""
    config = _config(name, rc=True, int_core=int_core, fp_core=fp_core,
                     issue=width, model=RCModel(model))
    options = CompileOptions()
    _module, front = front_end(name, 1, options)
    out = compile_back(front, config, options)
    prog, rep = out.program, out.connect_opt
    h = hashlib.sha256()
    for part in (format_listing(prog.instrs), prog.targets, prog.entry,
                 sorted(prog.func_ranges.items())):
        h.update(repr(part).encode())
    if rep is not None:
        h.update(repr((rep.connects_before, rep.connects_after,
                       rep.removed_dead, rep.removed_redundant, rep.hoisted,
                       rep.bail_reason,
                       [(e.kind, e.function, e.index, e.detail)
                        for e in rep.edits])).encode())
    label = f"{name} {int_core}/{fp_core} m{model} w{width}"
    return label, h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--expect", metavar="DIGEST",
                        help="exit 1 unless the digest equals DIGEST")
    args = parser.parse_args(argv)
    total = hashlib.sha256()
    count = 0
    for name in ALL_BENCHMARKS:
        for int_core, fp_core in SIZE_PAIRS:
            for model in MODELS:
                for width in WIDTHS:
                    label, digest = point_digest(name, int_core, fp_core,
                                                 model, width)
                    total.update(f"{label} {digest}\n".encode())
                    count += 1
    digest = total.hexdigest()
    print(f"{count} compiles: {digest}")
    if args.expect is not None and digest != args.expect:
        print(f"digest mismatch: expected {args.expect}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
