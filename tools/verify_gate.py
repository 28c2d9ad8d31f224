#!/usr/bin/env python
"""Golden-run regression gate: backends must reproduce the committed runs.

For every committed ``golden/GOLDEN_*.json`` document and every
importable backend, re-run the golden scenario and hold the result to
the promise matrix (:mod:`repro.verify.golden`):

* numpy, c and numpy-mp are **bitwise** backends: every per-step
  sha256 state digest and every diagnostic series value must match the
  document exactly — a one-ULP change anywhere fails the gate;
* any other registered backend is a **tolerance** backend: the
  diagnostic series must agree within the per-quantity tolerances
  recorded in the document.

Exit codes: 0 = all checks pass (or nothing to check), 1 = divergence
from golden, 2 = missing/corrupt golden artifacts.  Backends that
cannot run here (``c`` without a C compiler) are skipped with a
message, never failed — the gate constrains what *can* run here.

Wired into ``make verify-gate`` (and ``make check``).  After an
*intentional* numerics change, regenerate with::

    python tools/verify_gate.py --regenerate

and commit the refreshed documents (workflow: docs/verification.md).
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))


def main(argv=None):
    from repro.core.backends import available_backends, known_backend_names
    from repro.verify.golden import (
        check_golden,
        generate_golden,
        golden_cases,
        load_golden,
        save_golden,
    )

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--golden-dir", type=Path, default=ROOT / "golden",
                    help="directory of GOLDEN_*.json documents "
                         "(default: <repo>/golden)")
    ap.add_argument("--backend", action="append", default=None,
                    help="check only this backend (repeatable; default: "
                         "every importable backend)")
    ap.add_argument("--regenerate", action="store_true",
                    help="rewrite the golden documents from the reference "
                         "path (numpy backend) instead of checking")
    args = ap.parse_args(argv)

    args.golden_dir.mkdir(parents=True, exist_ok=True)
    paths = {name: args.golden_dir / f"GOLDEN_{name}.json"
             for name in golden_cases()}

    if args.regenerate:
        for name, path in paths.items():
            doc = generate_golden(name)
            save_golden(doc, path)
            print(f"verify-gate: regenerated {path} "
                  f"({len(doc['digests']) - 1} steps)")
        return 0

    missing = [str(p) for p in paths.values() if not p.exists()]
    if missing:
        print("verify-gate: FAIL — missing golden artifacts: "
              + ", ".join(missing)
              + " (generate with: python tools/verify_gate.py --regenerate)")
        return 2

    backends = args.backend or list(known_backend_names())
    importable = set(available_backends())
    failures = 0
    for requested in backends:
        if requested not in importable:
            reason = "no cc" if requested == "c" else "backend not available"
            print(f"verify-gate: SKIP backend {requested!r} — {reason} "
                  "in this environment")
            print(f"gate-status: verify-gate/{requested} skipped({reason})")
            continue
        print(f"gate-status: verify-gate/{requested} ran")
        for name, path in paths.items():
            try:
                doc = load_golden(path)
            except (ValueError, KeyError) as exc:
                print(f"verify-gate: FAIL — corrupt golden {path}: {exc}")
                return 2
            result = check_golden(doc, requested)
            print(f"verify-gate: {result.describe()}")
            if not result.ok:
                failures += 1

    if failures:
        print(f"verify-gate: FAIL — {failures} golden check(s) diverged "
              "(if the numerics change was intentional, regenerate with "
              "python tools/verify_gate.py --regenerate and commit)")
        return 1
    print("verify-gate: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
