"""Run every applicable law on every shipped instance and print a summary.

Usage: python3 scripts/run_lawchecks.py [--trials N] [--seed S] [--out report.json]
"""

import argparse
import json

from revcat import lawcheck as lc
from revcat.instances import INSTANCES


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    rows = []
    for name, make in sorted(INSTANCES.items()):
        cat = make()
        for law in lc.applicable_laws(cat):
            rep = lc.run_law(cat, law, trials=args.trials, seed=args.seed)
            rows.append((name, rep))
            status = "ok" if rep.passed else "FAIL"
            print(f"{name:14s} {law.name:28s} {rep.mode:10s} "
                  f"{rep.trials:7d} {status}")

    failed = [r for _, r in rows if not r.passed]
    print(f"\n{len(rows)} checks, {len(failed)} failures")
    if args.out:
        payload = [
            {"instance": name, **rep.to_json()} for name, rep in rows
        ]
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"wrote {args.out}")
    raise SystemExit(1 if failed else 0)


if __name__ == "__main__":
    main()
