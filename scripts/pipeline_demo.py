"""End-to-end demos of the reversibilization pipelines.

Classical: a partial function is turned into a garbage-carrying partial
injection, two garbage disciplines are compared under both equivalences, and
the visible function is recovered.  Quantum: random channels go through the
minimal dilation and unitary completion and back, reporting Choi residuals.

Usage: python3 scripts/pipeline_demo.py [--channels N] [--dim D] [--seed S]
"""

import argparse

import numpy as np

from revcat import extensional as ex
from revcat import garbage as gb
from revcat import pipeline as pl
from revcat import quantum as qu
from revcat.classical import FinObj, PartialInj
from revcat.garbage import AuxMorphism


def classical_demo() -> None:
    print("== classical: two garbage disciplines for x -> x+1 on {0,1,2} ==")
    blank = AuxMorphism(
        PartialInj(FinObj.of_size(3), FinObj((4, 1)),
                   tuple((x, x + 1) for x in range(3))),
        4, 1,
    )
    keep_input = AuxMorphism(
        PartialInj(FinObj.of_size(3), FinObj((4, 3)),
                   tuple((x, (x + 1) * 3 + x) for x in range(3))),
        4, 3,
    )
    print(f"garbage-sensitive equal: {gb.aux_equiv(blank, keep_input) is not None}")
    print(f"extensionally equal:     {ex.ext_equiv(blank, keep_input)}")
    print(f"visible partial function: {gb.visible_fn(keep_input).graph}")
    print(f"garbage partitions: {gb.garbage_partition(blank)} "
          f"vs {gb.garbage_partition(keep_input)}")


def quantum_demo(cfg: argparse.Namespace) -> None:
    print(f"\n== quantum: dilation round trips, {cfg.channels} channels, "
          f"d <= {cfg.dim} ==")
    rng = np.random.default_rng(cfg.seed)
    residuals, ranks = [], []
    for _ in range(cfg.channels):
        d = int(rng.integers(1, cfg.dim + 1))
        c = qu.random_channel(d, d, int(rng.integers(1, 4)), rng)
        u, anc, env = pl.channel_to_unitary_presentation(c)
        back = pl.unitary_to_channel(u, anc, env)
        residuals.append(float(np.max(np.abs(back.choi - c.choi))))
        ranks.append(env)
    print(f"max residual: {max(residuals):.2e}  "
          f"median: {float(np.median(residuals)):.2e}")
    print(f"environment dimensions seen: {sorted(set(ranks))}")

    print("\n== quantum: reversible-core extraction ==")
    u = qu.haar_unitary(cfg.dim, rng)
    pc = pl.inv_cptp(qu.channel_of_unitary(u))
    err = float(np.max(np.abs(pc.rep.mat - qu.phase_fix(u.mat))))
    print(f"Haar unitary recovered up to phase, max error {err:.2e}")
    for name, c in [("dephasing", qu.dephasing_channel(2)),
                    ("depolarizing(0.5)", qu.depolarizing_channel(2, 0.5))]:
        print(f"{name}: reversible core exists = {pl.inv_cptp(c) is not None}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--channels", type=int, default=50)
    ap.add_argument("--dim", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    cfg = ap.parse_args()
    classical_demo()
    quantum_demo(cfg)


if __name__ == "__main__":
    main()
