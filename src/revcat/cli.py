"""Command-line front end: JSON in, JSON report out.

Every report carries the verb, a digest of the inputs, the seed and the
tolerances in effect, so identical invocations are byte-identical.  Exit
status: 0 on success, 1 on a law violation, 2 on malformed input.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from typing import Optional

import numpy as np

from . import classical as cl
from . import extensional as ex
from . import garbage as gb
from . import lawcheck as lc
from . import pipeline as pl
from . import quantum as qu
from .classical import PartialFn
from .garbage import AuxMorphism
from .instances import INSTANCES
from .quantum import Channel, Unitary

VERBS = [
    "lawcheck", "compose", "tensor", "bennett-of", "pfn-of", "aux-equal",
    "ext-equal", "dilate", "kraus", "channel-of-unitary", "extract-unitary",
    "inv", "roundtrip",
]


class InputError(ValueError):
    pass


def _read_inputs(paths: list[str]) -> list[tuple[str, bytes]]:
    if not paths:
        return [("<stdin>", sys.stdin.buffer.read())]
    out = []
    for p in paths:
        if p == "-":
            out.append(("<stdin>", sys.stdin.buffer.read()))
        else:
            try:
                with open(p, "rb") as fh:
                    out.append((p, fh.read()))
            except OSError as e:
                raise InputError(f"cannot read {p}: {e}") from e
    return out


def _parse_json(name: str, raw: bytes) -> dict:
    try:
        return json.loads(raw)
    except json.JSONDecodeError as e:
        raise InputError(f"{name}: malformed JSON at line {e.lineno} column {e.colno}: {e.msg}") from e


def _digest(raws: list[tuple[str, bytes]]) -> str:
    h = hashlib.sha256()
    for _, raw in raws:
        h.update(raw)
    return h.hexdigest()[:16]


_PARSERS = {
    "morphism": PartialFn.from_json,
    "garbage-carrying morphism": AuxMorphism.from_json,
    "channel": Channel.from_json,
    "matrix": qu.matrix_from_json,
}


def _load(kind: str, name: str, raw: bytes):
    """Parse one input as a value of the given kind."""
    data = _parse_json(name, raw)
    try:
        return _PARSERS[kind](data)
    except (KeyError, ValueError, TypeError) as e:
        raise InputError(f"{name}: bad {kind}: {e}") from e


def _single(verb: str, raws: list[tuple[str, bytes]]) -> tuple[str, bytes]:
    if len(raws) != 1:
        raise InputError(f"{verb} takes one input, got {len(raws)}")
    return raws[0]


def run(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="revcat", description=__doc__)
    parser.add_argument("verb", choices=VERBS)
    parser.add_argument("inputs", nargs="*", help="input JSON files ('-' for stdin)")
    parser.add_argument("--instance", help="instance name for lawcheck",
                        choices=sorted(INSTANCES))
    parser.add_argument("--law", default="all", help="law name or 'all'")
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tol", type=float, default=qu.ROUND_ATOL)
    parser.add_argument("--anc", type=int, default=0, help="ancilla input dimension")
    parser.add_argument("--env", type=int, default=1, help="environment split of the output")
    parser.add_argument("--out", help="write the report here instead of stdout")
    args = parser.parse_args(argv)

    try:
        raws = _read_inputs(args.inputs) if args.verb != "lawcheck" else []
        result, status = _dispatch(args, raws)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    report = {
        "verb": args.verb,
        "inputs_digest": _digest(raws),
        "seed": args.seed,
        "tolerances": {"structural": qu.ATOL, "roundtrip": args.tol},
        "result": result,
    }
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return status


def _dispatch(args, raws) -> tuple[dict, int]:
    verb = args.verb

    if verb == "lawcheck":
        if not args.instance:
            raise InputError("lawcheck requires --instance")
        if args.trials <= 0:
            raise InputError(f"--trials must be positive, got {args.trials}")
        cat = INSTANCES[args.instance]()
        if args.law == "all":
            laws = lc.applicable_laws(cat)
        else:
            if args.law not in lc.ALL_LAWS:
                raise InputError(f"unknown law {args.law!r}")
            laws = [lc.ALL_LAWS[args.law]]
        reports = [lc.run_law(cat, law, args.trials, args.seed) for law in laws]
        ok = all(r.passed for r in reports)
        return (
            {"instance": args.instance,
             "reports": [r.to_json(cat.describe) for r in reports]},
            0 if ok else 1,
        )

    if verb in ("compose", "tensor"):
        if len(raws) != 2:
            raise InputError(f"{verb} takes two morphisms")
        f = _load("morphism", *raws[0])
        g = _load("morphism", *raws[1])
        if verb == "compose":
            out = cl.compose(g, f)  # g after f, inputs given in diagram order
        else:
            out = cl.tensor_prod(f, g)
        return {"morphism": out.to_json()}, 0

    if verb == "bennett-of":
        f = _load("morphism", *_single(verb, raws))
        return {"morphism": cl.bennett(f).to_json()}, 0

    if verb == "pfn-of":
        m = _load("garbage-carrying morphism", *_single(verb, raws))
        return {"morphism": ex.pfn_normalize(m).to_json()}, 0

    if verb in ("aux-equal", "ext-equal"):
        if len(raws) != 2:
            raise InputError(f"{verb} takes two morphisms")
        f = _load("garbage-carrying morphism", *raws[0])
        g = _load("garbage-carrying morphism", *raws[1])
        if verb == "aux-equal":
            w = gb.aux_equiv(f, g)
            res = {"equal": w is not None}
            if w is not None and f.base == gb.PINJ:
                res["mediator"] = [
                    {"forward": fwd, "map": h.to_json()} for fwd, h in w.steps
                ]
            return res, 0
        return {"equal": ex.ext_equiv(f, g)}, 0

    if verb == "dilate":
        c = _load("channel", *_single(verb, raws))
        v, r = qu.minimal_stinespring(c)
        return {"isometry": qu.matrix_to_json(v.mat), "env_dim": r}, 0

    if verb == "kraus":
        c = _load("channel", *_single(verb, raws))
        return {"kraus": [qu.matrix_to_json(k) for k in qu.kraus_of_choi(c)]}, 0

    if verb == "channel-of-unitary":
        u = Unitary(_load("matrix", *_single(verb, raws)))
        c = pl.unitary_to_channel(u, args.anc, args.env)
        return {"channel": c.to_json()}, 0

    if verb == "extract-unitary":
        c = _load("channel", *_single(verb, raws))
        u = qu.extract_unitary(c)
        return {"unitary": qu.matrix_to_json(u.mat)}, 0

    if verb == "inv":
        (name, raw) = _single(verb, raws)
        data = _parse_json(name, raw)
        if "din" in data:
            core = qu.reversible_core(_load("channel", name, raw))
            if isinstance(core, str):
                return {"reversible": False, "reason": core}, 0
            return {"reversible": True, "unitary": qu.matrix_to_json(core.mat)}, 0
        f = _load("morphism", name, raw)
        inj = pl.inv_pfn(f)
        if inj is None:
            return {"reversible": False, "reason": "not injective"}, 0
        return {"reversible": True, "inverse": cl.dagger(inj).to_json()}, 0

    if verb == "roundtrip":
        c = _load("channel", *_single(verb, raws))
        u, anc, env = pl.channel_to_unitary_presentation(c)
        back = pl.unitary_to_channel(u, anc, env)
        residual = float(np.max(np.abs(back.choi - c.choi)))
        ok = residual <= args.tol
        return {"residual": residual, "pass": ok,
                "anc_dim": anc, "env_dim": env}, 0 if ok else 1

    raise InputError(f"unknown verb {verb!r}")


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
