"""Command-line front end: JSON in, JSON report out.

Every report carries the verb, a digest of the inputs, the seed and the
tolerances in effect, and its text is exactly
``json.dumps(report, sort_keys=True, indent=2) + "\\n"``, so identical
invocations are byte-identical.  Exit status: 0 on success, 1 on a law or
round-trip failure, 2 on malformed input (a parser's ValueError; any other
exception is a bug and propagates) or an unwritable --out file, 3 on an
internal numerical failure, in an action or while an input loads (numpy's
LinAlgError, which ``classical.numerical_failure`` tells apart: it is not an
input error although it subclasses ValueError).

A bad input is rejected while it loads, with its name.  The classical verbs,
and lawcheck on a classical instance in exhaustive mode, load no numpy.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from typing import TYPE_CHECKING, Optional

import revcat

from . import classical as cl
from . import extensional as ex
from . import garbage as gb
from . import lawcheck as lc
from . import pipeline as pl
from .classical import PartialFn
from .garbage import AuxMorphism
from .instances import INSTANCES

if TYPE_CHECKING:
    from .quantum import Channel, Unitary


def _read_inputs(paths: list[str]) -> list[tuple[str, bytes]]:
    out = []
    for p in paths or ["-"]:
        if p == "-":
            out.append(("<stdin>", sys.stdin.buffer.read()))
        else:
            try:
                with open(p, "rb") as fh:
                    out.append((p, fh.read()))
            except OSError as e:
                raise ValueError(f"cannot read {p}: {e}") from e
    return out


def _digest(raws: list[tuple[str, bytes]]) -> str:
    h = hashlib.sha256()
    for _, raw in raws:
        h.update(raw)
    return h.hexdigest()[:16]


def _unitary(data) -> Unitary:
    """A unitary of at least one dimension: a 0x0 one has no channel."""
    u = revcat.quantum.Unitary(revcat.quantum.matrix_from_json(data))
    if u.dim == 0:
        raise ValueError("a 0x0 unitary has no channel; the unitary must be at least 1x1")
    return u


# The input kinds, each a (label, parser) pair.  The parser turns the JSON
# value into the value a verb acts on, so that the library's own checks reject
# a bad input while it is loaded; the label names the kind in that error.
_MOR = ("morphism", PartialFn.from_json)
_AUX = ("garbage-carrying morphism", AuxMorphism.from_json)
_VISIBLE = (_AUX[0], lambda data: gb.visible_fn(AuxMorphism.from_json(data)))  # pinj base only
_CHAN = ("channel", lambda data: revcat.quantum.Channel.from_json(data))
_MAT = ("matrix", _unitary)  # read by channel-of-unitary only


def _chan_or_mor(data) -> tuple:
    """The kind of an input that may be either: a channel when it has a "din" key."""
    return _CHAN if isinstance(data, dict) and "din" in data else _MOR


def _load(kind, name: str, raw: bytes):
    """Parse one input as a value of the given kind, or of the kind that the
    function kind chooses from the JSON value."""
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as e:
        raise ValueError(f"{name}: malformed JSON at line {e.lineno} column {e.colno}: {e.msg}") from e
    except (ValueError, RecursionError) as e:  # undecodable bytes, too many digits, too deep
        raise ValueError(f"{name}: {e}") from e
    label, parse = kind(data) if callable(kind) else kind
    try:
        return parse(data)
    except ValueError as e:
        if cl.numerical_failure(e):
            raise
        raise ValueError(f"{name}: bad {label}: {e}") from e


_compact = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode


def _write(value, pad: str = "") -> str:
    """json.dumps(value, sort_keys=True, indent=2) at indent pad.  The C encoder
    writes lists of non-empty rows of non-string scalars; with no '"', each "["
    opens a list and each "],[" joins two siblings, so the counts admit just those."""
    inner = pad + "  "
    if isinstance(value, dict) and value:
        items = [f"{json.encoder.encode_basestring_ascii(k)}: {_write(v, inner)}"
                 for k, v in sorted(value.items())]
        return "{\n" + inner + f",\n{inner}".join(items) + f"\n{pad}}}"
    if not isinstance(value, (list, tuple)) or not value:
        return _compact(value)
    enc = _compact(value) if isinstance(value[0], (list, tuple)) else ""
    if '"' in enc or "[]" in enc or not enc.count("[") == len(value) + 1 == enc.count("],[") + 2:
        return "[\n" + inner + f",\n{inner}".join(_write(v, inner) for v in value) + f"\n{pad}]"
    deep = inner + "  "
    rows = enc[2:-2].replace(",", ",\n" + deep)
    rows = rows.replace(f"],\n{deep}[", f"\n{inner}],\n{inner}[\n{deep}")
    return f"[\n{inner}[\n{deep}{rows}\n{inner}]\n{pad}]"


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="revcat", description=__doc__)
    parser.add_argument("verb", choices=VERBS)
    parser.add_argument("inputs", nargs="*", help="input JSON files ('-' for stdin)")
    parser.add_argument("--instance", help="instance name for lawcheck, or 'all'",
                        choices=[*sorted(INSTANCES), "all"])
    parser.add_argument("--law", default="all", help="law name or 'all'")
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--anc", type=int, default=0, help="ancilla input dimension")
    parser.add_argument("--env", type=int, default=1, help="environment split of the output")
    parser.add_argument("--out", help="write the report here instead of stdout")
    return parser


def run(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)

    kinds, action = VERBS[args.verb]
    try:
        # A verb without inputs reads neither its arguments nor stdin.
        raws = _read_inputs(args.inputs) if kinds else []
        given = len(raws) if kinds else len(args.inputs)
        if given != len(kinds):
            wanted = {0: "no inputs", 1: "one input"}.get(len(kinds), f"{len(kinds)} inputs")
            raise ValueError(f"{args.verb} takes {wanted}, got {given}")
        result, status = action(args, *(_load(kind, *raw) for kind, raw in zip(kinds, raws)))
    except ValueError as e:
        if cl.numerical_failure(e):
            print(f"internal error: {e}", file=sys.stderr)
            return 3
        print(f"error: {e}", file=sys.stderr)
        return 2

    report = {
        "verb": args.verb,
        "inputs_digest": _digest(raws),
        "seed": args.seed,
        "tolerances": {"structural": cl.ATOL, "roundtrip": cl.ROUND_ATOL},
        "result": result,
    }
    text = _write(report) + "\n"
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as e:
            print(f"error: cannot write {args.out}: {e}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return status


def _lawcheck(args) -> tuple[dict | list, int]:
    """One {"instance", "reports"} entry, or with --instance all a list of
    them in instance order; there a single --law skips the instances that
    lack its oracles."""
    if not args.instance:
        raise ValueError("lawcheck requires --instance")
    if args.trials <= 0:
        raise ValueError(f"--trials must be positive, got {args.trials}")
    if args.seed < 0:
        raise ValueError(f"--seed must be nonnegative, got {args.seed}")
    if args.law != "all" and args.law not in lc.ALL_LAWS:
        raise ValueError(f"unknown law {args.law!r}")
    every = args.instance == "all"
    entries = []
    for name in sorted(INSTANCES) if every else [args.instance]:
        cat = INSTANCES[name]()
        laws = lc.applicable_laws(cat)
        if args.law != "all":
            law = lc.ALL_LAWS[args.law]
            if every and law not in laws:
                continue
            laws = [law]
        reports = [lc.run_law(cat, law, args.trials, args.seed) for law in laws]
        entries.append({"instance": name, "reports": [r.to_json() for r in reports]})
    ok = all(r["passed"] for e in entries for r in e["reports"])
    return entries if every else entries[0], 0 if ok else 1


def _aux_equal(args, f: AuxMorphism, g: AuxMorphism) -> tuple[dict, int]:
    if f.base != gb.PINJ or g.base != gb.PINJ:  # Choi equality has no mediator
        return {"equal": gb.aux_equal(f, g)}, 0
    h = gb.aux_equiv(f, g)
    res = {"equal": h is not None}
    if h is not None:
        res["mediator"] = [{"forward": True, "map": h.to_json()}]
    return res, 0


def _dilate(args, c: Channel) -> tuple[dict, int]:
    v, r = revcat.quantum.minimal_stinespring(c)
    return {"isometry": v.to_json(), "env_dim": r}, 0


def _inv(args, x: Channel | PartialFn) -> tuple[dict, int]:
    if isinstance(x, PartialFn):
        inj = pl.inv_pfn(x)
        if inj is None:
            return {"reversible": False, "reason": "not injective"}, 0
        return {"reversible": True, "inverse": cl.dagger(inj).to_json()}, 0
    core = revcat.quantum.reversible_core(x)
    if isinstance(core, str):
        return {"reversible": False, "reason": core}, 0
    return {"reversible": True, "unitary": core.to_json()}, 0


def _channel_of_unitary(args, u: Unitary) -> tuple[dict, int]:
    if not 0 <= args.anc < u.dim:
        raise ValueError(f"--anc must be in 0..{u.dim - 1} for a {u.dim}-dimensional "
                         f"unitary, got {args.anc}")
    if args.env < 1 or u.dim % args.env:
        raise ValueError(f"--env must be a positive divisor of {u.dim}, got {args.env}")
    return {"channel": pl.unitary_to_channel(u, args.anc, args.env).to_json()}, 0


def _roundtrip(args, c: Channel) -> tuple[dict, int]:
    u, anc, env = pl.channel_to_unitary_presentation(c)
    back = pl.unitary_to_channel(u, anc, env)
    residual = float(abs(back.choi - c.choi).max())
    ok = residual <= cl.ROUND_ATOL
    return {"residual": residual, "pass": ok,
            "anc_dim": anc, "env_dim": env}, 0 if ok else 1


# Each verb: the kinds of its inputs, and an action from the parsed arguments
# and the loaded inputs to (result, exit status).
VERBS = {
    "lawcheck": ((), _lawcheck),
    # g after f: inputs are given in diagram order.
    "compose": ((_MOR, _MOR), lambda args, f, g: ({"morphism": cl.compose(g, f).to_json()}, 0)),
    "tensor": ((_MOR, _MOR), lambda args, f, g: ({"morphism": cl.tensor_prod(f, g).to_json()}, 0)),
    "bennett-of": ((_MOR,), lambda args, f: ({"morphism": cl.bennett(f).to_json()}, 0)),
    "pfn-of": ((_VISIBLE,), lambda args, f: ({"morphism": f.to_json()}, 0)),
    "aux-equal": ((_AUX, _AUX), _aux_equal),
    "ext-equal": ((_AUX, _AUX), lambda args, f, g: ({"equal": ex.ext_equiv(f, g)}, 0)),
    "dilate": ((_CHAN,), _dilate),
    "kraus": ((_CHAN,), lambda args, c: ({"kraus": [
        revcat.quantum.matrix_to_json(k) for k in revcat.quantum.kraus_of_choi(c)]}, 0)),
    "channel-of-unitary": ((_MAT,), _channel_of_unitary),
    "extract-unitary": ((_CHAN,), lambda args, c: (
        {"unitary": revcat.quantum.extract_unitary(c).to_json()}, 0)),
    "inv": ((_chan_or_mor,), _inv),
    "roundtrip": ((_CHAN,), _roundtrip),
}


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
