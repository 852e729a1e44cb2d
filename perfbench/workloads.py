"""The benchmark's three workloads, built from a seed.

Each `build_*` function returns a `Workload`: a fixed list of jobs, run in
order by one caller.  A job's `call` is the timed work.  After the round, `collect` turns
its return value into the output (the CLI jobs read their report file here),
`check` judges the first round's output against an independent reference, and
every later round must reproduce the first round's `digest` (compared by the
workload's `same`).  None of this is timed.  A workload's `prepare` runs once
after the build, untimed: it writes the `cli` input files.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import operator
import os
import shutil
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from revcat import classical as cl
from revcat import cli
from revcat import extensional as ex
from revcat import garbage as gb
from revcat import instances as inst
from revcat import lawcheck as lc
from revcat import pipeline as pl
from revcat import quantum as qu
from revcat.classical import FinObj

import refs
from morphkey import morphism_key

HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass
class Job:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], Optional[str]]
    digest: Callable[[Any], Any] = lambda out: out
    collect: Callable[[Any], Any] = lambda out: out


@dataclass
class Workload:
    jobs: list[Job]
    same: Callable[[Any, Any], bool] = operator.eq
    prepare: Callable[[], None] = field(default=lambda: None)
    cleanup: Callable[[], None] = field(default=lambda: None)


# -- laws ---------------------------------------------------------------------

R = ("restriction_i", "restriction_ii", "restriction_iii", "restriction_iv")
D = ("ridm_of_composite", "ridm_total_post", "ridm_of_invertible")
INV = ("dagger_involution", "dagger_identity", "dagger_contravariant",
       "inverse_regular", "inverse_idempotents_commute")
T = ("tensor_restriction", "tensor_unit", "tensor_assoc")

# Tuples each law checks exhaustively on each instance at this commit.  The
# approximate `tensor_bifunctor` law is left out everywhere: ROADMAP item 4
# replaces it, and its tuple count would change with it.
LAW_COUNTS = {
    "pfn2": dict(zip(R + D + T + ("tensor_interchange",),
                     (23, 241, 241, 233, 233, 233, 23, 529, 23, 529, 2457))),
    "pinj2": dict(zip(R + D + INV + T + ("tensor_interchange",),
                      (20, 166, 166, 166, 166, 166, 20, 20, 20, 166, 20, 166,
                       400, 20, 400, 1426))),
    "pfn3": {"restriction_iv": 9866},
    "pinj3": dict(zip(R + D + INV,
                      (90, 3396, 3396, 3396, 3396, 3396, 90, 90, 90, 3396, 90, 3396))),
    "aux": dict(zip(R + D + T[:2], (70, 2254, 2254, 2204, 2204, 2204, 70, 4900, 70))),
    "extaux": dict(zip(R + D, (70, 2254, 2254, 2204, 2204, 2204, 70))),
}

# Cut so that one round takes a few seconds and a run holds several rounds:
# on pfn(3) only restriction_iv (the other laws there repeat pfn(2)'s code at
# 0.3 s each), no tensor laws on size 3 (pinj(3)'s exhaustive
# `tensor_interchange` alone takes 9 s, pfn(3)'s exceeds the exhaustive cap),
# and on aux-pinj only tensor_restriction and tensor_unit (`tensor_assoc`
# takes 0.9 s, `tensor_interchange` 13-18 s; the same holds on ext-aux-pinj).
TINY_LAWS = {"pfn2": R, "pinj2": R + INV, "aux": R[:1]}

AUX_PAIR_CHUNK = 100


def _instances() -> dict[str, lc.CategoryInstance]:
    return {
        "pfn2": inst.make_pfn_instance(2),
        "pinj2": inst.make_pinj_instance(2),
        "pfn3": inst.make_pfn_instance(3),
        "pinj3": inst.make_pinj_instance(3),
        "aux": inst.make_aux_pinj_instance(2, 2),
        "extaux": inst.make_aux_pinj_instance(2, 2, extensional=True),
    }


def _law_job(cat, law: lc.Law, expected: int) -> Job:
    def check(report) -> Optional[str]:
        if not report.passed:
            return f"{cat.name}/{law.name} failed: {report.detail}"
        if report.mode != "exhaustive" or report.trials != expected:
            return (f"{cat.name}/{law.name}: {report.mode} mode with {report.trials} "
                    f"tuples, expected exhaustive with {expected}")
        return None

    return Job(f"run_law:{cat.name}", lambda: lc.run_law(cat, law, trials=0, seed=0),
               check, lambda r: (r.passed, r.mode, r.trials))


def build_laws(seed: int, tiny: bool, workdir: str) -> Workload:
    rng = np.random.default_rng(seed)
    cats = _instances()
    with open(os.path.join(HERE, "zigzag_classes.json")) as fh:
        frozen = json.load(fh)
    units: list[list[Job]] = []
    for name, counts in LAW_COUNTS.items():
        laws = TINY_LAWS.get(name, ()) if tiny else counts
        units += [[_law_job(cats[name], lc.ALL_LAWS[law], counts[law])] for law in laws]

    homs: dict[tuple[int, int], list] = {}
    labels: dict[tuple[int, int], list[int]] = {}
    sizes = range(3) if tiny else range(4)
    for a, b in itertools.product(sizes, repeat=2):
        classes = frozen["blocks"][f"{a},{b}"]
        units.append(_aux_block(a, b, classes, homs, labels, rng))
    order = rng.permutation(len(units))
    return Workload([job for i in order for job in units[i]])


def _aux_block(a, b, classes, homs, labels, rng) -> list[Job]:
    """Enumerate hom(a, b) with garbage <= 2, then decide aux_equiv on every
    ordered pair in seeded order, in chunks; verdicts must match the frozen
    zigzag classes, and the garbage-size-0 morphisms stay in."""
    key = (a, b)
    h = len(classes)

    def enumerate_call():
        homs[key] = inst.enumerate_aux_pinj(a, b, 2)
        return homs[key]

    def enumerate_check(ms) -> Optional[str]:
        keys = [morphism_key(m) for m in ms]
        if sorted(keys) != sorted(classes):
            return f"hom({a},{b}) enumerated {len(keys)} morphisms, expected {h}"
        labels[key] = [classes[k] for k in keys]
        return None

    jobs = [Job("enumerate_aux_pinj", enumerate_call, enumerate_check,
                lambda ms: tuple(morphism_key(m) for m in ms))]
    flat = rng.permutation(h * h).tolist()
    for start in range(0, len(flat), AUX_PAIR_CHUNK):
        pairs = [divmod(k, h) for k in flat[start:start + AUX_PAIR_CHUNK]]

        def call(pairs=pairs):
            ms = homs[key]
            return bytes(gb.aux_equiv(ms[i], ms[j]) is not None for i, j in pairs)

        def check(verdicts, pairs=pairs) -> Optional[str]:
            lab = labels.get(key)
            if lab is None:
                return f"hom({a},{b}) has no checked enumeration"
            wrong = sum(v != (lab[i] == lab[j]) for v, (i, j) in zip(verdicts, pairs))
            return f"hom({a},{b}): {wrong} aux_equiv verdicts differ from the oracle" if wrong else None

        jobs.append(Job("aux_equiv", call, check))
    return jobs


# -- channels -----------------------------------------------------------------

# Jobs per round; (d_a, d_b) for tensors keeps the product dimension <= 16.
# The slowest jobs (compose at d = 16, tensors of product dimension 16) use
# fixed Kraus ranks, so the latency tail does not depend on the seed.
CHANNEL_QUOTAS = (
    [("compose", d, n) for d, n in ((2, 70), (3, 70), (4, 70), (8, 60), (16, 5))]
    + [("tensor", dims, n) for dims, n in (((2, 2), 50), ((2, 3), 40), ((3, 3), 30),
                                            ((2, 4), 40), ((4, 4), 20), ((2, 8), 10))]
    + [(kind, d, 40) for kind in ("stinespring", "roundtrip") for d in (2, 3, 4, 8)]
    + [("inv_unitary", d, 25) for d in (2, 3, 4, 8)]
    + [("inv_nonunitary", d, 29) for d in (2, 3, 4, 8)]
)


def _quota(n: int, tiny: bool) -> int:
    return 1 if tiny else n


def _validated(c: qu.Channel) -> Optional[str]:
    """Full re-validation of a produced channel."""
    try:
        qu.Channel(c.din, c.dout, c.choi.copy())
    except ValueError as e:
        return f"produced channel fails validation: {e}"
    return None


def _agree(apply_out, apply_ref, states) -> Optional[str]:
    worst = max(refs.max_diff(apply_out(s), apply_ref(s)) for s in states)
    return None if worst <= refs.ROUND_ATOL else f"action differs by {worst:.2e}"


def _channel_job(kind, d, rng) -> Job:
    fam = ex.tomographic_family
    if kind == "compose":
        k = (2, 2) if d == 16 else tuple(int(x) for x in rng.integers(1, 4, 2))
        f, g = (qu.random_channel(d, d, kk, rng) for kk in k)

        def check(out):
            return _validated(out) or _agree(out.apply, lambda s: g.apply(f.apply(s)), fam(d))

        return Job(f"compose:d{d}", lambda: qu.channel_compose(g, f), check, lambda c: c.choi)
    if kind == "tensor":
        da, db = d if rng.random() < 0.5 else d[::-1]
        ranks = (2, 2) if da * db == 16 else tuple(int(x) for x in rng.integers(1, 3, 2))
        a, b = (qu.random_channel(dd, dd, k, rng) for dd, k in zip((da, db), ranks))
        products = [(sa, sb) for sa in fam(da) for sb in fam(db)]

        def check(out):
            return _validated(out) or _agree(
                lambda p: out.apply(np.kron(*p)),
                lambda p: np.kron(a.apply(p[0]), b.apply(p[1])), products)

        return Job(f"tensor:d{da * db}", lambda: qu.channel_tensor(a, b), check,
                   lambda c: c.choi)
    if kind in ("stinespring", "roundtrip"):
        k = int(rng.integers(1, 4))
        c = qu.random_channel(d, d, k, rng)
        if kind == "stinespring":
            def check(out):
                v, r = out
                if r != k or not refs.is_isometry(v.mat):
                    return f"dilation with env {r} (expected {k}) or non-isometric"
                return _agree(lambda s: refs.dilation_apply(v.mat, r, s), c.apply, fam(d))

            return Job(f"stinespring:d{d}", lambda: qu.minimal_stinespring(c), check,
                       lambda out: out[0].mat)

        def roundtrip():
            u, anc, env = pl.channel_to_unitary_presentation(c)
            return u, anc, env, pl.unitary_to_channel(u, anc, env)

        def check(out):
            u, anc, env, back = out
            if (anc, env) != (d * k - d, k) or not refs.is_isometry(u.mat):
                return f"presentation anc={anc} env={env}, expected {d * k - d}, {k}"
            residual = refs.max_diff(back.choi, c.choi)
            if residual > refs.ROUND_ATOL:
                return f"round-trip residual {residual:.2e}"
            return _validated(back)

        return Job(f"roundtrip:d{d}", roundtrip, check, lambda out: out[3].choi)
    if kind == "inv_unitary":
        u = qu.haar_unitary(d, rng)
        c = qu.channel_of_unitary(u)

        def check(out):
            if out is None or not refs.phase_equal(out.rep.mat, u.mat):
                return "inv_cptp missed the generating unitary"
            return None

        return Job(f"inv_cptp_unitary:d{d}", lambda: pl.inv_cptp(c), check,
                   lambda out: None if out is None else out.rep.mat)
    which = int(rng.integers(0, 4))
    if which == 0:
        c = qu.dephasing_channel(d)
    elif which == 1:
        c = qu.depolarizing_channel(d, float(rng.uniform(0.1, 0.9)))
    else:  # isometry channels: traced to d outputs, or kept whole (d -> 2d)
        env = 2 if which == 2 else 1
        c = qu.channel_of_isometry(qu.haar_isometry(2 * d, d, rng), env)
    return Job(f"inv_cptp_other:d{d}", lambda: pl.inv_cptp(c),
               lambda out: None if out is None else "non-unitary channel reported reversible")


def _same_arrays(x, y) -> bool:
    if x is None or y is None:
        return x is y
    return refs.max_diff(x, y) <= 1e-12


def build_channels(seed: int, tiny: bool, workdir: str) -> Workload:
    rng = np.random.default_rng(seed)
    jobs = [_channel_job(kind, d, rng)
            for kind, d, n in CHANNEL_QUOTAS for _ in range(_quota(n, tiny))]
    return Workload([jobs[i] for i in rng.permutation(len(jobs))], _same_arrays)


# -- cli ----------------------------------------------------------------------

TABLE_QUOTAS = {
    "compose": {4: 40, 64: 40, 1024: 30},
    "tensor": {4: 40, 64: 40},
    "bennett-of": {4: 30, 64: 30, 1024: 25},
    "inv": {4: 30, 64: 30, 1024: 25},
    "pfn-of": {4: 30, 64: 30, 1024: 25},
    "aux-equal": {4: 40, 64: 40, 1024: 30},
    "ext-equal": {4: 30, 64: 30, 1024: 25},
}
CHANNEL_VERBS = ("dilate", "kraus", "roundtrip", "channel-of-unitary", "extract-unitary", "inv")
CHANNEL_VERB_QUOTA = {2: 30, 4: 30}
LAWCHECK_QUOTA = 3


class _CliInputs:
    """Names each job's input and report files; `flush` writes the inputs and
    creates each report file empty.

    Writing is left out of the timed build: it is the benchmark's own file
    I/O, not the program's work.  Report files exist before the first round
    and are emptied, not removed, after each: creating a file costs 0.2-1 ms
    on the shared host this was built on, varying from minute to minute, more
    than many whole CLI calls, while rewriting an existing one costs 20-160 us."""

    def __init__(self, workdir: str) -> None:
        self.dir = os.path.join(workdir, "cli")
        self.count = 0
        self.pending: list[tuple[str, bytes]] = []

    def write(self, *objs: dict) -> tuple[list[str], list[bytes]]:
        paths, raws = [], []
        for obj in objs:
            raw = json.dumps(obj).encode()
            path = os.path.join(self.dir, f"in{self.count}.json")
            self.count += 1
            self.pending.append((path, raw))
            paths.append(path)
            raws.append(raw)
        return paths, raws

    def flush(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        for path, raw in self.pending:
            with open(path, "wb") as fh:
                fh.write(raw)

    def out(self) -> str:
        self.count += 1
        path = os.path.join(self.dir, f"out{self.count}.json")
        self.pending.append((path, b""))
        return path


def _cli_job(kind: str, argv: list[str], raws: list[bytes], out_path: str,
             expect_status: int, judge: Callable[[dict], Optional[str]]) -> Job:
    digest = hashlib.sha256(b"".join(raws)).hexdigest()[:16]

    def read(status: int) -> tuple[int, bytes]:
        with open(out_path, "rb") as fh:
            text = fh.read()
        os.truncate(out_path, 0)
        return status, text

    def check(result) -> Optional[str]:
        status, text = result
        if status != expect_status:
            return f"{kind}: exit {status}, expected {expect_status}"
        if status == 2:
            return None if not text else f"{kind}: report written on exit 2"
        report = json.loads(text)
        header = {"verb": argv[0], "inputs_digest": digest, "seed": 0,
                  "tolerances": {"structural": qu.ATOL, "roundtrip": qu.ROUND_ATOL}}
        if {k: report.get(k) for k in header} != header:
            return f"{kind}: report header differs from {header}"
        return judge(report["result"])

    return Job(kind, lambda: cli.run(argv + ["--out", out_path]), check,
               lambda r: (r[0], hashlib.sha256(r[1]).digest()), read)


def _expect(reference: Callable[[], dict]) -> Callable[[dict], Optional[str]]:
    """Judge a result by equality with a reference computed at check time."""
    def judge(result):
        return None if result == reference() else "result differs from the reference"
    return judge


def _derive_aux(f: dict, variant: str, rng) -> dict:
    """A second morphism with f's endpoints: garbage relabelled (same class),
    garbage split per input (same visible function), or split and one visible
    output moved."""
    n, b, e, vis, garb = refs.aux_parts(f)
    if variant == "relabel":
        perm = rng.permutation(e).tolist()
        e2, graph = e, [(x, vis[x] * e + perm[garb[x]]) for x in vis]
    else:
        moved = dict(vis)
        if variant == "move" and vis and b >= 2:
            x0 = sorted(vis)[int(rng.integers(0, len(vis)))]
            moved[x0] = (vis[x0] + 1) % b
        e2, graph = n, [(x, moved[x] * n + x) for x in vis]
    return {"base": "pinj", "garbage_shape": [e2],
            "core": refs.table([n], [b, e2], graph)}


def _table(rng, n: int, injective: bool = False) -> dict:
    """A table n -> n defined on about 3/4 of its inputs, as JSON.  Its size is
    fixed by n, so the cost of a job does not depend on the seed."""
    defined = rng.random(n) < 0.75
    outs = rng.permutation(n) if injective else rng.integers(0, n, n)
    graph = tuple((x, int(outs[x])) for x in range(n) if defined[x])
    cls = cl.PartialInj if injective else cl.PartialFn
    return cls(FinObj.of_size(n), FinObj.of_size(n), graph).to_json()


def _table_job(verb, n, rng, files, aux_samplers) -> Job:
    if verb in ("compose", "tensor"):
        fj, gj = _table(rng, n), _table(rng, n)
        ref = refs.compose if verb == "compose" else refs.tensor
        paths, raws = files.write(fj, gj)
        return _cli_job(f"{verb}:n{n}", [verb] + paths, raws, files.out(), 0,
                        _expect(lambda: {"morphism": ref(fj, gj)}))
    if verb == "bennett-of":
        fj = _table(rng, n)
        paths, raws = files.write(fj)
        return _cli_job(f"{verb}:n{n}", [verb] + paths, raws, files.out(), 0,
                        _expect(lambda: {"morphism": refs.bennett(fj)}))
    if verb == "inv":
        fj = _table(rng, n, injective=rng.random() < 0.5)

        def expected():
            inverse = refs.inverse(fj)
            return ({"reversible": False, "reason": "not injective"} if inverse is None
                    else {"reversible": True, "inverse": inverse})

        paths, raws = files.write(fj)
        return _cli_job(f"{verb}:n{n}", [verb] + paths, raws, files.out(), 0, _expect(expected))
    fj = aux_samplers[n].sample_mor(rng, n).to_json()
    if verb == "pfn-of":
        paths, raws = files.write(fj)
        return _cli_job(f"{verb}:n{n}", [verb] + paths, raws, files.out(), 0,
                        _expect(lambda: {"morphism": refs.pfn_of(fj)}))
    gj = _derive_aux(fj, ("relabel", "split", "move")[int(rng.integers(0, 3))], rng)
    paths, raws = files.write(fj, gj)
    if verb == "ext-equal":
        judge = _expect(lambda: {"equal": refs.ext_equal(fj, gj)})
    else:
        def judge(result):
            equal = refs.aux_equal(fj, gj)
            if result.get("equal") != equal:
                return f"aux-equal said {result.get('equal')}, reference {equal}"
            if equal:
                steps = result.get("mediator") or [{}]
                if len(steps) != 1 or not steps[0].get("forward") \
                        or not refs.mediates(fj, gj, steps[0]["map"]):
                    return "mediator does not carry the garbage"
            return None
    return _cli_job(f"{verb}:n{n}", [verb] + paths, raws, files.out(), 0, judge)


def _channel_verb_job(verb, d, rng, files) -> Job:
    kind = f"{verb}:d{d}"
    if verb == "channel-of-unitary":
        u = qu.haar_unitary(d, rng).mat
        splits = [(a, e) for a in range(d) for e in (1, 2, 4) if d % e == 0]
        anc, env = splits[int(rng.integers(0, len(splits)))]
        paths, raws = files.write(qu.matrix_to_json(u))
        v = u[:, :d - anc]

        def judge(result):
            got = refs.matrix(result["channel"]["choi"])
            diff = refs.max_diff(got, refs.choi_of_dilation(v, env))
            return None if diff <= refs.ROUND_ATOL else f"choi differs by {diff:.2e}"

        return _cli_job(kind, [verb] + paths + ["--anc", str(anc), "--env", str(env)],
                        raws, files.out(), 0, judge)

    # extract-unitary gets a unitary channel four times in five and inv half the
    # time, otherwise an impure one; the other verbs get Kraus rank 1-3.
    share = {"extract-unitary": 0.8, "inv": 0.5}.get(verb, 0.0)
    unitary = share > 0 and rng.random() < share
    if unitary:
        u = qu.haar_unitary(d, rng).mat
        c = qu.channel_of_unitary(qu.Unitary(u))
        k = 1
    else:
        k = int(rng.integers(2 if share else 1, 4))
        c = qu.random_channel(d, d, k, rng)
    paths, raws = files.write(c.to_json())
    choi = c.choi

    if verb == "dilate":
        def judge(result):
            v, env = refs.matrix(result["isometry"]), result["env_dim"]
            if env != k or not refs.is_isometry(v):
                return f"dilation env {env}, expected {k}, or not an isometry"
            diff = refs.max_diff(refs.choi_of_dilation(v, env), choi)
            return None if diff <= refs.ROUND_ATOL else f"dilation choi differs by {diff:.2e}"
        status = 0
    elif verb == "kraus":
        def judge(result):
            ks = [refs.matrix(m) for m in result["kraus"]]
            if len(ks) != k:
                return f"{len(ks)} Kraus operators, expected {k}"
            diff = refs.max_diff(refs.choi_of_kraus_list(ks), choi)
            return None if diff <= refs.ROUND_ATOL else f"Kraus choi differs by {diff:.2e}"
        status = 0
    elif verb == "roundtrip":
        expected = {"pass": True, "anc_dim": d * k - d, "env_dim": k}

        def judge(result):
            if {key: result.get(key) for key in expected} != expected:
                return f"roundtrip {result}, expected {expected}"
            return None if result["residual"] <= refs.ROUND_ATOL else "residual too large"
        status = 0
    elif verb == "extract-unitary":
        def judge(result):
            got = refs.matrix(result["unitary"])
            return None if refs.phase_equal(got, u) else "extracted unitary differs"
        status = 0 if unitary else 2
    else:
        def judge(result):
            if not unitary:
                ok = result == {"reversible": False, "reason": "choi impure"} \
                    and refs.purity(choi) < 1 - refs.ROUND_ATOL
                return None if ok else f"inv on an impure channel gave {result}"
            if result.get("reversible") is not True \
                    or not refs.phase_equal(refs.matrix(result["unitary"]), u):
                return "inv missed the generating unitary"
            return None
        status = 0
    return _cli_job(kind, [verb] + paths, raws, files.out(), status, judge)


def _lawcheck_job(files) -> Job:
    counts = LAW_COUNTS["pinj2"]

    def judge(result):
        if result.get("instance") != "pinj":
            return "lawcheck reported another instance"
        for rep in result["reports"]:
            law = rep["law"]
            if not rep["passed"] or rep["mode"] != "exhaustive":
                return f"lawcheck {law}: passed={rep['passed']} mode={rep['mode']}"
            if law in counts and rep["trials"] != counts[law]:
                return f"lawcheck {law}: {rep['trials']} tuples, expected {counts[law]}"
        missing = set(counts) - {rep["law"] for rep in result["reports"]}
        return f"lawcheck did not run {sorted(missing)}" if missing else None

    return _cli_job("lawcheck", ["lawcheck", "--instance", "pinj", "--trials", "10"], [],
                    files.out(), 0, judge)


def build_cli(seed: int, tiny: bool, workdir: str) -> Workload:
    rng = np.random.default_rng(seed)
    files = _CliInputs(workdir)
    aux_samplers = {n: inst.make_aux_pinj_instance(n, 2) for n in (4, 64, 1024)}
    jobs = [_table_job(verb, n, rng, files, aux_samplers)
            for verb, quota in TABLE_QUOTAS.items()
            for n, count in quota.items() for _ in range(_quota(count, tiny))]
    jobs += [_channel_verb_job(verb, d, rng, files)
             for verb in CHANNEL_VERBS
             for d, count in CHANNEL_VERB_QUOTA.items() for _ in range(_quota(count, tiny))]
    jobs += [_lawcheck_job(files) for _ in range(_quota(LAWCHECK_QUOTA, tiny))]
    return Workload([jobs[i] for i in rng.permutation(len(jobs))],
                    prepare=files.flush,
                    cleanup=lambda: shutil.rmtree(files.dir, ignore_errors=True))


WORKLOADS = {"laws": build_laws, "channels": build_channels, "cli": build_cli}
