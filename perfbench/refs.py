"""Reference computations the benchmark checks outputs against.

They use plain Python sets and dicts, or numpy directly, and none of the
library's own code paths: composition as a relational product, the garbage
normal form as (visible function, garbage partition), channels by the partial
trace of a dilation and Choi matrices assembled from the action on matrix
units.
"""

from __future__ import annotations

import numpy as np

ATOL = 1e-9
ROUND_ATOL = 1e-8


# -- tables -------------------------------------------------------------------

def size(obj: dict) -> int:
    n = 1
    for s in obj["shape"]:
        n *= s
    return n


def graph(table: dict) -> set[tuple[int, int]]:
    return {(x, y) for x, y in table["graph"]}


def table(dom_shape, cod_shape, pairs) -> dict:
    """A table in the CLI's JSON form, with the graph in sorted order."""
    return {"dom": {"shape": list(dom_shape)}, "cod": {"shape": list(cod_shape)},
            "graph": [list(p) for p in sorted(pairs)]}


def compose(f: dict, g: dict) -> dict:
    """g after f by relational product, joined on the middle element."""
    image: dict[int, set[int]] = {}
    for y, z in graph(g):
        image.setdefault(y, set()).add(z)
    pairs = {(x, z) for x, y in graph(f) for z in image.get(y, ())}
    return table(f["dom"]["shape"], g["cod"]["shape"], pairs)


def tensor(f: dict, g: dict) -> dict:
    n, m = size(g["dom"]), size(g["cod"])
    gg = graph(g)
    pairs = {(x * n + y, fx * m + gy) for x, fx in graph(f) for y, gy in gg}
    return table(f["dom"]["shape"] + g["dom"]["shape"],
                 f["cod"]["shape"] + g["cod"]["shape"], pairs)


def bennett(f: dict) -> dict:
    n = size(f["dom"])
    pairs = {(x, y * n + x) for x, y in graph(f)}
    return table(f["dom"]["shape"], f["cod"]["shape"] + f["dom"]["shape"], pairs)


def inverse(f: dict) -> dict | None:
    pairs = graph(f)
    if len({y for _, y in pairs}) != len(pairs):
        return None
    return table(f["cod"]["shape"], f["dom"]["shape"], {(y, x) for x, y in pairs})


# -- garbage-carrying morphisms ---------------------------------------------

def aux_parts(m: dict) -> tuple[int, int, int, dict[int, int], dict[int, int]]:
    """(dom size, cod size, garbage size, visible map, garbage map)."""
    e = m["garbage_shape"][0]
    core = m["core"]
    vis = {x: y // e for x, y in core["graph"]}
    garb = {x: y % e for x, y in core["graph"]}
    return size(core["dom"]), size(core["cod"]) // e, e, vis, garb


def partition(garb: dict[int, int]) -> set[frozenset[int]]:
    blocks: dict[int, set[int]] = {}
    for x, z in garb.items():
        blocks.setdefault(z, set()).add(x)
    return {frozenset(b) for b in blocks.values()}


def pfn_of(m: dict) -> dict:
    a, b, _, vis, _ = aux_parts(m)
    return table([a], [b], vis.items())


def ext_equal(f: dict, g: dict) -> bool:
    return aux_parts(f)[3] == aux_parts(g)[3]


def aux_equal(f: dict, g: dict) -> bool:
    _, _, _, vf, gf = aux_parts(f)
    _, _, _, vg, gg = aux_parts(g)
    return vf == vg and partition(gf) == partition(gg)


def mediates(f: dict, g: dict, h: dict) -> bool:
    """h carries the garbage of f to the garbage of g on every defined input."""
    hm = dict(graph(h))
    _, _, _, _, gf = aux_parts(f)
    _, _, _, _, gg = aux_parts(g)
    return all(hm.get(z) == gg[x] for x, z in gf.items())


# -- channels -----------------------------------------------------------------

def matrix(data: dict) -> np.ndarray:
    flat = np.array([complex(re, im) for re, im in data["entries"]])
    return flat.reshape(data["rows"], data["cols"])


def dilation_apply(v: np.ndarray, env: int, rho: np.ndarray) -> np.ndarray:
    """Tr_env(V rho V^dag), output factor major in the rows of V."""
    big = v @ rho @ v.conj().T
    dout = v.shape[0] // env
    return np.einsum("aebe->ab", big.reshape(dout, env, dout, env))


def choi_by_action(apply, din: int, dout: int) -> np.ndarray:
    """sum_ij |i><j| (x) L(|i><j|), input factor first."""
    c = np.zeros((din * dout, din * dout), dtype=complex)
    for i in range(din):
        for j in range(din):
            unit = np.zeros((din, din), dtype=complex)
            unit[i, j] = 1.0
            c[i * dout:(i + 1) * dout, j * dout:(j + 1) * dout] = apply(unit)
    return c


def choi_of_dilation(v: np.ndarray, env: int) -> np.ndarray:
    return choi_by_action(lambda r: dilation_apply(v, env, r), v.shape[1], v.shape[0] // env)


def choi_of_kraus_list(ks: list[np.ndarray]) -> np.ndarray:
    dout, din = ks[0].shape
    return choi_by_action(lambda r: sum(k @ r @ k.conj().T for k in ks), din, dout)


def max_diff(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b))) if a.shape == b.shape else float("inf")


def is_isometry(v: np.ndarray) -> bool:
    return max_diff(v.conj().T @ v, np.eye(v.shape[1])) <= ATOL


def phase_equal(u: np.ndarray, w: np.ndarray, tol: float = ROUND_ATOL) -> bool:
    """u = exp(i phi) w for some phase."""
    if u.shape != w.shape:
        return False
    overlap = np.trace(w.conj().T @ u)
    if abs(overlap) < 1e-12:
        return False
    return max_diff(u, w * (overlap / abs(overlap))) <= tol


def purity(choi: np.ndarray) -> float:
    tr = np.trace(choi).real
    return float(np.trace(choi @ choi).real / tr ** 2)
