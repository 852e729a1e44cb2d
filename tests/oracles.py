"""Independent brute-force oracles used to freeze expected values.

These deliberately avoid the library's own code paths: composition by
relational product over explicit element tuples, equivalence by exhaustive
mediator search, channels by direct computation of Tr_env(V rho V^dag) on the
operator basis.  The kernels' comprehension forms are the exception: they are
the definitions the library's graph-building loops replaced, kept to check
that the loops build the same graphs.
"""

from __future__ import annotations

import itertools

import numpy as np

from revcat import classical as cl
from revcat.classical import FinObj, PartialFn, PartialInj
from revcat.garbage import AuxMorphism


def relational_compose(g: PartialFn, f: PartialFn) -> set[tuple[int, int]]:
    """Composition as a relational product over all element pairs."""
    return {
        (x, z)
        for x, y1 in f.graph
        for y2, z in g.graph
        if y1 == y2
    }


def search_partial_inverse(f: PartialFn) -> PartialFn | None:
    """Search all partial functions cod -> dom for one satisfying the
    partial-isomorphism equations."""
    for cand in cl.all_partial_fns(f.cod, f.dom):
        if (
            cl.compose(cand, f).graph == cl.ridm(f).graph
            and cl.compose(f, cand).graph == cl.ridm(cand).graph
        ):
            return cand
    return None


def mixed_radix_unrank(idx: int, shape: tuple[int, ...]) -> tuple[int, ...]:
    digits = []
    for s in reversed(shape):
        digits.append(idx % s)
        idx //= s
    return tuple(reversed(digits))


def mixed_radix_rank(digits: tuple[int, ...], shape: tuple[int, ...]) -> int:
    idx = 0
    for d, s in zip(digits, shape):
        idx = idx * s + d
    return idx


# -- the kernels' comprehension forms -----------------------------------------
# Each kernel of classical and garbage builds its graph with a for/append loop
# in its own frame.  These are the comprehension definitions those loops
# replaced, kept as references: each returns the graph (and, where the kernel
# chooses one, the result class) the kernel must build.

def result_class(f: PartialFn, g: PartialFn) -> type:
    return PartialInj if isinstance(f, PartialInj) and isinstance(g, PartialInj) else PartialFn


def compose_graph(g: PartialFn, f: PartialFn) -> tuple:
    gm = g.mapping
    return tuple((x, gm[y]) for x, y in f.graph if y in gm)


def tensor_graph(f: PartialFn, g: PartialFn) -> tuple:
    return tuple(
        (x * g.dom.size + y, fx * g.cod.size + gy)
        for x, fx in f.graph
        for y, gy in g.graph
    )


def dagger_graph(f: PartialInj) -> tuple:
    return tuple(sorted((y, x) for x, y in f.graph))


def bennett_graph(f: PartialFn) -> tuple:
    n = f.dom.size
    return tuple((x, y * n + x) for x, y in f.graph)


def restricted_graph(f: PartialFn) -> tuple:
    return tuple((x, x) for x, _ in f.graph)


def partial_fn_graphs(a: FinObj, b: FinObj) -> list[tuple]:
    n, m = a.size, b.size
    return [tuple((x, y) for x, y in enumerate(choice) if y < m)
            for choice in itertools.product(range(m + 1), repeat=n)]


def partial_injection_graphs(a: FinObj, b: FinObj) -> list[tuple]:
    n, m = a.size, b.size
    return [tuple(zip(xs, ys))
            for k in range(min(n, m) + 1)
            for xs in itertools.combinations(range(n), k)
            for ys in itertools.permutations(range(m), k)]


def visible_graph(f: AuxMorphism) -> tuple:
    e = f.garbage_size
    return tuple((x, y // e) for x, y in f.core.graph) if e else ()


def aux_compose_graph(g: AuxMorphism, f: AuxMorphism) -> tuple:
    e, gm = f.garbage_size, g.core.mapping
    return tuple((x, gm[y // e] * e + y % e) for x, y in f.core.graph if y // e in gm)


def aux_tensor_graph(f: AuxMorphism, g: AuxMorphism) -> tuple:
    moved = cl.coherence(
        "interchange", (f.cod_size, f.garbage_size, g.cod_size, g.garbage_size)
    ).graph
    fc, gc = f.core, g.core
    n, m = gc.dom.size, gc.cod.size
    return tuple(
        (x * n + y, moved[fx * m + gy][1])
        for x, fx in fc.graph
        for y, gy in gc.graph
    )


def direct_mediator_graph(f: AuxMorphism, g: AuxMorphism) -> tuple:
    ef, eg = f.garbage_size, g.garbage_size
    gg = g.core.mapping
    return tuple(sorted({y % ef: gg[x] % eg for x, y in f.core.graph}.items()))


# -- the constructor's sort-then-validate path --------------------------------

def sorted_then_validated(cls: type, dom: FinObj, cod: FinObj, graph) -> tuple:
    """The graph that cls(dom, cod, graph) stores, or the error it raises,
    when every graph is sorted before one validating pass: the reference for
    a constructor that sorts only a graph that is not already in order."""
    try:
        graph = tuple(sorted(graph))
    except TypeError:  # unorderable entries: name the first one that is no int
        for v in itertools.chain.from_iterable(graph):
            cl.json_int(v, "graph entry")
        raise
    n, m = dom.size, cod.size
    previous = None
    for x, y in graph:
        if type(x) is not int or type(y) is not int:
            bad = y if type(x) is int else x
            raise ValueError(f"graph entry {bad!r} is not an integer")
        if not (0 <= x < n):
            raise ValueError(f"input {x} out of range for dom of size {n}")
        if not (0 <= y < m):
            raise ValueError(f"output {y} out of range for cod of size {m}")
        if x == previous:
            raise ValueError(f"graph not functional: input {x} repeated")
        previous = x
    if issubclass(cls, PartialInj) and len({y for _, y in graph}) != len(graph):
        raise ValueError("graph is not injective")
    return graph


# -- zigzag equivalence oracle for garbage-carrying partial injections -------

def enumerate_cores(a: int, b: int, max_garbage: int) -> list[AuxMorphism]:
    out = []
    for e in range(max_garbage + 1):
        for core in cl.all_partial_injections(FinObj.of_size(a), FinObj((b, e))):
            out.append(AuxMorphism(core, b, e))
    return out


def one_step_successors(m: AuxMorphism, max_garbage: int) -> list[AuxMorphism]:
    """All m' with m > m': some mediator h on garbage with (id (x) h) o core
    equal to core' and an unchanged domain of definition."""
    out = []
    rid = cl.ridm(m.core).graph
    ident = cl.identity(FinObj.of_size(m.cod_size))
    for e2 in range(max_garbage + 1):
        for h in cl.all_partial_injections(
            FinObj.of_size(m.garbage_size), FinObj.of_size(e2)
        ):
            core2 = cl.compose(cl.tensor_prod(ident, h), m.core)
            if cl.ridm(core2).graph != rid:
                continue
            out.append(AuxMorphism(core2, m.cod_size, e2))
    return out


def zigzag_classes(a: int, b: int, max_garbage: int) -> dict[int, int]:
    """Partition the hom-set into mediator-connected components (union-find
    over single mediator steps in either direction); returns index -> root."""
    morphisms = enumerate_cores(a, b, max_garbage)
    key = {(m.garbage_size, m.core.graph): i for i, m in enumerate(morphisms)}
    parent = list(range(len(morphisms)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    for i, m in enumerate(morphisms):
        for succ in one_step_successors(m, max_garbage):
            j = key[(succ.garbage_size, succ.core.graph)]
            union(i, j)
    return {i: find(i) for i in range(len(morphisms))}


def zigzag_equivalent_pairs(a: int, b: int, max_garbage: int):
    """Yield (morphisms, root map); two indices are zigzag-equivalent iff
    their roots agree."""
    morphisms = enumerate_cores(a, b, max_garbage)
    roots = zigzag_classes(a, b, max_garbage)
    return morphisms, roots


def bounded_zigzag_reachable(
    start: AuxMorphism, max_garbage: int, max_steps: int
) -> set[tuple[int, tuple]]:
    """Keys of all morphisms reachable from start by a mediator zigzag of at
    most max_steps steps (each step in either direction)."""
    morphisms = enumerate_cores(start.dom_size, start.cod_size, max_garbage)
    key = lambda m: (m.garbage_size, m.core.graph)
    succs: dict[tuple, set[tuple]] = {key(m): set() for m in morphisms}
    for m in morphisms:
        for s in one_step_successors(m, max_garbage):
            succs[key(m)].add(key(s))
    # Symmetrize: a backward step uses the reverse edge.
    edges: dict[tuple, set[tuple]] = {k: set(v) for k, v in succs.items()}
    for k, vs in succs.items():
        for v in vs:
            edges[v].add(k)
    frontier = {key(start)}
    seen = set(frontier)
    for _ in range(max_steps):
        frontier = {n for k in frontier for n in edges[k]} - seen
        seen |= frontier
    return seen


# -- quantum oracles ----------------------------------------------------------

def channel_action_by_dilation(v: np.ndarray, env_dim: int, rho: np.ndarray) -> np.ndarray:
    """Tr_env(V rho V^dag) computed directly, with the output factor major in
    the rows of V."""
    big = v @ rho @ v.conj().T
    dout = v.shape[0] // env_dim
    t = big.reshape(dout, env_dim, dout, env_dim)
    return np.einsum("aebe->ab", t)


def choi_by_action(apply, din: int, dout: int) -> np.ndarray:
    """Assemble sum_ij |i><j| (x) L(|i><j|) from an action callable."""
    n = din * dout
    c = np.zeros((n, n), dtype=complex)
    for i in range(din):
        for j in range(din):
            eij = np.zeros((din, din), dtype=complex)
            eij[i, j] = 1.0
            block = apply(eij)
            c[i * dout:(i + 1) * dout, j * dout:(j + 1) * dout] = block
    return c


def product_action(apply_a, din_a: int, apply_b, din_b: int):
    """The action of a (x) b, by linearity from kron products of basis
    operators: rho = sum rho[ia ib, ja jb] |ia><ja| (x) |ib><jb|."""
    def apply(rho: np.ndarray) -> np.ndarray:
        r = rho.reshape(din_a, din_b, din_a, din_b)
        out = 0
        for ia in range(din_a):
            for ja in range(din_a):
                ea = np.zeros((din_a, din_a), dtype=complex)
                ea[ia, ja] = 1.0
                out_a = apply_a(ea)
                for ib in range(din_b):
                    for jb in range(din_b):
                        eb = np.zeros((din_b, din_b), dtype=complex)
                        eb[ib, jb] = 1.0
                        out = out + r[ia, ib, ja, jb] * np.kron(out_a, apply_b(eb))
        return out
    return apply


def gram_schmidt_completion(v: np.ndarray) -> np.ndarray:
    """Extend the orthonormal columns of v to a unitary by twice-orthogonalised
    Gram-Schmidt over the standard basis vectors, smallest index first; a basis
    vector whose residual has norm at most 1e-7 is skipped."""
    n, k = v.shape
    u = np.zeros((n, n), dtype=complex)
    u[:, :k] = v
    filled = k
    for j in range(n):
        if filled == n:
            break
        q = u[:, :filled]
        w = np.zeros(n, dtype=complex)
        w[j] = 1.0
        for _ in range(2):
            w = w - q @ (q.conj().T @ w)
        norm = np.linalg.norm(w)
        if norm > 1e-7:
            u[:, filled] = w / norm
            filled += 1
    assert filled == n, "columns not independent"
    return u


def kraus_by_full_eigh(choi: np.ndarray, din: int, dout: int,
                       cutoff: float = 1e-10) -> list[np.ndarray]:
    """Kraus operators from a full eigh of the Choi matrix, as the library
    took them before its low-rank Cholesky route: column i of the eigenvector
    matrix times sqrt(w[i]), for each eigenvalue above the cutoff, largest
    first."""
    w, vecs = np.linalg.eigh(choi)
    ks = []
    for i in range(len(w) - 1, -1, -1):
        if w[i] > cutoff:
            v = vecs[:, i] * np.sqrt(w[i])
            ks.append(v.reshape(din, dout).T)
    return ks
