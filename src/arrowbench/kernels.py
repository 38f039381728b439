"""The embedding search kernels: the hot inner loops of embedding enumeration.

Both kernels enumerate embeddings in lexicographic order on the vertex map
read as a tuple; with first_only they stop after the first one.  With
roots (vertices of the target, in increasing order) source vertex 0 tries
only those, so the result is the maps whose image of vertex 0 lies in
roots, in the same order.  The kernels take the roots one at a time, as
their outer loop reaches each, so an iterator of roots can act between
the images of vertex 0 (check a deadline, say).
"""


# Stays because benchmark run records (perfbench/worker.py) store the backend name.
def backend_name() -> str:
    return "pure-python"


def embeddings_binary(na, nb, labels_a, labels_b, n_adj, a_flat, b_flat, first_only=False,
                      roots=None):
    """Enumerate relation-preserving-and-reflecting injections.

    Fast path for signatures whose arities are all <= 2.  Unary symbols
    are pre-folded into the integer label vectors; the binary symbols
    contribute row-major 0/1 adjacency matrices concatenated into
    a_flat (n_adj blocks of na*na bytes) and b_flat (n_adj blocks of
    nb*nb bytes).
    """
    out = []
    f = [0] * na
    used = [False] * nb
    asq = na * na
    bsq = nb * nb
    level0 = range(nb) if roots is None else roots

    def rec(i):
        if i == na:
            out.append(tuple(f))
            return first_only
        la = labels_a[i]
        for v in (range(nb) if i else level0):
            if used[v] or labels_b[v] != la:
                continue
            ok = True
            for s in range(n_adj):
                ao = s * asq
                bo = s * bsq
                if a_flat[ao + i * na + i] != b_flat[bo + v * nb + v]:
                    ok = False
                    break
                for j in range(i):
                    fj = f[j]
                    if (a_flat[ao + i * na + j] != b_flat[bo + v * nb + fj]
                            or a_flat[ao + j * na + i] != b_flat[bo + fj * nb + v]):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                used[v] = True
                f[i] = v
                if rec(i + 1):
                    return True
                used[v] = False
        return False

    if na <= nb:
        rec(0)
    return out


def embeddings_generic(na, nb, level_checks, b_sets, first_only=False, roots=None):
    """Generic backtracking enumerator for arbitrary arities.

    level_checks[i] lists (symbol index, tuple over source vertices <= i
    containing i, required membership); b_sets[s] is the target tuple set
    of symbol s.
    """
    out = []
    f = [0] * na
    used = [False] * nb
    level0 = range(nb) if roots is None else roots

    def rec(i):
        if i == na:
            out.append(tuple(f))
            return first_only
        checks = level_checks[i]
        for v in (range(nb) if i else level0):
            if used[v]:
                continue
            ok = True
            for sym, positions, req in checks:
                mapped = tuple(v if p == i else f[p] for p in positions)
                if (mapped in b_sets[sym]) != req:
                    ok = False
                    break
            if ok:
                used[v] = True
                f[i] = v
                if rec(i + 1):
                    return True
                used[v] = False
        return False

    if na <= nb:
        rec(0)
    return out
