"""Kernel: the integer counting routines of the rank-n tube.

Closed-form Hom and Ext dimensions, pairwise compatibility, and the
compatibility bitmasks behind the brute-force enumeration of maximal rigid
objects. Masks are Python integers, so they have no width limit.
`tube.hom_tube_oracle` checks the closed forms and shares no code with
this module.

Coordinates: an indecomposable is (a, b) with orbit a in 1..n and
quasilength b >= 1. The translate acts by (a, b) -> (a - 1, b).
"""


def hom_tube_dim(n, a, b, c, d):
    """dim Hom between (a, b) and (c, d) in the tube of rank n.

    Counts integers k with max(0, b - d) <= k <= b - 1 and
    k == c - a (mod n).
    """
    lo = b - d
    if lo < 0:
        lo = 0
    hi = b - 1
    r = (c - a) % n
    return (hi - r) // n - (lo - 1 - r) // n


def cluster_dims(n, a, b, c, d):
    """(tube part, shifted part) of the cluster-category Hom from (a,b) to (c,d)."""
    t_dim = hom_tube_dim(n, a, b, c, d)
    d_dim = hom_tube_dim(n, c, d, a - 2, b)
    return t_dim, d_dim


def ext1_dim(n, a, b, c, d):
    """dim Ext^1 between (a, b) and (c, d); symmetric in its arguments."""
    t_dim, dd = cluster_dims(n, c, d, a - 1, b)
    return t_dim + dd


def pair_compatible(n, a, b, c, d):
    return ext1_dim(n, a, b, c, d) == 0 and ext1_dim(n, c, d, a, b) == 0


def rigid_coords(n, idx):
    a, b = divmod(idx, n - 1)
    return a + 1, b + 1


def compat_masks(n):
    """Compatibility bitmasks over the n*(n-1) rigid indecomposables.

    Bit j of masks[i] is set iff the rigid objects with indices i and j are
    distinct and compatible.
    """
    m = n * (n - 1)
    coords = [rigid_coords(n, i) for i in range(m)]
    masks = [0] * m
    for i in range(m):
        a, b = coords[i]
        for j in range(i + 1, m):
            c, d = coords[j]
            if pair_compatible(n, a, b, c, d):
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    return masks


def compatible_subsets(masks, size):
    """Yield every pairwise-compatible index subset of the given size, in
    sorted order.

    Equivalent to filtering every ``size``-subset by pairwise compatibility;
    branches whose remaining candidates cannot reach ``size`` members are
    skipped. Subsets are yielded as they are found, so none is held beyond
    the caller's use of it.
    """
    m = len(masks)

    def extend(start, allowed, chosen):
        if len(chosen) == size:
            yield chosen
            return
        need = size - len(chosen)
        for i in range(start, m):
            if (allowed >> i).bit_count() < need:
                return
            if allowed & (1 << i):
                yield from extend(i + 1, allowed & masks[i], chosen + (i,))

    return extend(0, (1 << m) - 1, ())
