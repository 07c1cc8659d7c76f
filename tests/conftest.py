import itertools

from brauerloop import ChordDiagram


def diagram(length, *pairs):
    """Build a diagram from 1-based site pairs; leftover site is the defect."""
    return ChordDiagram.from_pairs(length, pairs)


def brute_force_count(length):
    """Independent recursive count of pairings with at most one unpaired site."""

    def matchings(sites):
        if not sites:
            return 1
        first, rest = sites[0], sites[1:]
        return sum(matchings(rest[:k] + rest[k + 1 :]) for k in range(len(rest)))

    sites = tuple(range(length))
    if length % 2 == 0:
        return matchings(sites)
    return sum(
        matchings(sites[:hole] + sites[hole + 1 :]) for hole in range(length)
    )


def recursive_partners(length):
    """Sorted partner tuples of every diagram, built by recursive pairing.

    Pairs the first free site with each later free site in turn; for odd
    lengths every site takes the defect once. Slow, independent oracle for
    `enumerate_diagrams`.
    """
    found = []
    partner = [-1] * length

    def fill(free):
        if not free:
            found.append(tuple(partner))
            return
        i, rest = free[0], free[1:]
        for k, j in enumerate(rest):
            partner[i] = j
            partner[j] = i
            fill(rest[:k] + rest[k + 1 :])
            partner[j] = -1
        partner[i] = -1

    sites = tuple(range(length))
    if length % 2:
        for hole in sites:
            fill(sites[:hole] + sites[hole + 1 :])
    else:
        fill(sites)
    return sorted(found)


def brute_force_diagrams(length):
    """All valid partner tuples by filtering raw involutions (small lengths only)."""
    out = set()
    sites = range(length)
    for perm in itertools.permutations(sites):
        if any(perm[i] == i for i in sites if length % 2 == 0):
            continue
        fixed = [i for i in sites if perm[i] == i]
        if length % 2 == 1 and len(fixed) != 1:
            continue
        if any(perm[perm[i]] != i for i in sites):
            continue
        out.add(tuple(-1 if perm[i] == i else perm[i] for i in sites))
    return out
