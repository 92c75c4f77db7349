"""Component-protocol search: a constructive LOCC discrimination of a
product set.

Party a splits the members into the connected components of the graph whose
edges join members with non-orthogonal local kets on a (overlap above
``tol``). Kets in different components are orthogonal, so a projective
measurement onto the components' spans tells them apart without disturbing
any member. If repeated splits, by any party, end in single members, the set
is perfectly discriminable by LOCC in finitely many rounds. A subset of a
splittable set is splittable too, so the first party that splits a branch
is as good as any.
"""

import numpy as np

TOL = 1e-9


def components(adjacent: np.ndarray) -> list[np.ndarray]:
    """Connected components of a boolean adjacency matrix, as index arrays
    ordered by their least index."""
    left = np.ones(len(adjacent), dtype=bool)
    found = []
    while left.any():
        reach = np.arange(len(adjacent)) == np.argmax(left)
        while not np.array_equal(grown := reach | adjacent[reach].any(axis=0),
                                 reach):
            reach = grown
        found.append(np.flatnonzero(reach))
        left &= ~reach
    return found


def protocol(s, members=None, tol: float = TOL):
    """A component protocol for ``members`` of product set ``s`` (all by
    default), or None.

    A leaf is one member's index; a branch is (party, children), where the
    party's measurement separates the children's members.
    """
    members = np.arange(s.n_states) if members is None else np.asarray(members)
    if len(members) == 1:
        return int(members[0])
    for party in range(s.parties):
        v = s.local_matrix(party)[members]
        parts = components(np.abs(v.conj() @ v.T) > tol)
        if len(parts) > 1:
            children = [protocol(s, members[p], tol) for p in parts]
            return None if None in children else (party, children)
    return None
