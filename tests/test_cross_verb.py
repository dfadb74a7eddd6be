"""Verbs that answer related questions never contradict each other.

The cones are nested: separable over R inside separable over C, inside
the holomorphic sums of squares (a psd flattening), inside the conjugate
sums of squares, inside the tensors psd over C, inside those psd over R;
a multiplier membership (``omega``) also implies psd over C.  So an
affirmative verdict on one cone and a refutation of a cone that contains
it cannot both hold.  The inputs sit where the tolerances decide: shifted
by the identity to the least eigentuple value over C or over R (the two
psd boundaries; P(I) = I, so the real shift moves P(H) by the same
amount) or to the flattening's least eigenvalue (the HSOS boundary), plus
or minus a small multiple of the norm.
"""

import functools
import itertools

import numpy as np
import pytest

from hermitia import core, psd_sos as ps, separability as sep, spectral

# strongest first: each cone lies inside every cone after it
CONES = ("SEP_R", "SEP_C", "HSOS", "CSOS", "PSD_C", "PSD_R")
DELTAS = (0.0, 3e-9, -3e-9, 1e-7, -1e-7)


def _boundary(dims, seed, family, delta) -> core.HermitianTensor:
    h = core.random_hermitian(dims, seed)
    if family == "eigentuple":
        edge = spectral.herm_eigenpair(h, seed=0).tuples[0].value
    elif family == "real-eigentuple":
        edge = spectral.herm_eigenpair(h, seed=0, field="REAL").tuples[0].value
    else:
        edge = float(np.linalg.eigvalsh(h.mat)[0])
    shift = edge - delta * core.norm(h)
    return core.HermitianTensor(dims, h.mat - shift * np.eye(h.size))


INPUTS = list(itertools.product([(2, 2), (2, 3)], [1, 2], ["eigentuple", "flattening"], DELTAS))
# the real psd boundary on one seed per shape, about 1 s of the gate's time
INPUTS += itertools.product([(2, 2), (2, 3)], [1], ["real-eigentuple"], DELTAS)


@functools.cache
def _verdicts(dims, seed, family, delta) -> tuple[frozenset, frozenset]:
    """(cones affirmed, cones refuted) by the verbs on one input."""
    g = _boundary(dims, seed, family, delta)
    holds, fails = set(), set()
    (holds if ps.hsos_test(g).status == "MEMBER" else fails).add("HSOS")
    if ps.csos_test(g, iters=300).status == "FEASIBLE":
        holds.add("CSOS")
    if ps.multiplier_hsos_test(g, (1,) + (0,) * (g.order - 1)).status == "MEMBER":
        holds.add("PSD_C")
    for field in ("COMPLEX", "REAL"):
        cone = field[0]
        status = ps.psd_verdict(g, field).status
        if status == "PSD_CERTIFIED":
            holds.add(f"PSD_{cone}")
        elif status == "NOT_PSD_WITNESS":
            fails.add(f"PSD_{cone}")
        status = sep.separability_pipeline(g, field, effort=2).status
        if status == "SEPARABLE_CERTIFIED":
            holds.add(f"SEP_{cone}")
        elif status == "ENTANGLED_WITNESS":
            fails.add(f"SEP_{cone}")
    return frozenset(holds), frozenset(fails)


@pytest.mark.parametrize("dims, seed, family, delta", INPUTS,
                         ids=["x".join(map(str, d)) + f"-{s}-{f}-{t:g}" for d, s, f, t in INPUTS])
def test_no_verb_contradicts_another(dims, seed, family, delta):
    holds, fails = _verdicts(dims, seed, family, delta)
    clashes = [(a, r) for a in holds for r in fails if CONES.index(a) <= CONES.index(r)]
    assert not clashes, (sorted(holds), sorted(fails))


def test_the_inputs_reach_both_sides_of_each_boundary():
    # a gate whose inputs are all affirmed (or all refuted) checks nothing
    verdicts = [_verdicts(*args) for args in INPUTS]
    for cone in ("SEP_C", "HSOS", "PSD_C", "PSD_R"):
        assert any(cone in holds for holds, _ in verdicts), cone
        assert any(cone in fails for _, fails in verdicts), cone
    # no verb refutes CSOS (INFEASIBLE_HINT is a heuristic)
    assert any("CSOS" in holds for holds, _ in verdicts)
