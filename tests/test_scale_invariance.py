"""Verdicts do not depend on the unit of the input.

The psd and separable cones are closed under positive scaling, so every
psd test and eigenvalue cutoff is relative to the input's own largest
|eigenvalue|, with no absolute floor.
"""

import numpy as np
import pytest

from hermitia import core, decomposition as dec, psd_sos, separability as sep

from conftest import hankel_tensor, random_unit

SCALES = [1.0, 1e-6, 1e-12, 1e-16]


def _scaled(h: core.HermitianTensor, s: float) -> core.HermitianTensor:
    return core.HermitianTensor(h.dims, h.mat * s)


@pytest.mark.parametrize("s", SCALES)
def test_indefinite_diagonal_is_never_hsos(s):
    h = core.HermitianTensor((2, 2), np.diag([1.0, -1.0, 0.0, 0.0]) * s)
    assert not psd_sos.hsos_test(h).is_hsos
    assert psd_sos.multiplier_hsos_test(h, (1, 0)).status == "UNKNOWN"
    assert psd_sos.psd_verdict(h).status != "PSD_CERTIFIED"


@pytest.mark.parametrize("s", SCALES)
def test_identity_stays_hsos(s):
    h = _scaled(core.identity_tensor((2, 2)), s)
    assert psd_sos.hsos_test(h).is_hsos
    assert psd_sos.psd_verdict(h).status == "PSD_CERTIFIED"


@pytest.mark.parametrize("s", SCALES)
def test_entangled_hankel_is_never_certified(s):
    h = _scaled(hankel_tensor(), s)
    assert sep.separability_pipeline(h).status != "SEPARABLE_CERTIFIED"
    assert sep.separable_search(h, 2, seed=0).status != "SEPARABLE_CERTIFIED"


@pytest.mark.parametrize("s", SCALES + [1e-100])
def test_jennrich_recovers_a_scaled_rank1_term(s, rng):
    h = core.rank1(s, [random_unit(rng, 2), random_unit(rng, 3)])
    out = dec.jennrich_decompose(h, 1, seed=0)
    assert isinstance(out, dec.HermitianDecomposition)
    assert len(out.terms) == 1
    assert dec.residual(out, h) <= core.TOL.cpTol * core.norm(h)
