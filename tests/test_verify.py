"""Every registered verify check, run on its own at N=2 and N=3, seed 0.

The registry in matym.verify states each identity once; this module is
how the suite runs it, so a failure names the check and the N
(test_check[3-laplacian_spectra]). The N=3 cases are marked slow.
"""

import pytest

from matym import verify


@pytest.fixture(scope="module")
def ctx(request):
    return verify._Ctx(seed=0, N=request.param)


@pytest.mark.parametrize("ctx, check", [
    pytest.param(N, fn, id=f"{N}-{name}", marks=[pytest.mark.slow] if N == 3 else [])
    for N in (2, 3) for name, _, fn in verify._CHECKS
], indirect=["ctx"])
def test_check(ctx, check):
    ok, detail = check(ctx)
    assert ok, detail


def test_registry_names_56_checks_once():
    names = [name for name, _, _ in verify._CHECKS]
    assert len(names) == len(set(names)) == 56
