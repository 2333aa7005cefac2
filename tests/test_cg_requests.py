"""Couplings requested as a list: cg_transforms gives, bit for bit, what one
request at a time gives, whatever the memo holds, and a cold cascade builds
each recursion level length at most once per leg.  The transforms of the
bench's certify and files shapes are pinned to digests."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mskit import cg, schur
from mskit.cg import cg_transform, cg_transforms, clear_cache
from mskit.schur import build_mixed_schur
from mskit.staircase import add_box_set, dim

from pool_digests import digest
from test_cg_properties import staircases

PROPERTY = settings(derandomize=True, database=None, max_examples=25, deadline=None)


@st.composite
def requests(draw):
    """A kind and a list of staircases of one length d <= 6, dim * d <= 600,
    with shifted copies and repeats among them, and the places of those to
    warm first."""
    d = draw(st.integers(1, 6))
    base = draw(st.lists(staircases(d, max_gap=2), min_size=1, max_size=4))
    base = [g for g in base if dim(g) * d <= 600] or [(0,) * d]
    gammas = []
    for g in draw(st.lists(st.sampled_from(base), min_size=1, max_size=6)):
        c = draw(st.sampled_from([0, 0, -2, 1, 3]))
        gammas.append(tuple(x + c for x in g))
    warm = draw(st.lists(st.integers(0, len(gammas) - 1), max_size=len(gammas)))
    return draw(st.sampled_from(["dual", "defining"])), gammas, warm


@PROPERTY
@given(requests())
def test_list_requests_equal_single_ones(case):
    kind, gammas, warm = case
    single = []
    for g in gammas:
        clear_cache()
        single.append(digest(cg_transform(kind, g)))
    clear_cache()
    cold = [digest(t) for t in cg_transforms(kind, gammas)]
    assert cold == single
    # half warm: some of the couplings, and the dual triplets of a shifted
    # target of some, are in the memo before the list is asked for
    clear_cache()
    for k, i in enumerate(warm):
        if k % 2:
            cg._sparse_dual(tuple(x - 1 for x in add_box_set(gammas[i])[-1]))
        else:
            cg_transform(kind, gammas[i])
    assert [digest(t) for t in cg_transforms(kind, gammas)] == single
    clear_cache()


def test_list_requests_keep_their_order_and_objects():
    clear_cache()
    gammas = [(1, 0, -1), (2, 0, 0), (1, 0, -1), (3, 2, 2)]
    ts = cg_transforms("defining", gammas)
    assert [t.input_irrep for t in ts] == gammas
    assert ts[0] is ts[2] is cg_transform("defining", (1, 0, -1))
    assert cg_transforms("dual", []) == []
    with pytest.raises(ValueError, match="unknown CG kind"):
        cg_transforms("other", gammas)
    # staircases of several lengths are planned one length at a time
    mixed = [(1, 0), (2, 1, 0), (1, -1)]
    assert [digest(t) for t in cg_transforms("dual", mixed)] == [
        digest(cg_transform("dual", g)) for g in mixed]
    clear_cache()


def test_a_list_stops_at_a_staircase_over_the_cap():
    clear_cache()
    with pytest.raises(cg.CapExceeded):
        cg_transforms("dual", [(1, 0, 0), (4, 2, 0)], cap=60)
    assert ("dual", (1, 0, 0)) in cg._memo
    assert ("dual", (4, 2, 0)) not in cg._memo
    clear_cache()


@pytest.mark.parametrize("n,m,d,order", [(3, 3, 4, None), (3, 2, 4, "+-+-+")])
def test_a_cold_cascade_builds_each_length_once_per_leg(n, m, d, order, monkeypatch):
    # every leg asks for its couplings in one request, so the dual triplets
    # it lacks are built one level pass per length
    leg, passes = [0], []
    request, build = schur.cg_transforms, cg._build_level

    def per_leg(kind, gammas, *args):
        leg[0] += 1
        return request(kind, gammas, *args)

    def counted(plan, lower):
        passes.append((leg[0], plan.mus.shape[1]))
        return build(plan, lower)

    monkeypatch.setattr(schur, "cg_transforms", per_leg)
    monkeypatch.setattr(cg, "_build_level", counted)
    clear_cache()
    build_mixed_schur(n, m, d, order)
    clear_cache()
    assert leg[0] == n + m
    assert len(passes) == len(set(passes)), passes
    assert len(passes) <= (n + m) * d


# SHA-256 of the dtype and bytes of W.data for the bench's certify and files
# shapes, as the cascade with one coupling request per staircase wrote them
PINNED_DATA = {
    (3, 3, 4, None): "cf4e8a528fe316166bd9eb7460ece22a28b7c2a110326ed48b4adc75b56d5ab9",
    (6, 6, 2, None): "ccd860412c1b6fb0cde047e08ed3e889e277ae11b55bb057b166235f87d5d3f3",
    (5, 5, 2, None): "8c021156961ed9c5274fc4cdd484b923630cd7677c2a9349f86fccfd48b63b98",
    (3, 2, 4, "+-+-+"): "3b35783a344887f7a004615a114582cb4ea24ca9e90c55f333431781e060618b",
    (2, 2, 5, None): "045a5411a4ab7ccfff04ff70952dada43744575840abcb3032c1cfaf610b5d1e",
    (3, 3, 3, None): "39936dc357844083805561ec7edaaa099d6193f021b5ad0e11265c2f64ca522f",
    (4, 2, 3, None): "f4169f48ce3c368db6b1da309ba25ed3f83e8bd19375f2c6b1a2f2b86a23d2b9",
    (1, 2, 8, None): "039a72b2a8e3fb25954cfbe3519c2be7a1dabd56d4ef59a56c2ecae501113616",
    (2, 2, 4, "+-+-"): "afb3be0606c972879d93d073d8cd2981c17658a40d0b0c0fb91fe157cdac346e",
    (3, 1, 4, None): "d3c3d64260a6926aeeaa5d2333e385c50853e8bbb87920cbdfb46d98a5e345bc",
    (1, 3, 4, "-+--"): "b19b5d988334b86f5ac6a8260cdd80bbb9aefeaa87763f185ae36f5aca56fe1a",
    (2, 1, 5, "-++"): "2d8e94e773b8b3dedf0ce74d862abc139aced46913ef5db0649e708cd24dea36",
    (2, 3, 3, "-+-+-"): "2ae609b0a88f114f05031a5f8ebe08945d1a75b821d61c97904ca5909132236a",
    (2, 2, 3, "+--+"): "47a1e2c29aa22dd9e0ad7e2d0f85313382b88a1eb2f4e4d54a5d25b969ed64f6",
    (1, 1, 8, None): "6652a4510478574000c201253b5a9c8bc12f0a3d25babf4061105e924df14a7a",
    (4, 3, 2, "-+-+-++"): "a56cf3f76671edc33cf3252e5865e0910808db59b26fd971aec5e788707ce0b7",
    (3, 2, 3, "+-+-+"): "2d2652606794f6870b990cc4bba54bdfefb074781f6eaca3996b468ed0828652",
    (2, 1, 4, None): "30d257e92e13fd3c95a2557b79a53f68a1f323b2f6e1f4f09a450c70c023a8d0",
}


@pytest.mark.parametrize("n,m,d,order", list(PINNED_DATA))
def test_built_data_matches_pinned_digests(n, m, d, order):
    clear_cache()
    data = build_mixed_schur(n, m, d, order).data
    clear_cache()
    got = hashlib.sha256(data.dtype.str.encode() + np.ascontiguousarray(data).tobytes())
    assert got.hexdigest() == PINNED_DATA[n, m, d, order]
