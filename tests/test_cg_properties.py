"""Property tests of the level-by-level coupling build, on random staircases
with d <= 8: the reduced Wigner table over (mu, content) pairs against the
scalar closed form, the orthogonality of the reduced Wigner blocks, and the
shift invariance of the dual couplings."""

import math

from hypothesis import assume, given, settings, strategies as st

from mskit.cg import clear_cache, dual_cg, weight_sparsity_residual
from mskit.staircase import dim, is_valid, remove_box_set
from mskit.wigner import reduced_wigner_operator, reduced_wigner_table

from test_cg_oracle import scalar_reduced_wigner

PROPERTY = settings(derandomize=True, database=None, max_examples=40, deadline=None)


def _staircase(top, gaps):
    return tuple(top - sum(gaps[:k]) for k in range(len(gaps) + 1))


@st.composite
def staircases(draw, d, max_gap=3):
    return _staircase(draw(st.integers(-4, 4)),
                      draw(st.lists(st.integers(0, max_gap), min_size=d - 1, max_size=d - 1)))


@st.composite
def content_of(draw, mu):
    """A staircase interlacing mu."""
    return tuple(draw(st.integers(mu[i + 1], mu[i])) for i in range(len(mu) - 1))


def _wide_span(d):
    """The least mu_1 - mu_d whose table products may pass 2^53."""
    e = max(2 * d - 3, 1)
    x = math.ceil(2 ** (53 / e))
    while (x - 1) ** e >= 2 ** 53:
        x -= 1
    while x ** e < 2 ** 53:
        x += 1
    return x - d - 1


@st.composite
def levels(draw):
    """Pairs (mu, content) of several staircases of one length d, one of
    them wide enough that its products may pass 2^53, by up to 2^70."""
    d = draw(st.integers(3, 8))
    mus = draw(st.lists(staircases(d), min_size=1, max_size=3))
    wide = _wide_span(d)
    gaps = draw(st.lists(st.integers(0, 64 * wide // (d - 1)), min_size=d - 1, max_size=d - 1))
    gaps[draw(st.integers(0, d - 2))] += wide
    mus.insert(draw(st.integers(0, len(mus))), _staircase(draw(st.integers(-9, 9)), gaps))
    return [(mu, draw(content_of(mu))) for mu in mus for _ in range(draw(st.integers(1, 3)))]


@PROPERTY
@given(levels())
def test_level_table_matches_scalar_formula(pairs):
    mus, contents = zip(*pairs)
    d = len(mus[0])
    table = reduced_wigner_table(mus, contents)
    assert table.shape == (len(pairs), d, d)
    for p, (mu, mup) in enumerate(pairs):
        # one staircase at a time gives the same bits as the whole level
        assert table[p].tobytes() == reduced_wigner_table(mu, [mup])[0].tobytes()
        for j in range(1, d + 1):
            for jp in range(d):
                ref = scalar_reduced_wigner(mu, j, mup, jp)
                assert abs(table[p, j - 1, jp] - ref) <= 1e-15, (mu, j, mup, jp)


@st.composite
def output_contents(draw):
    """mu with d <= 8 and an output content nu: a content of mu, with one
    box removed or not."""
    mu = draw(st.integers(1, 8).flatmap(staircases))
    nu = draw(content_of(mu))
    jp = draw(st.integers(0, len(nu)))
    if jp:
        shorter = nu[:jp - 1] + (nu[jp - 1] - 1,) + nu[jp:]
        nu = shorter if is_valid(shorter) else nu
    return mu, nu


@PROPERTY
@given(output_contents())
def test_reduced_wigner_blocks_are_orthogonal(case):
    block = reduced_wigner_operator(*case)
    assert block.matrix.shape == (len(block.row_targets), len(block.col_sources))
    assert block.matrix.shape[0] == block.matrix.shape[1] >= 1
    assert block.orthogonality_residual() < 1e-12


@st.composite
def shifted(draw):
    """A staircase with d <= 8, at most three steps and dim * d <= 2000, and
    a nonzero shift."""
    d = draw(st.integers(1, 8))
    steps = draw(st.dictionaries(st.integers(0, max(d - 2, 0)), st.integers(1, 2),
                                 max_size=min(d - 1, 3)))
    mu = _staircase(draw(st.integers(-4, 4)), [steps.get(k, 0) for k in range(d - 1)])
    assume(dim(mu) * d <= 2000)
    return mu, draw(st.sampled_from([-5, -3, -1, 1, 2, 4]))


@PROPERTY
@given(shifted())
def test_shifted_dual_coupling_has_the_same_matrix(case):
    mu, c = case
    mu_c = tuple(x + c for x in mu)
    clear_cache()
    t = dual_cg(mu)
    clear_cache()
    t_c = dual_cg(mu_c)
    assert t_c.matrix.toarray().tobytes() == t.matrix.toarray().tobytes()
    assert t_c.output_blocks == tuple((tuple(x + c for x in g), off, size)
                                      for g, off, size in t.output_blocks)
    assert [g for g, _, _ in t_c.output_blocks] == remove_box_set(mu_c)
    # the shifted labels carry the weights the entries conserve
    assert weight_sparsity_residual(t_c) == 0.0
    # and a shifted request served from the memo of mu gets its own labels
    assert dual_cg(tuple(x - c for x in mu_c)).output_blocks == t.output_blocks
