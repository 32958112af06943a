"""The shifts of a G-graph as the two arrays that the tests compare with
their oracles."""

from ggraphs.ggraph import shifts


def split_shifts(x):
    """(S_v, S_e), int32: row g of each is delta_g on the layout's vertices
    and on its edges, by edge id; shifts(x) split at its vertex count."""
    H = shifts(x)
    nv = H.n_vertices
    return H.rows[:, :nv], H.rows[:, nv:] - nv
