"""Direct products: the order checked before any factor is built, and the
table written in int32 blocks, entry for entry the former formula."""

import tracemalloc

import numpy as np
import pytest

from ggraphs import algebra as al
from ggraphs.errors import CapExceeded


def former_product(g1, g2):
    """The former direct_product's table, inverses and names: one int64
    gather of (|G1|·|G2|)^2 entries, and every name built up front."""
    n1, n2 = g1.order, g2.order
    mul = (
        g1.mul[:, None, :, None].astype(np.int64) * n2 + g2.mul[None, :, None, :]
    ).reshape(n1 * n2, n1 * n2).astype(np.int32)
    inv = (g1.inv[:, None] * n2 + g2.inv[None, :]).ravel().astype(np.int32)
    cyclic = g1.factor_orders is not None and g2.factor_orders is not None
    a_names, b_names = (
        [g.elem_name(x).strip("()") if cyclic else g.elem_name(x) for x in g.elements()]
        for g in (g1, g2)
    )
    return mul, inv, tuple("(%s,%s)" % (a, b) for a in a_names for b in b_names)


def _factor_pairs():
    z = al.cyclic_group
    return [
        pytest.param(al.symmetric_group(3), z(2), id="S3xZ2"),
        pytest.param(al.parse_group("Z2xZ3"), z(4), id="Z2xZ3xZ4"),
        pytest.param(z(2), al.parse_group("Z3xZ4"), id="Z2x(Z3xZ4)"),
        pytest.param(z(1), z(5), id="Z1xZ5"),
        pytest.param(z(7), z(1), id="Z7xZ1"),
        pytest.param(al.quaternion_group(), al.dihedral_group(4), id="Q8xD4"),
        pytest.param(al.parse_group("Z2xZ2"), al.symmetric_group(3), id="Z2xZ2xS3"),
    ]


@pytest.mark.parametrize("g1,g2", _factor_pairs())
def test_product_equals_the_former_formula(g1, g2):
    mul, inv, names = former_product(g1, g2)
    got = al.direct_product(g1, g2)
    assert got.mul.dtype == np.int32 and got.mul.flags.c_contiguous
    assert (got.mul == mul).all() and (got.inv == inv).all()
    assert [got.elem_name(x) for x in got.elements()] == list(names)
    assert got.elem_names == names


def test_product_table_needs_no_temporary_of_its_size():
    z40, z45 = al.cyclic_group(40), al.cyclic_group(45)
    tracemalloc.start()
    try:
        grp = al.direct_product(z40, z45)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * grp.mul.nbytes


@pytest.mark.parametrize("spec", ["Z8192xZ2", "Z2xZ8192", "Z90xZ91xZ2", "Z100000000xZ1"])
def test_product_order_is_checked_before_any_factor(spec, monkeypatch):
    def forbidden(n):
        raise AssertionError("factor Z%d built before the order check" % n)

    monkeypatch.setattr(al, "cyclic_group", forbidden)
    with pytest.raises(CapExceeded, match="exceeds cap 8192"):
        al.parse_group(spec)
