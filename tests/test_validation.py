import tracemalloc

import numpy as np
import pytest

from trusskit.validation import first


@pytest.mark.parametrize("shape", [(1,), (7,), (5, 6), (4, 3, 5), (3, 2, 4, 2)])
def test_first_is_the_first_true_cell_in_c_order(shape):
    # against argwhere on C-ordered, F-ordered, strided and reversed views of
    # random masks, sparse and dense, and after a prefix
    rng = np.random.default_rng(31)
    for density in (0.02, 0.3, 1.0):
        for _ in range(20):
            mask = rng.random(shape) < density
            if not mask.any():
                mask[(0,) * len(shape)] = True
            wide = np.repeat(mask, 2, axis=-1)
            for view in (mask, np.asfortranarray(mask), wide[..., ::2], np.flip(np.flip(mask, 0).copy(), 0)):
                assert first(view) == tuple(int(x) for x in np.argwhere(view)[0])
            assert first(mask, (9, 8)) == (9, 8) + tuple(int(x) for x in np.argwhere(mask)[0])


def test_first_on_a_mask_where_every_cell_fails_makes_no_index_array():
    # argwhere would list all 10^6 cells (24 MB of indices) to report one
    bad = np.ones((100, 100, 100), dtype=bool)
    tracemalloc.start()
    try:
        case = first(bad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert case == (0, 0, 0) and peak < 1 << 20
