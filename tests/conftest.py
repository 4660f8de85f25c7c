import pytest

from loopsplit import generators as gen


@pytest.fixture
def rng():
    return gen.rng_for(1234)


def random_loop(rng, n=4, radius=2, scale=0.5):
    terms = {}
    for d in range(-radius, radius + 1):
        terms[d] = scale * (rng.standard_normal((n, n))
                            + 1j * rng.standard_normal((n, n))) / (2 * radius + 1)
    from loopsplit import from_terms
    return from_terms(terms)


def text_payload(x):
    """The text payload earlier versions wrote for a field or form: one JSON
    loop per unmasked node (and direction), null at masked nodes.  It is the
    reference the base64 format is checked against, and still loads."""
    from loopsplit import ConnectionForm
    from loopsplit.serialize import grid_to_obj, group_to_obj, loop_to_obj, symmetry_to_obj

    def table(*direction):
        return [[loop_to_obj(x.value(i, j, *direction)) if x.mask[i, j] else None
                 for j in range(x.grid.shape[1])] for i in range(x.grid.shape[0])]

    obj = {"grid": grid_to_obj(x.grid), "mask": x.mask.astype(int).tolist()}
    if isinstance(x, ConnectionForm):
        return {**obj, "a_u": table(0), "a_v": table(1)}
    return {**obj, "symmetry": symmetry_to_obj(x.symmetry) if x.symmetry else None,
            "target": group_to_obj(x.target) if x.target else None, "values": table()}
