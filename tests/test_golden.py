"""Golden cases: the values of ``tests/golden/cases.py`` recomputed bit for bit.

A change that moves a value regenerates the manifest with
``python tests/golden/regen.py`` and states each moved case.  The manifest
holds the Python and numpy versions it was made with; on other versions the
test fails and names both, since the last bits of a value may differ there.
"""

from golden import cases


def test_golden_cases_recompute_bit_for_bit():
    manifest = cases.load()
    made, here = {k: manifest[k] for k in cases.versions()}, cases.versions()
    assert made == here, f"manifest made with {made}, running {here}: regenerate it"
    new = cases.compute(manifest["seeds"], manifest["t_grid"])
    assert cases.moved(cases.stored(manifest), new) == []


def test_each_group_seeds_its_cases_from_distinct_streams():
    # a case's values follow its own stream, never its position in the group
    for group, members in cases.seeded_groups().items():
        streams = [member[0] for member in members.values()]
        assert len(set(streams)) == len(streams), group
