"""Tier-1 slice of the equivalence check (`equivalence.py`): every tenth
input of each family, in every mode, against the committed digests."""

import pytest

from equivalence import FAMILIES, committed, committed_digest, family_size, inputs, output_digests


@pytest.mark.parametrize("family", FAMILIES)
def test_outputs_match_the_committed_digests(family):
    table = committed()
    moved = []
    for i, g in inputs(family, range(0, family_size(family), 10)):
        for mode, digest in output_digests(g).items():
            if digest != committed_digest(table, family, mode, i):
                moved.append(f"{family}/{i} {mode}")
    assert not moved, moved
