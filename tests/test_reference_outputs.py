"""Small four-site runs reproduce the outputs stored in tests/data
(tests/make_reference_outputs.py): tables to 1e-12, spectra as multisets to
1e-12, and the settling period, stepped-matrix counts and steady-state count
exactly.  So a change that is meant to keep every number proves it here."""

import json

import numpy as np
import pytest
from make_reference_outputs import DATA, NAMES, load_table, output

from dtcsim.spectra import spectral_distance

TOL = 1e-12


@pytest.mark.parametrize("name", NAMES)
def test_outputs_match_the_stored_reference(name, tmp_path):
    table, exact = output(name, tmp_path)
    got, want = load_table(table), load_table(DATA / f"{name}.csv")
    if name.startswith("spectrum"):
        assert got.shape == want.shape
        got, want = (t[:, 0] + 1j * t[:, 1] for t in (got, want))
        assert spectral_distance(got, want) <= TOL
    else:
        np.testing.assert_allclose(got, want, rtol=0.0, atol=TOL)
    assert exact == json.loads((DATA / "exact.json").read_text())[name]
