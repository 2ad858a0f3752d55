"""scripts/bench.py records, for every point of its table, the work and result
of that call made alone."""
import importlib.util
from pathlib import Path

import pytest

from anharmonic import model, spectral

BENCH = Path(__file__).resolve().parents[1] / "scripts" / "bench.py"

# one cheap point per layer of the table
CHEAP = {
    "eigenvalues": "harmonic_ell100",
    "spectral_determinant": "alpha=2,ell=0,E=7.4",
    "frobenius_scaled": "alpha=2,ell=0,E=7.4,x=0.2",
    "r_zero": "alpha=1,ell=0.5,E=9",
    "sibuya_seed": "alpha=2,ell=0.5,E=5,k=0",
    "volterra_solve": "inward_ray_alpha2,n=601",
    "check_admissible": "inward_ray_alpha1",
    "measured_wkb_deviation": "outward_ray_subcritical_alpha1",
    "pathframe": "horizontal_trajectory_alpha1",
    "connection": "in_a_row,alpha=1,ell=0.3,E=3.9",
    "stokes_complex": "alpha=1,ell=0.5,E=1",
    "turning_points": "alpha=0.6,ell=0.3,E=3",
    "propagate": "ray,alpha=2,ell=0,E=7.4,|x|=0.5->6,arg=0->0",
}


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def measured(bench):
    """(the one-point-per-layer table, its records, the reference chunks)."""
    full = bench.table()
    assert set(full) == set(CHEAP)
    points = {layer: {CHEAP[layer]: full[layer][CHEAP[layer]]} for layer in full}
    repeat, bench.REPEAT = bench.REPEAT, 1
    chunks = []
    try:
        records = bench.measure(points, chunks)
    finally:
        bench.REPEAT = repeat
    return points, records, chunks


def test_each_point_records_the_work_of_its_call_alone(measured):
    points, records, chunks = measured
    assert len(chunks) == len(points)
    for layer, row in points.items():
        for key, point in row.items():
            spectral._sectors.cache_clear()
            before = model.WORK.copy()
            point.call()
            alone = model.WORK - before
            assert records[layer][key]["work"] == dict(alone), (layer, key)
            # PathFrame counts nothing: its result is its record
            assert alone or layer == "pathframe", (layer, key)
            assert 0.0 < records[layer][key]["us_raw"] < float("inf")


def test_work_of_the_named_stages(measured):
    _, records, _ = measured
    assert records["frobenius_scaled"][CHEAP["frobenius_scaled"]]["calls"] == 50
    assert records["frobenius_scaled"][CHEAP["frobenius_scaled"]]["work"] == {
        "series_evaluations": 50}
    # sigma_0, sigma_1 and the cross ratio in a row share their transports
    assert records["connection"][CHEAP["connection"]]["work"]["propagate"] == 5
    assert records["volterra_solve"][CHEAP["volterra_solve"]]["work"]["sweeps"] == 1
    seed = records["sibuya_seed"][CHEAP["sibuya_seed"]]["work"]
    assert seed["sweeps"] == 1 and seed["panels tail"] > 0


def test_points_with_a_summary_record_it(measured):
    points, records, _ = measured
    assert records["eigenvalues"]["harmonic_ell100"]["result"]["levels"] == 1
    assert records["eigenvalues"]["harmonic_ell100"]["result"]["eigenvalues"][0][0] == \
        pytest.approx(203.0, rel=1e-9)
    assert records["turning_points"][CHEAP["turning_points"]]["result"] == 4
    assert records["pathframe"][CHEAP["pathframe"]]["result"] == 1
    complex_ = points["stokes_complex"][CHEAP["stokes_complex"]].call()
    assert records["stokes_complex"][CHEAP["stokes_complex"]]["result"] == sum(
        len(e.trajectory.points) for e in complex_.edges)
    for layer in ("spectral_determinant", "connection", "propagate"):
        assert "result" not in records[layer][CHEAP[layer]]
