"""Self-tests of the benchmark's checks and tracing, on tiny families.

Run from the root of the repository with ``python -m pytest -q bench``.
"""

from dataclasses import replace

import bwgeom.cli
import pytest

import measure
from measure import COMMANDS, Bench, scaled, tail
from spans import Tracer


@pytest.fixture
def bench(tmp_path):
    return Bench(str(tmp_path), dim=3, count=4, seed=7, families=2)


def failed_commands(bench, k=0):
    before = bench.failed
    bench.run_pass(k)
    return bench.failed - before


def test_seed_code_scores_zero(bench):
    for k in (0, 1, 0, 1):
        bench.run_pass(k)
    assert (bench.attempted, bench.failed, bench.problems) == (4 * len(COMMANDS), 0, [])


def test_corrupted_mean_file_fails(bench, monkeypatch):
    write = bwgeom.cli.write_matrix

    def corrupt(path, a):
        write(path, a + 1e-4 if path.endswith("mean.txt") else a)

    monkeypatch.setattr(bwgeom.cli, "write_matrix", corrupt)
    # mean and mean --algorithm gpa both write a wrong mean.txt.
    assert failed_commands(bench) == 2
    assert all("from the template" in p for p in bench.problems)


@pytest.mark.parametrize(
    "name, tamper",
    [
        ("convergence_equivalence", lambda f: lambda a, b: (f(a, b)[0] * (1 + 1e-5),) + f(a, b)[1:]),
        ("multicoupling_cost", lambda f: lambda joint: f(joint) * (1 + 1e-4)),
    ],
)
def test_tampered_report_value_fails(bench, monkeypatch, name, tamper):
    monkeypatch.setattr(bwgeom.cli, name, tamper(getattr(bwgeom.cli, name)))
    assert failed_commands(bench) == 1


def test_changed_stdout_fails(bench, monkeypatch):
    bench.run_pass(0)
    monkeypatch.setattr(bwgeom.cli, "__version__", "0.0.0")
    assert failed_commands(bench, 0) == len(COMMANDS)


def test_nonzero_exit_fails(bench):
    fam = bench.families[0]
    bench.families[0] = replace(fam, manifest=fam.manifest + ".missing")
    assert failed_commands(bench) == 4


def test_traced_pass_restores_functions_and_nests_spans(bench):
    originals = (bwgeom.cli.write_matrix, bwgeom.barycenter.optimal_map, measure.np.linalg.eigh)
    tracer = Tracer()
    bench.run_pass(0, tracer)
    assert (bwgeom.cli.write_matrix, bwgeom.barycenter.optimal_map, measure.np.linalg.eigh) == originals
    assert bench.failed == 0
    table = tracer.table()
    for cmd in COMMANDS:
        calls, busy, self_s = table[cmd, f"cli.{cmd}"]
        assert calls == 1 and 0.0 < self_s < busy
    assert table["multicouple", "io.write_matrix"][0] == 1
    assert table["mean", "lapack.eigh"][0] == table["mean", "spectral.sym_eigen"][0] > 0
    # Two optimal maps per member in multicouple, on as many distinct inputs as members.
    assert table["multicouple", "bures.optimal_map"][0] == 8
    assert len(tracer.inputs["multicouple", "bures.optimal_map"]) == 4
    assert tracer.counters["io.bytes_written"] > 0


def test_tail_has_ten_samples_beyond_it():
    assert tail([3.0, 1.0, 2.0]) == (50.0, 2.0)
    assert tail([float(i) for i in range(19)]) == (50.0, 9.0)
    samples = [float(i) for i in range(40)]
    percentile, value = tail(samples)
    assert percentile == 75.0 and sum(s > value for s in samples) == 10


def test_each_time_is_scaled_by_the_slices_around_it():
    # CALIBRATION_S is 0.02: slices that average 0.03 s mean a host at 2/3 speed.
    assert scaled([1.5, 3.0], [0.02, 0.04, 0.02]) == pytest.approx([1.0, 2.0])
