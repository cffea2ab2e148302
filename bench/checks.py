"""Correctness checks on one command's output, run outside the timed region.

Every check rests on an identity of the paper evaluated on the benchmark's
own inputs, never on numbers recorded from the program: the generated
template is the exact Frechet mean, full-rank tangent PCA reconstructs every
member, the multicoupling cost equals the Frechet functional and its
diagonal blocks are the members, and geodesics have constant speed.  The
tolerances sit more than an order of magnitude above what the program
reaches on these families (the solver's own accuracy bounds the first two;
the others hold to roundoff), so a change of last digits passes and a wrong
result does not.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from family import read_matrix_file

# Relative trace-norm distance of a computed mean from the template.
MEAN_TOL = 1e-6
# Full-rank PCA reconstruction error, relative to sqrt(tr S).
RECON_TOL = 1e-6
# |cost - functional| relative to the functional.
COUPLING_TOL = 1e-9
# Diagonal blocks of the joint matrix against the members, relative to max|S_i|.
BLOCK_TOL = 1e-9
# Procrustes distance against the reference, relative to sqrt(tr A + tr B).
DISTANCE_TOL = 1e-9
# Geodesic speed deviation relative to the endpoint distance.
SPEED_TOL = 1e-8


def _sqrt_psd(a: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(a)
    return (v * np.sqrt(np.maximum(w, 0.0))) @ v.T


def reference_distance(a: np.ndarray, b: np.ndarray) -> float:
    """tr A + tr B - 2 tr (A^{1/2} B A^{1/2})^{1/2}, square-rooted."""
    r = _sqrt_psd(a)
    cross = np.linalg.eigvalsh(r @ b @ r)
    d2 = np.trace(a) + np.trace(b) - 2.0 * np.sum(np.sqrt(np.maximum(cross, 0.0)))
    return math.sqrt(max(0.0, float(d2)))


class Checker:
    """Checks for one generated family; ``check`` returns a list of problems."""

    def __init__(self, fam):
        self.fam = fam
        a, b = fam.members[0], fam.members[1]
        self.pair_scale = math.sqrt(float(np.trace(a) + np.trace(b)))
        self.distance = reference_distance(a, b)
        self.template_trace = float(np.trace(fam.template))

    def check(self, cmd: str, stdout: str, outdir: str, joint: bool) -> list[str]:
        try:
            report = json.loads(stdout)
            return getattr(self, "_" + cmd)(report["results"], report["diagnostics"], outdir, joint)
        except (ValueError, KeyError, TypeError, IndexError, OSError) as e:
            return [f"{cmd}: unreadable output: {e!r}"]

    def _mean_file(self, outdir) -> list[str]:
        m = read_matrix_file(os.path.join(outdir, "mean.txt"))
        err = float(np.sum(np.abs(np.linalg.eigvalsh(m - self.fam.template)))) / self.template_trace
        return [] if err <= MEAN_TOL else [f"mean.txt is {err:.3g} from the template"]

    def _mean(self, results, diagnostics, outdir, joint) -> list[str]:
        problems = [] if results["converged"] is True else ["mean did not converge"]
        return problems + self._mean_file(outdir)

    _mean_gpa = _mean

    def _pca(self, results, diagnostics, outdir, joint) -> list[str]:
        problems = [] if diagnostics["converged"] is True else ["pca mean did not converge"]
        worst = max(row[-1] for row in results["reconstruction_errors"])
        if not worst <= RECON_TOL * math.sqrt(self.template_trace):
            problems.append(f"full-rank reconstruction error {worst:.3g}")
        return problems

    def _multicouple(self, results, diagnostics, outdir, joint) -> list[str]:
        problems = []
        if not results["cost_functional_gap"] <= COUPLING_TOL * results["functional"]:
            problems.append(f"cost_functional_gap {results['cost_functional_gap']:.3g}")
        if joint:
            problems += self._joint_blocks(os.path.join(outdir, "multicoupling.txt"))
        return problems

    def _joint_blocks(self, path) -> list[str]:
        """Compare the diagonal blocks, parsing only their entries."""
        d, n = self.fam.template.shape[0], len(self.fam.members)
        rows = 0
        with open(path, encoding="utf-8") as f:
            for r, line in enumerate(f):
                i = r // d
                if i >= n:
                    return [f"joint file has more than {n * d} rows"]
                got = np.array([float(x) for x in line.split(",")[i * d : (i + 1) * d]])
                want = self.fam.members[i][r % d]
                if got.shape != want.shape:
                    return [f"joint file row {r + 1} is too short"]
                scale = float(np.max(np.abs(self.fam.members[i])))
                if not float(np.max(np.abs(got - want))) <= BLOCK_TOL * scale:
                    return [f"joint block {i + 1} differs from member {i + 1}"]
                rows += 1
        return [] if rows == n * d else [f"joint file has {rows} rows, expected {n * d}"]

    def _distance(self, results, diagnostics, outdir, joint) -> list[str]:
        err = abs(results["procrustes"] - self.distance)
        if err <= DISTANCE_TOL * self.pair_scale:
            return []
        return [f"procrustes {results['procrustes']!r} vs reference {self.distance!r}"]

    def _geodesic(self, results, diagnostics, outdir, joint) -> list[str]:
        problems = self._distance({"procrustes": results["distance"]}, diagnostics, outdir, joint)
        if not results["max_speed_deviation"] <= SPEED_TOL * self.distance:
            problems.append(f"max_speed_deviation {results['max_speed_deviation']:.3g}")
        return problems
