"""Command-line interface.

Every command reads plain-text matrix files (comma-separated rows, ``#``
comments) or a JSON manifest listing such files, prints one deterministic
report document on stdout, and writes any output matrices atomically.  The
same command line with the same files and seed produces byte-identical
output.

Exit codes: 0 success; 2 unusable input (parse errors, out-of-range values,
empty families, degenerate requests, a geodesic step off the PSD cone); 3
dimension mismatch; 4 not positive semidefinite; 5 kernel condition violated
(no transport map); 6 iteration cap reached (the best iterate is still written).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__
from .barycenter import (
    MeanConfig,
    fixed_point_residual,
    mean_fixed_point,
    mean_procrustes_averaging,
    multicoupling,
    multicoupling_cost,
)
from .bures import optimal_map, procrustes_distance, procrustes_distance_via_alignment
from .errors import (
    DegenerateError,
    DimMismatchError,
    EmptyFamilyError,
    KernelConditionError,
    LeavesConeError,
    MatrixParseError,
    MaxIterExceeded,
    NonFiniteError,
    NotPSDError,
    OutOfRangeError,
)
from .geometry import exp_map, log_map
from .io import (
    Manifest,
    load_family,
    read_manifest,
    read_matrix,
    render_report,
    write_manifest,
    write_matrix,
)
from .simulate import (
    RngSpec,
    convergence_equivalence,
    counterexample_family,
    deformation_family,
    equivalence_constant,
    fourth_moment_check,
    project,
    projection_error,
    projection_stability_experiment,
)
from .spectral import Covariance, _condition, cov_from_product, from_spectrum, validate_psd
from .tpca import lift, reconstruction_errors, tangent_pca


def _load_cov(path) -> Covariance:
    a = read_matrix(path)
    try:
        return validate_psd(a)
    except NotPSDError as e:
        raise NotPSDError(e.lambda_min, f"{path}: {e}") from None


def _load_pair(path_a, path_b) -> tuple[Covariance, Covariance]:
    a = _load_cov(path_a)
    b = _load_cov(path_b)
    if a.dim != b.dim:
        raise DimMismatchError(
            f"{path_a} is {a.dim}x{a.dim} but {path_b} is {b.dim}x{b.dim}"
        )
    return a, b


def _load_manifest_family(path) -> tuple[Manifest, list[Covariance]]:
    manifest = read_manifest(path)
    mats = load_family(manifest)
    covs = []
    for name, m in zip(manifest.operators, mats):
        try:
            covs.append(validate_psd(m))
        except NotPSDError as e:
            raise NotPSDError(e.lambda_min, f"{name}: {e}") from None
    return manifest, covs


def _mean_config(args) -> MeanConfig:
    return MeanConfig(max_iter=args.max_iter, rel_tol=args.rel_tol)


def _solver_diagnostics(res, **extra) -> dict:
    return {
        "algorithm": res.algorithm,
        "iterations": res.iterations,
        "converged": res.converged,
        "functional_trace": list(res.functional_trace),
        "residual_trace": list(res.residual_trace),
        "trace_of_iterates": list(res.trace_of_iterates),
        "min_eig_of_iterates": list(res.min_eig_of_iterates),
        **extra,
    }


def _family_inputs(args, manifest: Manifest, **extra) -> dict:
    return {
        "manifest": args.manifest,
        "operators": manifest.operators,
        "labels": manifest.labels,
        **extra,
    }


def _solve_mean(covs, args, algorithm=None):
    """Run the selected solver; on an iteration-cap failure keep the best
    iterate and remember exit code 6."""
    cfg = _mean_config(args)
    algorithm = algorithm or getattr(args, "algorithm", "descent")
    try:
        if algorithm == "gpa":
            return mean_procrustes_averaging(covs, cfg), 0
        return mean_fixed_point(covs, cfg, rank_tol=args.rank_tol), 0
    except MaxIterExceeded as e:
        return e.result, 6


def _write(args, name: str, matrix) -> str:
    """Write one output matrix into ``--output``; returns the path the report names."""
    os.makedirs(args.output, exist_ok=True)
    path = os.path.join(args.output, name)
    write_matrix(path, matrix)
    return path


def _write_family(args, mats) -> str:
    """Write generated members as ``member_NN.txt`` plus their manifest; returns its path."""
    names = [f"member_{i + 1:02d}.txt" for i in range(len(mats))]
    for name, m in zip(names, mats):
        _write(args, name, m)
    path = os.path.join(args.output, "manifest.json")
    write_manifest(path, names)
    return path


def _report(command: str, inputs: dict, results: dict, diagnostics: dict) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "results": results,
        "diagnostics": diagnostics,
        "version": __version__,
    }


def cmd_distance(args):
    a, b = _load_pair(args.a, args.b)
    pi, root_hs, tdist = convergence_equivalence(a, b)
    alignment_distance, u = procrustes_distance_via_alignment(a, b)
    results = {
        "procrustes": pi,
        "procrustes_squared": pi * pi,
        "alignment_distance": alignment_distance,
        "root_hs_distance": root_hs,
        "trace_distance": tdist,
    }
    diagnostics = {
        "dim": a.dim,
        "trace_a": a.trace,
        "trace_b": b.trace,
        "equivalence_constant": equivalence_constant(b),
        "trace_regime": bool(a.trace <= b.trace + 1.0),
        "rotation_orthogonality_gap": float(np.max(np.abs(u.T @ u - np.eye(a.dim)))),
    }
    inputs = {"a": args.a, "b": args.b}
    return _report("distance", inputs, results, diagnostics), 0


def cmd_mean(args):
    manifest, covs = _load_manifest_family(args.manifest)
    res, code = _solve_mean(covs, args)
    results = {
        "mean_file": _write(args, "mean.txt", res.mean.mat),
        "trace": res.mean.trace,
        "functional": float(res.functional_trace[-1]),
        "residual": float(res.residual_trace[-1]),
        "iterations": res.iterations,
        "converged": res.converged,
    }
    diagnostics = _solver_diagnostics(
        res, rel_tol=args.rel_tol, max_iter=args.max_iter, rank_tol=args.rank_tol
    )
    inputs = _family_inputs(args, manifest, algorithm=args.algorithm)
    return _report("mean", inputs, results, diagnostics), code


def cmd_geodesic(args):
    if args.steps < 2:
        raise OutOfRangeError(f"steps={args.steps} must be at least 2")
    a, b = _load_pair(args.a, args.b)
    grid = np.linspace(0.0, 1.0, args.steps)
    direction = log_map(a, b, args.rank_tol)
    points = [exp_map(a, float(t) * direction, args.rank_tol) for t in grid]
    dist = procrustes_distance(a, b)
    speed_table = []
    max_dev = 0.0
    for i in range(len(grid)):
        for j in range(i + 1, len(grid)):
            seg = procrustes_distance(points[i], points[j])
            dev = abs(seg - (grid[j] - grid[i]) * dist)
            speed_table.append([float(grid[i]), float(grid[j]), dev])
            max_dev = max(max_dev, dev)
    ends = (np.abs(points[0].mat - a.mat), np.abs(points[-1].mat - b.mat))
    endpoint_gap = float(max(np.max(e) for e in ends))
    results = {
        "distance": dist,
        "grid": [float(t) for t in grid],
        "points": [p.mat for p in points],
        "speed_table": speed_table,
        "max_speed_deviation": max_dev,
    }
    diagnostics = {"dim": a.dim, "endpoint_gap": endpoint_gap}
    inputs = {"a": args.a, "b": args.b, "steps": args.steps, "rank_tol": args.rank_tol}
    return _report("geodesic", inputs, results, diagnostics), 0


def cmd_pca(args):
    manifest, covs = _load_manifest_family(args.manifest)
    d = covs[0].dim
    k = args.components if args.components is not None else min(len(covs), d * (d + 1) // 2)
    res, code = _solve_mean(covs, args, algorithm="descent")
    lifted = lift(covs, res.mean, args.rank_tol)
    pca = tangent_pca(lifted, res.mean, k)
    results = {
        "mean_file": _write(args, "mean.txt", res.mean.mat),
        "component_files": [
            _write(args, f"component_{i + 1:02d}.txt", comp) for i, comp in enumerate(pca.components)
        ],
        "variances": list(pca.variances),
        "scores": pca.scores if pca.scores.size else [],
        "lifted_mean_norm": pca.lifted_mean_norm,
        "effective_components": len(pca.components),
        "reconstruction_errors": reconstruction_errors(res.mean, pca, covs, args.rank_tol),
    }
    diagnostics = _solver_diagnostics(res, requested_components=k, rank_tol=args.rank_tol)
    return _report("pca", _family_inputs(args, manifest), results, diagnostics), code


def cmd_multicouple(args):
    manifest, covs = _load_manifest_family(args.manifest)
    res, code = _solve_mean(covs, args, algorithm="descent")
    joint = multicoupling(res.mean, covs, args.rank_tol)
    cost = multicoupling_cost(joint)
    functional = float(res.functional_trace[-1])
    full = joint.full()
    block_gap = max(
        float(np.max(np.abs(joint.block(i, i) - covs[i].mat))) for i in range(joint.n)
    )
    results = {
        "joint_file": _write(args, "multicoupling.txt", full),
        "cost": cost,
        "functional": functional,
        "cost_functional_gap": abs(cost - functional),
        "members": joint.n,
        "block_dim": joint.dim,
    }
    diagnostics = _solver_diagnostics(
        res,
        min_eigenvalue=joint.min_eigenvalue(),
        diagonal_block_gap=block_gap,
        map_conditioning=[
            _condition(np.linalg.eigvalsh(optimal_map(res.mean, c, args.rank_tol))[::-1]) for c in covs
        ],
        rank_tol=args.rank_tol,
    )
    return _report("multicouple", _family_inputs(args, manifest), results, diagnostics), code


def _random_template(dim: int, seed: int) -> Covariance:
    gen = RngSpec(seed, "template").generator()
    q, _ = np.linalg.qr(gen.standard_normal((dim, dim)))
    evals = gen.uniform(0.5, 2.0, size=dim)
    return cov_from_product(from_spectrum(q, evals))


def cmd_simulate_deform(args):
    if args.template is not None:
        template = _load_cov(args.template)
    else:
        template = _random_template(args.dim, args.seed)
    fam = deformation_family(template, args.count, args.eps, RngSpec(args.seed, "deform"))
    res, code = _solve_mean(fam.deformed, args, algorithm="descent")
    avg_map = sum(fam.maps) / len(fam.maps)
    results = {
        "template_file": _write(args, "template.txt", template.mat),
        "manifest_file": _write_family(args, [m.mat for m in fam.deformed]),
        "recovered_file": _write(args, "recovered.txt", res.mean.mat),
        "members": args.count,
        "eps": args.eps,
        "recovery_distance": procrustes_distance(res.mean, template),
        "residual_at_template": fixed_point_residual(template, fam.deformed),
    }
    diagnostics = _solver_diagnostics(
        res,
        map_identity_gap=float(np.max(np.abs(avg_map - np.eye(template.dim)))),
        template_trace=template.trace,
        seed=args.seed,
    )
    inputs = {
        "template": args.template,
        "dim": template.dim,
        "count": args.count,
        "eps": args.eps,
        "seed": args.seed,
    }
    return _report("simulate.deform", inputs, results, diagnostics), code


def _parse_ranks(text: str, d: int) -> list[int]:
    if text == "all":
        return list(range(1, d + 1))
    try:
        ranks = [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise OutOfRangeError(f"cannot parse ranks {text!r}") from None
    if not ranks:
        raise OutOfRangeError("ranks list is empty")
    return ranks


def cmd_simulate_project(args):
    if (args.input is None) == (args.manifest is None):
        raise OutOfRangeError("provide either a matrix file or --manifest, not both")
    if args.manifest is not None:
        manifest, covs = _load_manifest_family(args.manifest)
        ranks = _parse_ranks(args.ranks, covs[0].dim)
        outcome = projection_stability_experiment(
            covs, ranks, basis=args.basis, cfg=_mean_config(args)
        )
        inputs = {
            "manifest": args.manifest,
            "operators": manifest.operators,
            "basis": args.basis,
            "ranks": ranks,
        }
        diagnostics = {"rel_tol": args.rel_tol, "max_iter": args.max_iter}
        return _report("simulate.project", inputs, outcome, diagnostics), 0
    c = _load_cov(args.input)
    ranks = _parse_ranks(args.ranks, c.dim)
    errors = []
    squared = []
    for r in ranks:
        err = projection_error(c, r, basis=args.basis)
        compressed = project(c, r, basis=args.basis)
        pi2 = procrustes_distance(c, compressed) ** 2
        errors.append(err)
        squared.append(pi2)
    results = {
        "ranks": ranks,
        "projection_error": errors,
        "squared_distance": squared,
        "max_identity_gap": max(abs(e - p) for e, p in zip(errors, squared)),
    }
    inputs = {"input": args.input, "basis": args.basis, "ranks": ranks}
    return _report("simulate.project", inputs, results, {"dim": c.dim, "trace": c.trace}), 0


def cmd_simulate_counterexample(args):
    mean, s1, s2, thresholds = counterexample_family(args.blocks, args.ratio, args.b0)
    res, code = _solve_mean([s1, s2], args, algorithm="descent")
    results = {
        "mean_file": _write(args, "mean.txt", mean.mat),
        "manifest_file": _write_family(args, [s1.mat, s2.mat]),
        "dim": mean.dim,
        "thresholds": list(thresholds),
        "min_threshold": float(np.min(thresholds)),
        "recovery_distance": procrustes_distance(res.mean, mean),
    }
    diagnostics = _solver_diagnostics(
        res, mean_eigenvalues=list(mean.spectrum.values), rel_tol=args.rel_tol, max_iter=args.max_iter
    )
    inputs = {"blocks": args.blocks, "ratio": args.ratio, "b0": args.b0}
    return _report("simulate.counterexample", inputs, results, diagnostics), code


def cmd_simulate_moments(args):
    c = _load_cov(args.input)
    outcome = fourth_moment_check(c, args.samples, RngSpec(args.seed, "moments"))
    inputs = {"input": args.input, "samples": args.samples, "seed": args.seed}
    return _report("simulate.moments", inputs, outcome, {"dim": c.dim, "trace": c.trace}), 0


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rel-tol", type=float, default=1e-9, help="relative convergence tolerance")
    p.add_argument("--max-iter", type=int, default=200, help="iteration cap")


def _add_rank_tol(p: argparse.ArgumentParser) -> argparse.Action:
    return p.add_argument(
        "--rank-tol",
        type=float,
        default=None,
        help="relative eigenvalue cutoff for numerical rank (default dim * eps)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bwgeom",
        description="Geometry of covariance matrices under the Bures-Wasserstein metric.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("distance", help="Procrustes distance between two covariance files")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(handler=cmd_distance)

    p = sub.add_parser("mean", help="Frechet mean of a manifest of covariances")
    p.add_argument("manifest")
    p.add_argument(
        "--algorithm",
        choices=["descent", "gpa"],
        default="descent",
        help="transport-map descent or generalized Procrustes averaging",
    )
    _add_solver_flags(p)
    _add_rank_tol(p).help += "; --algorithm gpa ignores it"
    p.add_argument("--output", default=".", help="directory for mean.txt")
    p.set_defaults(handler=cmd_mean)

    p = sub.add_parser("geodesic", help="points along the geodesic between two covariances")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--steps", type=int, default=5, help="number of grid points (>= 2)")
    _add_rank_tol(p)
    p.set_defaults(handler=cmd_geodesic)

    p = sub.add_parser("pca", help="tangent PCA of a manifest at its Frechet mean")
    p.add_argument("manifest")
    p.add_argument("--components", "-k", type=int, default=None, help="number of components")
    _add_solver_flags(p)
    _add_rank_tol(p)
    p.add_argument("--output", default=".", help="directory for component files")
    p.set_defaults(handler=cmd_pca)

    p = sub.add_parser("multicouple", help="optimal multicoupling covariance of a manifest")
    p.add_argument("manifest")
    _add_solver_flags(p)
    _add_rank_tol(p)
    p.add_argument("--output", default=".", help="directory for the joint matrix")
    p.set_defaults(handler=cmd_multicouple)

    p = sub.add_parser("simulate", help="generative and stability experiments")
    sim = p.add_subparsers(dest="subcommand", required=True)

    q = sim.add_parser("deform", help="identity-mean deformations of a template covariance")
    q.add_argument("--template", default=None, help="template matrix file (default: generated)")
    q.add_argument("--dim", type=int, default=4, help="dimension of the generated template")
    q.add_argument("--count", type=int, default=5, help="family size")
    q.add_argument("--eps", type=float, default=0.3, help="largest deformation operator norm")
    q.add_argument("--seed", type=int, default=0)
    _add_solver_flags(q)
    _add_rank_tol(q)
    q.add_argument("--output", default=".", help="directory for the generated family")
    q.set_defaults(handler=cmd_simulate_deform)

    q = sim.add_parser("project", help="rank-r compression errors or family stability sweep")
    q.add_argument("input", nargs="?", default=None, help="matrix file for the error curve")
    q.add_argument("--manifest", default=None, help="manifest for the family stability sweep")
    q.add_argument("--ranks", default="all", help="comma-separated ranks (default all)")
    q.add_argument("--basis", choices=["standard", "eigen"], default="standard")
    _add_solver_flags(q)
    q.set_defaults(handler=cmd_simulate_project)

    q = sim.add_parser("counterexample", help="two-member family with vanishing domination thresholds")
    q.add_argument("--blocks", type=int, default=3, help="number of paired blocks")
    q.add_argument("--ratio", type=float, default=6.0, help="eigenvalue decay ratio (> 5)")
    q.add_argument("--b0", type=float, default=0.5, help="leading mixing weight in (0, 1]")
    _add_solver_flags(q)
    _add_rank_tol(q)
    q.add_argument("--output", default=".", help="directory for the generated family")
    q.set_defaults(handler=cmd_simulate_counterexample)

    q = sim.add_parser("moments", help="Monte Carlo fourth-moment identity check")
    q.add_argument("input", help="covariance matrix file")
    q.add_argument("--samples", type=int, default=100_000)
    q.add_argument("--seed", type=int, default=0)
    q.set_defaults(handler=cmd_simulate_moments)

    return parser


# Exit code of each error a command may raise; any other error propagates.
_EXIT_CODES = {
    MatrixParseError: 2,
    OutOfRangeError: 2,
    EmptyFamilyError: 2,
    DegenerateError: 2,
    NonFiniteError: 2,
    LeavesConeError: 2,
    DimMismatchError: 3,
    NotPSDError: 4,
    KernelConditionError: 5,
    MaxIterExceeded: 6,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report, code = args.handler(args)
    except tuple(_EXIT_CODES) as e:
        sys.stderr.write(f"error: {e}\n")
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(e, kind))
    sys.stdout.write(render_report(report))
    if code == 6:
        sys.stderr.write("warning: iteration cap reached; result did not converge\n")
    return code


def run() -> None:
    sys.exit(main())
