"""Command-line interface.

Every command reads plain-text matrix files (comma-separated rows, ``#``
comments) or a JSON manifest listing such files, prints one deterministic
report document on stdout, and writes any output matrices atomically.  The
same command line with the same files and seed produces byte-identical
output.

``main`` runs every command in five phases.  Load: the command's ``load_*``
reads and validates its inputs and checks its flags against them.  Solve: a
command declared with ``solve`` gets the Frechet mean of the family its load
returned first.  Compute: the ``cmd_*`` handler returns its results, its own
diagnostics and the files to write, and writes nothing.  Write: ``main``
writes the files into ``--output`` and puts their paths into the results.
Render: ``main`` renders the report and picks the exit status.

A ``BwGeomError`` exits with its ``exit_code``: 2 unusable input (parse
errors, out-of-range values, empty families, degenerate requests, a geodesic
step off the PSD cone, an unwritable ``--output``); 3 dimension mismatch; 4
not positive semidefinite; 5 kernel condition violated (no transport map).
Exit 6 is returned exactly when the report says ``converged: false``: the
iteration cap was reached, and the best iterate is still written.
"""

from __future__ import annotations

import argparse
import functools
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
from .bures import optimal_map, pairwise_distances, transport_matrix
from .bures import procrustes_distance, procrustes_distance_via_alignment
from .errors import BwGeomError, MatrixParseError, MaxIterExceeded, NotPSDError, OutOfRangeError
from .geometry import geodesic
from .io import read_manifest, read_matrix, render_report, write_manifest, write_matrices, write_matrix
from .simulate import (
    RngSpec,
    checked_ranks,
    convergence_equivalence,
    counterexample_family,
    deformation_family,
    equivalence_constant,
    fourth_moment_check,
    project,
    projection_error,
    projection_stability_experiment,
)
from .spectral import Covariance, Family, _condition, cov_from_product, from_spectrum, member_sum, validate_psd
from .tpca import reconstruction_errors, tangent_pca


def _validated(names, mats) -> Family:
    """``validate_psd`` of an (n, d, d) stack, naming the entry of the first that fails."""
    try:
        return validate_psd(mats)
    except NotPSDError as e:
        raise NotPSDError(e.lambda_min, f"{names[e.index]}: {e}") from None


def _load_matrices(*paths) -> Family:
    """Read and validate matrix files named on the command line, as one family."""
    return _validated(paths, read_matrix(list(paths)))


def _load_manifest(args) -> tuple[dict, Family]:
    """Read and validate the family of ``--manifest``; returns the inputs it reports and the members."""
    manifest = read_manifest(args.manifest)
    inputs = {"manifest": args.manifest, "operators": manifest.operators, "labels": manifest.labels}
    return inputs, _validated(manifest.operators, read_matrix(manifest.resolved))


def _solve_mean(covs, args):
    """Run ``--algorithm`` (the descent where a command has no such flag); on
    an iteration-cap failure return the best iterate, whose ``converged`` is
    false."""
    solver = mean_procrustes_averaging if getattr(args, "algorithm", "descent") == "gpa" else mean_fixed_point
    try:
        return solver(covs, MeanConfig(max_iter=args.max_iter, rel_tol=args.rel_tol), args.rank_tol)
    except MaxIterExceeded as e:
        return e.result


def _solver_diagnostics(res) -> dict:
    return {
        "algorithm": res.algorithm,
        "iterations": res.iterations,
        "converged": res.converged,
        "functional_trace": list(res.functional_trace),
        "residual_trace": list(res.residual_trace),
        "trace_of_iterates": list(res.trace_of_iterates),
        "min_eig_of_iterates": list(res.min_eig_of_iterates),
    }


def _family_files(mats) -> dict:
    """Generated members as ``member_NN.txt`` files plus the ``manifest.json`` that lists them."""
    names = [f"member_{i + 1:02d}.txt" for i in range(len(mats))]
    return {**dict(zip(names, mats)), "manifest.json": names}


def _write(output: str, files: dict, results: dict) -> None:
    """The write phase: write ``files`` (file name -> matrix or joint covariance, or a manifest's
    name -> the member files it lists) into ``output``, two or more arrays as one stack, and turn the
    file names of the ``*_file`` and ``*_files`` results into paths.  An output that cannot be
    written is a ``MatrixParseError``."""
    try:
        os.makedirs(output, exist_ok=True)
    except OSError as e:
        raise MatrixParseError(output, str(e)) from e
    arrays = {name: content for name, content in files.items() if isinstance(content, np.ndarray)}
    if len(arrays) > 1:
        write_matrices([os.path.join(output, name) for name in arrays], np.stack(list(arrays.values())))
        files = {name: content for name, content in files.items() if name not in arrays}
    for name, content in files.items():
        path = os.path.join(output, name)
        if isinstance(content, list):
            write_manifest(path, content)
        else:
            write_matrix(path, content)
    for key, value in results.items():
        if key.endswith("_file"):
            results[key] = os.path.join(output, value)
        elif key.endswith("_files"):
            results[key] = [os.path.join(output, v) for v in value]


def load_distance(args):
    return {"a": args.a, "b": args.b}, *_load_matrices(args.a, args.b)


def cmd_distance(args, a, b):
    """Procrustes distance between two covariance files"""
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
    return results, diagnostics, {}


def load_mean(args):
    inputs, covs = _load_manifest(args)
    return {**inputs, "algorithm": args.algorithm}, covs


def cmd_mean(args, covs, res):
    """Frechet mean of a manifest of covariances"""
    results = {
        "mean_file": "mean.txt",
        "trace": res.mean.trace,
        "functional": float(res.functional_trace[-1]),
        "residual": float(res.residual_trace[-1]),
        "iterations": res.iterations,
        "converged": res.converged,
    }
    diagnostics = {"rel_tol": args.rel_tol, "max_iter": args.max_iter, "rank_tol": args.rank_tol}
    return results, diagnostics, {"mean.txt": res.mean.mat}


def load_geodesic(args):
    if args.steps < 2:
        raise OutOfRangeError(f"steps={args.steps} must be at least 2")
    inputs = {"a": args.a, "b": args.b, "steps": args.steps, "rank_tol": args.rank_tol}
    return inputs, *_load_matrices(args.a, args.b)


def cmd_geodesic(args, a, b):
    """points along the geodesic between two covariances"""
    grid = np.linspace(0.0, 1.0, args.steps)
    points = geodesic(a, b, grid, args.rank_tol)
    dist = procrustes_distance(a, b)
    pairs = pairwise_distances(points)
    (i, j), seg = np.array(list(pairs)).T, np.fromiter(pairs.values(), np.float64)
    speed_table = np.stack([grid[i], grid[j], np.abs(seg - (grid[j] - grid[i]) * dist)], axis=1)
    endpoint_gap = float(max(np.max(np.abs(points[0].mat - a.mat)), np.max(np.abs(points[-1].mat - b.mat))))
    results = {
        "distance": dist,
        "grid": [float(t) for t in grid],
        "points": points.mats,
        "speed_table": speed_table,
        "max_speed_deviation": float(np.max(speed_table[:, 2])),
    }
    return results, {"dim": a.dim, "endpoint_gap": endpoint_gap}, {}


def load_pca(args):
    inputs, covs = _load_manifest(args)
    d = covs[0].dim
    cap = min(len(covs), d * (d + 1) // 2)
    k = cap if args.components is None else args.components
    if not 1 <= k <= cap:
        raise OutOfRangeError(f"component count k={k} outside 1..{cap}")
    return inputs, covs, k


def cmd_pca(args, covs, k, res):
    """tangent PCA of a manifest at its Frechet mean"""
    lifted = transport_matrix(res.mean, res.product_roots, args.rank_tol) - np.eye(res.mean.dim)
    pca = tangent_pca(lifted, res.mean, k)
    components = {f"component_{i + 1:02d}.txt": comp for i, comp in enumerate(pca.components)}
    results = {
        "mean_file": "mean.txt",
        "component_files": list(components),
        "variances": list(pca.variances),
        "scores": pca.scores if pca.scores.size else [],
        "lifted_mean_norm": pca.lifted_mean_norm,
        "effective_components": len(pca.components),
        "reconstruction_errors": reconstruction_errors(res.mean, pca, covs, args.rank_tol),
    }
    diagnostics = {"requested_components": k, "rank_tol": args.rank_tol}
    return results, diagnostics, {"mean.txt": res.mean.mat, **components}


def cmd_multicouple(args, covs, res):
    """optimal multicoupling covariance of a manifest"""
    joint = multicoupling(res.mean, covs, args.rank_tol)
    cost = multicoupling_cost(joint)
    functional = float(res.functional_trace[-1])
    block_gap = float(np.max(np.abs(joint.maps @ joint.mean.mat @ joint.maps - covs.mats)))
    maps = np.stack([optimal_map(res.mean, c, args.rank_tol) for c in covs])
    results = {
        "joint_file": "multicoupling.txt",
        "cost": cost,
        "functional": functional,
        "cost_functional_gap": abs(cost - functional),
        "members": joint.n,
        "block_dim": joint.dim,
    }
    diagnostics = {
        "min_eigenvalue": joint.min_eigenvalue(),
        "diagonal_block_gap": block_gap,
        "map_conditioning": [_condition(v[::-1]) for v in np.linalg.eigvalsh(maps)],
        "rank_tol": args.rank_tol,
    }
    return results, diagnostics, {"multicoupling.txt": joint}


def _random_template(dim: int, seed: int) -> Covariance:
    gen = RngSpec(seed, "template").generator()
    q, _ = np.linalg.qr(gen.standard_normal((dim, dim)))
    evals = gen.uniform(0.5, 2.0, size=dim)
    return cov_from_product(from_spectrum(q, evals))


def load_deform(args):
    if args.template is not None:
        [template] = _load_matrices(args.template)
    elif args.dim < 1:
        raise OutOfRangeError(f"dim={args.dim} must be at least 1")
    else:
        template = _random_template(args.dim, args.seed)
    fam = deformation_family(template, args.count, args.eps, RngSpec(args.seed, "deform"))
    inputs = {
        "template": args.template,
        "dim": template.dim,
        "count": args.count,
        "eps": args.eps,
        "seed": args.seed,
    }
    return inputs, fam.deformed, template, fam.maps


def cmd_simulate_deform(args, family, template, maps, res):
    """identity-mean deformations of a template covariance"""
    results = {
        "template_file": "template.txt",
        "manifest_file": "manifest.json",
        "recovered_file": "recovered.txt",
        "members": args.count,
        "eps": args.eps,
        "recovery_distance": procrustes_distance(res.mean, template),
        "residual_at_template": fixed_point_residual(template, family),
    }
    diagnostics = {
        "map_identity_gap": float(np.max(np.abs(member_sum(maps) / len(maps) - np.eye(template.dim)))),
        "template_trace": template.trace,
        "seed": args.seed,
    }
    family_files = _family_files(family.mats)
    return results, diagnostics, {"template.txt": template.mat, **family_files, "recovered.txt": res.mean.mat}


def _parse_ranks(text: str, d: int) -> list[int]:
    if text == "all":
        return list(range(1, d + 1))
    try:
        ranks = [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise OutOfRangeError(f"cannot parse ranks {text!r}") from None
    return checked_ranks(ranks, d)


def load_project(args):
    if (args.input is None) == (args.manifest is None):
        raise OutOfRangeError("provide exactly one of a matrix file and --manifest")
    if args.manifest is None:
        inputs, covs = {"input": args.input}, _load_matrices(args.input)
    else:
        inputs, covs = _load_manifest(args)
        del inputs["labels"]
    ranks = _parse_ranks(args.ranks, covs[0].dim)
    return {**inputs, "basis": args.basis, "ranks": ranks}, covs, ranks


def cmd_simulate_project(args, covs, ranks):
    """rank-r compression errors or family stability sweep"""
    if args.manifest is not None:
        outcome = projection_stability_experiment(
            covs, ranks, basis=args.basis, cfg=MeanConfig(max_iter=args.max_iter, rel_tol=args.rel_tol)
        )
        return outcome, {"rel_tol": args.rel_tol, "max_iter": args.max_iter}, {}
    [c] = covs
    errors = [projection_error(c, r, basis=args.basis) for r in ranks]
    squared = [procrustes_distance(c, project(c, r, basis=args.basis)) ** 2 for r in ranks]
    results = {
        "ranks": ranks,
        "projection_error": errors,
        "squared_distance": squared,
        "max_identity_gap": max(abs(e - p) for e, p in zip(errors, squared)),
    }
    return results, {"dim": c.dim, "trace": c.trace}, {}


def load_counterexample(args):
    mean, s1, s2, thresholds = counterexample_family(args.blocks, args.ratio, args.b0)
    return {"blocks": args.blocks, "ratio": args.ratio, "b0": args.b0}, [s1, s2], mean, thresholds


def cmd_simulate_counterexample(args, family, mean, thresholds, res):
    """two-member family with vanishing domination thresholds"""
    results = {
        "mean_file": "mean.txt",
        "manifest_file": "manifest.json",
        "dim": mean.dim,
        "thresholds": list(thresholds),
        "min_threshold": float(np.min(thresholds)),
        "recovery_distance": procrustes_distance(res.mean, mean),
    }
    diagnostics = {
        "mean_eigenvalues": list(mean.spectrum.values),
        "rel_tol": args.rel_tol,
        "max_iter": args.max_iter,
    }
    return results, diagnostics, {"mean.txt": mean.mat, **_family_files([c.mat for c in family])}


def load_moments(args):
    return {"input": args.input, "samples": args.samples, "seed": args.seed}, *_load_matrices(args.input)


def cmd_simulate_moments(args, c):
    """Monte Carlo fourth-moment identity check"""
    outcome = fourth_moment_check(c, args.samples, RngSpec(args.seed, "moments"))
    return outcome, {"dim": c.dim, "trace": c.trace}, {}


def _command(sub, name: str, load, handler, solve=False, solver_flags=False, rank_tol=False, output=None):
    """Declare the subcommand ``name``, whose help is its handler's docstring: ``main``
    runs ``load``, then with ``solve`` the mean solve, then ``handler``.  ``solve`` and
    ``solver_flags`` add --rel-tol and --max-iter, ``solve`` and ``rank_tol`` add --rank-tol, and
    ``output``, the help of --output, adds that flag."""
    p = sub.add_parser(name, help=handler.__doc__)
    p.set_defaults(load=load, handler=handler, solve=solve)
    if solve or solver_flags:
        p.add_argument("--rel-tol", type=float, default=MeanConfig.rel_tol, help="relative convergence tolerance")
        p.add_argument("--max-iter", type=int, default=MeanConfig.max_iter, help="iteration cap")
    if solve or rank_tol:
        p.add_argument(
            "--rank-tol",
            type=float,
            default=None,
            help="relative eigenvalue cutoff for numerical rank (default dim * eps)",
        )
    if output is not None:
        p.add_argument("--output", default=".", help=output)
    return p


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every later one:
    each subcommand's ``load`` and ``handler`` defaults are bound at that first build."""
    parser = argparse.ArgumentParser(
        prog="bwgeom",
        description="Geometry of covariance matrices under the Bures-Wasserstein metric.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "distance", load_distance, cmd_distance)
    p.add_argument("a")
    p.add_argument("b")

    p = _command(sub, "mean", load_mean, cmd_mean, solve=True, output="directory for mean.txt")
    p.add_argument("manifest")
    p.add_argument(
        "--algorithm",
        choices=["descent", "gpa"],
        default="descent",
        help="transport-map descent or generalized Procrustes averaging",
    )

    p = _command(sub, "geodesic", load_geodesic, cmd_geodesic, rank_tol=True)
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--steps", type=int, default=5, help="number of grid points (>= 2)")

    p = _command(sub, "pca", load_pca, cmd_pca, solve=True, output="directory for component files")
    p.add_argument("manifest")
    p.add_argument("--components", "-k", type=int, default=None, help="number of components")

    p = _command(
        sub, "multicouple", _load_manifest, cmd_multicouple, solve=True, output="directory for the joint matrix"
    )
    p.add_argument("manifest")

    p = sub.add_parser("simulate", help="generative and stability experiments")
    sim = p.add_subparsers(dest="subcommand", required=True)

    q = _command(
        sim, "deform", load_deform, cmd_simulate_deform, solve=True, output="directory for the generated family"
    )
    q.add_argument("--template", default=None, help="template matrix file (default: generated)")
    q.add_argument("--dim", type=int, default=4, help="dimension of the generated template")
    q.add_argument("--count", type=int, default=5, help="family size")
    q.add_argument("--eps", type=float, default=0.3, help="largest deformation operator norm")
    q.add_argument("--seed", type=int, default=0)

    q = _command(sim, "project", load_project, cmd_simulate_project, solver_flags=True)
    q.add_argument("input", nargs="?", default=None, help="matrix file for the error curve")
    q.add_argument("--manifest", default=None, help="manifest for the family stability sweep")
    q.add_argument("--ranks", default="all", help="comma-separated ranks (default all)")
    q.add_argument("--basis", choices=["standard", "eigen"], default="standard")

    q = _command(
        sim,
        "counterexample",
        load_counterexample,
        cmd_simulate_counterexample,
        solve=True,
        output="directory for the generated family",
    )
    q.add_argument("--blocks", type=int, default=3, help="number of paired blocks")
    q.add_argument("--ratio", type=float, default=6.0, help="eigenvalue decay ratio (> 5)")
    q.add_argument("--b0", type=float, default=0.5, help="leading mixing weight in (0, 1]")

    q = _command(sim, "moments", load_moments, cmd_simulate_moments)
    q.add_argument("input", help="covariance matrix file")
    q.add_argument("--samples", type=int, default=100_000)
    q.add_argument("--seed", type=int, default=0)

    return parser


def main(argv=None) -> int:
    """Run one command through its phases: the report goes to stdout, an error
    or the iteration-cap warning to stderr, and the exit status is returned.
    Errors other than ``BwGeomError`` propagate."""
    args = build_parser().parse_args(argv)
    try:
        inputs, *loaded = args.load(args)
        if args.solve:
            loaded.append(_solve_mean(loaded[0], args))
        results, diagnostics, files = args.handler(args, *loaded)
        if args.solve:
            diagnostics = {**_solver_diagnostics(loaded[-1]), **diagnostics}
        if files:
            _write(args.output, files, results)
    except BwGeomError as e:
        sys.stderr.write(f"error: {e}\n")
        return e.exit_code
    # Nothing computed outlives the write phase but what the report holds.
    del loaded, files
    command = ".".join(filter(None, (args.command, getattr(args, "subcommand", None))))
    report = dict(command=command, inputs=inputs, results=results, diagnostics=diagnostics, version=__version__)
    sys.stdout.write(render_report(report))
    if diagnostics.get("converged") is False:
        sys.stderr.write("warning: iteration cap reached; result did not converge\n")
        return 6
    return 0


def run() -> None:
    sys.exit(main())
