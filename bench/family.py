"""Seeded deformation families, generated without the program under test.

A family is ``S_i = T_i S T_i`` with ``T_i = I + A_i``: the ``A_i`` are centred
symmetric draws rescaled so that ``max_i ||A_i||_op = EPS``.  Because the maps
average to the identity and are positive definite (``EPS < 1``), the exact
Frechet mean of the family is the template ``S`` (Alvarez-Esteban et al. 2016;
Zemel & Panaretos 2019).  The checks compare against that template.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

EPS = 0.3


@dataclass(frozen=True)
class Family:
    """Generated family plus the files the program reads."""

    template: np.ndarray
    members: list[np.ndarray]
    manifest: str
    member_files: list[str]


def _sym(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.T)


def make_family(dim: int, count: int, seed: int, index: int):
    """Template and members, with the template's eigenvalues in [0.5, 2].

    ``index`` tells apart the families one seed makes for one workload.
    """
    gen = np.random.default_rng([seed, dim, count, index])
    q, _ = np.linalg.qr(gen.standard_normal((dim, dim)))
    template = _sym((q * gen.uniform(0.5, 2.0, size=dim)) @ q.T)
    draws = [_sym(gen.uniform(-1.0, 1.0, size=(dim, dim))) for _ in range(count)]
    gbar = sum(draws) / count
    centred = [g - gbar for g in draws]
    scale = max(float(np.max(np.abs(np.linalg.eigvalsh(a)))) for a in centred)
    maps = [np.eye(dim) + (EPS / scale) * a for a in centred]
    return template, [_sym(t @ template @ t) for t in maps]


def write_matrix_file(path: str, a: np.ndarray) -> None:
    """Comma-separated rows with 17 significant digits (exact round trip)."""
    with open(path, "w", encoding="utf-8") as f:
        for row in a:
            f.write(",".join(format(float(x), ".17g") for x in row) + "\n")


def read_matrix_file(path: str) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=2)


def write_family(directory: str, dim: int, count: int, seed: int, index: int) -> Family:
    """Generate a family and write its member files and manifest."""
    os.makedirs(directory, exist_ok=True)
    template, members = make_family(dim, count, seed, index)
    names = [f"member_{i + 1:03d}.txt" for i in range(count)]
    for name, m in zip(names, members):
        write_matrix_file(os.path.join(directory, name), m)
    manifest = os.path.join(directory, "manifest.json")
    with open(manifest, "w", encoding="utf-8") as f:
        json.dump({"operators": names}, f)
    return Family(
        template=template,
        members=members,
        manifest=manifest,
        member_files=[os.path.join(directory, n) for n in names],
    )
