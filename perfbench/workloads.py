"""Workload configs, output checks and trace predictions of the benchmark.

Each workload is one ``hfbgas.cli.run`` config.  The benchmark writes its
``--seed`` into ``cfg["seed"]``; only ``fock_verify`` draws random numbers
from it (symplectic blocks and Wick samples).  The three grid workloads are
deterministic, so every seed must reproduce the same reference values.
See README.md for why each workload was chosen.
"""

from __future__ import annotations

import copy
import math

import tracer

WORKLOADS = {
    # Interacting N-sweep of acceptance criterion 7: the dense RK4 oracle
    # and the interaction convolution do the work, the mode stepper idles.
    "sweep_dense_1d": {
        "mode": "closeness_sweep",
        "grid": {"dim": 1, "points_per_axis": 128, "box_half_length": 16.0},
        "trap": {"exponent_s": 1.0, "prefactor": 1.0},
        "interaction": {"shape": "gaussian", "v0": 1.0, "sigma": 1.0},
        "thermal": {"n_total": 200.0, "lambda_over_tc": 0.5, "mode_count": 60,
                    "discard_tol": 2e-2},
        "integrator": {"dt": 2e-3, "t_end": 1.0, "frames": 6, "method": "dense"},
        "sweep": {"n_values": [200, 400, 800]},
    },
    # Standard 1d instance on the mode (Strang) path: batched-FFT mode
    # contraction on a small grid, dense path idle.
    "modes_1d": {
        "mode": "hfb_run",
        "grid": {"dim": 1, "points_per_axis": 32, "box_half_length": 8.0},
        "trap": {"exponent_s": 2.0, "prefactor": 1.0},
        "interaction": {"shape": "gaussian", "v0": 1.0, "sigma": 1.0},
        "thermal": {"n_total": 100.0, "temperature": 0.3, "target_excited": 5.0,
                    "mode_count": 30},
        "integrator": {"dt": 1e-3, "t_end": 0.5, "frames": 11, "method": "modes"},
    },
    # 3d mode run: m^2 FFTs per RHS stage and the block Lanczos eigensolve.
    "modes_3d": {
        "mode": "hfb_run",
        "grid": {"dim": 3, "points_per_axis": 16, "box_half_length": 6.0},
        "trap": {"exponent_s": 2.0, "prefactor": 1.0},
        "interaction": {"shape": "gaussian", "v0": 1.0, "sigma": 1.0},
        "thermal": {"n_total": 100.0, "temperature": 0.2, "target_excited": 0.5,
                    "mode_count": 20, "discard_tol": 1e-2},
        "integrator": {"dt": 5e-3, "t_end": 0.02, "frames": 3, "method": "modes"},
    },
    # Truncated doubled Fock space: sparse generator assembly and the
    # number-commutator check, no grid work.
    "fock_verify": {
        "mode": "fock_verify",
        "fock": {"m_modes": 3, "n_max": 8, "n_seeds": 5, "cutoff_level": 11},
    },
}

# Relative tolerance for values that must reproduce the reference snapshot.
REL_TOL = 1e-9
# Conservation limits of an hfb_run (tighter than the acceptance gate's 1e-6).
NUMBER_DRIFT_MAX = 1e-10
ENERGY_DRIFT_MAX = 1e-6

# Functions whose calls the trace must see on a workload.  Every other
# traced function except the cli.run root is predicted idle and must read
# zero calls.  An idle function that reads non-zero, or a busy one that reads
# zero, means a wrapper missed a re-binding or the workload no longer
# exercises the layer it was chosen for.
_FOCK = ["fock.assemble_generator", "fock.verify_commutator_identity",
         "fock.build_quasifree", "fock.build_operators"]
_GRID = ["grid.lowest_eigenpairs", "thermal.build_thermal_pdm",
         "thermal.bose_weight", "hartree.minimize_hartree",
         "hartree.hartree_energy", "hartree.InteractionSpec.convolve",
         "cli.write_csv", "cli.write_json"]
_MODES = _GRID + ["hfb.step_modes", "hfb.particle_number", "hfb.hfb_energy",
                  "diagnostics.alpha_hs_norm", "diagnostics.sup_kernel"]
BUSY = {
    # hfb.particle_number and hfb.hfb_energy stay idle on the sweep: it
    # reports closeness ratios, not number or energy
    "sweep_dense_1d": _GRID + ["hfb.step_dense", "hfb.free_conjugate",
                               "hartree.propagate_hartree",
                               "diagnostics.compare_to_references",
                               "diagnostics.trace_distance",
                               "diagnostics.positivity_margin",
                               "diagnostics.alpha_hs_norm",
                               "diagnostics.sup_kernel"],
    "modes_1d": _MODES,
    "modes_3d": _MODES,
    "fock_verify": _FOCK + ["cli.write_csv", "cli.write_json"],
}
# Share of cli.run that the wrapped child spans must cover.
MIN_COVERAGE = 0.8


def config(name: str, seed: int) -> dict:
    """The cli.run config of workload ``name`` with ``seed`` written in."""
    cfg = copy.deepcopy(WORKLOADS[name])
    cfg["seed"] = seed
    return cfg


def _close(a, b) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def reference_values(summary: dict) -> dict:
    """The part of a summary.json that must match the reference snapshot."""
    if "all_passed" in summary:
        return {"identities": [r["identity"] for r in summary["reports"]]}
    if "rows" in summary:
        return {"rows": summary["rows"]}
    return {"number_initial": summary["number_initial"],
            "energy_initial": summary["energy_initial"]}


def check_summary(summary: dict, reference: dict) -> list:
    """Problems found in one run's summary.json; empty when it is correct."""
    problems = []
    if "all_passed" in summary:
        if summary["all_passed"] is not True:
            problems.append("fock: all_passed is not true")
        got = reference_values(summary)["identities"]
        if got != reference["identities"]:
            problems.append(f"fock: identities {got} != reference")
    elif "rows" in summary:
        if summary["slope_flag"] is not True:
            problems.append("sweep: slope_flag is not true")
        rows, ref_rows = summary["rows"], reference["rows"]
        if len(rows) != len(ref_rows):
            problems.append(f"sweep: {len(rows)} rows, reference has {len(ref_rows)}")
        for row, ref in zip(rows, ref_rows):
            for key, want in ref.items():
                if not _close(row[key], want):
                    problems.append(f"sweep: N={ref['N']} {key} {row[key]!r} != {want!r}")
    else:
        for key in ("number_initial", "energy_initial"):
            if not _close(summary[key], reference[key]):
                problems.append(f"hfb: {key} {summary[key]!r} != {reference[key]!r}")
        if not summary["number_rel_drift"] <= NUMBER_DRIFT_MAX:
            problems.append(f"hfb: number_rel_drift {summary['number_rel_drift']!r}")
        if not summary["energy_rel_drift"] <= ENERGY_DRIFT_MAX:
            problems.append(f"hfb: energy_rel_drift {summary['energy_rel_drift']!r}")
    return problems


def idle(name: str) -> list:
    """The traced functions that must not be called on workload ``name``."""
    spans = [tracer.span_name(m, a) for m, a in tracer.LAYERS]
    return [s for s in spans if s != tracer.ROOT_SPAN and s not in BUSY[name]]


def check_predictions(name: str, calls: dict, coverage: float) -> list:
    """Problems with a traced run's call counts and cli.run coverage."""
    busy = BUSY[name]
    problems = [f"{fn}: predicted busy, 0 calls"
                for fn in busy if calls.get(fn, 0) == 0]
    problems += [f"{fn}: predicted idle, {calls[fn]} calls"
                 for fn in idle(name) if calls.get(fn, 0) != 0]
    if not coverage >= MIN_COVERAGE:
        problems.append(f"wrapped spans cover {coverage:.3f} of cli.run "
                        f"(< {MIN_COVERAGE})")
    return problems
