"""Command-line entry point: dispatch analyses from a JSON run configuration.

Usage::

    identikit <fim|profile|sobol|recover|design-score|all>
              --config run.json --out results/ [--threads N] [--seed S]
    identikit --list-models

Analyses run in dependency order (data, then fit, then the requested
reports); outputs are one ``summary.json`` plus per-analysis CSVs.  Exit
codes: 0 success, 2 configuration/validation error, 3 analysis failure.
"""

from __future__ import annotations

import argparse
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .config import ConfigError, Diagnostic, RunConfig, build_config, load_raw
from .estimation import estimates_csv, multi_start_fit
from .fim import DESIGN_CRITERIA, IDENTIFIABLE, confidence_ellipsoid, design_score, fim_report
from .models import builtin_registry, generate_data, load_dataset, save_dataset
from .profile import profile_parameter
from .recovery import global_recovery
from .serialize import to_jsonable, write_csv, write_json
from .sobol import Prior, sobol_indices

SUBCOMMANDS = ("fim", "profile", "sobol", "recover", "design-score", "all")


def list_models() -> str:
    lines = ["name                     p  identifiability"]
    for model in builtin_registry():
        label = model.identifiability or "-"
        lines.append(f"{model.name:<22} {model.space.dimension:>3}  {label}")
    return "\n".join(lines)


def run_analyses(config: RunConfig, selection: list[str], out_dir: Path) -> dict:
    """Execute the selected analyses (each a section present in ``config``) and write their report files."""
    model = config.model
    design = config.design
    names = model.space.parameter_names()
    results: dict = {}

    dataset = None
    if config.data is not None:
        if config.data.path is not None:
            dataset = load_dataset(config.data.path)
            found = dataset.design  # every analysis must see one design
            for field, theirs, ours in (
                ("times", found.time_points.tolist(), design.time_points.tolist()),
                ("noise_sd", found.noise_sd, design.noise_sd),
                ("replicates", found.replicates, design.replicates),
            ):
                if theirs != ours:
                    raise ValueError(f"data.path {config.data.path}: {field} is {theirs}, but design.{field} is {ours}")
        else:
            data_seed = config.seed if config.data.seed is None else config.data.seed
            dataset = generate_data(model, design, config.data.theta_true, data_seed)
        save_dataset(dataset, out_dir / "dataset.csv")

    needs_fit = (
        "profile" in selection
        or ("fim" in selection and config.fim.theta is None)
        or ("design_score" in selection and config.design_score.theta is None)
    )
    best = None
    if needs_fit:
        if dataset is None:
            raise ValueError("fit requested but no data section is configured")
        fits = multi_start_fit(model, dataset, config.fit.starts, config.seed)
        best = next((r for r in fits if r.converged), fits[0])
        header, rows = estimates_csv(fits, names)
        write_csv(out_dir / "fit.csv", header, rows)
        results["fit"] = {"starts": config.fit.starts, "best": best, "estimates": fits}

    if "fim" in selection:
        theta = config.fim.theta if config.fim.theta is not None else best.theta
        report = fim_report(model, design, theta, rank_tolerance=config.fim.rank_tolerance)
        block = {"theta": np.asarray(theta, dtype=float), **to_jsonable(report)}
        block["scores"] = {c: report.score(c) for c in DESIGN_CRITERIA}
        if report.classification == IDENTIFIABLE:
            block["ellipsoid"] = confidence_ellipsoid(report, theta, config.fim.level)
        results["fim"] = block

    if "design_score" in selection:
        theta = config.design_score.theta if config.design_score.theta is not None else best.theta
        results["design_score"] = {
            "criterion": config.design_score.criterion,
            "theta": np.asarray(theta, dtype=float),
            "score": design_score(model, design, theta, config.design_score.criterion),
        }

    if "profile" in selection:
        psec = config.profile
        indices = psec.parameters if psec.parameters is not None else list(range(model.space.dimension))
        block = {}
        for i in indices:
            curve = profile_parameter(
                model, dataset, best, i,
                grid=psec.grid, points=psec.points, span_sd=psec.span_sd,
                level=psec.level, flatness_tol=psec.flatness_tol,
                multistart=psec.multistart, seed=config.seed,
            )
            write_csv(
                out_dir / f"profile_{curve.index}.csv",
                ["theta_i", "profile_loglik", "converged"],
                curve.csv_rows(),
            )
            block[str(curve.index)] = curve.to_dict(names[curve.index])
        results["profile"] = block

    if "sobol" in selection:
        ssec = config.sobol
        prior = ssec.prior or Prior.uniform_box(model.space)
        report = sobol_indices(
            model, design, prior, ssec.n_samples,
            seed=config.seed, bootstrap=ssec.bootstrap,
        )
        write_csv(
            out_dir / "sobol.csv",
            ["parameter", "S_first", "S_first_se", "S_total", "S_total_se"],
            [
                [names[i], float(report.first[i]), float(report.first_se[i]),
                 float(report.total[i]), float(report.total_se[i])]
                for i in range(model.space.dimension)
            ],
        )
        results["sobol"] = {"parameters": list(names), **report.to_dict()}

    if "recover" in selection:
        rsec = config.recover
        report = global_recovery(
            model, design, rsec.k_trials, prior=rsec.prior, seed=config.seed,
            n_starts=rsec.n_starts, tolerance=rsec.tolerance,
        )
        write_csv(out_dir / "recovery.csv", report.csv_header(names), report.csv_rows())
        results["recovery"] = {"k_trials": rsec.k_trials, **to_jsonable(report)}

    return results


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if "--list-models" in argv:
        print(list_models())
        return 0

    parser = argparse.ArgumentParser(
        prog="identikit",
        description="Parameter identifiability analyses for deterministic time-series models.",
    )
    parser.add_argument("--list-models", action="store_true", help="print the built-in model registry")
    subparsers = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        sub = subparsers.add_parser(name)
        sub.add_argument("--config", required=True, help="run configuration (JSON)")
        sub.add_argument("--out", required=True, help="output directory")
        sub.add_argument("--threads", type=int, default=1,
                         help="a positive integer, accepted and ignored: analyses run serially, "
                              "so results and work do not depend on it")
        sub.add_argument("--seed", type=int, default=None, help="override the configured seed")
    args = parser.parse_args(argv)

    raw, diags = load_raw(args.config)
    if args.threads < 1:
        diags.append(Diagnostic("--threads", f"must be a positive integer, got {args.threads}"))
    config = None
    if raw is not None:
        if args.seed is not None:
            raw = {**raw, "seed": args.seed}
        try:
            config = build_config(raw)
        except ConfigError as exc:
            diags = exc.diagnostics
    if config is not None:
        present = config.sections_present()
        selection = present if args.subcommand == "all" else [args.subcommand.replace("-", "_")]
        if not selection:
            diags.append(Diagnostic("config", "no analysis sections present"))
        diags.extend(Diagnostic(s, "section missing for requested analysis") for s in selection if s not in present)
    if diags:
        for d in diags:
            print(f"config error - {d}", file=sys.stderr)
        return 2

    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        results = run_analyses(config, selection, out_dir)
        summary = {
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "seed": config.seed,
            "model": config.model.name,
            "analyses": selection,
            "config": config.raw,
            "results": results,
        }
        write_json(out_dir / "summary.json", summary)
    except Exception as exc:  # analysis failure, not a config problem
        print(f"analysis failed: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
