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
from .estimation import multi_start_fit
from .fim import DESIGN_CRITERIA, IDENTIFIABLE, confidence_ellipsoid, design_score, fim_report
from .models import builtin_registry, generate_data, load_dataset, save_dataset
from .profile import profile_parameter
from .recovery import DEFAULT_STARTS, global_recovery
from .serialize import to_jsonable, write_csv, write_json
from .sobol import sobol_indices

SUBCOMMANDS = ("fim", "profile", "sobol", "recover", "design-score", "all")


def list_models() -> str:
    lines = ["name                     p  identifiability"]
    for model in builtin_registry():
        label = model.identifiability or "-"
        lines.append(f"{model.name:<22} {model.space.dimension:>3}  {label}")
    return "\n".join(lines)


def _per_parameter(prefix: str, names, vectors) -> dict:
    """The CSV columns ``<prefix>_<name>`` of parameter vectors given one a row."""
    return {f"{prefix}_{name}": [vector[j] for vector in vectors] for j, name in enumerate(names)}


def run_analyses(config: RunConfig, selection: list[str], out_dir: Path) -> dict:
    """Run the selected analyses (each a section present in ``config``): the one writer of their report files."""
    model = config.model
    design = config.design
    names = model.space.parameter_names()
    results: dict = {}

    dataset = None
    if config.data is not None:
        path = config.data.get("path")
        if path is not None:
            dataset = load_dataset(path)
            found = dataset.design  # every analysis must see one design
            for field, theirs, ours in (
                ("times", found.time_points.tolist(), design.time_points.tolist()),
                ("noise_sd", found.noise_sd, design.noise_sd),
                ("replicates", found.replicates, design.replicates),
            ):
                if theirs != ours:
                    raise ValueError(f"data.path {path}: {field} is {theirs}, but design.{field} is {ours}")
        else:
            dataset = generate_data(model, design, config.data["theta_true"], config.data.get("seed", config.seed))
        save_dataset(dataset, out_dir / "dataset.csv")

    needs_fit = (
        "profile" in selection
        or ("fim" in selection and "theta" not in config.fim)
        or ("design_score" in selection and "theta" not in config.design_score)
    )
    best = None
    if needs_fit:
        if dataset is None:
            raise ValueError("fit requested but no data section is configured")
        fits = multi_start_fit(model, dataset, config.fit.get("starts", DEFAULT_STARTS), config.seed)
        best = next((r for r in fits if r.converged), fits[0])
        write_csv(out_dir / "fit.csv", {"start_index": range(len(fits)), "objective": [r.objective for r in fits],
                                        "converged": [int(r.converged) for r in fits],
                                        **_per_parameter("theta", names, [r.theta for r in fits])})
        results["fit"] = {"starts": len(fits), "best": best, "estimates": fits}

    if "fim" in selection:
        options = dict(config.fim)
        theta = options.pop("theta") if "theta" in options else best.theta
        level = options.pop("level", 0.95)
        report = fim_report(model, design, theta, **options)
        block = {"theta": np.asarray(theta, dtype=float), **to_jsonable(report)}
        block["scores"] = {c: report.score(c) for c in DESIGN_CRITERIA}
        if report.classification == IDENTIFIABLE:
            block["ellipsoid"] = confidence_ellipsoid(report, theta, level)
        results["fim"] = block

    if "design_score" in selection:
        theta = config.design_score["theta"] if "theta" in config.design_score else best.theta
        criterion = config.design_score.get("criterion", "D")
        results["design_score"] = {
            "criterion": criterion,
            "theta": np.asarray(theta, dtype=float),
            "score": design_score(model, design, theta, criterion),
        }

    if "profile" in selection:
        options = dict(config.profile)
        indices = options.pop("parameters", None)
        block = {}
        for i in range(model.space.dimension) if indices is None else indices:
            curve = profile_parameter(model, dataset, best, i, seed=config.seed, **options)
            write_csv(out_dir / f"profile_{curve.index}.csv", {"theta_i": curve.grid, "profile_loglik": curve.values,
                                                                "converged": curve.converged.astype(int)})
            block[str(curve.index)] = {
                "parameter": names[curve.index], "grid": curve.grid, "profile_loglik": curve.values,
                "converged": curve.converged, "loglik_hat": curve.loglik_hat, "level": curve.level,
                "interval": curve.interval, "classification": curve.classification,
                "total_variation": curve.total_variation, "truncated": curve.truncated}
        results["profile"] = block

    if "sobol" in selection:
        report = sobol_indices(model, design, seed=config.seed, **config.sobol)
        write_csv(out_dir / "sobol.csv", {"parameter": names, "S_first": report.first, "S_first_se": report.first_se,
                                          "S_total": report.total, "S_total_se": report.total_se})
        renamed = {"first": "first_order", "total": "total_order", "first_se": "first_order_se",
                   "total_se": "total_order_se", "variance": "variance_per_time"}
        fields = to_jsonable(report)  # in field order; a renamed field takes its summary key
        results["sobol"] = {"parameters": list(names), **{renamed.get(k, k): v for k, v in fields.items()}}

    if "recover" in selection:
        report = global_recovery(model, design, seed=config.seed, **config.recover)
        columns = {"trial": range(len(report.trials))}
        for prefix, field in (("true", "theta_true"), ("hat", "theta_hat"), ("rel_err", "rel_errors")):
            columns.update(_per_parameter(prefix, names, [getattr(t, field) for t in report.trials]))
        write_csv(out_dir / "recovery.csv", {**columns, "success": [int(t.success) for t in report.trials]})
        results["recovery"] = {"k_trials": len(report.trials), **to_jsonable(report)}

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
