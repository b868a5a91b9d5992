"""Command-line front end: build codes and noise models, run experiments.

All commands are non-interactive.  Exit codes: 0 success, 1 partial failure
(a sweep completed some points), 2 usage or parse errors.  Config files are
YAML; command-line flags override file values.  The default seed comes from
the CBDECODE_SEED environment variable when neither flag nor file sets one.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import yaml

from .bbcodes import BBCodeSpec, STANDARD_CODES, build_bb_code, load_code_spec, spec_from_dict
from .gf2 import save_matrix
from .harness import (
    CIRCUIT_FILE,
    DATA_QUBIT,
    PHENOMENOLOGICAL,
    ExperimentConfig,
    append_csv,
    crossing_estimate,
    detector_models,
    result_row,
    run_experiment,
)
from .noise import load_detector_model, save_detector_model

# the errors bad input raises; `main` reports them as usage errors (exit 2)
_INPUT_ERRORS = (OSError, ValueError, yaml.YAMLError)


def _env_seed() -> int | None:
    try:
        return int(os.environ["CBDECODE_SEED"])
    except (KeyError, ValueError):
        return None


def _resolve_code(value) -> BBCodeSpec:
    """A registry name (bb72/bb108/bb144), a spec-file path, or a mapping."""
    if isinstance(value, dict):
        return spec_from_dict(value)
    if isinstance(value, str):
        if value in STANDARD_CODES:
            return STANDARD_CODES[value]
        return load_code_spec(value)
    raise ValueError(f"cannot interpret code spec {value!r}")


def _weight_summary(weights: list[int]) -> str:
    return f"min={min(weights)} max={max(weights)} mean={sum(weights) / len(weights):.2f}"


def cmd_build_code(args) -> int:
    code = build_bb_code(_resolve_code(args.spec))
    save_matrix(code.hx, args.out + ".hx.txt")
    save_matrix(code.hz, args.out + ".hz.txt")
    print(f"n={code.n} k={code.k}")
    print(f"hx rows: {_weight_summary(code.hx.row_weights())}  cols: {_weight_summary(code.hx.col_weights())}")
    print(f"hz rows: {_weight_summary(code.hz.row_weights())}  cols: {_weight_summary(code.hz.col_weights())}")
    print(f"wrote {args.out}.hx.txt and {args.out}.hz.txt")
    return 0


def cmd_build_noise(args) -> int:
    # --rounds 0 and no --q leave the run-file defaults; --q 0 is q = 0
    flags = {"code": args.code, "noise": args.model, "p": args.p, "q": args.q,
             "rounds": args.rounds or None, "sector": args.sector}
    config = _build_config({key: value for key, value in flags.items() if value is not None})
    [(_, model)] = detector_models(config)
    save_detector_model(model, args.out)
    print(
        f"wrote {args.out}: detectors={model.noise_matrix.rows} "
        f"mechanisms={model.noise_matrix.cols} observables={model.observables.rows}"
    )
    return 0


# the keys of a run file or sweep entry besides 'code' and 'dem', with their
# types (a str key takes only a string); a key that is not set keeps the
# ExperimentConfig or CBParams default
_KEYS = {
    "noise": str, "p": float, "q": float, "rounds": int, "decoder": str, "sector": str,
    "max_shots": int, "max_failures": lambda v: None if v is None else int(v), "seed": int,
    "bp_iters": int, "name": str, "max_gr": int, "max_br": int, "max_tcts": int,
}
_PARAM_KEYS = ("max_gr", "max_br", "max_tcts")


def _build_config(data: dict) -> ExperimentConfig:
    """An ExperimentConfig from a run file or sweep entry, flags merged in."""
    unknown = sorted(map(str, set(data) - set(_KEYS) - {"code", "dem"}))
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    kwargs = {}
    for key, convert in _KEYS.items():
        if key in data:
            try:
                if convert is str and not isinstance(data[key], str):
                    raise TypeError(key)
                kwargs[key] = convert(data[key])
            except (TypeError, ValueError):
                raise ValueError(f"config key {key!r} cannot take the value {data[key]!r}") from None
    params = {key: kwargs.pop(key) for key in _PARAM_KEYS if key in kwargs}
    kwargs.setdefault("noise", DATA_QUBIT)
    if "seed" not in kwargs and _env_seed() is not None:
        kwargs["seed"] = _env_seed()
    if kwargs["noise"] == CIRCUIT_FILE:
        if data.get("dem") is None:
            raise ValueError("circuit-file noise needs a 'dem' path")
        kwargs["dem_path"] = data["dem"]
    else:
        if "code" not in data:
            raise ValueError("config needs a 'code' entry")
        kwargs["code_spec"] = spec = _resolve_code(data["code"])
        if kwargs["noise"] == PHENOMENOLOGICAL and "rounds" not in kwargs and spec.distance:
            kwargs["rounds"] = spec.distance
    config = ExperimentConfig(**kwargs)
    config.params = replace(config.params, **params)
    return config


def _load_mapping(path: str, what: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        data = yaml.safe_load(fh) or {}
    if not isinstance(data, dict):
        raise ValueError(f"{path}: {what} must be a mapping")
    return data


def _check_writable(path: str) -> None:
    """Open `path` for append, as its writer will, so that a bad path fails first."""
    open(path, "a", encoding="utf-8").close()


def cmd_run(args) -> int:
    data = _load_mapping(args.config, "experiment config")
    flags = {"p": args.p, "seed": args.seed, "max_shots": args.shots,
             "max_failures": args.failures, "decoder": args.decoder}
    data.update((key, value) for key, value in flags.items() if value is not None)
    config = _build_config(data)
    if args.csv:
        _check_writable(args.csv)
    result = run_experiment(config, threads=args.threads)
    if args.csv:
        append_csv(args.csv, [result_row(config, result)])
    print(
        f"{config.label()} noise={config.noise} p={config.p} rounds={config.rounds} "
        f"decoder={config.decoder} shots={result.shots_run} failures={result.logical_failures} "
        f"PL_total={result.p_l_total:.6g} PL_per_cycle={result.p_l_per_cycle:.6g} "
        f"mean_decode_us={result.decode_mean_us:.1f}"
    )
    return 0


def cmd_sweep(args) -> int:
    data = _load_mapping(args.sweep, "sweep spec")
    try:
        probabilities = [float(p) for p in data.get("probabilities") or []]
    except (TypeError, ValueError):
        raise ValueError("'probabilities' must be a list of numbers") from None
    if not probabilities:
        raise ValueError("sweep needs a non-empty 'probabilities' list")
    if any(not 0.0 < p < 1.0 for p in probabilities):
        raise ValueError("probabilities must lie in (0, 1)")
    if any(b <= a for a, b in zip(probabilities, probabilities[1:])):
        raise ValueError("probabilities must be strictly increasing")
    entries = data.get("codes", [])
    if not entries:
        raise ValueError("sweep needs a non-empty 'codes' list")
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise ValueError("'codes' must be a list of mappings, e.g. [{code: bb72}]")
    out_csv = data.get("output", "sweep.csv")
    if not isinstance(out_csv, str):
        raise ValueError(f"'output' must be a file path, got {out_csv!r}")

    # an entry's own values beat the sweep defaults and --seed; an entry
    # that builds no config keeps its error, and each of its points reports it
    defaults = {"max_shots": 100_000}
    if args.seed is not None:
        defaults["seed"] = args.seed
    configs: list[ExperimentConfig | Exception] = []
    for entry in entries:
        try:
            configs.append(_build_config({**defaults, **entry, "p": probabilities[0]}))
        except _INPUT_ERRORS as exc:
            configs.append(exc)
    labels = [c.label() for c in configs if isinstance(c, ExperimentConfig)]
    repeated = sorted({label for label in labels if labels.count(label) > 1})
    if repeated:
        raise ValueError(f"entries share the label {', '.join(repeated)} and so one series file; "
                         "give each a distinct 'name'")
    series_path = {label: f"{os.path.splitext(out_csv)[0]}_{label}.dat" for label in labels}
    for path in [out_csv, *series_path.values()]:
        _check_writable(path)

    partial = False
    for index, (entry, config) in enumerate(zip(entries, configs)):
        if not isinstance(config, ExperimentConfig):
            name = entry.get("name")
            tag = name if isinstance(name, str) and name else f"codes[{index}]"
            for p in probabilities:
                print(f"sweep point {tag} p={p}: {config}", file=sys.stderr)
            partial = True
            continue
        label = config.label()
        points: list[tuple[float, float]] = []
        series_rows: list[str] = []
        for p in probabilities:
            point = replace(config, p=p)
            try:
                result = run_experiment(point, threads=args.threads)
            except _INPUT_ERRORS as exc:
                print(f"sweep point {label} p={p}: {exc}", file=sys.stderr)
                partial = True
                continue
            append_csv(out_csv, [result_row(point, result)])
            points.append((p, result.p_l_per_cycle))
            series_rows.append(f"{p!r} {result.p_l_per_cycle!r}")
            print(
                f"{label} p={p} shots={result.shots_run} "
                f"failures={result.logical_failures} PL_per_cycle={result.p_l_per_cycle:.6g}"
            )
        with open(series_path[label], "w", encoding="utf-8") as fh:
            fh.write("\n".join(series_rows) + ("\n" if series_rows else ""))
        crossing = crossing_estimate(points)
        if crossing is None:
            print(f"{label}: no p = P_L crossing bracketed")
        else:
            print(f"{label}: p = P_L crossing at {crossing:.4g}")
    return 1 if partial else 0


def cmd_dem_info(args) -> int:
    model = load_detector_model(args.path)
    nm = model.noise_matrix
    rw = nm.row_weights() or [0]
    cw = nm.col_weights() or [0]
    print(f"detectors={nm.rows} mechanisms={nm.cols} observables={model.observables.rows}")
    print(f"row weights: {_weight_summary(rw)}")
    print(f"col weights: {_weight_summary(cw)}")
    if nm.cols:
        print(f"priors: min={float(model.priors.min())!r} max={float(model.priors.max())!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cbdecode",
        description="Closed-branch decoding toolkit for quantum LDPC codes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_code = sub.add_parser("build-code", help="construct a code and export its check matrices")
    p_code.add_argument("spec", help="code spec file or registry name (bb72/bb108/bb144)")
    p_code.add_argument("--out", default="code", help="output path prefix")
    p_code.set_defaults(func=cmd_build_code)

    p_noise = sub.add_parser("build-noise", help="build a noise model and export it")
    p_noise.add_argument("--code", required=True, help="code spec file or registry name")
    p_noise.add_argument("--model", choices=[DATA_QUBIT, PHENOMENOLOGICAL], default=DATA_QUBIT)
    p_noise.add_argument("--p", type=float, required=True)
    p_noise.add_argument("--q", type=float, default=None)
    p_noise.add_argument("--rounds", type=int, default=0)
    p_noise.add_argument("--sector", choices=["x", "z"], default="x")
    p_noise.add_argument("--out", required=True)
    p_noise.set_defaults(func=cmd_build_noise)

    p_run = sub.add_parser("run", help="run one experiment from a config file")
    p_run.add_argument("config")
    p_run.add_argument("--csv", default=None, help="append a result row to this CSV")
    p_run.add_argument("--p", type=float, default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--shots", type=int, default=None)
    p_run.add_argument("--failures", type=int, default=None)
    p_run.add_argument("--decoder", choices=["cb", "bp+cb"], default=None)
    p_run.add_argument("--threads", type=int, default=1)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a probability sweep from a sweep spec")
    p_sweep.add_argument("sweep")
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--threads", type=int, default=1)
    p_sweep.set_defaults(func=cmd_sweep)

    p_info = sub.add_parser("dem-info", help="inspect a detector-model file")
    p_info.add_argument("path")
    p_info.set_defaults(func=cmd_dem_info)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
