"""Command-line front end.

Subcommands: fit, predict, design, builtin, validate. Exit codes are 0 for
success, 1 for computation failures (fit breakdown, infeasible geometry),
and 2 for input or validation problems. The global flags --quiet and --json
work on every subcommand. Every option comes from its flag alone, with the
default its add_argument declares.

Each cmd_* returns (doc, lines, warnings) and prints nothing; main renders
it once. With --json, stdout is the one line _json(doc), warnings included
in doc. Otherwise the lines go to stdout and each warning to stderr as
"warning: ...", and --quiet prints neither. Errors print only to stderr.
A predict sweep builds only what its mode prints: its doc is None in text
mode, and it has no lines with --json.
"""

import argparse
import collections
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import archive, gpr, joints, mechanics
from .data import (
    DEFAULT_ANGLE_BIN,
    FamilyKind,
    average_runs,
    check_angle_bin,
    parse_measurements,
)
from .errors import ComputationError, DesignSpecError, InputError
from .units import finite_float

MAX_SWEEP_POINTS = 100_000  # rows one predict --sweep may print


def _read_text(path) -> str:
    try:
        # utf-8-sig drops a leading byte-order mark, as some editors save one
        return Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _family_kind(token: str) -> FamilyKind:
    try:
        return FamilyKind(token)
    except ValueError:
        choices = ", ".join(k.value for k in FamilyKind)
        raise InputError(f"unknown family {token!r} (choices: {choices})") from None


def _save(gp, path, kind: FamilyKind, target: str) -> None:
    """Write one target's model to an archive tagged "<family>:<target>"."""
    archive.save_model(gp, path, family=kind.value, model_id=f"{kind.value}:{target}")


def _load(path, flag: str, target: str, spectrum=None):
    """load_archive(path, spectrum), refused when its model_id tags the other
    target; any other id, null included, is not read."""
    model, info = archive.load_archive(path, spectrum=spectrum)
    tag = info.model_id.split(":") if isinstance(info.model_id, str) else []
    if len(tag) == 2 and tag[1] in ("force", "return") and tag[1] != target:
        raise InputError(
            f"{flag} {path}: archive holds a {tag[1]} model (model_id {info.model_id!r}), "
            f"not a {target} model"
        )
    return model, info


def _family_model_from_archives(model_path, return_path=None) -> joints.JointFamilyModel:
    """The joint model of a force archive and an optional return archive,
    loaded on the force model's kernel spectrum (one spectrum for a pair
    that shares rows and length scales); an archive whose family tag does
    not fit reads "archive <path>: field family: ..."."""
    force, info = _load(model_path, "--model", "force")
    try:
        model = joints.JointFamilyModel(kind=_family_kind(info.family), force_model=force)
    except (InputError, ValueError) as exc:
        raise InputError(f"archive {model_path}: field family: {exc}") from None
    if return_path is None:
        return model
    return_model, rinfo = _load(return_path, "--return-model", "return", force.spectrum)
    try:
        if rinfo.family is not None and rinfo.family != info.family:
            raise InputError(f"{rinfo.family!r} does not match --model's {info.family!r}")
        return replace(model, return_model=return_model)
    except (InputError, ValueError) as exc:
        raise InputError(f"archive {return_path}: field family: {exc}") from None


def _json(doc) -> str:
    """Every CLI JSON document: one line, sorted keys and RFC-valid numbers
    (no NaN or Infinity)."""
    return json.dumps(doc, sort_keys=True, allow_nan=False)


# -- subcommands -----------------------------------------------------------------


def _rmse_text(rmse) -> str:
    return f"{rmse:.6g}" if rmse is not None else "n/a"


def cmd_fit(args):
    kind = _family_kind(args.family)
    if args.degree < 1:
        raise InputError(f"--degree must be >= 1, got {args.degree}")
    try:
        check_angle_bin(args.angle_bin)
    except ValueError as exc:
        raise InputError(f"--angle-bin: {exc}") from None
    ds = parse_measurements(_read_text(args.data))
    if not args.no_average:
        ds = average_runs(ds, args.angle_bin)

    model = joints.fit_family_model(ds, kind, noise_variance=args.noise_variance, tune=args.tune)

    # on curve the baseline fits one polynomial in angle per thickness
    forces = model.force_model.train_y
    poly_rmse = joints.loo_rmse_poly(model.force_model.train_x, forces, args.degree)

    _save(model.force_model, args.out, kind, "force")
    written = [str(args.out)]
    if args.return_out:
        _save(model.return_model, args.return_out, kind, "return")
        written.append(str(args.return_out))

    warnings = [
        f"{column}: kernel matrix not positive definite at noise variance "
        f"{gp.noise_variance:g}; factorized with +{gpr.JITTER:g} jitter"
        for column, gp in (("force_n", model.force_model), ("return_angle_deg", model.return_model))
        if gpr.took_jitter(gp)
    ]
    doc = {
        "family": kind.value,
        "samples": len(forces),
        "gpr_loo_rmse_n": model.force_loo_rmse,
        "gpr_return_loo_rmse_deg": model.return_loo_rmse,
        f"poly{args.degree}_loo_rmse_n": poly_rmse,
        "outputs": written,
        "warnings": warnings,
    }
    lines = [
        f"fitted {kind.value} on {len(forces)} samples",
        "model        loo rmse (force, N)",
        f"gpr          {_rmse_text(model.force_loo_rmse)}",
        f"poly{args.degree}        {_rmse_text(poly_rmse)}",
        "wrote " + ", ".join(written),
    ]
    return doc, lines, warnings


def _parse_sweep(spec_text: str):
    parts = spec_text.split(":")
    if len(parts) != 3:
        raise InputError(f"--sweep expects start:stop:step, got {spec_text!r}")
    try:
        start, stop, step = (finite_float(p) for p in parts)
    except ValueError:
        raise InputError(f"--sweep values must be finite numbers, got {spec_text!r}") from None
    if step <= 0 or stop < start:
        raise InputError("--sweep needs step > 0 and stop >= start")
    last = stop + 1e-9
    steps = (last - start) / step  # k of the last point, before rounding down
    if not steps < MAX_SWEEP_POINTS:
        raise InputError(f"--sweep {spec_text!r} gives more than {MAX_SWEEP_POINTS} points")
    # one spare index absorbs rounding in steps; start + k*step never falls
    # with k, and the set drops its repeats where step is below half the
    # float spacing
    return sorted({v for v in (start + k * step for k in range(int(steps) + 2)) if v <= last})


def cmd_predict(args):
    if (args.theta is None) == (args.sweep is None):
        raise InputError("predict needs exactly one of --theta and --sweep")
    thetas = [args.theta] if args.sweep is None else _parse_sweep(args.sweep)
    model = _family_model_from_archives(args.model, args.return_model)

    means, stds, rets, flags = joints.predict_many(
        model, thetas, args.thickness, allow_extrapolation=args.allow_extrapolation
    )
    table = list(zip(thetas, means.tolist(), stds.tolist(), rets, flags))
    if args.sweep is None:
        ((_, mean, std, ret, row_flags),) = table
        lines = [
            f"force: {mean:.6g} +/- {std:.6g} N",
            f"return angle: {ret:.6g} deg" if ret is not None else "return angle: n/a",
        ]
        return _prediction_row(args.thickness, *table[0]), lines, row_flags

    # one warning per distinct flag, with the count of its angles
    counts = collections.Counter(flag for row_flags in flags for flag in row_flags)
    warnings = [f"{flag} at {n} of {len(table)} angles" for flag, n in counts.items()]
    # a sweep builds only the output it prints: JSON rows or CSV lines
    if args.json:
        return {"rows": [_prediction_row(args.thickness, *row) for row in table]}, (), warnings
    lines = ["theta_deg,force_n,force_std_n,return_angle_deg"]
    lines += [
        f"{theta!r},{mean!r},{std!r},{'' if ret is None else repr(ret)}"
        for theta, mean, std, ret, _ in table
    ]
    return None, lines, warnings


def _prediction_row(thickness, theta, mean, std, ret, row_flags) -> dict:
    return {"theta_deg": theta, "thickness_mm": thickness, "force_n": mean,
            "force_std_n": std, "return_angle_deg": ret, "warnings": list(row_flags)}


def _read_spec(path) -> mechanics.RingDesignSpec:
    try:
        doc = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise DesignSpecError([f"not valid JSON: {exc}"]) from exc
    return mechanics.spec_from_json_dict(doc)


def cmd_design(args):
    spec = _read_spec(args.spec)
    model = _family_model_from_archives(args.model, args.return_model)
    report = mechanics.design_module(spec, model, safety_factor=args.safety_factor)

    doc = {"design_spec": mechanics.spec_to_json_dict(spec), **report.to_json_dict()}
    try:
        Path(args.out).write_text(_json(doc) + "\n", encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot write report {args.out}: {exc}") from exc
    return doc, [report.format_summary(), f"wrote {args.out}"], report.diagnostics


def cmd_builtin(args):
    kind = _family_kind(args.family)
    model = joints.builtin_model(kind)
    _save(model.force_model, args.out, kind, "force")
    doc = {"family": kind.value, "outputs": [str(args.out)]}
    return doc, [f"wrote built-in {kind.value} force model to {args.out}"], ()


def cmd_validate(args):
    if not args.data and not args.spec:
        raise InputError("validate needs --data and/or --spec")
    doc = {"data": None, "samples": None, "spec": None}
    lines = []
    if args.data:
        ds = parse_measurements(_read_text(args.data))
        doc.update(data=str(args.data), samples=len(ds))
        lines.append(f"{args.data}: ok ({len(ds)} samples)")
    if args.spec:
        _read_spec(args.spec)
        doc["spec"] = str(args.spec)
        lines.append(f"{args.spec}: ok")
    return doc, lines, ()


# -- argument parsing --------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--quiet", action="store_true", help="suppress informational output")
    common.add_argument("--json", action="store_true", help="machine-readable output")

    parser = argparse.ArgumentParser(
        prog="ugc",
        description="Design and analysis toolkit for compliant ring modules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", parents=[common], help="fit force/return models from bench CSV")
    p.add_argument("--data", required=True, help="measurement CSV path")
    p.add_argument("--family", required=True, help="joint family token")
    p.add_argument("--out", required=True, help="force-model archive to write")
    p.add_argument("--return-out", help="also write the return-angle archive here")
    p.add_argument(
        "--angle-bin", type=finite_float, default=DEFAULT_ANGLE_BIN, help="run-averaging bin (deg)"
    )
    p.add_argument("--no-average", action="store_true", help="fit raw runs without averaging")
    # --tune picks the noise variance, so the two flags exclude each other
    noise = p.add_mutually_exclusive_group()
    noise.add_argument("--noise-variance", type=finite_float, help="fixed noise variance")
    noise.add_argument("--tune", action="store_true", help="grid-search hyperparameters")
    p.add_argument("--degree", type=int, default=7, help="baseline polynomial degree")
    p.set_defaults(handler=cmd_fit)

    p = sub.add_parser("predict", parents=[common], help="query a fitted model archive")
    p.add_argument("--model", required=True, help="force-model archive")
    p.add_argument("--return-model", help="return-angle archive")
    p.add_argument("--theta", type=finite_float, help="deformation angle (deg)")
    p.add_argument("--thickness", type=finite_float, help="curve wall thickness (mm)")
    p.add_argument("--sweep", help="emit CSV predictions over start:stop:step (deg)")
    p.add_argument(
        "--allow-extrapolation", action="store_true", help="downgrade range errors to warnings"
    )
    p.set_defaults(handler=cmd_predict)

    p = sub.add_parser("design", parents=[common], help="size a ring module")
    p.add_argument("--spec", required=True, help="design-spec JSON path")
    p.add_argument("--model", required=True, help="force-model archive")
    p.add_argument("--return-model", help="return-angle archive")
    p.add_argument("--out", required=True, help="design-report JSON to write")
    p.add_argument(
        "--safety-factor", type=finite_float, default=mechanics.DEFAULT_SAFETY_FACTOR,
        help="spindle safety factor",
    )
    p.set_defaults(handler=cmd_design)

    p = sub.add_parser("builtin", parents=[common], help="write a built-in model archive")
    p.add_argument("--family", required=True, help="curve or square_sym")
    p.add_argument("--out", required=True, help="archive path to write")
    p.set_defaults(handler=cmd_builtin)

    p = sub.add_parser("validate", parents=[common], help="dry-run CSV/spec checks")
    p.add_argument("--data", help="measurement CSV to check")
    p.add_argument("--spec", help="design-spec JSON to check")
    p.set_defaults(handler=cmd_validate)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        doc, lines, warnings = args.handler(args)
        if args.json:
            print(_json(doc))
        elif not args.quiet:
            print("\n".join(lines))
            for warning in warnings:
                print(f"warning: {warning}", file=sys.stderr)
        return 0
    except DesignSpecError as exc:
        for problem in exc.problems:
            print(f"error: {problem}", file=sys.stderr)
        return 2
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ComputationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
