"""Command-line front end: generate, transform, invert, filter, verify.

All I/O goes through CSV (signals, spectra) and JSON (verify reports).
Exit codes: 0 success / all identities pass, 1 verification failure,
2 usage or parse error. The rotation angle is given either directly in
radians (--angle) or as the fractional order a with phi = a*pi/2
(--order); exactly one of the two.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

import click
import numpy as np

from . import io_csv
from .errors import InvalidParameterError, SmfrftError
from .grid import Spectrum, UniformGrid, gen_chirp, gen_gaussian, make_grid
from .kernel import Angle, make_angle
from .theorems import (
    SuiteConfig,
    reports_to_json,
    run_suite,
    suite_passed,
)
from .transform import ismfrft_direct, ismfrft_fast, smfrft_direct, smfrft_fast

_DOMAIN_ERRORS = (SmfrftError, OSError)


def _exit2_on_domain_error(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except _DOMAIN_ERRORS as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)

    return wrapper


def _angle_options(fn):
    fn = click.option("--order", "order_", type=float, default=None,
                      help="Fractional order a; phi = a*pi/2.")(fn)
    fn = click.option("--angle", type=float, default=None,
                      help="Rotation angle phi in radians.")(fn)
    return fn


def _resolve_angle(angle: float | None, order_: float | None) -> Angle:
    if (angle is None) == (order_ is None):
        raise click.UsageError("exactly one of --angle or --order is required")
    phi = angle if angle is not None else order_ * math.pi / 2.0
    return make_angle(phi)


def _parse_ugrid(spec: str) -> UniformGrid:
    parts = spec.split(":")
    if len(parts) != 3:
        raise click.UsageError("--ugrid must be start:step:count")
    try:
        return make_grid(float(parts[0]), float(parts[1]), int(parts[2]))
    except ValueError as exc:
        raise click.UsageError(f"--ugrid: {exc}") from None


def _parse_band(spec: str) -> tuple[float, float]:
    parts = spec.split(":")
    if len(parts) != 2:
        raise click.UsageError("--passband must be lo:hi")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise click.UsageError(f"--passband: {exc}") from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise click.UsageError(f"--passband: bounds must be finite, got {lo}:{hi}")
    if lo >= hi:
        raise click.UsageError(f"--passband: need lo < hi, got {lo}:{hi}")
    return lo, hi


@click.group()
def cli():
    """Simplified fractional Fourier transform toolbox."""


@cli.command()
@click.option("--kind", type=click.Choice(["gaussian", "chirp"]),
              default="gaussian", show_default=True)
@click.option("--start", type=float, default=-16.0, show_default=True,
              help="Time-grid start (s).")
@click.option("--step", type=float, default=0.015625, show_default=True,
              help="Time-grid step (s).")
@click.option("--count", type=int, default=2048, show_default=True,
              help="Number of samples.")
@click.option("--center", type=float, default=0.0, show_default=True,
              help="Gaussian center (s).")
@click.option("--width", type=float, default=1.0, show_default=True,
              help="Gaussian width / chirp envelope width (s).")
@click.option("--carrier", type=float, default=0.0, show_default=True,
              help="Gaussian carrier (rad/s).")
@click.option("--rate", type=float, default=1.0, show_default=True,
              help="Chirp frequency-modulation rate (rad/s^2).")
@click.option("--output", type=click.Path(), required=True)
@_exit2_on_domain_error
def generate(kind, start, step, count, center, width, carrier, rate, output):
    """Write a generated test signal as CSV."""
    grid = make_grid(start, step, count)
    if kind == "gaussian":
        signal = gen_gaussian(grid, center, width, carrier)
    else:
        signal = gen_chirp(grid, rate, width)
    io_csv.write_signal_csv(output, signal)


@cli.command()
@click.option("--input", "input_", type=click.Path(), required=True)
@click.option("--output", type=click.Path(), required=True)
@click.option("--ugrid", default=None,
              help="start:step:count output grid; selects the quadrature.")
@_angle_options
@_exit2_on_domain_error
def transform(input_, output, ugrid, angle, order_):
    """Forward transform of a signal CSV to a spectrum CSV.

    With --ugrid, by quadrature onto that grid; without, by chirp + FFT
    onto the FFT-bin grid. Prints the discrete energy balance (Parseval
    check) to stderr. An energy that overflows a double exits 2 before
    anything is written.
    """
    ang = _resolve_angle(angle, order_)
    out_grid = None if ugrid is None else _parse_ugrid(ugrid)
    signal = io_csv.read_signal_csv(input_)
    e_time = signal.energy()
    if out_grid is None:
        spectrum = smfrft_fast(signal, ang)
    else:
        spectrum = smfrft_direct(signal, out_grid, ang)
    e_spec = spectrum.energy()
    io_csv.write_spectrum_csv(output, spectrum.ugrid, spectrum.values)
    rel = abs(e_spec - e_time) / e_time if e_time else 0.0
    click.echo(
        f"parseval: dt*sum|x|^2 = {e_time!r}  du*sum|X|^2 = {e_spec!r}  "
        f"relative difference = {rel:.3e}",
        err=True,
    )


@cli.command()
@click.option("--input", "input_", type=click.Path(), required=True)
@click.option("--output", type=click.Path(), required=True)
@click.option("--start", type=float, default=None,
              help="Time-grid start; default centers the grid.")
@click.option("--step", type=float, default=None,
              help="Time-grid step; with --count, selects the quadrature.")
@click.option("--count", type=int, default=None,
              help="Time-grid count; with --step, selects the quadrature.")
@_angle_options
@_exit2_on_domain_error
def invert(input_, output, start, step, count, angle, order_):
    """Inverse transform of a spectrum CSV back to a signal CSV.

    With --step and --count, by quadrature onto that time grid; with
    neither, by FFT onto the grid reciprocal to the spectrum's.
    """
    ang = _resolve_angle(angle, order_)
    if (step is None) != (count is None):
        raise click.UsageError("--step and --count go together: give both or neither")
    ugrid, values = io_csv.read_spectrum_csv(input_)
    fast = step is None
    if fast:
        count = ugrid.count
        step = 2.0 * math.pi / (count * ugrid.step)
    t_start = -(count // 2) * step if start is None else start
    tgrid = make_grid(t_start, step, count)
    if fast:
        signal = ismfrft_fast(Spectrum(ugrid, values, ang, tgrid=tgrid))
    else:
        signal = ismfrft_direct(Spectrum(ugrid, values, ang), tgrid)
    io_csv.write_signal_csv(output, signal)


@cli.command("filter")
@click.option("--input", "input_", type=click.Path(), required=True)
@click.option("--output", type=click.Path(), required=True)
@click.option("--passband", required=True, help="lo:hi band in u (rad/s).")
@_angle_options
@_exit2_on_domain_error
def filter_cmd(input_, output, passband, angle, order_):
    """Rectangular-mask filtering in the fractional domain.

    Transforms with the fast path, zeroes everything outside the
    passband, and inverts. A chirp whose rate matches cot(phi) is
    compact near u = 0 at that angle, so a narrow passband there
    separates it from broadband interference. Prints the fraction of the
    input energy that the output keeps to stderr; an energy that
    overflows a double exits 2 before anything is written.
    """
    ang = _resolve_angle(angle, order_)
    lo, hi = _parse_band(passband)
    signal = io_csv.read_signal_csv(input_)
    e_in = signal.energy()
    spectrum = smfrft_fast(signal, ang)
    u = spectrum.ugrid.points()
    mask = (u >= lo) & (u <= hi)
    filtered = Spectrum(spectrum.ugrid, np.where(mask, spectrum.values, 0.0),
                        ang, tgrid=spectrum.tgrid)
    result = ismfrft_fast(filtered)
    e_out = result.energy()
    io_csv.write_signal_csv(output, result)
    kept = e_out / e_in if e_in else 0.0
    click.echo(
        f"energy kept: dt*sum|x|^2 = {e_in!r}  dt*sum|y|^2 = {e_out!r}  "
        f"dt*sum|y|^2 / dt*sum|x|^2 = {kept!r}",
        err=True,
    )


def _suite_config_from(config_path, tolerance, identities, count) -> SuiteConfig:
    overrides: dict = {}
    if config_path is not None:
        try:
            with click.open_file(config_path) as handle:
                raw = json.loads(handle.read())
        except (OSError, json.JSONDecodeError) as exc:
            raise click.UsageError(f"--config: {exc}") from None
        if not isinstance(raw, dict):
            raise click.UsageError("--config: expected a JSON object")
        allowed = {field.name for field in dataclasses.fields(SuiteConfig)}
        unknown = set(raw) - allowed
        if unknown:
            raise click.UsageError(f"--config: unknown keys {sorted(unknown)}")
        overrides.update(raw)
    if count is not None:
        overrides["n"] = count
    if tolerance is not None:
        overrides["tolerance_fractional"] = tolerance
        overrides["tolerance_pi_half"] = tolerance
        overrides["tolerance_product"] = tolerance
    if identities is not None:
        overrides["identities"] = [s.strip() for s in identities.split(",") if s.strip()]
    return SuiteConfig(**overrides)


def _headroom(residual: float, tolerance: float) -> float:
    """residual / tolerance: a record passes at 1 or below. A zero
    tolerance gives 0 for a zero residual and inf otherwise."""
    if tolerance > 0:
        return residual / tolerance
    return 0.0 if residual == 0 else math.inf


@cli.command()
@click.option("--output", type=click.Path(), default="verify_report.json",
              show_default=True, help="Identity-report JSON path.")
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="JSON file overriding suite defaults.")
@click.option("--tolerance", type=float, default=None,
              help="Override every tolerance with one value.")
@click.option("--identities", default=None,
              help="Comma-separated identity names to run.")
@click.option("--count", type=int, default=None,
              help="Override the grid resolution N.")
@_exit2_on_domain_error
def verify(output, config_path, tolerance, identities, count):
    """Run the identity suite and write the residual report."""
    cfg = _suite_config_from(config_path, tolerance, identities, count)
    reports = run_suite(cfg)
    if not reports:
        raise InvalidParameterError(
            "the configuration selects no identity records to verify")
    Path(output).write_text(reports_to_json(reports) + "\n", encoding="ascii")
    click.echo(f"{'identity':<16} {'phi':>9} {'d':>5} {'q':>5} "
               f"{'residual':>12} {'headroom':>9}  pass")
    for r in reports:
        residual = min(r.residual_paper_form, r.residual_derived_form)
        click.echo(
            f"{r.identity.value:<16} {r.phi:>9.6f} {r.d:>5.2f} {r.q:>5.2f} "
            f"{residual:>12.3e} {_headroom(residual, r.tolerance):>9.2e}  "
            f"{'ok' if r.passed else 'FAIL'}"
        )
    adjudicated = [r for r in reports if r.chosen_form != "agree"]
    if adjudicated:
        click.echo("adjudicated printed-form vs derived-form records:")
        for r in adjudicated:
            click.echo(
                f"  {r.identity.value} phi={r.phi:.6f} d={r.d} q={r.q}: "
                f"{r.chosen_form} form holds "
                f"(paper {r.residual_paper_form:.3e}, "
                f"derived {r.residual_derived_form:.3e})"
            )
    total = len(reports)
    failed = sum(not r.passed for r in reports)
    click.echo(f"{total - failed}/{total} identity records passed")
    sys.exit(0 if suite_passed(reports) else 1)


def main():
    cli()


if __name__ == "__main__":
    main()
