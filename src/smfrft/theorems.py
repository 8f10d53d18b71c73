"""Identity checks: one catalogue row per family, independent sides.

The paper's shift, modulation and plain convolution / correlation
theorems are its time-frequency-shifted forms at q = 0, d = 0 or both.
``_FAMILIES`` holds one row per ``IdentityId``: the operator, the operand
that is shifted and modulated, the (d, q) axes the suite sweeps and,
where the printed form departs from the derivation, where and how. Each
check computes its two sides from the row by disjoint routes:

* LHS: shift and modulate the row's operand, run the time-domain
  operator (a chirp-factorized FFT convolution), then push the result
  through the quadrature transform (a chirp-z transform).
* RHS: ``rhs_tfshift`` for every convolution and correlation family, its
  shifted and modulated operand's spectrum given by the transform's
  time-frequency-shift property (``_tf_shifted``), and ``rhs_product``
  for the product. Every spectrum at a shifted or negated image of the u
  grid is a quadrature onto that image, handed over as its start, step
  (negative for -u) and count. Nothing is interpolated, and no RHS ever
  calls a time-domain operator.

Within ``run_suite`` many right-hand sides need the same operand spectrum
on the same grid (F(u), G(u), the overline F(-u)), and many records the
same check. The suite runs angle by angle and pair by pair in one reuse
scope (``kernel.reused``), which keeps chirps, carriers, chirp-z plans
and time-frequency-shift phases for the run; for one (angle, pair)
``_spectrum`` computes each such spectrum once for every builder that
asks, the operators share their shifted and modulated operands and the
FFTs of their chirped operands, and ``_residuals`` computes each check
(the left side and the derived residual) once for every record that
reads it, printed forms included. Every call outside ``run_suite`` is
computed afresh.

The rows hold no evaluator; each is looked up in this module when a
check runs, so the test suite can re-run the whole certificate with the
dense O(N^2) quadrature and operator sums patched in here and require
the same verdicts: no verdict rests on FFT code alone.

Two of the printed identity forms are internally inconsistent with the
rest of the family (the sign of the pi/2 phase in the shifted correlation,
and both the phase and the spectrum argument of the time-frequency-shifted
correlation). For those, the checks compute the residual against the form
as printed *and* against the form obtained by re-running the derivation
(substitute xi = tau - d with the same sign pattern as the plain shifted
correlation). A check passes if either form meets tolerance, and the
report records which one did.

One convention note: the correlation is conjugate-linear in its first
slot, and the modulation properties are stated with the factor e^{+jq tau}
multiplying the already-conjugated operand inside the integral. With the
``frac_correlate`` signature that operand is therefore ``modulate_op(f, -q)``.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .corpus import PAIR_COUNT, default_pairs
from .errors import AlignmentError, InvalidParameterError, SmfrftError
from .grid import ComplexArray, SampledSignal, UniformGrid
from .kernel import SQRT_J2PI, SQRT_J_OVER_2PI, Angle, _reuse, make_angle, reused
from .operators import (
    _lattice_index,
    _modulated,
    _operand_spectrum,
    _shifted,
    frac_convolve,
    frac_correlate,
    frac_product,
    modulate_op,
    shift_op,
)
from .transform import (
    fast_ugrid,
    linear_convolve,
    smfrft_quadrature,
)

PI_HALF = math.pi / 2


class IdentityId(Enum):
    """The fifteen identity families the harness certifies."""

    CONV = "CONV"
    CONV_SHIFT_L = "CONV_SHIFT_L"
    CONV_SHIFT_R = "CONV_SHIFT_R"
    CONV_MOD_L = "CONV_MOD_L"
    CONV_MOD_R = "CONV_MOD_R"
    CONV_TFSHIFT_L = "CONV_TFSHIFT_L"
    CONV_TFSHIFT_R = "CONV_TFSHIFT_R"
    PROD = "PROD"
    CORR = "CORR"
    CORR_SHIFT_L = "CORR_SHIFT_L"
    CORR_SHIFT_R = "CORR_SHIFT_R"
    CORR_MOD_L = "CORR_MOD_L"
    CORR_MOD_R = "CORR_MOD_R"
    CORR_TFSHIFT_L = "CORR_TFSHIFT_L"
    CORR_TFSHIFT_R = "CORR_TFSHIFT_R"


@dataclass(frozen=True, slots=True)
class IdentityReport:
    """Residuals and verdict for one identity at one parameter set.

    ``residual_derived_form`` equals ``residual_paper_form`` wherever the
    printed form and the derivation-consistent form coincide;
    ``chosen_form`` is "agree" in that case, otherwise it names the form
    with the smaller residual.
    """

    identity: IdentityId
    phi: float
    d: float
    q: float
    n: int
    residual_paper_form: float
    residual_derived_form: float
    tolerance: float
    passed: bool
    chosen_form: str


# the tolerance of a record whose reference side is identically zero,
# where the residual is the absolute difference norm
ABSOLUTE_TOLERANCE = 1e-14


# --------------------------------------------------------------------------
# RHS: closed-form spectral expressions. At d = 0 and/or q = 0 the general
# builder collapses onto the plain, shifted and modulated forms. The
# correlation forms take the overline spectrum of f (see _spectrum).

def _spectrum(x: SampledSignal, start: float, step: float, count: int,
              angle: Angle, conj: bool = False) -> ComplexArray:
    """Quadrature spectrum of ``x`` (of its conjugate with ``conj``, the
    overline spectrum) at the ``count`` points start + k*step.

    The overline operator transforms the conjugated signal. That is
    distinct from conjugating the transform, which would also conjugate
    the kernel chirp.
    """
    def build():
        values = smfrft_quadrature(x.conjugate() if conj else x, start, step,
                                   count, angle)
        values.setflags(write=False)
        return x, values
    return reused((_spectrum, id(x), conj, angle, start, step, count), build)[1]


def _tf_shifted(x: SampledSignal, angle: Angle, d: float, q: float,
                v: tuple[float, float, int], conj: bool = False
                ) -> tuple[ComplexArray | float, ComplexArray]:
    """(phase, spectrum) whose product is the transform, at the points of
    ``v`` = (start, step, count), of x(t - d) e^{jqt} (of conj(x)(t - d)
    e^{jqt} with ``conj``): the time-frequency-shift property

        e^{-j(v-q)d + (j/2) d^2 cot} X(v - q - d cot).

    At d = 0 the phase is exactly 1, and is returned as the number 1.0;
    elsewhere it is read-only and ``reused`` per (angle, d, q, v), for
    every operand pair.
    """
    start, step, count = v
    cot = angle.cot_phi
    spectrum = _spectrum(x, start - q - d * cot, step, count, angle, conj)
    if d == 0.0:
        return 1.0, spectrum

    def build():
        points = np.arange(count, dtype=np.float64) * step + start
        phase = np.exp(-1j * (points - q) * d + 0.5j * d * d * cot)
        phase.setflags(write=False)
        return phase
    return reused((_tf_shifted, angle, d, q, start, step, count), build), spectrum


def rhs_tfshift(f, g, angle, d, q, ugrid: UniformGrid, op, side,
                negate=True) -> ComplexArray:
    """Time-frequency-shifted convolution (``op`` "conv") or correlation
    ("corr") on the u grid, with the operand in slot ``side`` shifted and
    modulated.

    The correlation takes the overline spectrum of f at -u, as the
    derivation gives; ``negate=False`` takes it at +u, the printed left
    form.
    """
    corr = op == "corr"
    u = (ugrid.start, ugrid.step, ugrid.count)
    fv = (-ugrid.start, -ugrid.step, ugrid.count) if corr and negate else u
    if side == "L":
        phase, fs = _tf_shifted(f, angle, d, q, fv, corr)
        gs = _spectrum(g, *u, angle)
    else:
        fs = _spectrum(f, *fv, angle, corr)
        phase, gs = _tf_shifted(g, angle, d, q, u)
    return SQRT_J2PI * phase * fs * gs


def rhs_product(f, g, angle, ugrid: UniformGrid) -> ComplexArray:
    """Spectral convolution, truncated to the computed u grid.

    R[k] = sqrt(j/(2*pi)) * du * sum_j F[v_j] G[u_k - v_j], with G taken
    as zero beyond the grid. Only trustworthy on the inner half of the
    grid, where the truncation leakage of decaying spectra is negligible;
    the check restricts the residual accordingly.
    """
    origin = _lattice_index(ugrid.start, ugrid.step, "product u grid start")
    u = (ugrid.start, ugrid.step, ugrid.count)
    window = linear_convolve(_spectrum(f, *u, angle), _spectrum(g, *u, angle),
                             -origin, ugrid.count)
    return SQRT_J_OVER_2PI * ugrid.step * window


# --------------------------------------------------------------------------
# the catalogue

@dataclass(frozen=True, slots=True)
class _Family:
    """One catalogue row: ``op`` is "conv", "corr" or "prod"; ``operand``
    the slot ("L", "R" or None) that is shifted and modulated; ``sweeps``
    the subset of "dq" the suite runs over. Where ``printed_differs(phi,
    d, q)`` holds, ``printed_rhs(f, g, angle, d, q, ugrid)`` is the printed
    form, which departs from the derivation there."""

    op: str
    operand: str | None
    sweeps: str
    printed_differs: Callable[[float, float, float], bool] = (
        lambda phi, d, q: False)
    printed_rhs: Callable[..., ComplexArray] | None = None


# the printed builders sit behind lambdas so that they, like every
# evaluator, are looked up when a check runs
_FAMILIES = {
    IdentityId.CONV: _Family("conv", None, ""),
    IdentityId.CONV_SHIFT_L: _Family("conv", "L", "d"),
    IdentityId.CONV_SHIFT_R: _Family("conv", "R", "d"),
    IdentityId.CONV_MOD_L: _Family("conv", "L", "q"),
    IdentityId.CONV_MOD_R: _Family("conv", "R", "q"),
    IdentityId.CONV_TFSHIFT_L: _Family("conv", "L", "dq"),
    IdentityId.CONV_TFSHIFT_R: _Family("conv", "R", "dq"),
    IdentityId.PROD: _Family("prod", None, ""),
    IdentityId.CORR: _Family("corr", None, ""),
    IdentityId.CORR_SHIFT_L: _Family(
        "corr", "L", "d", lambda phi, d, q: phi == PI_HALF and d != 0.0,
        lambda f, g, angle, d, q, ugrid: rhs_tfshift(f, g, angle, -d, q, ugrid,
                                                     "corr", "L")),
    IdentityId.CORR_SHIFT_R: _Family("corr", "R", "d"),
    IdentityId.CORR_MOD_L: _Family("corr", "L", "q"),
    IdentityId.CORR_MOD_R: _Family("corr", "R", "q"),
    IdentityId.CORR_TFSHIFT_L: _Family(
        "corr", "L", "dq", lambda phi, d, q: True,
        lambda *args: rhs_tfshift(*args, "corr", "L", negate=False)),
    IdentityId.CORR_TFSHIFT_R: _Family("corr", "R", "dq"),
}


def lhs_signal(identity: IdentityId, f: SampledSignal, g: SampledSignal,
               angle: Angle, d: float, q: float) -> SampledSignal:
    """Operator output whose transform is the left-hand side."""
    family = _FAMILIES[identity]
    operands = [f, g]
    if family.operand is not None:
        slot = "LR".index(family.operand)
        if d != 0.0:
            operands[slot] = shift_op(operands[slot], d)
        if q != 0.0:
            # modulation enters the integral on the conjugated copy of f
            sign = -1.0 if family.op == "corr" and slot == 0 else 1.0
            operands[slot] = modulate_op(operands[slot], sign * q)
    operator = {"conv": frac_convolve, "corr": frac_correlate,
                "prod": frac_product}[family.op]
    return operator(*operands, angle)


def rhs_values(identity: IdentityId, f: SampledSignal, g: SampledSignal,
               angle: Angle, d: float, q: float,
               ugrid: UniformGrid) -> ComplexArray:
    """Derivation-consistent right-hand side on the u grid."""
    family = _FAMILIES[identity]
    if family.op == "prod":
        return rhs_product(f, g, angle, ugrid)
    # the plain families may take either side: both collapse at d = q = 0
    return rhs_tfshift(f, g, angle, d, q, ugrid, family.op,
                       family.operand or "L")


# --------------------------------------------------------------------------
# residuals and reports

def _norm(v: ComplexArray) -> float:
    """L2 norm, sqrt(sum(re^2 + im^2)), by numpy's pairwise sum over the
    squared parts: not a BLAS dot product, whose rounding depends on its
    thread count."""
    parts = np.ascontiguousarray(v).view(np.float64)
    return math.sqrt(float(np.add.reduce(parts * parts)))


def _residual(lhs: ComplexArray, rhs: ComplexArray) -> tuple[float, bool]:
    """(residual, is_absolute): relative L2 against rhs, or the absolute
    difference norm when the reference side is identically zero.
    InvalidParameterError when either norm is not finite: sides that
    overflow a double say nothing about the identity."""
    nrm = _norm(rhs)
    diff = _norm(lhs - rhs)
    if not (math.isfinite(nrm) and math.isfinite(diff)):
        raise InvalidParameterError(
            f"residual norms |lhs - rhs| = {diff!r} and |rhs| = {nrm!r} "
            "are not finite: the sides overflow a double on this grid")
    if nrm == 0.0:
        return diff, True
    return diff / nrm, False


def _residuals(identity: IdentityId, f: SampledSignal, g: SampledSignal,
               angle: Angle, d: float, q: float,
               ugrid: UniformGrid) -> tuple[float, float, bool]:
    """(paper residual, derived residual, both absolute) for one pair.

    The general builders collapse onto the simpler families, so the left
    side and the derived residual are one check, ``reused`` by every family
    with the same operator, shifted operand (immaterial at d = q = 0),
    angle, (d, q) and pair. The check keeps its left side only where a
    printed form that shares it reads it. A value past a double (such as a
    phase q d near 1e308, or the norm of sides near 1e154) becomes inf or
    NaN here without a warning, and ``_residual`` refuses the residual it
    leaves."""
    family = _FAMILIES[identity]
    operand = family.operand if d or q else None

    def build():
        start, count = ugrid.start, ugrid.count
        operator_out = lhs_signal(identity, f, g, angle, d, q)
        derived = rhs_values(identity, f, g, angle, d, q, ugrid)
        if family.op == "prod":
            # the product check trusts only the inner half of the u grid,
            # where truncating the spectral-convolution integral leaks nothing
            quarter = ugrid.count // 4
            start, count = ugrid.point(quarter), ugrid.count - 2 * quarter
            derived = derived[quarter:quarter + count]
        lhs = smfrft_quadrature(operator_out, start, ugrid.step, count, angle)
        lhs.setflags(write=False)
        read = any(row.op == family.op and operand in (None, row.operand)
                   and row.printed_differs(angle.phi, d, q)
                   for row in _FAMILIES.values())
        return (f, g, lhs if read else None, *_residual(lhs, derived))

    with np.errstate(over="ignore", invalid="ignore"):
        _, _, lhs, r_derived, absolute = reused(
            (check, id(f), id(g), angle, family.op, operand, d, q), build)
        if not family.printed_differs(angle.phi, d, q):
            return r_derived, r_derived, absolute
        r_paper, abs_p = _residual(
            lhs, family.printed_rhs(f, g, angle, d, q, ugrid))
    return r_paper, r_derived, absolute and abs_p


def _report(identity: IdentityId, phi: float, d: float, q: float, n: int,
            per_pair: list[tuple[float, float, bool]],
            tolerance: float) -> IdentityReport:
    """Worst case over the operand pairs for one parameter combination."""
    r_paper = max(p for p, _, _ in per_pair)
    r_derived = max(r for _, r, _ in per_pair)
    tolerance = max(ABSOLUTE_TOLERANCE if absolute else tolerance
                    for _, _, absolute in per_pair)
    chosen = ("agree" if not _FAMILIES[identity].printed_differs(phi, d, q)
              else "derived" if r_derived <= r_paper else "paper")
    return IdentityReport(
        identity=identity, phi=phi, d=d, q=q, n=n,
        residual_paper_form=r_paper, residual_derived_form=r_derived,
        tolerance=tolerance, passed=min(r_paper, r_derived) <= tolerance,
        chosen_form=chosen,
    )


def check(identity: IdentityId, f: SampledSignal, g: SampledSignal,
          angle: Angle, ugrid: UniformGrid, tolerance: float, d: float = 0.0,
          q: float = 0.0) -> IdentityReport:
    """Check one identity for one operand pair at delay d and carrier q on
    ``ugrid``; a family takes only the parameters the suite sweeps for it."""
    family = _FAMILIES[identity]
    for name, value in (("d", d), ("q", q)):
        if value != 0.0 and name not in family.sweeps:
            raise InvalidParameterError(f"{identity.value} takes no {name}")
    residuals = _residuals(identity, f, g, angle, d, q, ugrid)
    return _report(identity, angle.phi, d, q, f.grid.count, [residuals],
                   tolerance)


# --------------------------------------------------------------------------
# the suite

_ALL_IDENTITIES = tuple(IdentityId)

_DEFAULT_ANGLES = (math.pi / 6, math.pi / 4, math.pi / 3,
                   PI_HALF - 0.1, PI_HALF)


def _number(name: str, value, integral: bool = False):
    kind = numbers.Integral if integral else numbers.Real
    if (isinstance(value, bool) or not isinstance(value, kind)
            or not math.isfinite(value)):
        what = "an integer" if integral else "a finite number"
        raise InvalidParameterError(f"{name}: expected {what}, got {value!r}")
    return value


def _numbers(name: str, values, integral: bool = False) -> tuple:
    if not isinstance(values, (list, tuple)):
        raise InvalidParameterError(f"{name}: expected a list, got {values!r}")
    return tuple(_number(name, v, integral) for v in values)


def _identities(values) -> tuple:
    if not isinstance(values, (list, tuple)):
        raise InvalidParameterError(f"identities: expected a list, got {values!r}")
    try:
        return tuple(v if isinstance(v, IdentityId) else IdentityId(v)
                     for v in values)
    except ValueError:
        raise InvalidParameterError(
            f"identities: expected names from {[i.value for i in IdentityId]}, "
            f"got {list(values)!r}") from None


@dataclass(frozen=True, slots=True)
class SuiteConfig:
    """Corpus, parameter grid, and tolerances for a full suite run."""

    n: int = 2048
    start: float = -16.0
    span: float = 32.0
    angles: tuple = _DEFAULT_ANGLES
    d_values: tuple = (0.0, 0.5)
    q_values: tuple = (0.0, 1.0)
    identities: tuple = _ALL_IDENTITIES
    pair_indices: tuple = (0, 1, 2)
    tolerance_fractional: float = 1e-4
    tolerance_pi_half: float = 1e-6
    tolerance_product: float = 1e-3

    def __post_init__(self):
        """Check every field's type and range, so that a bad configuration
        fails here with InvalidParameterError instead of deep in a check.

        Sequences become tuples and identity names become IdentityId.
        Identities, angles, delays, carriers and pair indices must be
        non-empty: an empty one drops records, or all of them, without a
        trace. All five must be distinct, so that each record and each pair
        is run once. Delays and the grid start must sit on the time
        lattice, because the operators shift by whole samples.
        """
        n = _number("n", self.n, integral=True)
        if n < 2:
            raise InvalidParameterError(f"n: need at least 2 samples, got {n}")
        start = _number("start", self.start)
        span = _number("span", self.span)
        if span <= 0:
            raise InvalidParameterError(f"span: must be > 0, got {span!r}")
        for name in ("angles", "d_values", "q_values"):
            object.__setattr__(self, name, _numbers(name, getattr(self, name)))
        for phi in self.angles:
            make_angle(phi)
        step = span / n
        try:
            _lattice_index(start, step, "start")
            for d in self.d_values:
                if abs(_lattice_index(d, step, "d_values entry")) >= n:
                    raise InvalidParameterError(
                        f"d_values: delay {d!r} is not shorter than the span")
        except AlignmentError as exc:
            raise InvalidParameterError(str(exc)) from None
        pairs = _numbers("pair_indices", self.pair_indices, integral=True)
        if any(not 0 <= i < PAIR_COUNT for i in pairs):
            raise InvalidParameterError(
                f"pair_indices: each must be in 0..{PAIR_COUNT - 1}, got {list(pairs)}")
        object.__setattr__(self, "pair_indices", pairs)
        object.__setattr__(self, "identities", _identities(self.identities))
        for name in ("identities", "angles", "d_values", "q_values",
                     "pair_indices"):
            values = getattr(self, name)   # 0.0 and -0.0 are duplicates
            if not values:
                raise InvalidParameterError(f"{name}: must not be empty")
            if len(set(values)) != len(values):
                raise InvalidParameterError(
                    f"{name}: duplicate entries in {list(values)!r}")
        for name in ("tolerance_fractional", "tolerance_pi_half",
                     "tolerance_product"):
            if _number(name, getattr(self, name)) < 0:
                raise InvalidParameterError(f"{name}: must be >= 0")

    def time_grid(self) -> UniformGrid:
        return UniformGrid(self.start, self.span / self.n, self.n)

    def tolerance_for(self, identity: IdentityId, phi: float) -> float:
        if identity is IdentityId.PROD:
            return self.tolerance_product
        if phi == PI_HALF:
            return self.tolerance_pi_half
        return self.tolerance_fractional


# the tags of the reuse scope's entries that read one operand pair at one
# angle: the operands' spectra on the u grid and chirped for the operators,
# the shifted and modulated operands, and the checks
_PAIR_LIVED = (_spectrum, _operand_spectrum, _shifted, _modulated, check)


def run_suite(cfg: SuiteConfig = SuiteConfig()) -> list[IdentityReport]:
    """Run every configured identity over the parameter grid.

    One report per (identity, phi, d, q), aggregating the worst residual
    over the corpus pairs. Order follows the configuration. A library
    error inside a check is raised again as the same class with the
    identity and parameters in front of its message; any other failure,
    a bug rather than bad input, aborts as RuntimeError with that context.
    """
    tgrid = cfg.time_grid()
    ugrid = fast_ugrid(tgrid)
    pairs = default_pairs(tgrid)
    selected = [pairs[i] for i in cfg.pair_indices]
    per_pair: dict = {}   # (identity, phi, d, q) -> residuals, config order
    for identity in cfg.identities:
        sweeps = _FAMILIES[identity].sweeps
        for phi in cfg.angles:
            for d in (cfg.d_values if "d" in sweeps else (0.0,)):
                for q in (cfg.q_values if "q" in sweeps else (0.0,)):
                    per_pair[identity, phi, d, q] = []
    memo = {}   # the reuse scope: chirps, carriers and plans live for the run
    token = _reuse.set(memo)
    try:
        for phi in cfg.angles:
            angle = make_angle(phi)
            for f, g in selected:
                for (identity, at, d, q), residuals in per_pair.items():
                    if at != phi:
                        continue
                    try:
                        residuals.append(_residuals(identity, f, g, angle, d,
                                                    q, ugrid))
                    except Exception as exc:
                        where = f"{identity.value} at phi={phi} d={d} q={q}"
                        if isinstance(exc, SmfrftError):
                            raise type(exc)(f"{where}: {exc}") from exc
                        raise RuntimeError(f"{where} failed") from exc
                # the spectra, the shifted and modulated operands and the
                # checks die with their (angle, pair)
                for key in [k for k in memo if k[0] in _PAIR_LIVED]:
                    del memo[key]
    finally:
        _reuse.reset(token)
    return [_report(identity, phi, d, q, tgrid.count, residuals,
                    cfg.tolerance_for(identity, phi))
            for (identity, phi, d, q), residuals in per_pair.items()]


def report_rows(reports: list[IdentityReport]) -> list[dict]:
    """JSON-ready rows; key order is part of the report format."""
    return [
        {
            "identity": r.identity.value,
            "phi": r.phi,
            "d": r.d,
            "q": r.q,
            "n": r.n,
            "residual_paper_form": r.residual_paper_form,
            "residual_derived_form": r.residual_derived_form,
            "tolerance": r.tolerance,
            "pass": r.passed,
            "chosen_form": r.chosen_form,
        }
        for r in reports
    ]


def reports_to_json(reports: list[IdentityReport]) -> str:
    return json.dumps(report_rows(reports), indent=2)
