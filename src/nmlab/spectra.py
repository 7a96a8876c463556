"""Frequency-domain reservoir engineering for qubit dephasing.

A dephasing qubit keeps its populations and multiplies its coherence by a
decoherence function kappa(t), which is the (phase-weighted) Fourier
transform of the environmental frequency density. This module provides the
closed-form double-Gaussian magnitude, numerical quadrature of arbitrary
engineered spectra, the trace-distance (information backflow) functional,
and inverse synthesis of a spectrum realizing a prescribed kappa(t).

Frequency conventions: the kernel is exp(i * omega * delta_n * t) by
default; pass two_pi=True to use exp(i * 2*pi * delta_n * omega * t)
instead. Both appear in the photonic-dephasing literature.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import math
import re
import warnings
from dataclasses import dataclass

import numpy as np

from . import _floatfmt

DENSITY_NORM_TOL = 1e-8
KAPPA_MAG_TOL = 1e-9


def _kernel_scale(delta_n: float, two_pi: bool) -> float:
    return 2 * np.pi * delta_n if two_pi else delta_n


@dataclass(frozen=True)
class DoubleGaussianSpec:
    """Two-Gaussian frequency density with peak-height ratio a_theta.

    Peak weights are 1/(1+a_theta) and a_theta/(1+a_theta); both peaks have
    width sigma and their centers are separated by delta_omega. a_theta = 0
    gives a single peak (Markovian Gaussian decay), a_theta = 1 equal peaks
    (damped oscillations, non-Markovian for delta_omega > sigma).
    """

    a_theta: float
    sigma: float
    delta_omega: float
    delta_n: float

    def __post_init__(self):
        if self.a_theta < 0:
            raise ValueError("a_theta must be >= 0")
        if self.sigma <= 0:
            raise ValueError("sigma must be > 0")
        if self.delta_omega < 0:
            raise ValueError("delta_omega must be >= 0")
        if self.delta_n == 0:
            raise ValueError("delta_n must be nonzero")


@dataclass(frozen=True)
class SpectralProfile:
    """Uniform frequency grid with finite probability density and phase values."""

    omega: np.ndarray
    density: np.ndarray
    phase: np.ndarray

    def __post_init__(self):
        for name in ("omega", "density", "phase"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        omega, density, phase = self.omega, self.density, self.phase
        if omega.ndim != 1 or omega.size < 2:
            raise ValueError("omega grid must be 1-D with at least 2 points")
        if density.shape != omega.shape or phase.shape != omega.shape:
            raise ValueError("density and phase must match the omega grid")
        if not _uniform_steps(np.diff(omega)):
            raise ValueError("omega grid must be strictly increasing and uniform")
        if np.min(density) < 0:
            raise ValueError("density must be nonnegative")
        total = np.trapezoid(density, omega)
        if abs(total - 1.0) > DENSITY_NORM_TOL:
            raise ValueError(f"density must integrate to 1 (got {total})")


def _uniform_steps(d: np.ndarray) -> bool:
    """Whether a grid's steps d are uniform: d[0] > 0 and every step within 1e-9 d[0] of it."""
    return d[0] > 0 and not np.max(np.abs(d - d[0])) > 1e-9 * d[0]


def _starts_at_zero(t: np.ndarray) -> bool:
    """Whether a time grid starts at 0: |t[0]| within 1e-9 of its first step."""
    return abs(t[0]) <= 1e-9 * abs(t[1] - t[0])


@dataclass(frozen=True)
class DecoherenceTrajectory:
    """Finite complex decoherence function sampled on a uniform time grid."""

    t: np.ndarray
    kappa: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        kappa = np.asarray(self.kappa, dtype=complex)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "kappa", kappa)
        if t.ndim != 1 or t.size < 2:
            raise ValueError("time grid must be 1-D with at least 2 points")
        if kappa.shape != t.shape:
            raise ValueError("kappa must match the time grid")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(kappa))):
            raise ValueError("t and kappa must be finite")
        if np.max(np.abs(kappa)) > 1 + KAPPA_MAG_TOL:
            raise ValueError("|kappa| must not exceed 1")
        if _starts_at_zero(t) and abs(kappa[0] - 1.0) > KAPPA_MAG_TOL:
            raise ValueError("kappa(0) must equal 1")


def kappa_double_gaussian_mag(spec: DoubleGaussianSpec, t):
    """|kappa(t)| for the double-Gaussian frequency density (closed form).

    exp(-sigma^2 (dn t)^2 / 2) / (1+A) * sqrt(1 + A^2 + 2 A cos(dw dn t)).
    Accepts scalar or array t >= 0.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be >= 0")
    a = spec.a_theta
    envelope = np.exp(-0.5 * np.square(spec.sigma) * np.square(spec.delta_n * t))
    osc = np.sqrt(1 + a * a + 2 * a * np.cos(spec.delta_omega * spec.delta_n * t))
    out = envelope * osc / (1 + a)
    return float(out) if out.ndim == 0 else out


def double_gaussian_profile(
    spec: DoubleGaussianSpec, n_points: int = 4096, center: float = 0.0
) -> SpectralProfile:
    """Tabulate the double-Gaussian density on a uniform grid (phase = 0).

    The grid spans both peaks plus 6 widths on each side; the density is
    renormalized to unit trapezoidal integral to absorb tail truncation.
    """
    half = spec.delta_omega / 2 + 6 * spec.sigma
    omega = np.linspace(center - half, center + half, n_points)
    a = spec.a_theta
    w1, w2 = 1 / (1 + a), a / (1 + a)
    g1 = np.exp(-0.5 * ((omega - (center - spec.delta_omega / 2)) / spec.sigma) ** 2)
    g2 = np.exp(-0.5 * ((omega - (center + spec.delta_omega / 2)) / spec.sigma) ** 2)
    density = (w1 * g1 + w2 * g2) / (spec.sigma * np.sqrt(2 * np.pi))
    density = density / np.trapezoid(density, omega)
    return SpectralProfile(omega=omega, density=density, phase=np.zeros_like(omega))


def _uniform_fit(x: np.ndarray):
    """(x0, step, dev) with x_j = x0 + j*step + dev_j for a 1-D grid x; dev is None if every
    |dev_j| is within 8 ulp of max|x| (rounding: the grid is uniform), as for one point."""
    step = (x[-1] - x[0]) / max(x.size - 1, 1)
    dev = x - (x[0] + step * np.arange(x.size))
    if np.max(np.abs(dev)) <= 8 * np.finfo(float).eps * np.max(np.abs(x)):  # NaN keeps dev
        dev = None
    return float(x[0]), float(step), dev


def _chirp(c: float, m2: np.ndarray) -> np.ndarray:
    """exp(i c m2) for exact integers m2 below 2**53, with c*m2 rounded only in a small term.

    c is split as c_hi + c_lo with c_hi short enough that c_hi*m2 is exact,
    so the large phases are never rounded.
    """
    mant, exp = math.frexp(c)
    bits = max(0, 52 - int(m2[-1]).bit_length())
    c_hi = math.ldexp(round(math.ldexp(mant, bits)), exp - bits)
    return np.exp(1j * (c_hi * m2)) * np.exp(1j * ((c - c_hi) * m2))


def _chirp_z(omega, scale, t_fit, w_fit, n_t):
    """h -> sum_k h_k exp(i scale t_j omega_k) on t_j = t0 + j dt (Bluestein), one FFT pair.

    With s = scale*dt and a = s*dw, the phase is scale*t0*omega_k + s*w0*j + a*j*k, and
    j*k = (j^2 + k^2 - (k-j)^2)/2 turns the sum over k into a convolution with the chirp
    exp(-i a m^2 / 2), whose FFT is built here once, as are the phase factors.
    """
    (t0, dt), (w0, dw) = t_fit, w_fit
    n_w = omega.size
    s = scale * dt
    size = 1 << (n_t + n_w - 2).bit_length()
    m = np.arange(max(n_t, n_w))
    chirp = _chirp(0.5 * s * dw, m * m)
    w = np.zeros(size, dtype=complex)
    w[:n_t] = chirp[:n_t].conj()
    w[size - n_w + 1:] = chirp[n_w - 1:0:-1].conj()
    kernel = np.fft.fft(w)
    shift, turn = np.exp(1j * scale * t0 * omega), np.exp(1j * s * w0 * m[:n_t])
    return lambda h: (np.fft.ifft(np.fft.fft(h * shift * chirp[:n_w], size) * kernel)[:n_t]
                      * turn * chirp[:n_t])


def _taylor(c, y, w):
    """(n, z, w/max|w|): exp(i c y_j w_k) = sum_{p<=n} z_j^p/p! (w_k/max|w|)^p, z = i c max|w| y,
    to a dropped term x^(n+1)/(n+1)! below 1e-16, x = |c| max|y| max|w|; ValueError past x = 1,
    where float64 cannot sum the series. No deviation (y or w None) gives (0, None, 1.0)."""
    if y is None or w is None:
        return 0, None, 1.0
    w_max = float(np.max(np.abs(w)))
    x = abs(c) * float(np.max(np.abs(y))) * w_max
    if not x <= 1:
        raise ValueError(f"the grids' deviation from uniform reaches a phase of {x:.3g} rad, "
                         "above 1, where its Taylor series cannot converge")
    n = next(n for n in itertools.count() if x ** (n + 1) / math.factorial(n + 1) < 1e-16)
    return n, 1j * c * w_max * y, w / w_max


def _horner(z, term, order):
    """sum_{n<=order} z^n/n! term(n) by Horner's rule: term(0) itself at order 0."""
    out = term(order)
    for n in range(order - 1, -1, -1):
        out = term(n) + z / (n + 1) * out
    return out


def kappa_numeric(profile: SpectralProfile, delta_n: float, t, two_pi: bool = False):
    """Decoherence function by trapezoidal quadrature of the spectral integral.

    kappa(t) = int density(w) exp(i phase(w)) exp(i w * dn * t) dw
    (with dn replaced by 2*pi*dn when two_pi is set), at a scalar t (a complex
    result) or on a 1-D t, increasing and uniform as omega is (_uniform_steps);
    any other t raises ValueError.

    With s the kernel scale and the grids' uniform fits (_uniform_fit)
    omega_k = w0 + k dw + delta_k and t_j = t0 + j dt + eps_j,
    kappa_j = sum_{p,q} (i s j dt)^p/p! (i s eps_j)^q/q! CZ[g delta^p omega^q]_j
    (Anderson & Dahleh 1996), g the integrand times np.trapezoid's node weights
    and CZ the chirp-z transform on the fits (Bluestein 1970), whose chirp and
    kernel FFT are built once: a term is one FFT pair of length
    2^ceil(log2(n_t + n_w - 1)). Each order is the fewest whose dropped term
    x^(n+1)/(n+1)! is below 1e-16, x_p = |s dt| (n_t - 1) max|delta| and x_q =
    |s| max|eps| max|omega|: 0 for a deviation within 8 ulp, so grids uniform
    to rounding take one term. ValueError before CZ is built if x_p or x_q
    exceeds 1, where the series cannot converge in float64 (phases above
    about 1e10 rad), or if |s| max|t| max|omega| is not finite.

    CZ's error grows with its largest chirp phase |s*dt*dw| (n_t + n_w)^2 / 2
    (its j^2 are exact for max(n_t, n_w) below 9.4e7; s*dt*dw is rounded):
    against an 80-bit long double dense sum on 700 random grids, at most
    4e-12 below 1e6 rad, 6e-11 below 1e7 and 6e-10 to 1.6e8.
    """
    t = np.asarray(t, dtype=float)
    scale = _kernel_scale(delta_n, two_pi)
    omega = profile.omega
    if not math.isfinite(abs(scale) * float(np.max(np.abs(t), initial=0.0))
                         * float(np.max(np.abs(omega)))):
        raise ValueError("phase |scale|*max|t|*max|omega| is not finite")
    if t.ndim > 1 or t.ndim == 1 and (t.size < 2 or not _uniform_steps(np.diff(t))):
        raise ValueError("time grid must be a scalar or 1-D, increasing and uniform")
    weights = np.gradient(omega)  # np.trapezoid's node weights once the ends are halved
    weights[[0, -1]] *= 0.5
    g = profile.density * np.exp(1j * profile.phase) * weights
    (t0, dt, eps), (w0, dw, delta) = _uniform_fit(t.reshape(-1)), _uniform_fit(omega)
    # exp(i s t_j omega_k) is CZ's exp(i s (t0 omega_k + j dt (w0 + k dw))) times
    # exp(i s j dt delta_k) exp(i s eps_j omega_k), each a Taylor series.
    n_p, z_p, u = _taylor(scale * dt, np.arange(t.size), delta)
    n_q, z_q, v = _taylor(scale, eps, omega)
    cz = _chirp_z(omega, scale, (t0, dt), (w0, dw), t.size)
    out = _horner(z_p, lambda p: _horner(z_q, lambda q: cz(g * u**p * v**q if p or q else g),
                                         n_q), n_p)
    return complex(out[0]) if t.ndim == 0 else out


def blp_from_magnitudes(mag):
    """Discrete trace-distance non-Markovianity of pure dephasing from sampled |kappa|.

    The optimal state pair is antipodal on the equator, with trace distance |kappa|;
    the measure is the total revival (sum of positive increments) of |kappa| along the
    last axis: a float for 1-D samples, an array of one value per row for more axes.
    """
    mag = np.asarray(mag, dtype=float)
    if mag.ndim == 0 or mag.shape[-1] < 2:
        raise ValueError("need at least 2 samples")
    inc = np.diff(mag, axis=-1)
    out = np.sum(inc, axis=-1, where=inc > 0)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class SynthesisResult:
    """Spectrum recovered from a target decoherence function."""

    profile: SpectralProfile
    roundtrip_error: float
    realizable: bool


def synthesize_spectrum(
    traj: DecoherenceTrajectory, delta_n: float, two_pi: bool = False
) -> SynthesisResult:
    """Recover a spectral density and phase realizing a target kappa(t).

    Inverse DFT of kappa onto the conjugate (Nyquist-matched) frequency
    grid of the time grid's uniform fit (_uniform_fit), not of t[1] - t[0].
    The recovered complex amplitude G(w) is split into density = |G|
    (renormalized to unit integral) and phase = arg G.
    The forward quadrature is re-run on the result; if the worst-case
    round-trip error exceeds 1e-6 (e.g. the time window is too short for
    kappa to decay, or kappa is not realizable by a positive density) the
    `realizable` flag is False. ValueError unless t is increasing and uniform
    (_uniform_steps), starts at 0 (_starts_at_zero: the extension below
    assumes t_m = m dt) and is at least 3 samples long.
    """
    t = traj.t
    if not _uniform_steps(np.diff(t)):
        raise ValueError("time grid must be uniform and increasing")
    if not _starts_at_zero(t):
        raise ValueError("time grid must start at 0")
    if t.size < 3:
        raise ValueError("need at least 3 time samples")
    scale = _kernel_scale(delta_n, two_pi)
    omega = 2 * np.pi * np.fft.fftfreq(2 * t.size - 2, d=_uniform_fit(t)[1]) / scale
    # Sorted, not fftshifted: for scale < 0 the conjugate grid runs backwards.
    order = np.argsort(omega)
    omega = omega[order]
    # Hermitian extension to negative times: keeps the DFT reconstruction
    # exact at the original nodes while making the recovered spectrum of a
    # realizable (decayed, gauge-aligned) target real and nonnegative.
    extended = np.concatenate([traj.kappa, np.conj(traj.kappa[-2:0:-1])])
    # DFT coefficients: kappa_m = sum_k c_k exp(i w_k * scale * t_m) exactly
    # on the grid, with w_k the fftfreq conjugate grid.
    c = (np.fft.fft(extended) / extended.size)[order]
    d_omega = omega[1] - omega[0]
    g = c / d_omega
    density = np.abs(g)
    phase = np.angle(g)
    norm = np.trapezoid(density, omega)
    profile = SpectralProfile(omega=omega, density=density / norm, phase=phase)
    kappa_back = kappa_numeric(profile, delta_n, t, two_pi=two_pi)
    err = float(np.max(np.abs(kappa_back - traj.kappa)))
    return SynthesisResult(profile=profile, roundtrip_error=err, realizable=err <= 1e-6)


# --- CSV interchange -------------------------------------------------------

PROFILE_COLUMNS = ("omega", "density", "phase")
TRAJECTORY_COLUMNS = ("t", "re_kappa", "im_kappa")
# Cells of the full-size columns formatted per block, whatever their number (at least
# one row), and per chunk of a small column. A write holds about 180 B per cell of a
# block, nearly all the kernel's temporaries, not its NUL-padded bytes (at most 47 B per
# cell; fig6 at 9766x4: 1.05 MiB in all), so fig5's and fig6's four columns take 6144-cell
# blocks too, within tests/test_cli.py::TestWriterMemory; fig6 then makes 7 calls, not 10.
_WRITE_BLOCK_CELLS = 6 << 10
# A call's float cells go through the kernel if they are at least this many, else repr;
# a table of full-size columns only whose rows times distinct float columns (at least 1)
# are fewer than this is joined with one % operation, any other written in blocks (so a
# table with a small column always is). The kernel costs about 0.25 ms per call plus
# 0.15 us per cell on 2 CPUs. In-process, alternating, 60-100 writes each, it breaks even
# with % at about 600 float cells of fig6's tables, 700 of fig5's, 1100 of fig4's and 1200
# of fig2's, whose labels it formats with str() either way; 1200 keeps fig2 and fig4 (the
# sweep benchmark) off the kernel where it is slower.
_KERNEL_MIN_CELLS = 1200


def _str_cells(values):
    """str() of each cell of a 1-D array as UTF-8 bytes, one NUL-padded row each."""
    chars = np.array([str(v).encode("utf-8") for v in values.tolist()], dtype=bytes)
    return chars.view(np.uint8).reshape(-1, chars.dtype.itemsize)


def _cells(arrays):
    """The cells of each 1-D array as a uint8 matrix whose row i is the text of cell i,
    NUL-padded. The float64 cells of all arrays come from one _floatfmt call if there
    are at least _KERNEL_MIN_CELLS of them, else from repr."""
    floats = [a for a in arrays if a.dtype == np.float64]
    if sum(a.size for a in floats) < _KERNEL_MIN_CELLS:
        return [_str_cells(a) for a in arrays]
    chars = _floatfmt.format_repr(np.concatenate(floats))
    floats = iter(np.split(chars, np.cumsum([a.size for a in floats])[:-1]))
    return [next(floats) if a.dtype == np.float64 else _str_cells(a) for a in arrays]


def _packed(values):
    """The cells of a 1-D array as _cells lays them out, formatted in chunks of
    _WRITE_BLOCK_CELLS each routed by _cells (fig1's A_theta or fig3's phi, below
    _KERNEL_MIN_CELLS, costs no kernel call) and padded with NUL columns to the widest
    chunk's width; each NUL-padded row is returned as one void cell."""
    starts = range(0, values.size, _WRITE_BLOCK_CELLS)
    chunks = [_cells([values[i:i + _WRITE_BLOCK_CELLS]])[0] for i in starts]
    packed = np.zeros((values.size, max(chars.shape[1] for chars in chunks)), dtype=np.uint8)
    for i, chars in zip(starts, chunks):
        packed[i:i + len(chars), :chars.shape[1]] = chars
    return packed.view(np.dtype((np.void, packed.shape[1])))[:, 0]


def _block_rows(sources, small, order, start, stop):
    """The bytes of rows start:stop of the broadcast table: the full-size columns' cells
    formatted in one _cells call, the small columns' copied from their broadcast cells."""
    fresh = iter(_cells([src[start:stop] for src, is_small in zip(sources, small)
                         if not is_small]))
    pieces = [src.flat[start:stop].view(np.uint8).reshape(stop - start, -1) if is_small
              else next(fresh) for src, is_small in zip(sources, small)]
    seps = np.full((stop - start, len(order)), ord(","), dtype=np.uint8)
    seps[:, -1] = ord("\n")
    chars = [m for n, j in enumerate(order) for m in (pieces[j], seps[:, n:n + 1])]
    return np.concatenate(chars, axis=1).tobytes().translate(None, b"\0")


def _table_blocks(distinct, order, shape):
    """Rows of the broadcast table as bytes, in blocks of _WRITE_BLOCK_CELLS cells of its
    full-size columns, or rows if none (at least one row). Column j is distinct[order[j]]; a
    column smaller than the table is a read-only broadcast view of its _packed cells."""
    size = math.prod(shape)
    small = [d.size < size for d in distinct]
    block = max(1, _WRITE_BLOCK_CELLS // max(1, small.count(False)))
    # A small column is formatted once; each block copies its rows, and one translate packs them.
    sources = [np.broadcast_to(_packed(d.ravel()).reshape(d.shape), shape) if is_small
               else d.reshape(-1) for d, is_small in zip(distinct, small)]
    for i in range(0, size, block):
        yield _block_rows(sources, small, order, i, min(i + block, size))


def _joined(distinct, order) -> bytes:
    """Rows of a table of full-size columns from one % operation ('%s' of a float is its repr)."""
    cells = [list(map(str, d.ravel().tolist())) if order.count(j) > 1 else d.ravel().tolist()
             for j, d in enumerate(distinct)]
    row = "%s," * (len(order) - 1) + "%s\n"
    return (row * distinct[0].size
            % tuple(itertools.chain.from_iterable(zip(*(cells[j] for j in order))))
            ).encode("utf-8")


def write_csv(path, header, columns) -> str:
    """CSV with a header row and LF endings; returns the sha256 of its bytes.

    columns broadcast against each other, each all numbers or all strings;
    the rows are the broadcast table in C order, so 0-d columns alone give
    one row. Every float cell, numpy scalars included, is written as
    repr(float(v)), so it reads back exactly; any other cell as str(v).
    Columns that do not broadcast, a header of another length than columns,
    and text (cells or header) with a comma, '"', CR, LF or NUL raise
    ValueError before the file is opened.

    Each distinct cell is formatted once: an array passed as two columns (as
    fig5's U1/U2 and U3/U4 are) once, and a column smaller than the table on
    its own shape, its text repeated where the broadcast repeats it. The
    table is written in blocks of _WRITE_BLOCK_CELLS cells of its full-size
    columns (see _table_blocks): each block's float cells in one call of
    _floatfmt, which turns a float64 array into the bytes of repr of each
    cell with numpy integer arithmetic (nan and inf fall back to repr), its
    other cells with str(), all laid out in one uint8 matrix, a cell per row
    padded with NUL bytes, whose NULs one bytes.translate drops to give the
    block's bytes. A call of fewer than _KERNEL_MIN_CELLS float cells (a
    short column such as fig1's A_theta, a table's last block) goes through
    repr instead. A table of full-size columns only, whose rows times its
    distinct float columns (at least one) are fewer than _KERNEL_MIN_CELLS
    (fig2, fig4 and classify at their shipped sizes), is joined with one %
    operation instead of written in blocks. Blocks bound the memory to about
    180 B per cell formatted at once; the bytes are hashed as they are
    written.
    """
    columns = [np.asarray(column) for column in columns]
    if len(header) != len(columns):
        raise ValueError(f"{len(header)} header names for {len(columns)} columns")
    shape = np.broadcast_shapes(*(column.shape for column in columns))
    size = math.prod(shape)
    distinct = list({id(column): column for column in columns}.values())  # ids of held arrays
    order = [next(j for j, d in enumerate(distinct) if d is column) for column in columns]
    # Each distinct text once: it is written verbatim, and a NUL would be compacted away.
    texts = set(header).union(*(map(str, set(d.ravel().tolist())) for d in distinct
                                if d.dtype.kind not in "biufc"))
    if bad := sorted(filter(re.compile(r'[,"\r\n\x00]').search, texts)):
        raise ValueError(f"cells must hold no comma, quote, CR, LF or NUL: {bad[:3]!r}")
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        def put(data):
            digest.update(data)
            fh.write(data)
        put((",".join(header) + "\n").encode("utf-8"))
        floats = sum(d.dtype == np.float64 for d in distinct)
        if all(d.size == size for d in distinct) and size * max(1, floats) < _KERNEL_MIN_CELLS:
            put(_joined(distinct, order))
        else:
            for rows in _table_blocks(distinct, order, shape):
                put(rows)
                del rows  # before the next block is formatted
    return digest.hexdigest()


_CACHE_KEYS = 64
_column_cache: dict = {}  # (sha256 of a file's bytes, names) -> columns, or None until read twice


class TooManyRows(ValueError):
    """A file of more data rows than its reader's max_rows; .rows is the count."""

    def __init__(self, rows: int, max_rows: int):
        super().__init__(f"{rows} data rows exceed max_rows = {max_rows}")
        self.rows = rows


def _data_rows(fh) -> int:
    """The rows np.loadtxt would parse from a seekable binary file: the non-empty lines after
    the header, under universal newlines, read from its start one line at a time (latin-1
    decodes any byte), so the count holds no more than a line of the file."""
    fh.seek(0)
    text = io.TextIOWrapper(fh, encoding="latin-1")
    rows = sum(line != "\n" for line in itertools.islice(text, 1, None))
    text.detach()
    return rows


def _read_columns(path, names, max_rows=None) -> np.ndarray:
    """The float columns `names` of a CSV with a header row, one array row each.

    Columns may come in any order; extra columns are ignored. numpy's C text
    reader parses each cell to the same float as float(), but allows no
    quotes, comment rows or underscores; empty lines are skipped. A missing
    column raises KeyError, a short row or malformed cell ValueError. A
    header-only file gives empty columns, without numpy's no-data warning.
    A file of more than max_rows data rows raises TooManyRows before it is
    read whole, hashed or parsed.

    Parsed columns are cached per process under the file's content and the
    names, never its path, size or mtime: every call reads and hashes the
    bytes, so a file rewritten in place is never read stale. Content is
    parsed again and kept on its second read and reused from its third. The
    cache holds the _CACHE_KEYS most recently read keys, no array of a file
    read once, and no error: a bad file raises on every read. A first read
    returns its parse, any later one a copy; the caller may mutate either.
    """
    with open(path, "rb") as fh:
        fh = fh if fh.seekable() else io.BytesIO(fh.read())  # a pipe is read once, and held
        # Each data row holds a byte, so only a file of more than max_rows bytes is counted.
        if max_rows is not None and fh.seek(0, io.SEEK_END) > max_rows \
                and (rows := _data_rows(fh)) > max_rows:
            raise TooManyRows(rows, max_rows)
        fh.seek(0)
        data = fh.read()
    key = (hashlib.sha256(data).digest(), tuple(names))
    seen = key in _column_cache
    columns = _column_cache.pop(key, None)  # put back below as the most recent key
    if columns is None:
        # Universal newlines, as open() in text mode: io.StringIO would not split CR-only files.
        with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig") as fh, \
                warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            index = {name: i for i, name in enumerate(fh.readline().rstrip("\n").split(","))}
            usecols = [index[name] for name in names]
            columns = np.loadtxt(fh, delimiter=",", usecols=usecols, ndmin=2, comments=None).T
    _column_cache[key] = columns if seen else None
    if len(_column_cache) > _CACHE_KEYS:
        del _column_cache[next(iter(_column_cache))]
    return columns.copy() if seen else columns


def write_profile_csv(profile: SpectralProfile, path) -> None:
    write_csv(path, PROFILE_COLUMNS, (profile.omega, profile.density, profile.phase))


def read_profile_csv(path, max_rows=None) -> SpectralProfile:
    omega, density, phase = _read_columns(path, PROFILE_COLUMNS, max_rows)
    return SpectralProfile(omega=omega, density=density, phase=phase)


def write_trajectory_csv(traj: DecoherenceTrajectory, path) -> None:
    write_csv(path, TRAJECTORY_COLUMNS, (traj.t, traj.kappa.real, traj.kappa.imag))


def read_trajectory_csv(path, max_rows=None) -> DecoherenceTrajectory:
    t, re_kappa, im_kappa = _read_columns(path, TRAJECTORY_COLUMNS, max_rows)
    return DecoherenceTrajectory(t=t, kappa=re_kappa + 1j * im_kappa)
