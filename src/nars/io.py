"""Artifact I/O: WAV audio, binary field/policy dumps, CSV, atomic staging.

Field dumps carry complex harmonic amplitudes with a fixed 32-byte header
(magic "NARSFLD1", n_harm, n_r as u64, z as f64, little-endian) followed by
row-major float64 (re, im) pairs. Policy checkpoints are a bare float64
vector behind a 16-byte header (magic "NARSPOL1", length as u64).

Writers are deterministic byte-for-byte given the same data; artifact sets
stage every file in a temp directory and publish by rename so a failed run
leaves nothing behind.
"""

from __future__ import annotations

import csv
import os
import shutil
import struct
import tempfile

import numpy as np
from scipy.io import wavfile

from .errors import ConfigurationError, DataError
from .wavefield import HarmonicField

FIELD_MAGIC = b"NARSFLD1"
POLICY_MAGIC = b"NARSPOL1"


# === WAV ===


def is_wav_rate(fs: float) -> bool:
    """True for a positive whole number of Hz that a WAV header can store."""
    return 0 < fs <= 2**31 - 1 and fs == int(fs)


def write_wav(path, fs: float, data: np.ndarray) -> None:
    """Mono or interleaved multichannel float32 WAV.

    ``fs`` must be a whole number of Hz, as the WAV header stores an integer.

    Multichannel input is (n_channels, n_samples) and is interleaved on disk.
    """
    data = np.asarray(data)
    if data.ndim == 2:
        data = data.T  # scipy wants (n_samples, n_channels)
    elif data.ndim != 1:
        raise DataError("audio must be 1-D or (n_channels, n_samples)")
    if not is_wav_rate(fs):
        raise DataError(f"sample rate {fs!r} is not a whole number of Hz representable in WAV")
    wavfile.write(path, int(fs), data.astype(np.float32))


def read_wav(path) -> tuple[float, np.ndarray]:
    """Returns (fs, samples as float64); multichannel comes back (n_ch, n)."""
    rate, data = wavfile.read(path)
    if data.dtype == np.int16:
        out = data.astype(np.float64) / 32767.0
    elif data.dtype == np.int32:
        out = data.astype(np.float64) / 2147483647.0
    else:
        out = data.astype(np.float64)
    if out.ndim == 2:
        out = out.T
    return float(rate), out


# === field dumps ===


def write_field_dump(path, field: HarmonicField) -> None:
    amps = np.asarray(field.amps, dtype=np.complex128)
    n_harm, n_r = amps.shape
    header = FIELD_MAGIC + struct.pack("<QQd", n_harm, n_r, float(field.z))
    flat = np.empty((n_harm, n_r, 2))
    flat[:, :, 0] = amps.real
    flat[:, :, 1] = amps.imag
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(flat.astype("<f8").tobytes())


def read_field_dump(path) -> HarmonicField:
    with open(path, "rb") as fh:
        header = fh.read(32)
        if len(header) != 32 or header[:8] != FIELD_MAGIC:
            raise DataError("not a field dump (bad magic or truncated header)")
        n_harm, n_r, z = struct.unpack("<QQd", header[8:])
        body = fh.read()
    expect = n_harm * n_r * 2 * 8
    if len(body) != expect:
        raise DataError("field dump body length does not match its header")
    flat = np.frombuffer(body, dtype="<f8").reshape(n_harm, n_r, 2)
    return HarmonicField(amps=flat[:, :, 0] + 1j * flat[:, :, 1], z=float(z))


# === policy checkpoints ===


def write_policy_vector(path, theta: np.ndarray) -> None:
    theta = np.asarray(theta, dtype=np.float64).ravel()
    with open(path, "wb") as fh:
        fh.write(POLICY_MAGIC + struct.pack("<Q", theta.size))
        fh.write(theta.astype("<f8").tobytes())


def read_policy_vector(path) -> np.ndarray:
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) != 16 or header[:8] != POLICY_MAGIC:
            raise DataError("not a policy checkpoint (bad magic or truncated header)")
        (length,) = struct.unpack("<Q", header[8:])
        body = fh.read()
    if len(body) != length * 8:
        raise DataError("policy checkpoint body length does not match its header")
    return np.frombuffer(body, dtype="<f8").copy()


# === CSV ===


def fmt_num(x) -> str:
    """Stable shortest round-trip decimal for floats; ints stay ints."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([c if isinstance(c, str) else fmt_num(c) for c in row])


# === atomic artifact sets ===


class ArtifactSet:
    """Stage-everything-then-rename artifact writing.

    Use as a context manager: ask for paths under .path(name), write files
    there, and the whole set is moved into out_dir on a clean exit. Any
    exception discards the stage, leaving out_dir untouched; an out_dir that
    this set created is removed again if it is still empty.
    """

    def __init__(self, out_dir):
        self.out_dir = os.path.abspath(out_dir)
        self._created = not os.path.isdir(self.out_dir)
        os.makedirs(self.out_dir, exist_ok=True)
        self._stage = tempfile.mkdtemp(prefix=".stage-", dir=self.out_dir)
        self._names: list[str] = []

    def path(self, name: str) -> str:
        if os.path.isabs(name) or ".." in name.split("/"):
            raise ConfigurationError("artifact names must be relative paths")
        p = os.path.join(self._stage, name)
        os.makedirs(os.path.dirname(p), exist_ok=True)
        if name not in self._names:
            self._names.append(name)
        return p

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            for name in self._names:
                src = os.path.join(self._stage, name)
                if not os.path.exists(src):
                    continue  # declared but never written; skip silently
                dst = os.path.join(self.out_dir, name)
                os.makedirs(os.path.dirname(dst), exist_ok=True)
                os.replace(src, dst)
        shutil.rmtree(self._stage, ignore_errors=True)
        if exc_type is not None and self._created and not os.listdir(self.out_dir):
            os.rmdir(self.out_dir)
        return False
