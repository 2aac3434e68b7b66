"""Artifact I/O: WAV audio, binary field/policy dumps, CSV, atomic staging.

WAV files are little-endian RIFF. ``write_wav`` writes IEEE float32 in the
layout of ``scipy.io.wavfile.write`` byte for byte: "RIFF", the RIFF size,
"WAVE"; a ``fmt `` chunk of 18 bytes (format tag 3, channels, rate, bytes
per second, block align, 32 bits, cbSize 0); a ``fact`` chunk holding the
frame count; then ``data`` with the interleaved samples. ``read_wav`` walks
the chunks, skipping unknown ones (odd sizes carry a pad byte), and decodes
16- and 32-bit integer PCM and 32-bit float, also behind the
WAVE_FORMAT_EXTENSIBLE tag. Any other format, and any truncated or
malformed file, raises ``DataError``.

Field dumps carry complex harmonic amplitudes with a fixed 32-byte header
(magic "NARSFLD1", n_harm, n_r as u64, z as f64, little-endian) followed by
row-major float64 (re, im) pairs. Policy checkpoints are a bare float64
vector behind a 16-byte header (magic "NARSPOL1", length as u64).

Writers are deterministic byte-for-byte given the same data; artifact sets
stage every file in a temp directory and publish the whole directory by
rename, so a failed run leaves nothing behind and a clean one leaves no file
of an earlier run.
"""

from __future__ import annotations

import csv
import os
import shutil
import struct
import tempfile

import numpy as np

from .errors import ConfigurationError, DataError
from .wavefield import HarmonicField

FIELD_MAGIC = b"NARSFLD1"
POLICY_MAGIC = b"NARSPOL1"


# === WAV ===


def is_wav_rate(fs: float, n_ch: int = 1) -> bool:
    """True for a positive whole number of Hz that the header of an ``n_ch``-channel
    float32 WAV file can store: its byte rate, fs * 4 * n_ch, must fit 32 bits."""
    return 0 < fs * 4 * n_ch <= 0xFFFFFFFF and fs == int(fs)


_WAVE_PCM, _WAVE_FLOAT, _WAVE_EXTENSIBLE = 1, 3, 0xFFFE
# an extensible fmt chunk names its format by a GUID: the tag, then these 14 bytes
_WAVE_GUID_TAIL = b"\x00\x00\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
# (format tag, bits per sample) -> (stored dtype, full scale)
_WAV_DECODERS = {
    (_WAVE_PCM, 16): ("<i2", 32767.0),
    (_WAVE_PCM, 32): ("<i4", 2147483647.0),
    (_WAVE_FLOAT, 32): ("<f4", 1.0),
}


def max_wav_samples(n_ch: int) -> int:
    """The most samples per channel whose n_ch-channel float32 WAV file a RIFF header can size."""
    return (0xFFFFFFFF - 50) // (4 * n_ch)


def write_wav(path, fs: float, data: np.ndarray) -> None:
    """Mono or interleaved multichannel float32 WAV.

    ``fs`` must be a whole number of Hz, as the WAV header stores an integer.

    Multichannel input is (n_channels, n_samples) and is interleaved on disk.
    """
    data = np.asarray(data)
    if data.ndim == 1:
        data = data[None, :]
    elif data.ndim != 2:
        raise DataError("audio must be 1-D or (n_channels, n_samples)")
    if not is_wav_rate(fs):
        raise DataError(f"sample rate {fs!r} is not a whole number of Hz that a WAV header can store")
    n_ch, n = data.shape
    if n_ch < 1 or not is_wav_rate(fs, n_ch) or n > max_wav_samples(n_ch):
        raise DataError(f"{n_ch} channels of {n} samples at {int(fs)} Hz do not fit a WAV header")
    fs, block = int(fs), 4 * n_ch
    header = b"RIFF" + struct.pack("<I", 50 + block * n) + b"WAVE"
    header += b"fmt " + struct.pack(
        "<IHHIIHHH", 18, _WAVE_FLOAT, n_ch, fs, fs * block, block, 32, 0
    )
    header += b"fact" + struct.pack("<II", 4, n)
    header += b"data" + struct.pack("<I", block * n)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(data.T, dtype="<f4").data)


def read_wav(path) -> tuple[float, np.ndarray]:
    """Returns (fs, samples as float64); multichannel comes back (n_ch, n)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    view = memoryview(raw)  # chunk bodies without copies
    if len(raw) < 12 or raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise DataError(f"{path}: not a RIFF/WAVE file")
    fmt, pos = None, 12
    while pos + 8 <= len(raw):
        tag, size = raw[pos : pos + 4], struct.unpack_from("<I", raw, pos + 4)[0]
        body = view[pos + 8 : pos + 8 + size]
        if len(body) < size:
            raise DataError(f"{path}: truncated {tag!r} chunk")
        if tag == b"fmt ":
            if size < 16:
                raise DataError(f"{path}: fmt chunk of {size} bytes")
            fmt = struct.unpack_from("<HHIIHH", body)
            if fmt[0] == _WAVE_EXTENSIBLE and body[26:40] == _WAVE_GUID_TAIL:
                fmt = (struct.unpack_from("<H", body, 24)[0],) + fmt[1:]
        elif tag == b"data":
            break
        pos += 8 + size + (size & 1)
    else:
        raise DataError(f"{path}: no data chunk")
    if fmt is None:
        raise DataError(f"{path}: no fmt chunk before the data")
    fmt_tag, n_ch, rate, _, block, bits = fmt
    if (fmt_tag, bits) not in _WAV_DECODERS:
        raise DataError(f"{path}: unsupported WAV encoding (format {fmt_tag}, {bits} bits)")
    dtype, full_scale = _WAV_DECODERS[fmt_tag, bits]
    if n_ch < 1 or block != n_ch * bits // 8 or size % block:
        raise DataError(f"{path}: data of {size} bytes does not hold whole {n_ch}-channel frames")
    out = np.frombuffer(body, dtype=dtype).reshape(-1, n_ch).T.astype(np.float64) / full_scale
    return float(rate), out[0] if n_ch == 1 else out


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
    """Stage-everything-then-swap artifact writing.

    Use as a context manager: ask for paths under .path(name) and write files
    there. The files are staged in a hidden directory beside out_dir. A clean
    exit swaps the staged directory in for out_dir as a whole, so out_dir
    then holds this run's files and nothing from an earlier run. Any
    exception discards the stage and leaves out_dir as it was, or absent if
    it did not exist.
    """

    def __init__(self, out_dir):
        self.out_dir = os.path.realpath(out_dir)
        parent, name = os.path.split(self.out_dir)
        os.makedirs(parent, exist_ok=True)
        self._tmp = tempfile.mkdtemp(prefix=f".{name}.stage-", dir=parent)
        self._stage = os.path.join(self._tmp, "new")
        os.mkdir(self._stage)  # mode from the umask, unlike mkdtemp's 0700

    def path(self, name: str) -> str:
        if os.path.isabs(name) or ".." in name.split("/"):
            raise ConfigurationError("artifact names must be relative paths")
        p = os.path.join(self._stage, name)
        os.makedirs(os.path.dirname(p), exist_ok=True)
        return p

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        try:
            if exc_type is None:
                if os.path.isdir(self.out_dir):
                    os.replace(self.out_dir, os.path.join(self._tmp, "old"))
                os.replace(self._stage, self.out_dir)
        finally:
            shutil.rmtree(self._tmp, ignore_errors=True)
        return False
