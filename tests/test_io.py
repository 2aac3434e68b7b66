import os
import struct

import numpy as np
import pytest
from scipy.io import wavfile

from nars import cli
from nars.errors import ConfigurationError, DataError
from nars.io import (
    ArtifactSet,
    fmt_num,
    is_wav_rate,
    max_wav_samples,
    read_field_dump,
    read_policy_vector,
    read_wav,
    write_csv,
    write_field_dump,
    write_policy_vector,
    write_wav,
)
from nars.scene import scene_rng
from nars.wavefield import HarmonicField


# === WAV ===


def test_wav_float32_round_trip(tmp_path):
    path = tmp_path / "x.wav"
    x = np.random.default_rng(0).standard_normal(1000) * 0.3
    write_wav(path, 16000.0, x)
    fs, y = read_wav(path)
    assert fs == 16000.0
    assert y == pytest.approx(x, abs=1e-6)


def test_wav_multichannel_round_trip(tmp_path):
    path = tmp_path / "m.wav"
    x = np.random.default_rng(1).standard_normal((4, 500)) * 0.2
    write_wav(path, 48000.0, x)
    fs, y = read_wav(path)
    assert y.shape == (4, 500)
    assert y == pytest.approx(x, abs=1e-6)


@pytest.mark.parametrize("dtype, full_scale", [(np.int16, 32767), (np.int32, 2147483647)])
def test_read_wav_decodes_integer_pcm(tmp_path, dtype, full_scale):
    # integer files come from outside the program; the writer only writes float32
    path = tmp_path / "i.wav"
    x = np.linspace(-1.0, 1.0, 101)
    wavfile.write(path, 8000, np.round(x * full_scale).astype(dtype))
    fs, y = read_wav(path)
    assert fs == 8000.0
    assert y == pytest.approx(x, abs=1.0 / full_scale)


def scipy_read(path):
    """scipy's reader with ``read_wav``'s scaling and (n_ch, n) layout."""
    rate, data = wavfile.read(path)
    scale = {np.dtype(np.int16): 32767.0, np.dtype(np.int32): 2147483647.0}.get(data.dtype, 1.0)
    out = data.astype(np.float64) / scale
    return float(rate), out.T if out.ndim == 2 else out


@pytest.mark.parametrize("shape", [(1,), (1001,), (2, 999), (8, 1001)])
def test_write_wav_bytes_equal_scipy_float32_writer(tmp_path, shape):
    x = np.random.default_rng(5).standard_normal(shape) * 0.3
    ours, theirs = tmp_path / "ours.wav", tmp_path / "scipy.wav"
    write_wav(ours, 16000.0, x)
    wavfile.write(theirs, 16000, (x.T if x.ndim == 2 else x).astype(np.float32))
    assert ours.read_bytes() == theirs.read_bytes()
    fs, y = read_wav(ours)
    fs_ref, y_ref = scipy_read(ours)
    assert fs == fs_ref == 16000.0
    assert y.shape == y_ref.shape == shape
    assert np.array_equal(y, y_ref)


@pytest.mark.parametrize("dtype", [np.int16, np.int32, np.float32])
@pytest.mark.parametrize("n_ch", [1, 3])
def test_read_wav_matches_scipy_reader(tmp_path, dtype, n_ch):
    path = tmp_path / "x.wav"
    x = np.random.default_rng(6).uniform(-0.9, 0.9, (257, n_ch)).squeeze()
    if dtype != np.float32:
        x = np.round(x * np.iinfo(dtype).max)
    wavfile.write(path, 22050, x.astype(dtype))
    fs, y = read_wav(path)
    fs_ref, y_ref = scipy_read(path)
    assert fs == fs_ref
    assert np.array_equal(y, y_ref)


def test_read_wav_skips_unknown_chunks_and_reads_extensible_format(tmp_path):
    path = tmp_path / "ext.wav"
    x = np.arange(-6, 6, dtype=np.int16).reshape(4, 3)  # 4 frames of 3 channels
    guid = bytes.fromhex("0100 0000 0000 1000 8000 00aa 0038 9b71")  # SUBTYPE_PCM
    fmt = struct.pack("<HHIIHHHHI", 0xFFFE, 3, 8000, 48000, 6, 16, 22, 16, 0) + guid
    chunks = b"fmt " + struct.pack("<I", len(fmt)) + fmt
    chunks += b"LIST" + struct.pack("<I", 3) + b"abc\x00"  # odd size, one pad byte
    chunks += b"data" + struct.pack("<I", x.nbytes) + x.tobytes()
    path.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks)
    fs, y = read_wav(path)
    assert fs == 8000.0
    assert np.array_equal(y, x.T / 32767.0)
    assert np.array_equal(y, scipy_read(path)[1])


def _wav_bytes(tmp_path, data, fs=8000):
    path = tmp_path / "src.wav"
    wavfile.write(path, fs, data)
    return path.read_bytes()


@pytest.mark.parametrize(
    "make",
    [
        lambda tp: _wav_bytes(tp, np.zeros(100, np.float32))[:-3],  # data cut mid-chunk
        lambda tp: _wav_bytes(tp, np.zeros(100, np.float32))[:30],  # fmt cut short
        lambda tp: _wav_bytes(tp, np.zeros(100, np.float32))[:58],  # header without its samples
        lambda tp: b"RIFX" + _wav_bytes(tp, np.zeros(100, np.float32))[4:],  # wrong magic
        lambda tp: b"RIFF\x04\x00\x00\x00WAVE",  # no chunks at all
        lambda tp: _wav_bytes(tp, np.full(100, 128, np.uint8)),  # 8-bit PCM
        lambda tp: _wav_bytes(tp, np.zeros(100, np.float64)),  # 64-bit float
        lambda tp: _pcm24(_wav_bytes(tp, np.zeros(100, np.int16))),  # 24-bit PCM
    ],
    ids=["truncated-data", "truncated-fmt", "no-samples", "wrong-magic", "no-chunks",
         "pcm8", "float64", "pcm24"],
)
def test_read_wav_rejects_other_formats_and_truncated_files_with_data_error(tmp_path, make):
    path = tmp_path / "bad.wav"
    path.write_bytes(make(tmp_path))
    with pytest.raises(DataError):
        read_wav(path)


def _pcm24(raw: bytes) -> bytes:
    """A 16-bit PCM file's header relabelled 24-bit, with 3-byte frames."""
    fmt = bytearray(raw)
    struct.pack_into("<IHH", fmt, 28, 8000 * 3, 3, 24)  # bytes/s, block align, bits
    (size,) = struct.unpack_from("<I", fmt, 40)
    body = bytes(size // 2 * 3)
    return bytes(fmt[:40]) + struct.pack("<I", len(body)) + body


def test_bench_reads_back_its_own_corpus(tmp_path, monkeypatch):
    monkeypatch.setenv("NARS_LOG", "error")
    cfg = tmp_path / "bench.ini"
    cfg.write_text("[run]\nseed = 5\n[bench]\ndurations = 0.5, 1\nfs = 16000\nn_mics = 3\n")
    out = tmp_path / "out"
    assert cli.main(["bench", "--config", str(cfg), "--out", str(out)]) == 0
    for i, d in enumerate((0.5, 1.0)):
        rng = scene_rng(5, i)  # the draws cmd_bench makes for scene i
        mics = rng.standard_normal((3, int(d * 16000))) * 0.1
        far = rng.standard_normal(int(d * 16000)) * 0.1
        for name, x in ((f"scene_{i:03d}.wav", mics), (f"far_{i:03d}.wav", far)):
            path = out / "corpus" / name
            fs, y = read_wav(path)
            assert fs == 16000.0
            assert np.array_equal(y, x.astype(np.float32))
            assert np.array_equal(y, scipy_read(path)[1])


def test_wav_bad_shape_and_rate(tmp_path):
    with pytest.raises(DataError):
        write_wav(tmp_path / "s.wav", 8000.0, np.zeros((2, 3, 4)))
    with pytest.raises(DataError):
        write_wav(tmp_path / "r.wav", 0.0, np.zeros(10))


@pytest.mark.parametrize("n_ch", [1, 2, 8, 7])
def test_max_wav_samples_is_the_riff_limit_that_write_wav_enforces(tmp_path, n_ch):
    n = max_wav_samples(n_ch)
    assert 50 + 4 * n_ch * n <= 0xFFFFFFFF < 50 + 4 * n_ch * (n + 1)
    path = tmp_path / "big.wav"
    with pytest.raises(DataError, match="do not fit a WAV header"):
        write_wav(path, 16000.0, np.broadcast_to(np.float32(0.0), (n_ch, n + 1)))  # zero-stride, no memory
    assert not path.exists()


@pytest.mark.parametrize("fs", [16000.7, 15999.5, float("nan"), float("inf")])
def test_wav_rejects_a_rate_that_is_not_whole_hz(tmp_path, fs):
    path = tmp_path / "f.wav"
    with pytest.raises(DataError):
        write_wav(path, fs, np.zeros(10))
    assert not path.exists()


@pytest.mark.parametrize("n_ch", [1, 2, 8])
def test_wav_rate_keeps_the_byte_rate_within_32_bits(tmp_path, n_ch):
    """The rate that ``write_wav`` enforces: fs * 4 * n_ch must fit the header's byte-rate field."""
    top = 0xFFFFFFFF // (4 * n_ch)
    assert is_wav_rate(top, n_ch) and is_wav_rate(float(top), n_ch) and not is_wav_rate(top + 1, n_ch)
    write_wav(tmp_path / "top.wav", float(top), np.zeros((n_ch, 10)))
    assert read_wav(tmp_path / "top.wav")[0] == top
    path = tmp_path / "over.wav"
    with pytest.raises(DataError, match="do not fit a WAV header" if n_ch > 1 else "that a WAV header can store"):
        write_wav(path, float(top + 1), np.zeros((n_ch, 10)))
    assert not path.exists()


def test_wav_whole_hz_float_rate_still_writes(tmp_path):
    path = tmp_path / "w.wav"
    write_wav(path, 16000.0, np.zeros(10))
    fs, _ = read_wav(path)
    assert fs == 16000.0


def test_wav_deterministic_bytes(tmp_path):
    x = np.random.default_rng(2).standard_normal(256)
    write_wav(tmp_path / "a.wav", 16000.0, x)
    write_wav(tmp_path / "b.wav", 16000.0, x)
    assert (tmp_path / "a.wav").read_bytes() == (tmp_path / "b.wav").read_bytes()


# === field dumps ===


def test_field_dump_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    amps = rng.standard_normal((4, 7)) + 1j * rng.standard_normal((4, 7))
    path = tmp_path / "f.nfd"
    write_field_dump(path, HarmonicField(amps=amps, z=0.125))
    back = read_field_dump(path)
    assert np.array_equal(back.amps, amps)
    assert back.z == 0.125


def test_field_dump_bad_magic(tmp_path):
    path = tmp_path / "bad.nfd"
    write_field_dump(path, HarmonicField(amps=np.ones((2, 2), complex), z=0.0))
    raw = bytearray(path.read_bytes())
    raw[0] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError):
        read_field_dump(path)


def test_field_dump_truncated_body(tmp_path):
    path = tmp_path / "trunc.nfd"
    write_field_dump(path, HarmonicField(amps=np.ones((2, 3), complex), z=0.0))
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(DataError):
        read_field_dump(path)


def test_field_dump_truncated_header(tmp_path):
    path = tmp_path / "short.nfd"
    path.write_bytes(b"NARSFLD1\x01\x00")
    with pytest.raises(DataError):
        read_field_dump(path)


# === policy checkpoints ===


def test_policy_vector_round_trip(tmp_path):
    theta = np.random.default_rng(4).standard_normal(321)
    path = tmp_path / "p.npc"
    write_policy_vector(path, theta)
    assert np.array_equal(read_policy_vector(path), theta)


def test_policy_vector_bad_magic(tmp_path):
    path = tmp_path / "bad.npc"
    write_policy_vector(path, np.zeros(4))
    raw = bytearray(path.read_bytes())
    raw[3] ^= 0x01
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError):
        read_policy_vector(path)


def test_policy_vector_length_mismatch(tmp_path):
    path = tmp_path / "len.npc"
    write_policy_vector(path, np.zeros(4))
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(DataError):
        read_policy_vector(path)


# === CSV ===


def test_fmt_num_round_trips():
    assert fmt_num(1) == "1"
    assert fmt_num(np.int64(7)) == "7"
    assert fmt_num(0.1) == "0.1"
    assert float(fmt_num(2e-17)) == 2e-17
    assert fmt_num(1.0) == "1.0"  # floats keep a decimal marker


def test_write_csv_golden(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b", "c"], [[1, 0.1, "x"], [2, 2e-17, "y"]])
    assert path.read_text() == "a,b,c\n1,0.1,x\n2,2e-17,y\n"


def test_write_csv_deterministic(tmp_path):
    rows = [[i, i * 0.3, "r"] for i in range(20)]
    write_csv(tmp_path / "a.csv", ["i", "v", "s"], rows)
    write_csv(tmp_path / "b.csv", ["i", "v", "s"], rows)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


# === artifact staging ===


def test_artifact_set_commits_on_success(tmp_path):
    out = tmp_path / "out"
    with ArtifactSet(out) as art:
        with open(art.path("a.txt"), "w") as fh:
            fh.write("hello")
        # nothing visible until the block exits
        assert not (out / "a.txt").exists()
    assert (out / "a.txt").read_text() == "hello"
    assert not any(p.name.startswith(".stage-") for p in out.iterdir())


def test_artifact_set_discards_on_failure(tmp_path):
    out = tmp_path / "out"
    with pytest.raises(RuntimeError):
        with ArtifactSet(out) as art:
            with open(art.path("a.txt"), "w") as fh:
                fh.write("partial")
            raise RuntimeError("boom")
    assert not out.exists()  # the set made it, so the set takes it back


def test_artifact_set_failure_keeps_a_directory_it_did_not_create(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "keep.txt").write_text("earlier run")
    with pytest.raises(RuntimeError):
        with ArtifactSet(out) as art:
            with open(art.path("keep.txt"), "w") as fh:
                fh.write("partial")
            raise RuntimeError("boom")
    assert [p.name for p in out.iterdir()] == ["keep.txt"]
    assert (out / "keep.txt").read_text() == "earlier run"


def test_artifact_set_nested_paths(tmp_path):
    out = tmp_path / "out"
    with ArtifactSet(out) as art:
        p = art.path("sub/dir/file.bin")
        with open(p, "wb") as fh:
            fh.write(b"\x00\x01")
    assert (out / "sub" / "dir" / "file.bin").read_bytes() == b"\x00\x01"


def test_artifact_set_rejects_escapes(tmp_path):
    with ArtifactSet(tmp_path / "out") as art:
        with pytest.raises(ConfigurationError):
            art.path("/etc/passwd")
        with pytest.raises(ConfigurationError):
            art.path("../../evil")


def test_artifact_set_overwrites_previous_run(tmp_path):
    out = tmp_path / "out"
    for text, names in (("first", ("a.txt", "b.txt")), ("second", ("a.txt",))):
        with ArtifactSet(out) as art:
            for name in names:
                with open(art.path(name), "w") as fh:
                    fh.write(text)
    assert (out / "a.txt").read_text() == "second"
    assert [p.name for p in out.iterdir()] == ["a.txt"]  # b.txt was the first run's
    assert [p.name for p in tmp_path.iterdir()] == ["out"]  # no stage left beside it


def test_artifact_set_skips_undeclared_names(tmp_path):
    out = tmp_path / "out"
    with ArtifactSet(out) as art:
        art.path("never_written.csv")  # declared but not created
        with open(art.path("real.csv"), "w") as fh:
            fh.write("x\n")
    assert (out / "real.csv").exists()
    assert not (out / "never_written.csv").exists()
