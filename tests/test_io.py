import os

import numpy as np
import pytest
from scipy.io import wavfile

from nars.errors import ConfigurationError, DataError
from nars.io import (
    ArtifactSet,
    fmt_num,
    read_field_dump,
    read_policy_vector,
    read_wav,
    write_csv,
    write_field_dump,
    write_policy_vector,
    write_wav,
)
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


def test_wav_bad_shape_and_rate(tmp_path):
    with pytest.raises(DataError):
        write_wav(tmp_path / "s.wav", 8000.0, np.zeros((2, 3, 4)))
    with pytest.raises(DataError):
        write_wav(tmp_path / "r.wav", 0.0, np.zeros(10))


@pytest.mark.parametrize("fs", [16000.7, 15999.5, float("nan"), float("inf")])
def test_wav_rejects_a_rate_that_is_not_whole_hz(tmp_path, fs):
    path = tmp_path / "f.wav"
    with pytest.raises(DataError):
        write_wav(path, fs, np.zeros(10))
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
    for text in ("first", "second"):
        with ArtifactSet(out) as art:
            with open(art.path("a.txt"), "w") as fh:
                fh.write(text)
    assert (out / "a.txt").read_text() == "second"


def test_artifact_set_skips_undeclared_names(tmp_path):
    out = tmp_path / "out"
    with ArtifactSet(out) as art:
        art.path("never_written.csv")  # declared but not created
        with open(art.path("real.csv"), "w") as fh:
            fh.write("x\n")
    assert (out / "real.csv").exists()
    assert not (out / "never_written.csv").exists()
