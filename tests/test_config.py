import configparser

import pytest

from nars.config import Conf, build_mic_positions, check_wav_duration
from nars.errors import ConfigurationError
from nars.io import max_wav_samples


def conf_of(text):
    cp = configparser.ConfigParser()
    cp.read_string(text)
    return Conf(cp, path="t.ini")


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN", "Infinity"])
def test_non_finite_numbers_are_configuration_errors(bad):
    c = conf_of(f"[s]\nx = {bad}\nxs = 1, {bad}, 3\nv = 0, 0, {bad}\n")
    with pytest.raises(ConfigurationError, match=r"\[s\] x"):
        c.get_float("s", "x")
    with pytest.raises(ConfigurationError, match=r"\[s\] xs"):
        c.get_floats("s", "xs")
    with pytest.raises(ConfigurationError, match=r"\[s\] v"):
        c.get_vec3("s", "v")


def test_finite_numbers_still_parse():
    c = conf_of("[s]\nx = -1.5e3\nxs = 1, 2.5 3\nv = 0, 0, 1e-9\n")
    assert c.get_float("s", "x") == -1500.0
    assert c.get_floats("s", "xs") == (1.0, 2.5, 3.0)
    assert c.get_vec3("s", "v") == (0.0, 0.0, 1e-9)


@pytest.mark.parametrize(
    "row", ["0 = 3, 2.5, x", "0 = 3, 2.5, nan", "0 = 3, inf, 1", "first = 3, 2.5, 1.2"]
)
def test_bad_explicit_mic_rows_are_configuration_errors(row):
    c = conf_of(f"[mics]\n{row}\n1 = 3.1, 2.5, 1.2\n")
    with pytest.raises(ConfigurationError, match=r"\[mics\]"):
        build_mic_positions(c)


def test_explicit_mic_rows_parse_in_index_order():
    c = conf_of("[mics]\n1 = 3.1, 2.5, 1.2\n0 = 3 2.5 1.2\n")
    assert build_mic_positions(c) == [(3.0, 2.5, 1.2), (3.1, 2.5, 1.2)]


@pytest.mark.parametrize("n_ch", [2, 8])
def test_wav_duration_check_stops_at_the_riff_limit(n_ch):
    c, n_max, fs = conf_of("[s]\n"), max_wav_samples(n_ch), 16000.0
    check_wav_duration(c, "s", "d", [1.0, n_max / fs], fs, n_ch)  # the limit itself fits
    for d in ((n_max + 1) / fs, 1e300):
        with pytest.raises(ConfigurationError, match=rf"t.ini: \[s\] d must give at most {n_max} samples"):
            check_wav_duration(c, "s", "d", [1.0, d], fs, n_ch)
