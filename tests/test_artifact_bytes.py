"""Every artifact of two fixed CLI runs, pinned by SHA-256.

The writers must keep the bytes they write: a formatter or emitter change
that moves one digit anywhere shows up here by file name.  The series
digests also pin the eigensolver's output to the last printed digit; they
were recorded with numpy 2.4.6 on OpenBLAS 0.3.31 running 2 threads
(``OPENBLAS_NUM_THREADS=2``, as CI sets it).  Another LAPACK or another
thread count may round a series value differently: at 1 thread the sc:3
and dsc:3 artifacts move in their last printed digit, and sg:4 does not.
The sweep's carpet series are also held, as numbers, to a propagator that
calls no eigensolver.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import fractalwalk
from fractalwalk import cli
from fractalwalk.hamiltonian import build_hamiltonian
from fractalwalk.serialize import read_walk
from oracle import chebyshev_probabilities

SWEEP_DIGESTS = {
    "dsc3.lattice.json": "dda7ee75ad6daf6b7a86c7845ac19e0fc48311a5792078007469c8da58814497",
    "dsc3.observables.csv": "b0f59fe97a0bab23e5a8afec8ecb3b55d3841d121b43634db9f1f3cf295c83ea",
    "dsc3.report.json": "b84e85af6872546aeb624efd0108673f86dcb8cea92f0d6c65c7c0c332673f16",
    "dsc3.series.json": "8a2c67a502f622fab20d287865e39e5f5516e562ba0d49f693b38458e81b3b54",
    "manifest.json": "0ff1561964088968c9474db61341a95e9d4bc0ce76942ab3cad777efa346d004",
    "sc3.lattice.json": "43cd3d8657becbd3c7c157e4968bf60122d95aae0d7f5cb71a16b3166a9aa8f2",
    "sc3.observables.csv": "e8cdbbecaa60f0bc664690fb4ad64da0a5fb8701fc10f8a5aef839ecdf5e8ca3",
    "sc3.report.json": "d0b8d972c2d4186ca78c9f95a44c52b2433e15b02a5d9faa7b2711631fe6d4bb",
    "sc3.series.json": "7a79be86e728497dfad1a49b79591182f26efec7eb312c48e16cf4457cf2e18e",
    "sg4.lattice.json": "f3e33d22fa2dabe52c440d6c2e0fae7eb9149eb23cfb7a960981f61f2a74d253",
    "sg4.observables.csv": "20ad3cf21294f1758509ec179f4c85c0adf0667d65999c1ca25c12f9ba855f74",
    "sg4.report.json": "ef5e401ef0c00f82aa86b1c3e54e65d37c158dc5ef80e2767f3db5855aaacd89",
    "sg4.series.json": "9f093dbf5f44efe03e8cba1fb2d1fd351d550b91d59e27aaa412b802867500b9",
}

# sc:3: a quantum walk from site 5 (off the mirror axis) at beta 0.3 and
# coupling 1.5, and a classical walk at rate 0.7, each with its matrix dump
CHAIN_DIGESTS = {
    "lattice.json": "43cd3d8657becbd3c7c157e4968bf60122d95aae0d7f5cb71a16b3166a9aa8f2",
    "quantum.json": "61fdc79cb13775896e327f2ea54c3d4f73a5295c58e36380554bfc2d6b896b2b",
    "hamiltonian.txt": "204f199a006193d7275d26320710e842039a328ed7833027c683c5646da11c85",
    "quantum.csv": "5be2d7d0117900d647009bb4b626e7137fd843485fbca046a22d011c3c116df7",
    "quantum.report.json": "8059547bd8e2f33f6be81add1ca2965d02235ef51777f7c1fc69477f7e0c2015",
    "classical.json": "389008a7875d24bedd8d3c20f408eb392901c6ad9bb3ad9659a08591e9b210e8",
    "generator.txt": "0e577348075b4126e92a122ec7527430cdfe85c2a2a57e4ec15362232dc7e6d5",
    "classical.csv": "eb6a1c7c6c7b872a746a6b20edfcf47728cd9db71f1e17bd657cba3480a70efc",
    "classical.report.json": "98af39866587519770270fff9caad15e7441ed2c06380593b431ecdd74b81f9e",
}

# sc:3 from its canonical input on the preset grid: the frames at the launch
# index and at perfbench's rendered indices, two frames off the default
# gamma, and the report calibrated on its first void at 2.675 mm
FRAME_DIGESTS = {
    "sc3_t0.pgm": "5105bc0511322c1825780181a890bfa98ce4a8714202bb7c1da29a8b214d0705",
    "sc3_t40.pgm": "257ed23ca7afefbc0768db0d0fcc5d8594c34c0516fabcef8e01b7f5252edaab",
    "sc3_t80.pgm": "1b880dc1329cce64c514d1790945e197b310f1f552e76099df1f4df1d82907f8",
    "sc3_t120.pgm": "44efdff645a7da0142e7570b0f0e8c565b2f9493f96413b48eb233d86bc89a61",
    "sc3_t160.pgm": "9d64d92399486495357b64b8f7557959291b6a7a2d3ddce533870be942fd4cf9",
    "sc3_t200.pgm": "786286b944fe36fcbcac58355b2d132877e93364b93ccb636ed12b231090a821",
    "sc3_t240.pgm": "cd449c4cdf1b8b76b2d84ac9d0e97375453ab5608684f5a2756e3f493b57b93e",
    "gamma0.3_t120.pgm": "02e78615eba543dcbd715df59d47a897991c708d7f78ca54b06c0b81815824e3",
    "gamma2_t240.pgm": "79e8674d78376e8237ecd45ccf31d5529c34e8c4dfabe74087399a678f3b422f",
    "calibrated.json": "85bfa1d21d281ec44f723d268882bb299106bb38ca00e2a97e668fe95b30f36d",
}


@pytest.fixture(autouse=True)
def isolated_output_dir(monkeypatch):
    monkeypatch.delenv("OUTPUT_DIR", raising=False)


def _digests(directory, names):
    return {name: hashlib.sha256((directory / name).read_bytes()).hexdigest()
            for name in names}


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory):
    """One sweep's directory, shared by the tests that read it."""
    out = tmp_path_factory.mktemp("sweep")
    with pytest.MonkeyPatch.context() as patch:
        patch.delenv("OUTPUT_DIR", raising=False)
        assert cli.main(["sweep", "--instances", "sg:4,sc:3,dsc:3", "--out-dir", str(out)]) == 0
    return out


def test_sweep_artifacts_keep_their_bytes(sweep_dir):
    assert sorted(p.name for p in sweep_dir.iterdir()) == sorted(SWEEP_DIGESTS)
    assert _digests(sweep_dir, SWEEP_DIGESTS) == SWEEP_DIGESTS


@pytest.mark.parametrize("stem", ["sc3", "dsc3"])
def test_sweep_series_agree_with_an_eigh_free_propagator(sweep_dir, stem):
    # the series a sweep ships, read back as any command reads them, against
    # the Chebyshev expansion of exp(-iHt) at the written times, which shares
    # no step with eigh.  Numbers, not bytes: the 12 printed digits carry
    # the eigensolver's roundoff (5.0e-13 at most, on both instances)
    lattice, series = read_walk(str(sweep_dir / f"{stem}.lattice.json"),
                                str(sweep_dir / f"{stem}.series.json"))
    expected = chebyshev_probabilities(build_hamiltonian(lattice), series.input_site,
                                       series.times)
    assert np.abs(series.probabilities - expected).max() <= 1e-12


def test_sc3_chain_artifacts_keep_their_bytes(tmp_path):
    def path(name):
        return str(tmp_path / name)

    assert cli.main(["lattice", "--kind", "sc", "--generation", "3",
                     "--out", path("lattice.json")]) == 0
    assert cli.main(["evolve", "--lattice", path("lattice.json"), "--input", "5",
                     "--beta", "0.3", "--coupling", "1.5", "--out", path("quantum.json"),
                     "--dump-hamiltonian", path("hamiltonian.txt")]) == 0
    assert cli.main(["classical", "--lattice", path("lattice.json"), "--rate", "0.7",
                     "--out", path("classical.json"),
                     "--dump-generator", path("generator.txt")]) == 0
    for walk in ("quantum", "classical"):
        series = ["--series", path(f"{walk}.json"), "--lattice", path("lattice.json")]
        assert cli.main(["observables", *series, "--out", path(f"{walk}.csv")]) == 0
        assert cli.main(["analyze", *series, "--out", path(f"{walk}.report.json")]) == 0
    assert _digests(tmp_path, CHAIN_DIGESTS) == CHAIN_DIGESTS


def test_sc3_frames_and_calibrated_report_keep_their_bytes(tmp_path):
    def path(name):
        return str(tmp_path / name)

    assert cli.main(["lattice", "--kind", "sc", "--generation", "3",
                     "--out", path("lattice.json")]) == 0
    assert cli.main(["evolve", "--lattice", path("lattice.json"),
                     "--out", path("series.json")]) == 0
    assert cli.main(["analyze", "--series", path("series.json"),
                     "--lattice", path("lattice.json"), "--out", path("report.json")]) == 0
    assert cli.main(["calibrate", "--report", path("report.json"),
                     "--anchor-event", "first_void", "--anchor-mm", "2.675",
                     "--out", path("calibrated.json")]) == 0
    # the frames on the parser's defaults, then two off its gamma: a parser
    # default that drifted from RenderSpec's would move a digest
    render = ["render", "--series", path("series.json"), "--lattice", path("lattice.json"),
              "--out-dir", str(tmp_path)]
    indices = [arg for index in (0, 40, 80, 120, 160, 200, 240)
               for arg in ("--time-index", str(index))]
    assert cli.main([*render, "--run", "sc3", *indices]) == 0
    assert cli.main([*render, "--run", "gamma0.3", "--time-index", "120",
                     "--gamma", "0.3"]) == 0
    assert cli.main([*render, "--run", "gamma2", "--time-index", "240", "--gamma", "2"]) == 0
    assert _digests(tmp_path, FRAME_DIGESTS) == FRAME_DIGESTS


def test_a_walk_agrees_with_itself_at_any_thread_count(tmp_path):
    # the pins hold at one thread count; at another the eigensolver rounds
    # differently, and the series must still agree as numbers.  Measured on
    # sc:3 at 1 and 2 OpenBLAS threads: 89,332 of the 165,808 printed values
    # differ, by 1.0e-13 at most
    lattice = str(tmp_path / "lattice.json")
    assert cli.main(["lattice", "--kind", "sc", "--generation", "3", "--out", lattice]) == 0
    src = str(pathlib.Path(fractalwalk.__file__).resolve().parents[1])
    probabilities = []
    for threads in ("1", "2"):
        series = str(tmp_path / f"series{threads}.json")
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "fractalwalk.cli", "evolve",
                               "--lattice", lattice, "--out", series],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr[-2000:]
        probabilities.append(read_walk(lattice, series)[1].probabilities)
    assert np.abs(probabilities[0] - probabilities[1]).max() <= 1e-12
