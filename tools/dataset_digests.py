"""sha256 digests of generated datasets and the files written from them.

Run from any directory with the tree's own sources:

    python3 tools/dataset_digests.py > digests.txt

For each configuration it prints one "<config> <what> <sha256>" line per
digest: the bytes of ``generate``'s A, b and x_true, the dataset CSV and
binary that ``bench.save_dataset_csv`` and ``bench.save_dataset_binary``
write, and the three files ``hessavg generate`` writes (.csv, .bin, .json).

Run it on two trees with the same environment (the BLAS thread count can
change ``generate``'s bits) and ``diff`` the outputs: an empty diff says the
change left every one of these files byte-identical.  The configurations put
n*d on both sides of the CSV writer's share size (250,000 values per share,
so 2 shares from 500,000 values on a machine with 2 or more CPUs), with n
odd in some, at low and high coherence, up to the benchmark's 8000 x 400.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from hessavg import bench, cli  # noqa: E402
from hessavg.datagen import DataGenConfig, generate  # noqa: E402

# (coherence, n, d, kappa of A, seed)
CONFIGS = [
    ("low", 300, 30, 10.0, 1),
    ("high", 300, 30, 10.0, 2),
    ("low", 1001, 499, 100.0, 3),
    ("high", 1001, 499, 100.0, 4),
    ("low", 2001, 300, 300.0, 5),
    ("high", 2001, 300, 300.0, 6),
    ("low", 8000, 400, 400.0, 7),
    ("high", 8000, 400, 400.0, 8),
]
REG_NU = 1e-3


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def digests(coherence, n, d, kappa, seed, workdir):
    """(what, sha256) pairs of one configuration."""
    cfg = DataGenConfig(n=n, d=d, coherence_mode=coherence, kappa_A=kappa,
                        reg_nu=REG_NU, seed=seed)
    ds, x_true = generate(cfg)
    out = [("A", hashlib.sha256(ds.A.tobytes()).hexdigest()),
           ("b", hashlib.sha256(ds.b.tobytes()).hexdigest()),
           ("x_true", hashlib.sha256(x_true.tobytes()).hexdigest())]
    base = os.path.join(workdir, "data")
    bench.save_dataset_csv(base + ".csv", ds)
    bench.save_dataset_binary(base + ".bin", ds)
    out += [("save_dataset_csv", sha256_file(base + ".csv")),
            ("save_dataset_binary", sha256_file(base + ".bin"))]
    del ds, x_true
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.main(["generate", "--n", str(n), "--d", str(d),
                           "--coherence", coherence, "--kappa", repr(kappa),
                           "--reg-nu", repr(REG_NU), "--seed", str(seed),
                           "--out", base])
    if status != 0:
        raise SystemExit("hessavg generate exited with %d" % status)
    out += [("generate" + ext, sha256_file(base + ext))
            for ext in (".csv", ".bin", ".json")]
    leftovers = sorted(set(os.listdir(workdir))
                       - {"data.csv", "data.bin", "data.json"})
    if leftovers:
        raise SystemExit("files left behind: %s" % ", ".join(leftovers))
    return out


def main():
    with tempfile.TemporaryDirectory() as workdir:
        for config in CONFIGS:
            name = "%s-%dx%d-seed%d" % (config[0], config[1], config[2],
                                        config[4])
            for what, digest in digests(*config, workdir):
                print(name, what, digest, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
