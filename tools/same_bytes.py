"""Check that the CLI at a git revision and in the working tree give the same bytes.

    python3 tools/same_bytes.py [REV]        (REV defaults to HEAD)

The script extracts src/ at REV with `git archive`, writes a fixed corpus of
94 commands and their inputs (drawn with numpy from a fixed seed) into one
temporary directory, and runs the corpus in one fresh interpreter per tree:
REV's src/ and the working tree's src/. Both trees read the same input paths,
so the paths echoed in reports agree. For each command it compares the exit
code, stdout, stderr and the bytes of the --out file. It prints each mismatch,
with the first line that differs in each differing stream (old -> new), and
each working-tree command that raised or exited other than 0 or 2 (a crash
both trees share would otherwise count as identical), then "k/94 identical"
and how many commands exit 2, and exits 1 on any of those findings.
"""

import io
import json
import subprocess
import sys
import tarfile
import tempfile
from itertools import zip_longest
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

# Runs in the fresh interpreter: argv = [src dir, corpus file, results file].
_RUNNER = r"""
import contextlib, io, json, sys
from pathlib import Path
src, corpus, results = sys.argv[1:]
sys.path.insert(0, src)
import quditcorr
if not quditcorr.__file__.startswith(src):
    sys.exit(f"imported quditcorr from {quditcorr.__file__}, not {src}")
from quditcorr.cli import main
outcomes = []
for argv, out in json.loads(Path(corpus).read_text()):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = f"raised {type(exc).__name__}: {exc}"
    written = None
    if out is not None and Path(out).exists():
        written = Path(out).read_bytes().decode("utf-8", "backslashreplace")
        Path(out).unlink()
    outcomes.append({"exit code": code, "stdout": stdout.getvalue(),
                     "stderr": stderr.getvalue(), "--out bytes": written})
Path(results).write_text(json.dumps(outcomes))
"""

# (dims, split): 2- to 4-axis layouts at N = 4 to 256, every split of each.
_LAYOUTS = [((2, 2), 1), ((3, 4), 1), ((2, 3, 2), 1), ((2, 3, 2), 2), ((4, 16), 1),
            ((4, 4, 4), 1), ((4, 4, 4), 2), ((16, 16), 1), ((2, 8, 16), 1), ((2, 8, 16), 2),
            ((2, 3, 2, 2), 1), ((2, 3, 2, 2), 2), ((2, 3, 2, 2), 3)]
# (dims, extra flags, whether to pass a random --grid): one sweep per spin dimension; the
# odd N = 9 keeps the middle row of the mirrored Wigner d on the byte-exact path.
_SWEEPS = [((2, 2), ["--q", "2"], False), ((2, 3), ["--q", "0.5", "--q", "3"], True),
           ((4, 4), ["--q", "2"], False), ((8, 8), ["--q", "2", "--q", "3"], True),
           ((16, 16), ["--q", "2"], False), ((3, 3), ["--q", "1.5"], True)]


def _density(rng, n: int, rank: int) -> dict:
    g = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return {"dim": n, "re": rho.real.tolist(), "im": rho.imag.tolist()}


def _probabilities(rng, n: int) -> np.ndarray:
    p = rng.dirichlet(np.ones(n))
    p[rng.permutation(n)[: n // 4]] = 0.0  # exact zeros take the masked kernel path
    return p / p.sum()


def _write(path: Path, data) -> None:
    """Write one corpus input; an input name used twice would silently replace the first."""
    if path.exists():
        sys.exit(f"corpus input {path.name} is written twice")
    if isinstance(data, bytes):
        path.write_bytes(data)
    else:
        path.write_text(data)


def write_corpus(tmp: Path) -> list:
    """The 94 (argv, --out path or None) pairs, with their inputs written under `tmp`."""
    rng = np.random.default_rng(20171)
    commands = [(["demo-four-level"], None), (["fuzz", "--seed", "1"], None),
                (["fuzz", "--seed", "7", "--q", "0.5", "--q", "2", "--q", "4"], None),
                (["fuzz", "--seed", "3", "--count", "1"], None),  # one-sample blocks
                (["fuzz", "--seed", "5", "--count", "257", "--q", "2"], None),  # one odd block
                (["fuzz", "--seed", "5", "--count", "513", "--q", "2"], None),  # 1-sample tail
                (["fuzz", "--seed", "11", "--count", "3000"], None)]  # 6 blocks, 440-sample tail
    out = str(tmp / "fuzz_7919.json")
    commands.append((["fuzz", "--seed", "7919", "--out", out], out))

    for k, (dims, split) in enumerate(_LAYOUTS):
        n = int(np.prod(dims))
        layout = ["--dims", ",".join(map(str, dims)), "--split", str(split)]
        state = tmp / f"dm_{k}.json"
        _write(state, json.dumps(_density(rng, n, (n, 1, 2)[k % 3])))
        out = str(tmp / f"dm_{k}_out.json") if k % 2 else None
        commands.append((["analyze-dm", "--input", str(state), *layout]
                         + (["--out", out] if out else []), out))
        p = _probabilities(rng, n)
        if n <= 12:
            vector = tmp / f"p_{k}.csv"
            _write(vector, "".join(f"{v!r}\n" for v in p.tolist()))
        else:
            vector = tmp / f"p_{k}.json"
            _write(vector, json.dumps(p.tolist()))
        out = str(tmp / f"p_{k}_out.json") if k % 2 == 0 else None
        commands.append((["analyze-prob", "--input", str(vector), *layout, "--q", "2",
                          "--q", "0.5", "--q", "3", "--conditionals"]
                         + (["--out", out] if out else []), out))

    psi = rng.normal(size=6) + 1j * rng.normal(size=6)
    psi /= np.linalg.norm(psi)
    rho = np.outer(psi, psi.conj())
    pure = tmp / "pure_2x3.json"
    _write(pure, json.dumps({"dim": 6, "re": rho.real.tolist(), "im": rho.imag.tolist()}))
    commands.append((["analyze-dm", "--input", str(pure), "--dims", "2,3"], None))

    for dims, flags, custom_grid in _SWEEPS:
        n = int(np.prod(dims))
        state = tmp / f"spin_{n}.json"
        _write(state, json.dumps(_density(rng, n, n if n < 64 else 3)))
        out = str(tmp / f"spin_{n}_records.jsonl")
        argv = ["tomogram-sweep", "--input", str(state), "--dims", ",".join(map(str, dims)),
                *flags, "--out", out]
        if custom_grid:
            theta = rng.uniform(0.0, np.pi, 40)
            phi = rng.uniform(0.0, 2.0 * np.pi, 40)
            psi_angle = rng.uniform(-np.pi, np.pi, 40)
            path = tmp / f"grid_{n}.json"
            _write(path, json.dumps([{"theta": t, "phi": f, "psi": s} for t, f, s
                                     in zip(theta.tolist(), phi.tolist(), psi_angle.tolist())]))
            argv += ["--grid", str(path)]
        commands.append((argv, out))

    # The heaviest report to render: 1024 four-entry conditional rows, about 10k floats.
    vector = tmp / "p_4096.json"
    _write(vector, json.dumps(_probabilities(rng, 4096).tolist()))
    commands.append((["analyze-prob", "--input", str(vector), "--dims", "1024,2,2", "--split", "1",
                      "--q", "2", "--q", "3", "--conditionals"], None))

    # Every optional flag left at its default, so the request echoes the defaults.
    commands += [(["analyze-prob", "--input", str(tmp / "p_2.csv"), "--dims", "2,3,2"], None),
                 (["analyze-dm", "--input", str(tmp / "dm_5.json"), "--dims", "4,4,4"], None),
                 (["tomogram-sweep", "--input", str(tmp / "spin_16.json"), "--dims", "4,4"], None)]

    # Error paths: each exits 2, and its message must not move either.
    bad = {"bool_p.json": [True, False, False, False],
           "huge_dim.json": {"dim": 10**400, "re": [[1.0]]},
           "fractional_dim.json": {"dim": 4.5, "re": (np.eye(4) / 4).tolist()},
           "no_re.json": {"dim": 2, "im": [[0.0, 0.0], [0.0, 0.0]]},
           "bool_grid.json": [{"theta": True, "phi": False}]}
    for name, payload in bad.items():
        _write(tmp / name, json.dumps(payload))
    _write(tmp / "latin1_grid.json", b"\xff\xfe[]")
    bell = str(tmp / "spin_4.json")
    commands += [(["analyze-prob", "--input", str(tmp / "bool_p.json"), "--dims", "2,2"], None),
                 (["analyze-dm", "--input", str(tmp / "huge_dim.json"), "--dims", "1,1"], None),
                 (["analyze-dm", "--input", str(tmp / "fractional_dim.json"), "--dims", "2,2"],
                  None),
                 (["analyze-dm", "--input", str(tmp / "no_re.json"), "--dims", "2,1"], None)]
    commands += [(["tomogram-sweep", "--input", bell, "--dims", "2,2", "--grid", str(tmp / grid)],
                   None) for grid in ("bool_grid.json", "latin1_grid.json")]
    commands.append((["tomogram-sweep", "--input", str(tmp / "spin_16.json"), "--dims", "2,2,4"],
                     None))
    # Numbers beyond the float range, which json.loads reads as infinities.
    overflowing = {"overflow_re.json": '{"dim": 2, "re": [[1e400, 0.0], [0.0, 0.0]]}',
                   "overflow_p.json": "[1e400, 0.5]",
                   "overflow_grid.json": '[{"theta": 0.1, "phi": 1e400}]'}
    for name, text in overflowing.items():
        _write(tmp / name, text)
    commands += [(["analyze-dm", "--input", str(tmp / "overflow_re.json"), "--dims", "2,1"], None),
                 (["analyze-prob", "--input", str(tmp / "overflow_p.json"), "--dims", "2,1"], None),
                 (["tomogram-sweep", "--input", bell, "--dims", "2,2",
                   "--grid", str(tmp / "overflow_grid.json")], None)]
    # Grids with two bad entries: the first bad entry is named, and within an entry its form,
    # then its numbers, then its ranges. Then a true among five entries, a grid that holds the
    # word true only in a string (so it is searched for booleans, and accepted), and a grid at
    # the range edges, which is accepted.
    grids = {"phi_0_theta_1.json": '[{"theta": 0.3, "phi": 7.0}, {"theta": 4.0, "phi": 0.1}]',
             "range_1_key_2.json": '[{"theta": 0.3, "phi": 0.1}, {"theta": -0.5, "phi": 0.1}, '
                                   '{"theta": 0.3}]',
             "text_0_key_1.json": '[{"theta": "0.3", "phi": 0.1}, {"phi": 0.2}]',
             "range_0_null_1.json": '[{"theta": 0.3, "phi": -1.0}, {"theta": null, "phi": 0.2}]',
             "infinity_0_range_1.json": '[{"theta": 0.3, "phi": 0.1, "psi": Infinity}, '
                                        '{"theta": 9.0, "phi": 0.1}]',
             "key_0_range_1.json": '[[0.3, 0.1], {"theta": 9.0, "phi": 0.1}]',
             "true_3_of_5.json": json.dumps([{"theta": 0.1 * k, "phi": 0.2 * k}
                                             | ({"psi": True} if k == 3 else {})
                                             for k in range(5)]),
             "true_text_grid.json": '[{"theta": 0.3, "phi": 0.1, "note": "true"}, '
                                    '{"theta": 1.2, "phi": 4.0}]',
             "edge_grid.json": json.dumps([{"theta": np.pi, "phi": np.nextafter(2.0 * np.pi, 0.0)},
                                           {"theta": 0.0, "phi": 0.0, "psi": -3.0}])}
    for name, text in grids.items():
        _write(tmp / name, text)
        commands.append((["tomogram-sweep", "--input", bell, "--dims", "2,2", "--q", "2",
                          "--grid", str(tmp / name)], None))
    # States the sweep certifies and refuses: anti-Hermitian part, trace 4/3, and eigenvalues
    # 0.55, 0.25, 0.25 and -0.05.
    swap = np.zeros((4, 4))
    swap[0, 1] = 0.3
    refused = {"skew_4.json": {"dim": 4, "re": (np.eye(4) / 4).tolist(), "im": swap.tolist()},
               "trace_4.json": {"dim": 4, "re": (np.eye(4) / 3).tolist()},
               "not_psd_4.json": {"dim": 4, "re": (np.eye(4) / 4).tolist(),
                                  "im": (swap - swap.T).tolist()}}
    for name, payload in refused.items():
        _write(tmp / name, json.dumps(payload))
        commands.append((["tomogram-sweep", "--input", str(tmp / name), "--dims", "2,2"], None))

    # The larger block first, so a swapped leading and trailing block sum cannot pass.
    out = str(tmp / "spin_6_3x2_records.jsonl")
    commands += [(["tomogram-sweep", "--input", str(tmp / "spin_6.json"), "--dims", "3,2",
                   "--q", "2", "--out", out], out),
                 (["analyze-prob", "--input", str(tmp / "p_1.csv"), "--dims", "4,3", "--q", "2",
                   "--conditionals"], None)]

    # Unit-axis layouts: one side of each split is a single level, so I = 0 up to the
    # rounding of that level's total.
    state, vector = tmp / "dm_unit_6.json", tmp / "p_unit_6.csv"
    _write(state, json.dumps(_density(rng, 6, 6)))
    _write(vector, "".join(f"{v!r}\n" for v in _probabilities(rng, 6).tolist()))
    commands += [(["analyze-dm", "--input", str(state), "--dims", dims], None)
                 for dims in ("6,1", "1,6")]
    commands += [(["analyze-prob", "--input", str(vector), "--dims", "1,6", "--q", "2"], None),
                 (["analyze-prob", "--input", str(vector), "--dims", "6,1", "--conditionals"],
                  None)]

    # Three eigenvalues of -4e-11 (negative mass 1.2e-10, which the state check refuses) and
    # their twin at -3.3e-11 (9.9e-11, which it accepts); the twin's sum, one reduced level of
    # -9.9e-11 at --dims 2,3, passes the floor too. A qubit's tomogram reaches its eigenvalue of
    # -5e-11. Then a finite, Hermitian, unit-trace file whose m + m^dagger overflows, which both
    # commands refuse as not PSD.
    states = {"floor_2.json": {"dim": 2, "re": np.diag([1.0 + 5e-11, -5e-11]).tolist()},
              "near_float_max.json": {"dim": 2, "re": [[0.5, 1e308], [1e308, 0.5]]}}
    for name, level in (("edge_6.json", -4e-11), ("edge_twin_6.json", -3.3e-11)):
        edge = np.array([level, 0.3, level, 0.3, level, 0.0])
        edge[5] = 1.0 - edge.sum()
        states[name] = {"dim": 6, "re": np.diag(edge).tolist()}
    for name, payload in states.items():
        _write(tmp / name, json.dumps(payload))
    commands += [(["analyze-dm", "--input", str(tmp / "edge_6.json"), "--dims", dims], None)
                 for dims in ("2,3", "3,2")]
    commands += [([command, "--input", str(tmp / "edge_twin_6.json"), "--dims", dims], None)
                 for dims in ("2,3", "3,2") for command in ("analyze-dm", "tomogram-sweep")]
    commands += [([command, "--input", str(tmp / name), "--dims", "2,1"], None)
                 for command, name in (("tomogram-sweep", "floor_2.json"),
                                       ("analyze-dm", "near_float_max.json"),
                                       ("tomogram-sweep", "near_float_max.json"))]
    # Diagonal states with one level at 1 + (N - 1) s and N - 1 at -s. The slack_N files carry
    # a negative mass (N - 1) s of 1.5e-10 to 6.2e-9, which the state check refuses; their
    # twins carry 0.99 PSD_ATOL, which it accepts: their tomograms reach past 1 and their
    # entropies below 0 by that mass, and the checks allow for it.
    for n, slack, dims in ((4, 5e-11, "2,2"), (16, 0.99e-10, "4,4"), (64, 0.99e-10, "8,8")):
        for name, s in ((f"slack_{n}.json", slack), (f"slack_twin_{n}.json", 0.99e-10 / (n - 1))):
            levels = np.full(n, -s)
            levels[0] = 1.0 + (n - 1) * s
            _write(tmp / name, json.dumps({"dim": n, "re": np.diag(levels).tolist()}))
            commands += [([command, "--input", str(tmp / name), "--dims", dims], None)
                         for command in ("analyze-dm", "tomogram-sweep")]
    return commands


def first_difference(old, new) -> str:
    """`line k: <old> -> <new>` for the first line at which two outcomes differ; a line
    one side lacks (or a --out file it did not write) reads as None."""
    lines = ([] if v is None else str(v).splitlines(keepends=True) for v in (old, new))
    for k, (a, b) in enumerate(zip_longest(*lines), 1):
        if a != b:
            return f"line {k}: {a!r} -> {b!r}"
    return f"{old!r} -> {new!r}"  # the same lines: an empty --out file against none


def run_tree(src: Path, corpus: Path, results: Path) -> list:
    subprocess.run([sys.executable, "-c", _RUNNER, str(src), str(corpus), str(results)],
                   check=True, cwd=corpus.parent)
    return json.loads(results.read_text())


def main(argv) -> int:
    if len(argv) > 1:
        sys.exit("usage: same_bytes.py [REV]")
    rev = argv[0] if argv else "HEAD"
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                                 check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp / "rev", filter="data")
        commands = write_corpus(tmp)
        corpus = tmp / "corpus.json"
        corpus.write_text(json.dumps(commands))
        before = run_tree(tmp / "rev" / "src", corpus, tmp / "rev.json")
        after = run_tree(ROOT / "src", corpus, tmp / "tree.json")
    identical = broken = 0
    for (command, _), old, new in zip(commands, before, after):
        differing = [key for key in old if old[key] != new[key]]
        if differing:
            print(f"MISMATCH ({', '.join(differing)}): {' '.join(command)}")
            for key in differing:
                print(f"  {key} {first_difference(old[key], new[key])}")
        else:
            identical += 1
        if new["exit code"] not in (0, 2):
            broken += 1
            print(f"EXIT {new['exit code']}: {' '.join(command)}")
    exits_2 = sum(new["exit code"] == 2 for new in after)
    print(f"{identical}/{len(commands)} identical; {exits_2} exit 2")
    return 0 if identical == len(commands) and not broken else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
