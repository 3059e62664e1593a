#!/usr/bin/env python3
"""Runs one benchmark run of the Layph reproduction (see README.md here).

    python3 layphbench/run.py --workload uk-sssp-b10 --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout. On first use, or after any source change,
it builds the program and the benchmark with sbt (offline). It then starts one
JVM that generates the inputs from the seed, runs the closed loop and prints
the result line as the last line of standard output.

    python3 layphbench/run.py --compare A.json B.json

compares two stored run records (.bench_out/results/*.json) and refuses if
their input fingerprints differ.
"""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
TARGET = BENCH / "target"
OUT = ROOT / ".bench_out"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850

JAVA_OPENS = [
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
    "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
    "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
    "sun.util.calendar",
]


def fail(msg, code=2):
    print(f"layphbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_files():
    """Everything the build reads: both build definitions and both source trees."""
    files = [ROOT / "build.sbt", ROOT / "project" / "build.properties",
             BENCH / "build.sbt", BENCH / "project" / "build.properties"]
    for tree in (ROOT / "src" / "main", BENCH / "src" / "main"):
        files += sorted(p for p in tree.rglob("*") if p.is_file())
    return files


def stamp():
    h = hashlib.sha256()
    for p in source_files():
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def sbt_env():
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    repos = Path.home() / ".sbt" / "repositories"
    if "SBT_OPTS" not in env and repos.exists():
        env["SBT_OPTS"] = (f"-Dsbt.override.build.repos=true -Dsbt.repository.config={repos} "
                           "-Dsbt.offline=true -Xmx2g")
    return env


def classpath():
    """Builds when the sources changed since the last build; returns the classpath."""
    for p in (ROOT / "build.sbt", ROOT / "src" / "main" / "scala", BENCH / "build.sbt"):
        if not p.exists():
            fail(f"{p.relative_to(ROOT)} is missing: run from the root of a full checkout")
    want = stamp()
    stamp_file, cp_file = TARGET / "bench-stamp.txt", TARGET / "bench-classpath.txt"
    if stamp_file.exists() and cp_file.exists() and stamp_file.read_text() == want:
        return cp_file.read_text().strip()
    print("layphbench: building with sbt", file=sys.stderr)
    try:
        r = subprocess.run(
            ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
             "compile", "export Runtime/fullClasspath"],
            cwd=BENCH, env=sbt_env(), stdout=subprocess.PIPE, stderr=sys.stderr,
            text=True, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out", 1)
    lines = [l for l in r.stdout.splitlines() if l.strip()]
    if r.returncode != 0 or not lines or "layphbench" not in lines[-1]:
        sys.stderr.write(r.stdout)
        fail(f"build failed (sbt exit {r.returncode})", 1)
    TARGET.mkdir(exist_ok=True)
    cp_file.write_text(lines[-1])
    stamp_file.write_text(want)
    return lines[-1]


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """The result line has exactly the agreed keys and the agreed metrics."""
    res = json.loads(line)
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(res)}")
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if (ROOT / "BENCHMARK.json").exists() and got != expected_metrics(trace):
        raise ValueError("metrics differ from BENCHMARK.json")
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        raise ValueError("nothing attempted")


def run(args):
    trace = "--trace" in args[:-1] and args[args.index("--trace") + 1] == "1"
    cp = classpath()
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    cmd = (["java"] + [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in JAVA_OPENS] +
           ["-Dspark.driver.host=127.0.0.1", "-Djdk.reflect.useDirectMethodHandle=false",
            f"-Djava.io.tmpdir={tmp}", f"-Dlog4j2.configurationFile={BENCH / 'log4j2.properties'}",
            "-Xmx3g", "-cp", cp, "layphbench.Main", "--out", str(OUT)] + args)
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 1)
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        sys.stdout.write(r.stdout)
        fail(f"run failed (exit {r.returncode})", r.returncode or 1)
    try:
        check_result(lines[-1], trace)
    except ValueError as e:
        fail(f"bad result line: {e}", 1)
    sys.stdout.write(r.stdout)
    sys.stdout.flush()


def comparable(a, b):
    fa, fb = dict(a), dict(b)
    da, db = fa.pop("delta_hashes"), fb.pop("delta_hashes")
    return fa == fb and all(x == y for x, y in zip(da, db))


def compare(path_a, path_b):
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    if not comparable(a["fingerprint"], b["fingerprint"]):
        fail("refusing to compare: the runs' input fingerprints differ", 3)
    ma, mb = json.loads(a["result"])["metrics"], json.loads(b["result"])["metrics"]
    for name in ma:
        x, y = ma[name]["value"], mb.get(name, {}).get("value")
        ratio = f"{y / x:.3f}" if x and y is not None else "-"
        print(f"{name:40s} {x!s:>22} {y!s:>22}  b/a={ratio} {ma[name]['unit']}")


def main():
    args = sys.argv[1:]
    if args[:1] == ["--compare"] and len(args) == 3:
        compare(args[1], args[2])
    else:
        run(args)


if __name__ == "__main__":
    main()
