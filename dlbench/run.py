#!/usr/bin/env python3
"""Builds the DIALITE benchmark from source and runs one workload.

    python3 dlbench/run.py --workload covid-lake|tpch-join --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The first call compiles the library and
the harness with sbt (offline) and caches the runtime classpath under
`.bench_build/`; later calls reuse it while the sources are unchanged and
every classpath entry still exists. The harness runs in one JVM and prints
its result as the last stdout line.
"""
import argparse
import glob
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
CLASSPATH = os.path.join(OUT, "classpath.txt")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
HEAP = "2g"
# What Spark's own launcher opens on Java 17+.
JAVA_OPENS = [
    "--add-opens=java.base/" + p + "=ALL-UNNAMED"
    for p in ("java.lang", "java.lang.invoke", "java.lang.reflect", "java.io",
              "java.net", "java.nio", "java.util", "java.util.concurrent",
              "java.util.concurrent.atomic", "sun.nio.ch", "sun.nio.cs",
              "sun.security.action", "sun.util.calendar")
]


def source_stamp():
    """Hash of every file the build reads, so a changed source rebuilds."""
    h = hashlib.sha256()
    for base in ("src/main", "project", "build.sbt", "dlbench/src/main",
                 "dlbench/project", "dlbench/build.sbt"):
        path = os.path.join(ROOT, base)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, dirs, fs in os.walk(path)
            if "target" not in os.path.relpath(d, ROOT).split(os.sep) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def classpath():
    stamp = source_stamp()
    if os.path.exists(CLASSPATH):
        with open(CLASSPATH) as f:
            cached_stamp, cp = f.read().split("\n", 1)
        cp = cp.strip()
        # An `sbt clean` removes the class directories the cache points at.
        if cached_stamp == stamp and all(os.path.exists(p) for p in cp.split(os.pathsep)):
            return cp
    build = subprocess.run(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
         "compile", "export Runtime/fullClasspath"],
        cwd=HERE, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
        timeout=BUILD_TIMEOUT_S, stdin=subprocess.DEVNULL)
    lines = build.stdout.strip().splitlines()
    if build.returncode != 0 or not lines or "[error]" in build.stdout:
        sys.stderr.write(build.stdout)
        sys.exit("build failed")
    cp = lines[-1].strip()
    os.makedirs(OUT, exist_ok=True)
    with open(CLASSPATH, "w") as f:
        f.write(stamp + "\n" + cp + "\n")
    return cp


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=("0", "1"), required=True)
    a = ap.parse_args()
    # The benchmark builds the library it measures; without it there is
    # nothing to run.
    if not (os.path.isfile(os.path.join(ROOT, "build.sbt"))
            and os.path.isdir(os.path.join(ROOT, "src", "main", "scala"))):
        sys.exit("no DIALITE sources next to the benchmark; run from a full checkout")
    cp = classpath()
    # A run killed on timeout leaves its Parquet lake behind.
    for stale in glob.glob(os.path.join(OUT, "lake-*")):
        shutil.rmtree(stale, ignore_errors=True)
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = (["java", "-XX:+UseParallelGC", "-Xms" + HEAP, "-Xmx" + HEAP,
            "-Djava.io.tmpdir=" + tmp] + JAVA_OPENS + ["-cp", cp, "dlbench.Bench", "--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", a.trace, "--out", OUT])
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("benchmark run exceeded %d s" % RUN_TIMEOUT_S)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        # No result line on failure: the driver must not read a half run.
        sys.stdout.write("".join(l + "\n" for l in lines if not l.startswith("{")))
        sys.exit("benchmark run failed (exit %d)" % proc.returncode)
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
