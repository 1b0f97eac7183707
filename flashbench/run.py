#!/usr/bin/env python3
"""Run one FlashP benchmark workload and print its result.

    python3 flashbench/run.py --workload interactive --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run builds the product's sources
together with the harness (sbt, offline) into .bench_build/; later runs reuse
that build while the sources are unchanged. The JVM's stdout is passed
through, so the last line is the JSON result. Exits non-zero, without a
result, if the build or the run fails; exits 1, with a result marked
"correct": false, if an output check fails.
"""
import argparse
import hashlib
import os
import pathlib
import shutil
import signal
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "flashbench"
BUILD = ROOT / ".bench_build"
PRODUCT = ROOT / "src" / "main" / "scala"
SOURCES = [PRODUCT, BENCH / "src", BENCH / "build.sbt", BENCH / "project" / "build.properties"]
HEAP = "2g"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    sys.stderr.write(f"flashbench: {msg}\n")
    sys.exit(2)


def source_stamp():
    h = hashlib.sha256()
    for top in SOURCES:
        files = sorted(p for p in top.rglob("*") if p.is_file()) if top.is_dir() else [top]
        for f in files:
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()


def classpath():
    """Compile if the sources changed since the last build; return the classpath."""
    cp_file, stamp_file = BUILD / "classpath.txt", BUILD / "classpath.stamp"
    stamp = source_stamp()
    if cp_file.exists() and stamp_file.exists() and stamp_file.read_text() == stamp:
        return cp_file.read_text().strip()
    BUILD.mkdir(exist_ok=True)
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    spark_submit = shutil.which("spark-submit")
    if "SPARK_HOME" not in env and spark_submit:
        env["SPARK_HOME"] = str(pathlib.Path(spark_submit).resolve().parent.parent)
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "compile", "export Runtime/fullClasspath"]
    try:
        p = subprocess.run(cmd, cwd=BENCH, env=env, stdin=subprocess.DEVNULL,
                           stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                           timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    lines = [l for l in p.stdout.splitlines() if l.strip()]
    if p.returncode != 0 or not lines or lines[-1].startswith("["):
        sys.stderr.write(p.stdout[-6000:])
        fail("build failed")
    cp_file.write_text(lines[-1])
    stamp_file.write_text(stamp)
    return lines[-1]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["interactive", "full_scan", "daily_ingest"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    a = ap.parse_args()
    if not PRODUCT.is_dir():
        fail(f"no product sources at {PRODUCT.relative_to(ROOT)}; run from a full checkout")

    cp = classpath()
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    # A fixed, pre-touched heap and the parallel collector keep run-to-run
    # jitter from heap growth and concurrent GC threads out of the timings.
    cmd = ["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:+AlwaysPreTouch", "-XX:+UseParallelGC",
           f"-Djava.io.tmpdir={tmp}",
           # Spark on Java 17 needs these modules opened.
           "--add-opens=java.base/java.lang=ALL-UNNAMED",
           "--add-opens=java.base/java.nio=ALL-UNNAMED",
           "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
           "--add-opens=java.base/java.util=ALL-UNNAMED",
           "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
           "-cp", cp, "flashbench.Main",
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    lines = out.splitlines()
    if proc.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
        sys.stdout.write("\n".join(l for l in lines if not l.startswith("{")) + "\n")
        fail(f"run failed with exit code {proc.returncode}")
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
