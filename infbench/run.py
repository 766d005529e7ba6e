#!/usr/bin/env python3
"""Build and run the InFine benchmark.

    python3 infbench/run.py --workload mimic-scale --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run builds the repository's main
sources together with the benchmark (sbt, offline); later runs reuse the
build while no source file changes. The last line of standard output is the
result as one JSON object. See infbench/README.md.
"""
import argparse
import fcntl
import hashlib
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build", "infbench")

# Pinned so that figures do not depend on the machine's core count or memory.
SPARK_THREADS = 2
SHUFFLE_PARTITIONS = 4
HEAP = "2g"
JVM_CPUS = 4
# Spark's cache of compiled generated code is shared by every pipeline in the
# JVM and holds 100 classes by default, fewer than one InFine call generates;
# at that size a call's cost depends on which pipeline ran before it.
CODEGEN_CACHE = 10000


def run_timeout(seconds):
    """Wall-time limit of one run: start-up, set-up, warm-up, the timed
    passes and the overrun of the last pass."""
    return 120 + 3 * seconds


# Spark on JDK 17 needs the launcher's module openings (as in ../build.sbt).
JVM_OPENS = [
    "--add-opens=java.base/" + p + "=ALL-UNNAMED" for p in (
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
        "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
        "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
        "sun.util.calendar")
] + ["-Djdk.reflect.useDirectMethodHandleAccessor=false"]


def fail(msg):
    print("infbench: " + msg, file=sys.stderr)
    sys.exit(2)


def sources():
    """Every file the build reads, in a stable order."""
    roots = [os.path.join(ROOT, "src", "main", "scala"), os.path.join(HERE, "src")]
    files = [os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
    for r in roots:
        for d, _, names in os.walk(r):
            files += [os.path.join(d, n) for n in names if n.endswith(".scala")]
    return sorted(files)


def spark_home():
    home = os.environ.get("SPARK_HOME")
    if not home and shutil.which("spark-submit"):
        home = os.path.dirname(os.path.dirname(os.path.realpath(shutil.which("spark-submit"))))
    if not home or not os.path.isdir(os.path.join(home, "jars")):
        fail("no Spark distribution: set SPARK_HOME")
    return home


def run_group(cmd, env, timeout, **kw):
    """Run cmd in its own process group; kill the whole group on timeout."""
    p = subprocess.Popen(cmd, env=env, start_new_session=True, **kw)
    try:
        return p.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        fail("%s did not finish within %d s" % (os.path.basename(cmd[0]), timeout))
    except BaseException:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        raise


def build(env):
    """Compile with sbt unless the stamp shows the same sources; return the classpath."""
    if not os.path.isdir(os.path.join(ROOT, "src", "main", "scala")):
        fail("the repository's src/main/scala is missing; run from a full checkout")
    digest = hashlib.sha256()
    for f in sources():
        digest.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            digest.update(fh.read())
    stamp = os.path.join(WORK, "build.stamp")
    cp_file = os.path.join(HERE, "target", "classpath.txt")
    os.makedirs(WORK, exist_ok=True)
    with open(os.path.join(WORK, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if os.path.exists(stamp) and os.path.exists(cp_file) and open(stamp).read() == digest.hexdigest():
            return open(cp_file).read().strip()
        sbt = shutil.which("sbt") or fail("sbt not found on PATH")
        opts = env.get("SBT_OPTS", "")
        repos = os.path.expanduser("~/.sbt/repositories")
        if "sbt.offline" not in opts and os.path.exists(repos):
            opts += (" -Dsbt.override.build.repos=true -Dsbt.repository.config=" + repos
                     + " -Dsbt.offline=true")
        benv = dict(env, SBT_OPTS=(opts + " -Xmx2g").strip())
        benv.setdefault("COURSIER_MODE", "offline")
        cmd = [sbt, "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
               "-Dsbt.global.base=" + os.path.join(WORK, "sbt-global"),
               "compile", "writeClasspath"]
        rc = run_group(cmd, benv, 850, cwd=HERE, stdout=sys.stderr, stdin=subprocess.DEVNULL)
        if rc != 0 or not os.path.exists(cp_file):
            fail("build failed (sbt exit %d)" % rc)
        with open(stamp, "w") as fh:
            fh.write(digest.hexdigest())
        return open(cp_file).read().strip()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    a = ap.parse_args()

    env = dict(os.environ)
    env["SPARK_HOME"] = spark_home()
    classpath = build(env)

    tmp = os.path.join(WORK, "tmp")
    local = os.path.join(WORK, "spark-local")
    runs = os.path.join(WORK, "runs")
    result = os.path.join(WORK, "result-%d.json" % os.getpid())
    for d in (tmp, local, runs):
        os.makedirs(d, exist_ok=True)
    env.update(SPARK_MASTER="local[%d]" % SPARK_THREADS,
               SPARK_SHUFFLE_PARTITIONS=str(SHUFFLE_PARTITIONS),
               SPARK_DRIVER_MEM=HEAP, SPARK_LOCAL_DIRS=local)
    cmd = ["java", "-Xms" + HEAP, "-Xmx" + HEAP, "-XX:ActiveProcessorCount=%d" % JVM_CPUS,
           "-XX:+IgnoreUnrecognizedVMOptions"] + JVM_OPENS + [
        "-Djava.io.tmpdir=" + tmp,
        "-Dlog4j2.configurationFile=" + os.path.join(HERE, "log4j2.properties"),
        "-Dspark.driver.host=127.0.0.1", "-Dspark.ui.enabled=false",
        "-Dspark.sql.codegen.cache.maxEntries=%d" % CODEGEN_CACHE,
        "-Dspark.local.dir=" + local,
        "-Dspark.sql.warehouse.dir=" + os.path.join(WORK, "warehouse"),
        "-cp", classpath, "infbench.Main",
        "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
        "--trace", a.trace, "--out", runs, "--result", result]
    if os.path.exists(result):
        os.remove(result)
    try:
        rc = run_group(cmd, env, run_timeout(a.seconds), cwd=ROOT, stdin=subprocess.DEVNULL)
    finally:
        for d in (tmp, local):
            shutil.rmtree(d, ignore_errors=True)
    if rc != 0 or not os.path.exists(result):
        fail("benchmark run failed (exit %d)" % rc)
    with open(result) as fh:
        line = fh.read().strip()
    os.remove(result)
    sys.stdout.flush()
    print(line)


if __name__ == "__main__":
    main()
