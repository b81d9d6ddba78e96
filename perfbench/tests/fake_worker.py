"""Stand-in for ``worker.py``: no Spark, scripted replies for the k-core
of the Figure 3 toy graph.

``mode`` picks the answer to every request: ``ok`` sends the gold κ,
``wrong`` κ + 1, ``hang`` never answers and keeps a child process
alive, as a driver JVM would.
"""
import argparse
import subprocess
import sys
import time
from multiprocessing.connection import Connection
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import spec  # noqa: E402
from repro.graph import generators as gen  # noqa: E402


def serve(conn, mode):
    g = spec.gold(gen.fig3_graph(), 1, 2)
    child = subprocess.Popen(["sleep", "600"])
    conn.send({"ok": True, "setup_s": 0.01, "child": child.pid})
    while True:
        msg = conn.recv()
        if msg[0] == "finish":
            child.kill()
            child.wait()
            conn.send({})
            return
        if mode == "hang":
            time.sleep(600)
        got = g.kappa + 1 if mode == "wrong" else g.kappa
        conn.send({"ok": True, "s": 0.01, "rid": g.rid, "kappa": got, "sweeps": 1})


if __name__ == "__main__":
    p = argparse.ArgumentParser()
    p.add_argument("mode")
    p.add_argument("--fd", type=int, required=True)
    a = p.parse_args()
    serve(Connection(a.fd), a.mode)
