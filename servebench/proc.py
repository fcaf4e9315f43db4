"""The server under test as a child process, with bounded waits.

:class:`ServerProcess` launches ``repro serve <dataset> --backend
compact --port 0 --ready-file FILE`` (optionally through the traced
launcher), waits for the ready file under a boot deadline, and always
stops the child -- SIGINT first, so the CLI (and the traced launcher)
shut down cleanly, then SIGKILL if it does not exit in time.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.serve.client import http_get

#: Seconds the server may take from spawn to its ready file.
BOOT_DEADLINE = 60.0
#: Seconds the server may take to exit after SIGINT before SIGKILL.
STOP_DEADLINE = 15.0

BENCH_DIR = Path(__file__).resolve().parent


class ServerProcess:
    """One ``repro serve`` child process (a context manager).

    ``spans`` names the file the traced launcher writes its spans to;
    ``None`` runs the plain CLI.
    """

    def __init__(self, dataset: Path, workdir: Path, src: Path,
                 spans: Path | None = None):
        self.ready_file = (
            workdir / f"ready-{os.getpid()}-{time.monotonic_ns()}"
        )
        self.log_path = self.ready_file.with_suffix(".log")
        serve = ["serve", str(dataset), "--backend", "compact",
                 "--port", "0", "--ready-file", str(self.ready_file)]
        if spans is None:
            argv = [sys.executable, "-m", "repro", *serve]
        else:
            argv = [sys.executable, str(BENCH_DIR / "traced_server.py"),
                    str(spans), *serve]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src)
        self._log = open(self.log_path, "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdout=self._log,
                                     stderr=subprocess.STDOUT, env=env)
        self.address: tuple[str, int] | None = None
        self.setup_s: float | None = None

    def wait_ready(self) -> tuple[str, int]:
        """Block until the ready file names the bound address.

        Returns the ``(host, port)``; raises :class:`RuntimeError` if
        the server exits or misses :data:`BOOT_DEADLINE`.
        """
        deadline = self.started + BOOT_DEADLINE
        while True:
            try:
                text = self.ready_file.read_text()
            except FileNotFoundError:
                text = ""
            if text.endswith("\n"):
                self.setup_s = time.perf_counter() - self.started
                host, port = text.strip().rsplit(":", 1)
                self.address = (host, int(port))
                return self.address
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode} before "
                    f"ready:\n{self.log()}"
                )
            if time.perf_counter() > deadline:
                raise RuntimeError(
                    f"server not ready within {BOOT_DEADLINE} s:\n{self.log()}"
                )
            time.sleep(0.002)

    def metrics(self) -> dict:
        """The server's ``GET /metrics`` body."""
        return http_get(*self.address, "/metrics", timeout=10.0)

    def peak_rss_mb(self) -> float:
        """The server's peak resident set size (``VmHWM``) in MiB."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def log(self) -> str:
        """The server's captured output so far."""
        self._log.flush()
        return self.log_path.read_text(errors="replace")

    def stop(self) -> int:
        """Stop the server (SIGINT, then SIGKILL); return its exit code."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGINT)
                try:
                    self.proc.wait(STOP_DEADLINE)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait(STOP_DEADLINE)
            return self.proc.returncode
        finally:
            self._log.close()

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
