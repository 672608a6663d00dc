"""Start, probe and stop an out-of-process ``fps-ping serve`` daemon."""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

_BANNER = re.compile(r"listening on http://([0-9.]+):(\d+)")

#: How long a daemon may take to come up or to drain.
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


class DaemonError(RuntimeError):
    pass


class Daemon:
    """One daemon process, its stderr written to ``log_path``.

    ``traced_spans`` runs the daemon under ``traced_daemon.py``, which
    writes its spans to that path when the daemon has drained.
    """

    def __init__(
        self,
        root: Path,
        serve_args: List[str],
        log_path: Path,
        traced_spans: Optional[Path] = None,
    ) -> None:
        self.root = root
        self.log_path = log_path
        if traced_spans is None:
            self.command = [sys.executable, "-m", "repro", "serve"]
        else:
            self.command = [
                sys.executable,
                str(Path(__file__).with_name("traced_daemon.py")),
                "--spans",
                str(traced_spans),
                "serve",
            ]
        self.command += ["--host", "127.0.0.1", "--port", "0", *serve_args]
        self.spans_path = traced_spans
        self.process: Optional[subprocess.Popen] = None
        self.host = "127.0.0.1"
        self.port = 0

    def start(self) -> float:
        """Launch and wait until ``/healthz`` answers ok; returns the seconds taken."""
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        started = time.perf_counter()
        with open(self.log_path, "wb") as log:
            self.process = subprocess.Popen(
                self.command,
                cwd=self.root,
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=log,
            )
        deadline = started + START_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise DaemonError(
                    f"daemon exited with {self.process.returncode}: {self.log_tail()}"
                )
            if not self.port:
                match = _BANNER.search(self.log_path.read_text(errors="replace"))
                if match:
                    self.host, self.port = match.group(1), int(match.group(2))
            if self.port and self._healthy():
                return time.perf_counter() - started
            time.sleep(0.005)
        self.stop()
        raise DaemonError(f"daemon not healthy after {START_TIMEOUT_S} s: {self.log_tail()}")

    def _healthy(self) -> bool:
        try:
            status, payload = self.get("/healthz")
        except OSError:
            return False
        return status == 200 and payload.get("status") == "ok"

    def get(self, path: str):
        connection = http.client.HTTPConnection(self.host, self.port, timeout=10)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, json.loads(response.read() or b"{}")
        finally:
            connection.close()

    def post(self, path: str, body: bytes):
        connection = http.client.HTTPConnection(self.host, self.port, timeout=120)
        try:
            connection.request(
                "POST", path, body=body, headers={"Content-Type": "application/json"}
            )
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def stats(self) -> dict:
        status, payload = self.get("/stats")
        if status != 200:
            raise DaemonError(f"/stats answered {status}")
        return payload

    def peak_rss_mb(self) -> float:
        """The daemon's peak resident set (VmHWM) in MiB."""
        assert self.process is not None
        with open(f"/proc/{self.process.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise DaemonError("VmHWM not reported")

    def stop(self) -> int:
        """SIGTERM (graceful drain), then SIGKILL if it does not exit."""
        process = self.process
        if process is None:
            return 0
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        self.process = None
        return process.returncode

    def log_tail(self, lines: int = 5) -> str:
        try:
            return " | ".join(self.log_path.read_text(errors="replace").splitlines()[-lines:])
        except OSError:
            return ""


def stats_delta(before: dict, after: dict) -> dict:
    """Counter deltas of the fleet and server sections of two /stats reads."""
    delta = {}
    for section in ("fleet", "server"):
        for key, value in after[section].items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                delta[key] = value - before[section].get(key, 0)
    return delta
