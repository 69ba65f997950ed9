"""A ``python -m repro serve`` subprocess driven over stdlib ``http.client``."""

from __future__ import annotations

import http.client
import json
import os
import re
import select
import socket
import subprocess
import sys
import time
from pathlib import Path

READY_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 10.0
_URL = re.compile(r"http://([\d.]+):(\d+)")
_SAMPLE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)$")


def parse_prometheus(text: str) -> dict[str, float]:
    """Flatten an exposition into ``{'name{labels}': value}``."""
    out: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        if match:
            out[match.group(1) + (match.group(2) or "")] = float(match.group(3))
    return out


def connect(host: str, port: int) -> http.client.HTTPConnection:
    conn = http.client.HTTPConnection(host, port, timeout=REQUEST_TIMEOUT_S)
    conn.connect()
    conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return conn


def request(conn: http.client.HTTPConnection, method: str, path: str,
            body: bytes | None = None) -> tuple[int, bytes]:
    headers = {"Content-Type": "application/json"} if body is not None else {}
    conn.request(method, path, body=body, headers=headers)
    response = conn.getresponse()
    return response.status, response.read()


class Daemon:
    """One serving process; :meth:`stop` always reaps it."""

    def __init__(self, model: Path, src: Path, log_path: Path,
                 extra_args: list[str]) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        self._log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--model", str(model),
             "--host", "127.0.0.1", "--port", "0", *extra_args],
            stdout=subprocess.PIPE, stderr=self._log, env=env,
        )
        self.host = "127.0.0.1"
        self.port = 0
        self._conn: http.client.HTTPConnection | None = None

    def wait_ready(self) -> None:
        """Block until the daemon announced its port and ``/readyz`` is 200."""
        deadline = time.monotonic() + READY_TIMEOUT_S
        line = b""
        while not line.endswith(b"\n"):
            remaining = deadline - time.monotonic()
            if remaining <= 0 or self.proc.poll() is not None:
                raise RuntimeError(f"daemon did not start (exit {self.proc.poll()})")
            ready, _, _ = select.select([self.proc.stdout], [], [], remaining)
            if ready:
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    raise RuntimeError("daemon closed stdout before announcing its port")
                line += chunk
        match = _URL.search(line.decode("utf-8", "replace"))
        if match is None:
            raise RuntimeError(f"no URL in daemon banner: {line!r}")
        self.host, self.port = match.group(1), int(match.group(2))
        while True:
            try:
                status, _ = request(self.conn(), "GET", "/readyz")
                if status == 200:
                    return
            except OSError:
                self._conn = None
            if time.monotonic() > deadline:
                raise RuntimeError("daemon never became ready")
            time.sleep(0.005)

    def conn(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = connect(self.host, self.port)
        return self._conn

    def get_json(self, path: str) -> dict:
        status, body = request(self.conn(), "GET", path)
        if status != 200:
            raise RuntimeError(f"GET {path} -> {status}")
        return json.loads(body)

    def metrics(self) -> dict[str, float]:
        status, body = request(self.conn(), "GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"GET /metrics -> {status}")
        return parse_prometheus(body.decode("utf-8"))

    def peak_rss_mb(self) -> float:
        """The daemon's ``VmHWM`` (peak resident set) in MiB."""
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()
