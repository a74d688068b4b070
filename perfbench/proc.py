"""Spawn one CLI request and account for that child alone.

Children are started by `launcher.py`, a small helper process, so that each
child's peak RSS (`ru_maxrss` from `os.wait4`) is its own: Linux carries
the peak RSS of the process a child replaces at exec into the child's
figure, which for a child of the benchmark itself would be the benchmark's
size.  The `RUSAGE_CHILDREN` totals would instead report the largest child
ever reaped.  The child's stdout is read as it arrives, so the time to its
first data record is what a reader at the other end of a pipe (`| head`)
waits for.
"""

from __future__ import annotations

import json
import os
import selectors
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# Lines that carry no data record: `#` comments, CSV headers, and the JSON
# metadata records that precede a command's items.
_NOT_RECORDS = (
    b"#",
    b"n,k,r,s,",
    b"a,b,c,",
    b"B,family_count,",
    b'{"record": "g_class"',
    b'{"record": "f_spec"',
    b'{"record": "cf_element"',
)


def is_record(line: bytes) -> bool:
    return bool(line) and not line.startswith(_NOT_RECORDS)


@dataclass(frozen=True)
class Outcome:
    code: int | None  # None when the deadline killed the child
    stdout: bytes
    stderr: bytes
    wall_s: float  # spawn to reap
    first_record_s: float  # spawn to the first data record; wall_s if none came
    peak_rss_mb: float  # 10**6 bytes
    cpu_s: float  # user + system


class Launcher:
    """The helper process that starts children; use as a context manager."""

    def __enter__(self) -> Launcher:
        self.sock, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        script = Path(__file__).with_name("launcher.py")
        self.proc = subprocess.Popen(
            [sys.executable, "-S", "-I", str(script), str(theirs.fileno())],
            stdin=subprocess.DEVNULL,
            pass_fds=[theirs.fileno()],
        )
        theirs.close()
        return self

    def __exit__(self, *exc) -> None:
        self.sock.close()  # the launcher exits at end of file
        self.proc.wait()

    def _reply(self):
        msg = self.sock.recv(1 << 16)
        if not msg:
            raise RuntimeError("the launcher process exited")
        reply = json.loads(msg)
        if isinstance(reply, dict):
            raise OSError(reply["error"])
        return reply

    def spawn(self, argv: list[str], env: dict[str, str], deadline_s: float) -> Outcome:
        out_r, out_w = os.pipe()
        err_r, err_w = os.pipe()
        t0 = time.perf_counter()
        try:
            socket.send_fds(self.sock, [json.dumps([argv, env]).encode()], [out_w, err_w])
        finally:
            os.close(out_w)
            os.close(err_w)
        try:
            pid = self._reply()
        except BaseException:
            os.close(out_r)
            os.close(err_r)
            raise
        chunks: dict[int, list[bytes]] = {out_r: [], err_r: []}
        first = None
        partial = b""  # stdout since the last newline, until the first record is seen
        killed = False
        reaped = None
        with selectors.DefaultSelector() as sel:
            for fd in (out_r, err_r, self.sock.fileno()):
                sel.register(fd, selectors.EVENT_READ)
            try:
                while sel.get_map():
                    left = t0 + deadline_s - time.perf_counter()
                    if left <= 0 and not killed:
                        os.kill(pid, signal.SIGKILL)
                        killed = True
                    for key, _ in sel.select(None if killed else left):
                        if key.fd == self.sock.fileno():
                            reaped = self._reply()
                            t1 = time.perf_counter()
                            sel.unregister(key.fd)
                            continue
                        data = os.read(key.fd, 1 << 16)
                        if not data:
                            sel.unregister(key.fd)
                            continue
                        chunks[key.fd].append(data)
                        if key.fd == out_r and first is None:
                            *lines, partial = (partial + data).split(b"\n")
                            if any(is_record(line) for line in lines):
                                first = time.perf_counter()
                                partial = b""
            except BaseException:  # interrupted: leave no child behind
                if reaped is None:
                    os.kill(pid, signal.SIGKILL)
                    self._reply()
                raise
            finally:
                os.close(out_r)
                os.close(err_r)
        code, maxrss_kib, cpu_s = reaped
        return Outcome(
            code=None if killed else code,
            stdout=b"".join(chunks[out_r]),
            stderr=b"".join(chunks[err_r]),
            wall_s=t1 - t0,
            first_record_s=(first if first is not None else t1) - t0,
            peak_rss_mb=maxrss_kib * 1024 / 1e6,
            cpu_s=cpu_s,
        )
