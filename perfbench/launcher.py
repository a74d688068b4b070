"""Start each command from this small process and report its wait status and rusage.

    python3 -S -I launcher.py <socket fd>

Linux records the peak RSS of the process image a child replaces at exec
into the child's own ru_maxrss, so a child started directly by the
benchmark (tens of MB) would report at least the benchmark's size.  This
process stays at a few MB.  It reads requests from a SOCK_SEQPACKET socket:
a JSON [argv, env] message carrying the child's stdout and stderr pipe ends
as file descriptors.  It answers with the child's pid, and once the child
has exited, with [exit code, ru_maxrss in KiB, user + system seconds].  It
exits when the socket closes.
"""

import json
import os
import socket
import sys


def main() -> None:
    sock = socket.socket(fileno=int(sys.argv[1]))
    os.set_inheritable(sock.fileno(), False)
    devnull = os.open(os.devnull, os.O_RDONLY | os.O_CLOEXEC)
    while True:
        msg, fds, _, _ = socket.recv_fds(sock, 1 << 20, 2)
        if not msg:
            return
        argv, env = json.loads(msg)
        out, err = fds
        actions = [
            (os.POSIX_SPAWN_DUP2, devnull, 0),
            (os.POSIX_SPAWN_DUP2, out, 1),
            (os.POSIX_SPAWN_DUP2, err, 2),
            (os.POSIX_SPAWN_CLOSE, out),
            (os.POSIX_SPAWN_CLOSE, err),
        ]
        try:
            pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
        except OSError as exc:
            sock.send(json.dumps({"error": str(exc)}).encode())
            continue
        finally:
            os.close(out)
            os.close(err)
        sock.send(json.dumps(pid).encode())
        _, status, usage = os.wait4(pid, 0)
        code = os.waitstatus_to_exitcode(status)
        sock.send(json.dumps([code, usage.ru_maxrss, usage.ru_utime + usage.ru_stime]).encode())


if __name__ == "__main__":
    main()
