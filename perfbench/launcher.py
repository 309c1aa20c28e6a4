"""Spawn the benchmark's children from a process that stays small.

    python -S perfbench/launcher.py SOCKET_FD TIMEOUT_S

The max-RSS that wait4 reports for a child includes the peak RSS of the
process that spawned it, because the kernel counts the spawner's address
space up to exec.  ``run.py`` grows while it builds inputs and holds
outputs, so it spawns nothing itself: it sends each child's argv here,
with the write end of the child's stdout pipe and a stderr file attached
to the message, and reads the pipe while this loop reaps the child.

Protocol on the SOCK_SEQPACKET socket: one JSON argv per request, two file
descriptors attached (stdout, stderr); one JSON reply per child with its
exit code, max-RSS in KiB and user+system CPU seconds.  An empty message
ends the loop.  A child still running after TIMEOUT_S is killed.
"""
import json
import os
import signal
import socket
import sys


def main() -> int:
    sock = socket.socket(fileno=int(sys.argv[1]))
    sock.set_inheritable(False)
    timeout = int(sys.argv[2])
    running = [0]

    def kill_running(*_):
        try:
            os.kill(running[0], signal.SIGKILL)
        except ProcessLookupError:
            pass

    signal.signal(signal.SIGALRM, kill_running)
    while True:
        msg, fds, _, _ = socket.recv_fds(sock, 1 << 16, 2)
        if not msg:
            return 0
        argv = json.loads(msg)
        actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                   (os.POSIX_SPAWN_DUP2, fds[0], 1),
                   (os.POSIX_SPAWN_DUP2, fds[1], 2)]
        for fd in fds:
            os.set_inheritable(fd, False)
        running[0] = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
        for fd in fds:
            os.close(fd)
        signal.alarm(timeout)
        _, status, usage = os.wait4(running[0], 0)
        signal.alarm(0)
        sock.send(json.dumps([os.waitstatus_to_exitcode(status), usage.ru_maxrss,
                              usage.ru_utime + usage.ru_stime]).encode())


if __name__ == "__main__":
    sys.exit(main())
