"""A pool of forked worker processes, for the Monte Carlo runs of harness.

The workers inherit their tasks and whatever the parent loaded before the
fork, such as numpy, the compiled kernels and the shared memory the tasks
write into; only results and exceptions cross a pipe, pickled.
"""

import os
import pickle
import signal
from contextlib import suppress


class Pool:
    """A pool of that many forked worker processes, as a context manager.

    map(fn, *iterables) forks min(workers, tasks) children, which inherit
    the tasks, so no task is pickled: of n children, child c runs tasks c,
    c + n, c + 2n, ..., and pickles each result, or the exception the task
    raised, down its own pipe.  The tasks go in rounds of one per child,
    and a child starts its task of round r + 1 only once map has been asked
    for the first result of round r, which map signals with one byte down
    each child's credit pipe.  map yields the results in task order, and
    raises RuntimeError if a child died first.  Every exit kills and reaps
    every child.  A child keeps only its own two pipe ends, so that it sees
    the parent go (EOF on its credit pipe, EPIPE on its result pipe) and
    exits.
    """

    def __init__(self, workers: int):
        self.workers = workers
        self.children = []  # (pid, result pipe's reader, credit pipe's write end)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for pid, results, credit in self.children:
            results.close()
            os.close(credit)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        self.children = []
        return False

    def map(self, fn, *iterables):
        tasks = list(zip(*iterables))
        n = min(self.workers, len(tasks))
        for c in range(n):
            results, sink = os.pipe()
            source, credit = os.pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    for fd in (results, credit):
                        os.close(fd)
                    for _, reader, writer in self.children:
                        reader.close()
                        os.close(writer)
                    _serve(fn, tasks[c::n], sink, source)
                finally:
                    os._exit(0)
            self.children.append((pid, open(results, "rb"), credit))
            os.close(sink)
            os.close(source)
        return self._results(len(tasks))

    def _results(self, count: int):
        n = len(self.children)
        for t in range(count):
            if t % n == 0 and t + n < count:
                for _, _, credit in self.children:
                    with suppress(OSError):  # a dead child: reading its result says so
                        os.write(credit, b"\0")
            pid, results, _ = self.children[t % n]
            size = int.from_bytes(results.read(8), "little")
            data = results.read(size)
            if not size or len(data) < size:
                raise RuntimeError(f"worker process {pid} terminated abruptly")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            yield value


def _serve(fn, tasks, sink: int, source: int) -> None:
    """Run a pool child's tasks, each after the first on a credit byte from
    source, and write each pickled (True, result) or (False, exception)
    to sink behind its length.  It returns early if the parent went away;
    anything it raises (a result that does not pickle, a sink the parent
    closed) ends the child, which the parent sees as a worker that died."""
    with open(sink, "wb") as out:
        for j, args in enumerate(tasks):
            if j and not os.read(source, 1):
                return
            try:
                data = pickle.dumps((True, fn(*args)))
            except Exception as exc:
                data = pickle.dumps((False, exc))
            out.write(len(data).to_bytes(8, "little") + data)
            out.flush()
