"""Task execution in phases: sequential and multithreaded runners.

Every task body decomposes into the paper's three phases —
**receive**, **compute**, **send** — expressed as a :class:`TaskStages`
object.  Two runners execute them:

* :func:`run_sequential` — the execution model of *this* paper: one
  thread of control per node cycles recv -> compute -> send, so the
  task's per-CPI service time is the **sum** of its phases (plus
  credit-window stalls).
* :func:`run_threaded` — the execution model of the authors' companion
  paper (Liao et al., IPPS 1999, *Multi-Threaded Design and
  Implementation of Parallel Pipelined STAP on Parallel Computers with
  SMP Nodes*): each node runs its three phases as concurrent threads
  connected by depth-1 queues, so while CPI *k* computes, CPI *k+1* is
  already being received and CPI *k-1* is being sent.  The task's cycle
  time drops toward the **max** of its phases — higher throughput from
  the same nodes; per-CPI latency is essentially unchanged (each datum
  still passes through all three phases).

Both runners drive the *same* stage code, so compute-mode numerics are
identical in all modes.
"""

from __future__ import annotations

from typing import Any

from repro.core.context import TaskContext
from repro.sim.resources import Resource, Store
from repro.trace.record import Phase

__all__ = ["TaskStages", "BoundedQueue", "run_sequential", "run_threaded", "run_stages"]


class TaskStages:
    """One task node's body, split into the canonical phases.

    Subclasses implement the phase generators; ``setup`` returns False
    to opt the node out entirely (empty partition).  ``sends_last_cpi``
    lets a stage skip its send on the final CPI (the weight tasks, whose
    last output has no consumer).
    """

    #: Whether the final CPI's outputs are sent (weight tasks: no).
    sends_last_cpi: bool = True

    def __init__(self, ctx: TaskContext) -> None:
        self.ctx = ctx

    # -- lifecycle hooks --------------------------------------------------
    def setup(self) -> bool:
        """Prepare routing/partition state; False = node has no work."""
        return True

    def recv_prologue(self):
        """Run once in the receive thread before the loop (e.g. posting
        the first asynchronous file read)."""
        return
        yield  # pragma: no cover - generator marker

    def send_prologue(self):
        """Run once in the send thread before the loop (e.g. shipping
        the bootstrap weights)."""
        return
        yield  # pragma: no cover - generator marker

    def teardown(self) -> None:
        """Run once after the last CPI completes (e.g. closing file
        handles).  Plain call, not a generator: teardown must cost no
        simulated time."""

    # -- the three phases ----------------------------------------------------
    def recv(self, k: int):
        """Generator: obtain CPI ``k``'s inputs; returns them."""
        raise NotImplementedError

    def compute(self, k: int, inputs: Any):
        """Generator: transform inputs; returns outputs.  Must charge
        the node's cost-model time."""
        raise NotImplementedError

    def send(self, k: int, outputs: Any):
        """Generator: deliver CPI ``k``'s outputs downstream (including
        credit-window waits and acks)."""
        raise NotImplementedError


class BoundedQueue:
    """A depth-bounded FIFO between two node threads.

    ``put`` blocks while the queue is full (that is what couples the
    threads into a pipeline rather than letting the receive thread run
    arbitrarily far ahead).
    """

    def __init__(self, ctx: TaskContext, depth: int = 1, name: str = "") -> None:
        self.kernel = ctx.kernel
        self._slots = Resource(self.kernel, capacity=depth, name=f"{name}.slots")
        self._items = Store(self.kernel, name=f"{name}.items")
        metrics = getattr(ctx, "metrics", None)
        if metrics is not None:
            # Occupancy is backpressure made visible: a persistently full
            # input queue means the compute thread is the bottleneck.
            metrics.gauge(
                "bounded_queue_depth",
                help="items buffered between node threads (depth-bounded)",
                fn=self._items.__len__,
                **ctx.tenant_labels(queue=name or f"{ctx.name}[{ctx.local}]"),
            )

    def put(self, item: Any):
        """Generator: enqueue, blocking while full."""
        yield self._slots.request()
        self._items.put(item)

    def get(self):
        """Generator: dequeue, blocking while empty."""
        item = yield self._items.get()
        self._slots.release()
        return item


def run_sequential(stages: TaskStages):
    """Single-threaded node: recv, compute, send, per CPI, in order."""
    ctx = stages.ctx
    if not stages.setup():
        return
    yield from stages.recv_prologue()
    yield from stages.send_prologue()
    for k in range(ctx.cfg.n_cpis):
        t0 = ctx.now
        inputs = yield from stages.recv(k)
        ctx.record(k, Phase.RECV, t0)

        t0 = ctx.now
        outputs = yield from stages.compute(k, inputs)
        ctx.record(k, Phase.COMPUTE, t0)

        if stages.sends_last_cpi or k + 1 < ctx.cfg.n_cpis:
            yield from stages.send(k, outputs)
    stages.teardown()


def run_threaded(stages: TaskStages):
    """SMP node: the three phases as concurrent threads, depth-1 queues.

    The spawning generator waits for all three threads, so the node's
    process completes when its last send does.
    """
    ctx = stages.ctx
    if not stages.setup():
        return
    kernel = ctx.kernel
    q_in = BoundedQueue(ctx, depth=1, name=f"{ctx.name}[{ctx.local}].in")
    q_out = BoundedQueue(ctx, depth=1, name=f"{ctx.name}[{ctx.local}].out")
    n_cpis = ctx.cfg.n_cpis

    def recv_thread():
        yield from stages.recv_prologue()
        for k in range(n_cpis):
            t0 = ctx.now
            inputs = yield from stages.recv(k)
            ctx.record(k, Phase.RECV, t0)
            yield from q_in.put((k, inputs))

    def compute_thread():
        for _ in range(n_cpis):
            k, inputs = yield from q_in.get()
            t0 = ctx.now
            outputs = yield from stages.compute(k, inputs)
            ctx.record(k, Phase.COMPUTE, t0)
            yield from q_out.put((k, outputs))

    def send_thread():
        yield from stages.send_prologue()
        for _ in range(n_cpis):
            k, outputs = yield from q_out.get()
            if stages.sends_last_cpi or k + 1 < n_cpis:
                yield from stages.send(k, outputs)

    threads = [
        kernel.process(recv_thread(), name=f"{ctx.name}[{ctx.local}].recv"),
        kernel.process(compute_thread(), name=f"{ctx.name}[{ctx.local}].comp"),
        kernel.process(send_thread(), name=f"{ctx.name}[{ctx.local}].send"),
    ]
    yield kernel.all_of(threads)
    stages.teardown()


def run_stages(stages: TaskStages):
    """Dispatch on the execution config's threading flag."""
    if stages.ctx.cfg.threaded:
        return run_threaded(stages)
    return run_sequential(stages)
