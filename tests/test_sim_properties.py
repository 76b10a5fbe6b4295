"""Property-based tests of the DES kernel's core guarantees."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.kernel import Kernel


@st.composite
def schedules(draw):
    """Random (delay, payload) action schedules, possibly with ties."""
    n = draw(st.integers(1, 40))
    delays = draw(
        st.lists(
            st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False),
            min_size=n, max_size=n,
        )
    )
    return delays


class TestKernelProperties:
    @given(schedules())
    @settings(max_examples=80, deadline=None)
    def test_actions_fire_in_time_order_with_fifo_ties(self, delays):
        k = Kernel()
        fired = []
        for i, d in enumerate(delays):
            k._push(d, lambda i=i, d=d: fired.append((d, i)))
        k.run()
        assert len(fired) == len(delays)
        # Non-decreasing in time; equal times preserve insertion order.
        for (t1, i1), (t2, i2) in zip(fired, fired[1:]):
            assert t1 < t2 or (t1 == t2 and i1 < i2)

    @given(schedules())
    @settings(max_examples=50, deadline=None)
    def test_clock_is_monotone_and_ends_at_max(self, delays):
        k = Kernel()
        stamps = []
        for d in delays:
            k._push(d, lambda: stamps.append(k.now))
        end = k.run()
        assert stamps == sorted(stamps)
        assert end == max(delays)

    @given(schedules())
    @settings(max_examples=50, deadline=None)
    def test_deterministic_replay(self, delays):
        def trial():
            k = Kernel()
            log = []

            def proc(k, i, d):
                yield k.timeout(d)
                log.append((i, k.now))
                yield k.timeout(d / 2 + 0.1)
                log.append((i, k.now))

            for i, d in enumerate(delays):
                k.process(proc(k, i, d))
            k.run()
            return log

        assert trial() == trial()

    @given(
        st.lists(st.floats(0.0, 50.0, allow_nan=False), min_size=1, max_size=20),
        st.floats(0.0, 60.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_run_until_never_overshoots(self, delays, until):
        k = Kernel()
        fired = []
        for d in delays:
            k._push(d, lambda d=d: fired.append(d))
        k.run(until=until)
        assert all(d <= until for d in fired)
        assert k.now == max([until] + [d for d in fired if d <= until]) or k.now == until

    @given(st.lists(st.floats(0.0, 10.0, allow_nan=False), min_size=1, max_size=15))
    @settings(max_examples=40, deadline=None)
    def test_resume_after_until_completes_everything(self, delays):
        k = Kernel()
        fired = []
        for d in delays:
            k._push(d, lambda d=d: fired.append(d))
        k.run(until=5.0)
        k.run()
        assert sorted(fired) == sorted(delays)


# -- scheduler order against a one-heap reference --------------------------
#
# The kernel splits its queue into a now-lane, a due batch and a heap, but
# must behave exactly like one priority queue ordered by (time, seq).  The
# programs below are trees of raw actions: firing node i pushes its
# children with their delays.  Every delay class is covered: zero (now
# lane), positive (heap), and positive-but-vanishing — at a clock of
# 2**40 s an addend of 1e-6 s is below half an ulp, so ``now + d == now``
# and the entry joins the due batch behind everything already due.

BIG = 2.0 ** 40
TINY = 1e-6
assert BIG + TINY == BIG


@st.composite
def programs(draw):
    """(roots, children): root (node, delay) pairs and node -> children."""
    delay = st.one_of(
        st.sampled_from([0.0, 0.0, TINY, 0.5, 1.0, 1.0, 2.0]),
        st.floats(0.0, 3.0, allow_nan=False, allow_infinity=False),
    )
    n_roots = draw(st.integers(1, 6))
    n = draw(st.integers(n_roots, 40))
    # A root at BIG puts the whole subtree it spawns where TINY vanishes.
    roots = [(i, draw(st.sampled_from([0.0, 1.0, BIG])) if i == 0
              else draw(delay)) for i in range(n_roots)]
    children = {}
    for node in range(n_roots, n):
        parent = draw(st.integers(0, node - 1))
        children.setdefault(parent, []).append((node, draw(delay)))
    return roots, children


def reference_order(roots, children):
    """Fire order of one (time, seq) heap: [(node, time), ...]."""
    import heapq

    heap, seq, now, order = [], 0, 0.0, []

    def push(node, d):
        nonlocal seq
        seq += 1
        heapq.heappush(heap, (now + d, seq, node))

    for node, d in roots:
        push(node, d)
    while heap:
        now, _seq, node = heapq.heappop(heap)
        order.append((node, now))
        for child, d in children.get(node, ()):
            push(child, d)
    return order


def load(k, roots, children, fired):
    def fire(node):
        fired.append((node, k.now))
        for child, d in children.get(node, ()):
            k._push(d, lambda c=child: fire(c))

    for node, d in roots:
        k._push(d, lambda n=node: fire(n))


class TestSchedulerOrder:
    @given(programs())
    @settings(max_examples=150, deadline=None)
    def test_run_matches_one_heap(self, program):
        k = Kernel()
        fired = []
        load(k, *program, fired)
        k.run()
        assert fired == reference_order(*program)

    def test_vanishing_delay_goes_to_the_due_batch(self):
        k = Kernel()
        fired = []
        load(k, [(0, BIG)], {0: [(1, TINY), (2, 0.0), (3, TINY)]}, fired)
        k.step()  # fire node 0 at BIG; it pushes its three children
        assert k.now == BIG
        assert len(k._due) == 2 and len(k._lane) == 1 and not k._heap
        k.run()
        # Seq order among equal times: the lane entry does not overtake
        # the due entry pushed before it.
        assert fired == [(0, BIG), (1, BIG), (2, BIG), (3, BIG)]

    @given(programs(), st.lists(st.floats(0.0, 4.0, allow_nan=False),
                                min_size=1, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_run_until_segments_match_one_heap(self, program, stops):
        k = Kernel()
        fired = []
        load(k, *program, fired)
        ref = reference_order(*program)
        for until in sorted(stops):
            if until < k.now:
                continue
            assert k.run(until=until) == until
            assert k.now == until
            # Exactly the reference prefix with time <= until has fired.
            assert fired == [e for e in ref if e[1] <= until]
        k.run()
        assert fired == ref

    @given(programs())
    @settings(max_examples=100, deadline=None)
    def test_step_peek_run_parity(self, program):
        k = Kernel()
        fired = []
        load(k, *program, fired)
        while True:
            t = k.peek()
            if t is None:
                break
            assert t >= k.now
            k.step()
            assert k.now == t
        assert fired == reference_order(*program)
        assert k.peek() is None

    @given(st.lists(st.lists(st.sampled_from([0.0, TINY, 0.25, 1.0]),
                             min_size=1, max_size=6),
                    min_size=1, max_size=8),
           st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_processes_mix_lane_and_timed_entries(self, scripts, late):
        """Timeouts of every delay class, from processes, give the same
        trace under run() and under step(); started at 2**40, TINY
        delays vanish into the due batch."""

        def trial(drive):
            k = Kernel()
            log = []
            start = BIG if late else 0.0

            def proc(i, delays):
                yield k.timeout(start)
                for j, d in enumerate(delays):
                    yield k.timeout(d)
                    log.append((i, j, k.now))

            for i, delays in enumerate(scripts):
                k.process(proc(i, delays))
            drive(k)
            return log, k.queue_stats()

        def stepper(k):
            while k.peek() is not None:
                k.step()

        (by_run, qs_run), (by_step, qs_step) = trial(Kernel.run), trial(stepper)
        assert by_run == by_step
        assert len(by_run) == sum(map(len, scripts))
        assert qs_run["calendar_entries"] == qs_step["calendar_entries"]
        assert qs_run["advances"] == qs_step["advances"]
