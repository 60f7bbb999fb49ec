package serve

import (
	"sync"
	"time"

	"lighttrader/internal/core"
	"lighttrader/internal/latency"
	"lighttrader/internal/sbe"
	"lighttrader/internal/sched"
	"lighttrader/internal/sim"
)

// query is one decoded packet queued on a lane with its deadline.
type query struct {
	id       int64
	pkt      sbe.Packet
	arrival  int64
	deadline int64
}

// lane is one worker: a logical accelerator owning a shard of the
// subscription set. Queue state lives under mu; pipeline state (books,
// models, risk) lives under procMu so Snapshot and OnExecReport can
// synchronise with dispatch without stalling enqueues.
type lane struct {
	id    int
	srv   *Server
	pipes []*core.Pipeline
	// policy is this lane's admission strategy (built once per lane from
	// Config.Scheduler; nil without a scheduling config). Decide is only
	// called under l.mu, so lane-local policies need no further locking.
	policy sched.Scheduler
	// tiers is this lane's degrade ladder: one policy instance per tier
	// from the same factory as policy (stateful policies stay lane- and
	// tier-local). Empty without Config.Tiers.
	tiers []sched.ModelTier
	// curTier is the model tier the lane's pipelines are currently switched
	// to (guarded by procMu); process flips it only when it changes, so the
	// steady-state primary path never touches the pipelines' tier state.
	curTier int

	// deadlineFn is the bound minDeadlineFor method, built once so the
	// admission path doesn't allocate a closure per decision.
	deadlineFn func(int) int64

	mu          sync.Mutex
	cond        *sync.Cond
	queue       []query
	lastArrival int64
	// batch is the in-flight batch and batchTier its model tier, held from
	// admission until the batch retires — under the governor's lock with a
	// scheduling config, since in modelled time any lane may retire it.
	batch     []query
	batchTier int
	// wake is the batch's completion as planned at admission. In modelled
	// time the lane's next decision waits for it even if a later cross-lane
	// scale-up retires the batch earlier (governor's lock).
	wake int64
	// savedAt is the decision instant whose power-saving retry has been
	// spent; the governor runs the saving step at most once per instant,
	// mirroring the simulator's once-per-schedule-call flag.
	savedAt int64
	// flushing releases the modelled-clock hold so Drain can run decisions
	// that lie beyond the newest submitted arrival.
	flushing bool
	inflight bool
	closed   bool

	procMu sync.Mutex
	// lat records the wall-clock dispatch latency of every query this lane
	// served (guarded by procMu; merged across lanes by Server.Latency).
	lat latency.Histogram
}

func newLane(id int, s *Server) *lane {
	l := &lane{id: id, srv: s, savedAt: -1 << 62}
	l.cond = sync.NewCond(&l.mu)
	l.deadlineFn = l.minDeadlineFor
	if s.cfg.Sched != nil {
		f := s.cfg.Scheduler
		if f == nil {
			f = func(cfg *sched.Config) sched.Scheduler { return sched.NewPPWScheduler(cfg) }
		}
		l.policy = f(s.cfg.Sched)
		if len(s.cfg.Tiers) > 0 {
			cfgs := make([]*sched.Config, len(s.cfg.Tiers))
			for i, t := range s.cfg.Tiers {
				cfgs[i] = t.Sched
			}
			l.tiers = sched.NewModelTiers(f, cfgs)
		}
	}
	return l
}

// minDeadlineFor returns the earliest deadline over the first n queued
// queries — the in-flight slack bound the governor records at issue.
// Called under l.mu (from inside the governor's admit critical section).
func (l *lane) minDeadlineFor(n int) int64 {
	min := l.queue[0].deadline
	for _, q := range l.queue[1:n] {
		if q.deadline < min {
			min = q.deadline
		}
	}
	return min
}

// enqueue appends a query and wakes the worker. A full queue either blocks
// the submitter until the lane catches up (backpressure) or evicts the
// lane's oldest query (stale-tensor management), per Config.Backpressure.
func (l *lane) enqueue(q query) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	if l.srv.cfg.Backpressure && !l.srv.Inline() {
		for len(l.queue) >= l.srv.cfg.MaxQueue && !l.closed {
			l.cond.Wait()
		}
		if l.closed {
			l.mu.Unlock()
			return
		}
	}
	if len(l.queue) >= l.srv.cfg.MaxQueue {
		old := l.queue[0]
		l.queue[0] = query{} // release the evicted packet's buffers
		l.queue = l.queue[1:]
		l.srv.queued.Add(-1)
		l.srv.stats.evicted.Add(1)
		l.srv.probe.OnQueryEvent(sim.QueryEvent{
			TimeNanos: q.arrival, Kind: sim.QueryEvict,
			Query: simQuery(old), Accel: -1,
		})
	}
	l.queue = append(l.queue, q)
	if q.arrival > l.lastArrival {
		l.lastArrival = q.arrival
	}
	l.srv.queued.Add(1)
	l.mu.Unlock()
	// Broadcast, not Signal: the worker and any Drain caller share the cond.
	l.cond.Broadcast()
}

// close wakes the worker for shutdown.
func (l *lane) close() {
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
	l.cond.Broadcast()
}

// work takes feasible batches and processes them until the lane closes
// (wait: the worker goroutine) or its queue is empty or held (inline
// dispatch).
func (l *lane) work(wait bool) {
	for {
		batch, _, tier, now, ok := l.take(wait)
		if !ok {
			return
		}
		l.process(batch, tier, now)
	}
}

// now returns the admission clock under l.mu: the configured clock, or the
// newest accepted arrival (the logical clock that makes trace replays
// deterministic).
func (l *lane) now() int64 {
	if l.srv.cfg.Clock != nil {
		return l.srv.cfg.Clock()
	}
	return l.lastArrival
}

// clearQueue zeroes vacated queue slots so dropped, evicted and issued
// queries' packet buffers don't stay reachable through the backing array.
func clearQueue(qs []query) {
	for i := range qs {
		qs[i] = query{}
	}
}

// take blocks (when wait is true) until it can move a batch into flight
// (l.batch, also returned) for the caller to process. Admission runs
// through the server's governor; queries no candidate can serve, even
// after the saving step and the degrade ladder, are dropped with per-cause
// accounting until a batch issues or the queue runs dry. Returns the
// admitted model tier (0 = primary) and ok=false when the lane is closed
// (worker mode) or the queue is empty or held (inline).
//
// Under the modelled clock the decision instant is max(oldest arrival,
// modelled free time) and only queries that have arrived by then join the
// batch; a decision lying beyond the newest submitted arrival is held until
// the logical clock catches up (or Drain flushes).
func (l *lane) take(wait bool) (batch []query, issue sched.Issue, tier int, now int64, ok bool) {
	gov := l.srv.gov
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		if l.closed && wait {
			// Shutdown abandons the unissued backlog for a prompt stop.
			return nil, sched.Issue{}, 0, 0, false
		}
		for len(l.queue) > 0 {
			now = l.now()
			arrived := len(l.queue)
			if l.srv.cfg.ModelledClock {
				now = max(l.queue[0].arrival, gov.freeAt(l))
				if now > l.lastArrival && !l.flushing && !l.closed {
					break // hold: the decision lies beyond the logical clock
				}
				arrived = 1
				for arrived < len(l.queue) && l.queue[arrived].arrival <= now {
					arrived++
				}
			}
			if gov.eng == nil {
				// No admission: serve the arrived backlog as one batch.
				l.hold(arrived, 0)
				l.probeIssue(now, now+l.srv.cfg.PrePipelineNanos)
				clearQueue(l.queue[:arrived])
				l.queue = l.queue[arrived:]
				l.srv.queued.Add(-int64(arrived))
				l.inflight = true
				return l.batch, sched.Issue{Batch: arrived}, 0, now, true
			}
			oldest := l.queue[0]
			avail := oldest.deadline - now - l.srv.cfg.PrePipelineNanos
			res := gov.admit(l, now, arrived, avail, now != l.savedAt)
			if res.Saved {
				l.savedAt = now
			}
			if res.Admitted {
				clearQueue(l.queue[:res.Issue.Batch])
				l.queue = l.queue[res.Issue.Batch:]
				l.srv.queued.Add(-int64(res.Issue.Batch))
				l.inflight = true
				return l.batch, res.Issue, res.Tier, now, true
			}
			if res.Verdict == sched.VerdictNoQueue {
				continue // the previous batch is still in flight
			}
			// No feasible candidate for the oldest query: drop it, attribute
			// the cause, and retry with the next. The drop frees queue space,
			// so wake backpressured submitters and Drain waiters sharing the
			// cond — if the whole backlog drains this way the worker parks in
			// Wait below and nothing else would ever wake them.
			l.queue[0] = query{} // release the dropped packet's buffers
			l.queue = l.queue[1:]
			l.srv.queued.Add(-1)
			l.cond.Broadcast()
			switch res.Verdict {
			case sched.VerdictPowerInfeasible:
				l.srv.stats.deferredPower.Add(1)
			default:
				l.srv.stats.deferredDeadline.Add(1)
			}
			l.srv.probe.OnQueryEvent(sim.QueryEvent{
				TimeNanos: now, Kind: sim.QueryDefer, Query: simQuery(oldest),
				Accel: -1, Cause: res.Verdict.DeferCause(),
			})
		}
		if l.closed || !wait {
			return nil, sched.Issue{}, 0, 0, false
		}
		l.cond.Wait()
	}
}

// process runs the in-flight batch through the lane's pipelines, on the
// ladder model for a non-zero tier. The batch is accounted when it
// retires: here in live serving, where the dispatch finishing IS the
// completion, and under the modelled clock when the governor's event clock
// passes its final, retimed completion.
func (l *lane) process(batch []query, tier int, now int64) {
	start := time.Now()
	l.procMu.Lock()
	if tier != l.curTier {
		for _, p := range l.pipes {
			p.SetActiveTier(tier)
		}
		l.curTier = tier
	}
	for _, q := range batch {
		for _, p := range l.pipes {
			reqs, err := p.OnDecodedPacket(q.pkt)
			if err != nil {
				l.srv.stats.errors.Add(1)
				continue
			}
			l.srv.deliver(p.SecurityID(), reqs)
		}
	}
	elapsed := time.Since(start).Nanoseconds()
	// Attribute each query its share of the batch wall time: recording the
	// whole-batch elapsed once per query would inflate the per-query
	// percentiles by the batch size.
	share := elapsed / int64(len(batch))
	for range batch {
		l.lat.Record(share)
	}
	l.procMu.Unlock()

	switch {
	case l.srv.gov.eng == nil:
		l.complete(now+l.srv.cfg.PrePipelineNanos, 0, 0)
	case !l.srv.cfg.ModelledClock:
		l.srv.gov.retire(l)
	}

	l.mu.Lock()
	l.inflight = false
	l.mu.Unlock()
	l.cond.Broadcast()
}

// hold moves the first n queued queries into flight as l.batch, admitted
// against model tier tier. Callers hold l.mu (and, with a scheduling
// config, the governor's lock).
func (l *lane) hold(n, tier int) {
	clearQueue(l.batch)
	l.batch, l.batchTier = append(l.batch[:0], l.queue[:n]...), tier
}

// probeIssue reports the in-flight batch's issue at now with its projected
// completion done.
func (l *lane) probeIssue(now, done int64) {
	if !l.srv.probe.active() {
		return
	}
	for _, q := range l.batch {
		l.srv.probe.OnQueryEvent(sim.QueryEvent{
			TimeNanos: now, Kind: sim.QueryIssue, Query: simQuery(q),
			Accel: l.id, Batch: len(l.batch), DoneNanos: done, Tier: l.batchTier,
		})
	}
}

// complete accounts the retired batch at its final modelled completion done
// (under a wall Clock, at the clock's now): each query is served or late
// against its deadline, and busy/watts is the load the sample reports.
// With a scheduling config callers hold the governor's lock.
func (l *lane) complete(done int64, busy int, watts float64) {
	if l.srv.cfg.Clock != nil {
		done = l.srv.cfg.Clock()
	}
	for _, q := range l.batch {
		if done > q.deadline {
			l.srv.stats.late.Add(1)
		} else {
			l.srv.stats.served.Add(1)
		}
		l.srv.probe.OnQueryEvent(sim.QueryEvent{
			TimeNanos: done, Kind: sim.QueryComplete, Query: simQuery(q),
			Accel: l.id, Batch: len(l.batch), DoneNanos: done, Tier: l.batchTier,
		})
	}
	l.srv.stats.batches.Add(1)
	l.srv.stats.batchSum.Add(int64(len(l.batch)))
	l.srv.sample(done, busy, watts)
}

// advance moves the lane's logical clock to now and (inline modelled mode)
// dispatches every decision due at or before it — the simulator's
// advance-internal-events-then-arrive ordering, so queue occupancy at the
// arrival instant matches core.System's.
func (l *lane) advance(now int64) {
	l.mu.Lock()
	if now > l.lastArrival {
		l.lastArrival = now
	}
	l.mu.Unlock()
	l.work(false)
}

// drain blocks until the lane's queue is empty and no batch is in flight.
// Under the modelled clock it flushes first: held decisions (beyond the
// newest submitted arrival) are released so the backlog can complete.
func (l *lane) drain() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.srv.cfg.ModelledClock && !l.closed {
		l.flushing = true
		l.cond.Broadcast()
		defer func() { l.flushing = false }()
	}
	for (len(l.queue) > 0 || l.inflight) && !l.closed {
		l.cond.Wait()
	}
}
