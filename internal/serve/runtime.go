package serve

import (
	"sync"
	"sync/atomic"

	"lighttrader/internal/exchange"
	"lighttrader/internal/sim"
)

// sample emits a load observation to the probe after a batch retires,
// mirroring the simulator's post-scheduling samples; busy and watts come
// from the governor's engine, the single owner of the power ledger.
func (s *Server) sample(now int64, busy int, watts float64) {
	if !s.probe.active() {
		return
	}
	s.probe.OnSample(sim.Sample{
		TimeNanos:  now,
		QueueDepth: int(s.queued.Load()),
		BusyAccels: busy,
		PowerWatts: watts,
	})
}

// stats is the runtime's internal counter set (atomics: lanes write
// concurrently).
type stats struct {
	submitted        atomic.Int64
	served           atomic.Int64
	late             atomic.Int64
	evicted          atomic.Int64
	deferredDeadline atomic.Int64
	deferredPower    atomic.Int64
	errors           atomic.Int64
	orders           atomic.Int64
	batches          atomic.Int64
	batchSum         atomic.Int64
}

// Stats is a point-in-time copy of the runtime counters with the same
// miss-attribution taxonomy as the back-test simulator: every submitted
// query ends up served, late, evicted (bounded queue), or deferred
// (Algorithm 1 deadline- or power-infeasible).
type Stats struct {
	// Submitted counts queries accepted by SubmitPacket (one per packet
	// per lane the packet routed to).
	Submitted int
	// Served counts queries completed within their deadline.
	Served int
	// Late counts queries completed after their deadline.
	Late int
	// EvictedQueueFull counts queries pushed out of a full lane queue by a
	// newer arrival (stale-tensor management).
	EvictedQueueFull int
	// DeferredDeadline counts Algorithm-1 drops where no (dvfs, batch)
	// candidate could meet the oldest query's deadline.
	DeferredDeadline int
	// DeferredPower counts Algorithm-1 drops where a deadline-feasible
	// candidate existed but the shared power budget blocked it.
	DeferredPower int
	// Degrades counts batches the degrade ladder admitted on a cheaper
	// model tier after the primary model (and the governor's power-saving
	// retry) found the oldest query infeasible. The queries in those
	// batches are answered — they count toward Served/Late and
	// ResponseRate — at reduced prediction accuracy; this counter keeps
	// that trade visible. Zero without Config.Tiers.
	Degrades int
	// TierIssues[t] counts batches issued against model tier t: index 0 is
	// the primary model, index t > 0 the t-th ladder rung. Nil without
	// Config.Tiers.
	TierIssues []int
	// Errors counts pipeline failures while serving (the query still
	// counts as served or late).
	Errors int
	// Orders counts order requests delivered to the sink.
	Orders int
	// Batches counts issued batches; MeanBatch is the average issue size.
	Batches   int
	MeanBatch float64
	// ResponseRate is Served / Submitted (0 when nothing was submitted).
	ResponseRate float64
	// Power-governor counters, populated when a scheduling config with DVFS
	// scheduling is attached and the governor is enabled (all zero
	// otherwise). PowerSaveRetries counts power-infeasible decisions that
	// triggered an Algorithm-2 saving pass over the other busy lanes;
	// PowerSaveRescues counts retries whose re-decision then issued.
	PowerSaveRetries int
	PowerSaveRescues int
	// DVFSSaves / DVFSRedistributes / DVFSParks count in-flight retimes by
	// cause: budget-freeing scale-downs, retire-time scale-ups spending
	// leftover budget, and idle parks to the floor state. DVFSSwitches
	// counts issue-time state changes (Algorithm-1 choosing a different
	// operating point than the lane's current one).
	DVFSSaves         int
	DVFSRedistributes int
	DVFSParks         int
	DVFSSwitches      int
	// MaxPowerWatts is the high-water mark of the modelled total draw across
	// lanes, measured after every governor action.
	MaxPowerWatts float64
	// Signal-distribution counters, populated when a signal gateway is
	// attached (Config.Signals). SignalsPublished counts publish-hook
	// invocations across symbols, SignalsDelivered counts deliveries to
	// subscribers, SignalDrops counts updates conflated away; all three are
	// monotonic. SignalSubscribers is the live subscription count (gauge).
	SignalsPublished  uint64
	SignalsDelivered  uint64
	SignalDrops       uint64
	SignalSubscribers int
}

// Dropped returns the total queries dropped without being served.
func (s Stats) Dropped() int {
	return s.EvictedQueueFull + s.DeferredDeadline + s.DeferredPower
}

func (c *stats) snapshot() Stats {
	s := Stats{
		Submitted:        int(c.submitted.Load()),
		Served:           int(c.served.Load()),
		Late:             int(c.late.Load()),
		EvictedQueueFull: int(c.evicted.Load()),
		DeferredDeadline: int(c.deferredDeadline.Load()),
		DeferredPower:    int(c.deferredPower.Load()),
		Errors:           int(c.errors.Load()),
		Orders:           int(c.orders.Load()),
		Batches:          int(c.batches.Load()),
	}
	if s.Batches > 0 {
		s.MeanBatch = float64(c.batchSum.Load()) / float64(s.Batches)
	}
	if s.Submitted > 0 {
		s.ResponseRate = float64(s.Served) / float64(s.Submitted)
	}
	return s
}

// lockedProbe serialises probe callbacks from concurrent lanes: the
// sim.Probe contract promises single-goroutine delivery, which the
// runtime restores with a mutex. Events stay ordered per lane but may
// interleave across lanes out of timestamp order. A nil inner probe makes
// it a no-op.
type lockedProbe struct {
	mu sync.Mutex
	p  sim.Probe
}

func newLockedProbe(p sim.Probe) *lockedProbe { return &lockedProbe{p: p} }

func (lp *lockedProbe) active() bool { return lp.p != nil }

func (lp *lockedProbe) OnQueryEvent(e sim.QueryEvent) {
	if lp.p == nil {
		return
	}
	lp.mu.Lock()
	lp.p.OnQueryEvent(e)
	lp.mu.Unlock()
}

func (lp *lockedProbe) OnDVFSEvent(e sim.DVFSEvent) {
	if lp.p == nil {
		return
	}
	lp.mu.Lock()
	lp.p.OnDVFSEvent(e)
	lp.mu.Unlock()
}

func (lp *lockedProbe) OnSample(e sim.Sample) {
	if lp.p == nil {
		return
	}
	lp.mu.Lock()
	lp.p.OnSample(e)
	lp.mu.Unlock()
}

// OrderLog is a thread-safe OrderSink that records per-instrument order
// streams in delivery order — the quiesce-time comparison artefact the
// parity tests and examples read back.
type OrderLog struct {
	mu    sync.Mutex
	bySec map[int32][]exchange.Request
	total int
}

// NewOrderLog returns an empty log.
func NewOrderLog() *OrderLog { return &OrderLog{bySec: make(map[int32][]exchange.Request)} }

// Sink returns the OrderSink feeding this log.
func (ol *OrderLog) Sink() OrderSink {
	return func(securityID int32, reqs []exchange.Request) {
		ol.mu.Lock()
		ol.bySec[securityID] = append(ol.bySec[securityID], reqs...)
		ol.total += len(reqs)
		ol.mu.Unlock()
	}
}

// Orders returns one instrument's recorded stream.
func (ol *OrderLog) Orders(securityID int32) []exchange.Request {
	ol.mu.Lock()
	defer ol.mu.Unlock()
	out := make([]exchange.Request, len(ol.bySec[securityID]))
	copy(out, ol.bySec[securityID])
	return out
}

// Total returns the number of recorded orders across instruments.
func (ol *OrderLog) Total() int {
	ol.mu.Lock()
	defer ol.mu.Unlock()
	return ol.total
}
