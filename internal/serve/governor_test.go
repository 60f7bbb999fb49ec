package serve

import (
	"context"
	"sync"
	"testing"
	"time"

	"lighttrader/internal/core"
	"lighttrader/internal/nn"
	"lighttrader/internal/sbe"
	"lighttrader/internal/sched"
	"lighttrader/internal/sim"
)

// bareServer builds a Server skeleton around one directly-drivable lane, so
// queue-mechanics tests can single-step enqueue/take/process without market
// data or worker goroutines.
func bareServer(t *testing.T, cfg Config) (*Server, *lane) {
	t.Helper()
	srv := bareLanes(cfg, 1)
	return srv, srv.lanes[0]
}

// bareLanes is bareServer with n lanes.
func bareLanes(cfg Config, n int) *Server {
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = 64
	}
	srv := &Server{cfg: cfg, stats: &stats{}, probe: newLockedProbe(cfg.Probe)}
	srv.gov = newGovernor(srv, cfg.Sched, n)
	for i := 0; i < n; i++ {
		l := newLane(i, srv)
		// A fixed-capacity backing array keeps every slot inspectable: the
		// retention checks below read vacated slots through it.
		l.queue = make([]query, 0, 64)
		srv.lanes = append(srv.lanes, l)
	}
	return srv
}

// mkQuery returns a query whose packet is distinguishable from the zero value.
func mkQuery(id, arrival, deadline int64) query {
	return query{
		id:       id,
		pkt:      sbe.Packet{SeqNum: uint32(id + 1), Messages: make([]sbe.Message, 1)},
		arrival:  arrival,
		deadline: deadline,
	}
}

func slotReleased(q query) bool {
	return q.pkt.Messages == nil && q.id == 0 && q.arrival == 0 && q.deadline == 0
}

// TestQueueSlotsReleasedOnVacate is the retention regression for the lane
// queue: evicted, issued and dropped queries must not stay reachable through
// the backing array after their slots are resliced away — a long-lived lane
// would otherwise pin every packet buffer it ever queued.
func TestQueueSlotsReleasedOnVacate(t *testing.T) {
	t.Run("evict", func(t *testing.T) {
		_, l := bareServer(t, Config{MaxQueue: 2})
		backing := l.queue[:cap(l.queue)]
		l.enqueue(mkQuery(1, 1, 1<<40))
		l.enqueue(mkQuery(2, 2, 1<<40))
		l.enqueue(mkQuery(3, 3, 1<<40)) // full queue: evicts query 1
		if !slotReleased(backing[0]) {
			t.Errorf("evicted query still reachable through backing slot 0: %+v", backing[0])
		}
		if len(l.queue) != 2 || l.queue[0].id != 2 {
			t.Fatalf("queue after evict = %d entries, head id %d; want 2 entries, head 2",
				len(l.queue), l.queue[0].id)
		}
	})

	t.Run("issue", func(t *testing.T) {
		_, l := bareServer(t, Config{})
		backing := l.queue[:cap(l.queue)]
		l.enqueue(mkQuery(1, 1, 1<<40))
		l.enqueue(mkQuery(2, 2, 1<<40))
		batch, _, _, _, ok := l.take(false)
		if !ok || len(batch) != 2 {
			t.Fatalf("take = %d queries, ok=%v; want 2, true", len(batch), ok)
		}
		for i := 0; i < 2; i++ {
			if !slotReleased(backing[i]) {
				t.Errorf("issued query still reachable through backing slot %d: %+v", i, backing[i])
			}
		}
		if batch[0].pkt.Messages == nil {
			t.Error("issued batch lost its packets: clearQueue must only zero the queue slots")
		}
	})

	t.Run("drop", func(t *testing.T) {
		syscfg, err := core.Configure(nn.NewSizedCNN("retention", 8, 0), 1,
			core.Sufficient, core.Options{WorkloadScheduling: true})
		if err != nil {
			t.Fatal(err)
		}
		srv, l := bareServer(t, Config{Sched: &syscfg.Sched})
		backing := l.queue[:cap(l.queue)]
		// Deadline before arrival: admission is deadline-infeasible, so the
		// query is dropped on the first take.
		l.enqueue(mkQuery(1, 100, 50))
		if _, _, _, _, ok := l.take(false); ok {
			t.Fatal("expired query issued; want a deadline-infeasible drop")
		}
		if !slotReleased(backing[0]) {
			t.Errorf("dropped query still reachable through backing slot 0: %+v", backing[0])
		}
		if got := srv.Stats().DeferredDeadline; got != 1 {
			t.Fatalf("DeferredDeadline = %d, want 1", got)
		}
	})
}

// TestLatencyRecordsPerQueryShare pins the dispatch-latency histogram
// semantics: a batch of K queries contributes K samples of the batch's
// per-query share, so the samples sum to (at most) the batch wall time.
// Recording the whole-batch elapsed once per query — the old behaviour —
// would sum to ~K× the wall time and inflate every percentile by the batch
// size.
func TestLatencyRecordsPerQueryShare(t *testing.T) {
	const K = 512
	_, l := bareServer(t, Config{MaxQueue: K})
	for i := 0; i < K; i++ {
		l.enqueue(mkQuery(int64(i), int64(i), 1<<40))
	}
	start := time.Now()
	batch, _, tier, now, ok := l.take(false)
	if !ok || len(batch) != K {
		t.Fatalf("take = %d queries, ok=%v; want %d, true", len(batch), ok, K)
	}
	l.process(batch, tier, now)
	wall := time.Since(start).Nanoseconds()

	if got := l.lat.Count(); got != K {
		t.Fatalf("histogram count = %d, want %d (one sample per query)", got, K)
	}
	sum := l.lat.Mean() * float64(l.lat.Count())
	if sum > float64(wall) {
		t.Errorf("per-query samples sum to %.0f ns > %d ns batch wall time: "+
			"whole-batch elapsed recorded per query", sum, wall)
	}
	if l.lat.Max() != l.lat.Min() {
		t.Errorf("samples differ within one batch (min %d, max %d); want one equal share",
			l.lat.Min(), l.lat.Max())
	}
}

// TestGovernorPowerCapProperty is the budget-safety property: under
// concurrent lanes and an active governor (saves, redistributes, parks), the
// modelled draw across lanes never exceeds the power budget beyond float
// tolerance — observed live by a racing checker goroutine and again through
// the MaxPowerWatts high-water mark. Run under -race this also exercises the
// governor's locking.
func TestGovernorPowerCapProperty(t *testing.T) {
	syms := []string{"ESU6", "NQU6", "YMU6", "RTYU6"}
	packets := buildMarket(t, syms, nn.Window+120)
	syscfg, err := core.Configure(nn.NewDeepLOB(), len(syms), core.Limited,
		core.Options{WorkloadScheduling: true, DVFSScheduling: true})
	if err != nil {
		t.Fatal(err)
	}
	// Tighten the envelope so lanes actually contend: the governor must keep
	// the cap while scaling lanes up and down around it.
	syscfg.Sched.PowerBudgetWatts = 6
	budget := syscfg.Sched.PowerBudgetWatts
	srv, err := New(buildMulti(t, syms), Config{
		Lanes:            len(syms),
		MaxQueue:         256,
		Sched:            &syscfg.Sched,
		TAvailNanos:      5_000_000,
		ModelledClock:    true,
		PrePipelineNanos: core.DefaultPrePipelineNanos,
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	var runWG sync.WaitGroup
	runWG.Add(1)
	go func() {
		defer runWG.Done()
		srv.Run(ctx)
	}()

	stop := make(chan struct{})
	var checkWG sync.WaitGroup
	checkWG.Add(1)
	go func() {
		defer checkWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, watts := srv.gov.load(); watts > budget+1e-6 {
				t.Errorf("live draw %.9f W exceeds budget %.1f W", watts, budget)
				return
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()

	// Two submitters split the feed by parity; with four round-robin listed
	// symbols each goroutine owns two instruments, so per-instrument arrival
	// order is preserved while submissions race across lanes.
	const spacing = 200_000 // ns between packets: keeps lanes modelled-busy
	var subWG sync.WaitGroup
	for part := 0; part < 2; part++ {
		subWG.Add(1)
		go func(part int) {
			defer subWG.Done()
			for i := part; i < len(packets); i += 2 {
				if err := srv.Submit(int64(i)*spacing, packets[i]); err != nil {
					t.Error(err)
					return
				}
			}
		}(part)
	}
	subWG.Wait()
	srv.Drain()
	cancel()
	runWG.Wait()
	close(stop)
	checkWG.Wait()

	st := srv.Stats()
	if st.MaxPowerWatts > budget+1e-6 {
		t.Errorf("MaxPowerWatts = %.9f W exceeds budget %.1f W", st.MaxPowerWatts, budget)
	}
	if st.MaxPowerWatts <= 0 {
		t.Error("MaxPowerWatts = 0: governor never observed any draw")
	}
	if st.Served == 0 {
		t.Error("no queries served: the property run was vacuous")
	}
	// The per-lane counters must be consistent with the aggregate view.
	var switches int64
	for _, ld := range srv.LaneDVFS() {
		switches += ld.Switches
		if ld.DrawWatts <= 0 {
			t.Errorf("lane %d reports non-positive draw %.3f W", ld.Lane, ld.DrawWatts)
		}
	}
	if int(switches) != st.DVFSSwitches {
		t.Errorf("per-lane switches sum %d != aggregate %d", switches, st.DVFSSwitches)
	}
}

// TestGovernorSaveRuleSkipsDeadlineInfeasible is the serving half of
// core's TestSaveRuleSkipsDeadlineInfeasible, on two inline lanes under the
// modelled clock: lane 0 runs a query with ample slack when lane 1 gets one
// no operating point can serve in time. Freeing power cannot rescue it, so
// lane 0 must not be scaled down and must complete when first projected.
func TestGovernorSaveRuleSkipsDeadlineInfeasible(t *testing.T) {
	syscfg, err := core.Configure(nn.NewDeepLOB(), 2, core.Limited,
		core.Options{WorkloadScheduling: true, DVFSScheduling: true})
	if err != nil {
		t.Fatal(err)
	}
	tr := sim.NewTracer()
	srv := bareLanes(Config{
		Inline: true, ModelledClock: true, Sched: &syscfg.Sched,
		PrePipelineNanos: core.DefaultPrePipelineNanos, Probe: tr,
	}, 2)
	tmin := syscfg.Sched.MinTotalNanos()
	const at = 1_000
	srv.lanes[0].enqueue(mkQuery(1, 0, 20*tmin))
	srv.lanes[0].work(false)
	sibling := srv.gov.eng.Accel(0)
	if !sibling.Busy {
		t.Fatal("the long-deadline query was not admitted")
	}
	srv.lanes[1].enqueue(mkQuery(2, at, at+tmin/2))
	srv.lanes[1].work(false)
	srv.Drain()

	st := srv.Stats()
	if st.DeferredDeadline != 1 || st.Served != 1 {
		t.Fatalf("stats %+v, want one served and one deadline-deferred query", st)
	}
	if st.DVFSSaves != 0 || st.PowerSaveRetries != 0 || tr.DVFSTransitions(sim.DVFSSave) != 0 {
		t.Errorf("saving step ran on a deadline-infeasible decision: %d saves, %d retries",
			st.DVFSSaves, st.PowerSaveRetries)
	}
	for _, e := range tr.QueryEvents() {
		if e.Kind == sim.QueryComplete && e.DoneNanos != sibling.DoneNanos {
			t.Errorf("sibling completed at %d ns, projected %d ns", e.DoneNanos, sibling.DoneNanos)
		}
	}
	view := sched.BusyViewAt(0, sibling.DVFS, 1, 20*tmin, sibling.DoneNanos, at)
	if len(sched.SavePower(&syscfg.Sched, []sched.BusyAccel{view}, nil)) == 0 {
		t.Fatal("vacuous: the sibling had no slack for the saving step to use")
	}
}
