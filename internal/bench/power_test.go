package bench

import (
	"fmt"
	"testing"

	"lighttrader/internal/core"
	"lighttrader/internal/nn"
	"lighttrader/internal/serve"
	"lighttrader/internal/sim"
)

// powerDifferentialConfig is the single-accelerator differential system: the
// DeepLOB tables with the budget tightened until power binds even at N=1
// (only the lowest operating points fit under 1 W), so every drop cause the
// sweep reports is exercised by both engines on the same trace.
func powerDifferentialConfig() core.SystemConfig {
	cfg, err := core.Configure(nn.NewDeepLOB(), 1, core.Limited, core.Options{
		WorkloadScheduling: true, DVFSScheduling: true,
	})
	if err != nil {
		panic(err) // static config; cannot fail
	}
	cfg.Sched.PowerBudgetWatts = 1.0
	cfg.MaxQueue = 32
	return cfg
}

// TestSimServeLimitedPowerDifferential pins the serving runtime to the
// offline simulator on the paper's limited-power workload: one accelerator,
// one lane, modelled clock, identical scheduler config. Response counts and
// the per-cause drop attribution must agree exactly — the lane's take/retire
// path is the same decision procedure as core.System's advance loop, and any
// divergence here means the governor changed admission semantics rather than
// just power accounting.
func TestSimServeLimitedPowerDifferential(t *testing.T) {
	tc := PowerTraffic()
	tc.Ticks = 3000
	tc.TAvailNanos = 900_000
	qs := tc.Queries()

	simCfg := powerDifferentialConfig()
	sys, err := core.NewSystem(simCfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := sim.NewTracer()
	m := sim.RunWithOptions(qs, sys, sim.WithProbe(tr))
	attr := tr.Attribution()

	srvCfg := powerDifferentialConfig()
	srv, err := serve.New(powerMulti(1), serve.Config{
		Lanes:            1,
		Inline:           true,
		ModelledClock:    true,
		MaxQueue:         srvCfg.MaxQueue,
		Sched:            &srvCfg.Sched,
		TAvailNanos:      tc.TAvailNanos,
		PrePipelineNanos: srvCfg.PrePipelineNanos,
	})
	if err != nil {
		t.Fatal(err)
	}
	packets := powerFeed(len(qs), 1)
	for i, q := range qs {
		if err := srv.Submit(q.ArrivalNanos, packets[i]); err != nil {
			t.Fatal(err)
		}
	}
	srv.Drain()
	st := srv.Stats()

	if st.Submitted != m.Total {
		t.Errorf("submitted: serve %d, sim %d", st.Submitted, m.Total)
	}
	if st.Served != m.Responded {
		t.Errorf("responded: serve %d, sim %d", st.Served, m.Responded)
	}
	if st.Late != m.Late {
		t.Errorf("late: serve %d, sim %d", st.Late, m.Late)
	}
	if st.EvictedQueueFull != attr.Evicted {
		t.Errorf("evicted: serve %d, sim %d", st.EvictedQueueFull, attr.Evicted)
	}
	if st.DeferredDeadline != attr.DeferredDeadline {
		t.Errorf("deferred-deadline: serve %d, sim %d", st.DeferredDeadline, attr.DeferredDeadline)
	}
	if st.DeferredPower != attr.DeferredPower {
		t.Errorf("deferred-power: serve %d, sim %d", st.DeferredPower, attr.DeferredPower)
	}
	// Both hosts drive one engine, so its DVFS actions and its draw
	// high-water mark agree too.
	for _, c := range []struct {
		reason     sim.DVFSReason
		serve      int
		nonVacuous bool
	}{
		{sim.DVFSSave, st.DVFSSaves, false}, // N=1: no sibling to scale down
		{sim.DVFSRedistribute, st.DVFSRedistributes, true},
		{sim.DVFSPark, st.DVFSParks, true},
	} {
		n := tr.DVFSTransitions(c.reason)
		if c.serve != n {
			t.Errorf("%v transitions: serve %d, sim %d", c.reason, c.serve, n)
		}
		if c.nonVacuous && n == 0 {
			t.Errorf("vacuous differential: no %v transition occurred", c.reason)
		}
	}
	if st.MaxPowerWatts != sys.MaxObservedPowerWatts() {
		t.Errorf("max draw: serve %v W, sim %v W", st.MaxPowerWatts, sys.MaxObservedPowerWatts())
	}

	// Non-vacuity: the trace must actually exercise service and both
	// Algorithm-1 drop causes, or the agreement above proves nothing.
	if m.Responded == 0 {
		t.Error("vacuous differential: no query was served")
	}
	if attr.DeferredDeadline == 0 {
		t.Error("vacuous differential: no deadline-infeasible drop occurred")
	}
	if attr.DeferredPower == 0 {
		t.Error("vacuous differential: no power-infeasible drop occurred")
	}
	t.Logf("differential: %d submitted, %d served, %d late, %d evicted, "+
		"%d deferred-deadline, %d deferred-power",
		m.Total, m.Responded, m.Late, attr.Evicted, attr.DeferredDeadline, attr.DeferredPower)
}

// TestGovernorRecoversDeferredPowerDrops is the recovery claim of the sweep
// at test scale: on the bursty limited-power workload the governor must turn
// power-infeasible drops into rescued issues — strictly fewer DeferredPower
// drops and a strictly higher response rate than the drop-on-power-infeasible
// status quo, with a non-zero rescue count proving the save-retry path (not
// some traffic accident) did it.
func TestGovernorRecoversDeferredPowerDrops(t *testing.T) {
	tc := PowerTraffic().Scale(2500)
	nogov := runServePower("bursty", tc, false)
	gov := runServePower("bursty", tc, true)

	if nogov.DeferredPower == 0 {
		t.Fatal("vacuous recovery test: status quo saw no power-infeasible drops")
	}
	if gov.DeferredPower >= nogov.DeferredPower {
		t.Errorf("DeferredPower: governor %d, status quo %d; want strict decrease",
			gov.DeferredPower, nogov.DeferredPower)
	}
	if gov.ResponseRate <= nogov.ResponseRate {
		t.Errorf("response rate: governor %.4f, status quo %.4f; want strict increase",
			gov.ResponseRate, nogov.ResponseRate)
	}
	if gov.Rescues == 0 {
		t.Error("governor recovered drops without recording a single rescue")
	}
	if gov.MaxPowerWatts > powerBudgetWatts+1e-6 {
		t.Errorf("governor max draw %.6f W exceeds the %d W budget", gov.MaxPowerWatts, powerBudgetWatts)
	}
	t.Logf("recovery: status quo %.2f%% response (%d deferred-power), governor %.2f%% (%d), %d rescues",
		100*nogov.ResponseRate, nogov.DeferredPower, 100*gov.ResponseRate, gov.DeferredPower, gov.Rescues)
}

// TestServeModelledCompletionsAreFinal pins serve's modelled completions to
// the engine's retire: in the 8-lane power-sweep replays every
// QueryComplete carries its batch's final completion — the issue-time
// projection moved by every DVFS retime the batch received in flight —
// and ModelledBusyNanos sums Σ(done − issue − pre) over those batches.
// Batches retimed after they were processed must occur, or the check
// proves nothing.
func TestServeModelledCompletionsAreFinal(t *testing.T) {
	for _, w := range schedWorkloads(PowerTraffic().Scale(3000)) {
		c := &completionCheck{lanes: make([]flightBatch, powerLanes)}
		srv := replayServePower(w.TC, true, c)
		if c.mismatches > 0 {
			t.Errorf("%s: %d completions off their batch's final completion, first: %s",
				w.Name, c.mismatches, c.first)
		}
		var sum int64
		for _, n := range srv.ModelledBusyNanos() {
			sum += n
		}
		pre := powerSystemConfig().PrePipelineNanos
		if want := c.serviceNanos - int64(c.batches)*pre; sum != want {
			t.Errorf("%s: ΣModelledBusyNanos = %d, Σ(done − issue − pre) = %d", w.Name, sum, want)
		}
		if c.retimedLater == 0 {
			t.Errorf("%s: vacuous: no batch was retimed after it was processed", w.Name)
		}
		t.Logf("%s: %d batches, %d retimed after processing", w.Name, c.batches, c.retimedLater)
	}
}

// flightBatch is one lane's in-flight batch as the probe stream shows it.
type flightBatch struct {
	issued, done        int64
	issues, completes   int
	retimedAfterProcess bool
}

// completionCheck follows each lane's batch through its issue, DVFS retime
// and completion events and checks every completion against the batch's
// projected completion with all retimes applied.
type completionCheck struct {
	lanes        []flightBatch
	serviceNanos int64 // Σ(done − issue) over completed batches
	batches      int
	retimedLater int
	mismatches   int
	first        string
}

func (c *completionCheck) OnQueryEvent(e sim.QueryEvent) {
	switch e.Kind {
	case sim.QueryIssue:
		b := &c.lanes[e.Accel]
		if b.issues == 0 {
			*b = flightBatch{issued: e.TimeNanos, done: e.DoneNanos, issues: e.Batch}
		}
		b.issues--
	case sim.QueryComplete:
		b := &c.lanes[e.Accel]
		if b.completes == 0 {
			b.completes = e.Batch
			c.batches++
			c.serviceNanos += e.DoneNanos - b.issued
			if b.retimedAfterProcess {
				c.retimedLater++
			}
		}
		b.completes--
		if e.DoneNanos != b.done {
			if c.mismatches == 0 {
				c.first = fmt.Sprintf("query %d done %d ns, batch final %d ns", e.Query.ID, e.DoneNanos, b.done)
			}
			c.mismatches++
		}
	}
}

func (c *completionCheck) OnDVFSEvent(e sim.DVFSEvent) {
	if e.Reason != sim.DVFSSave && e.Reason != sim.DVFSRedistribute {
		return
	}
	b := &c.lanes[e.Accel]
	b.done += e.RetimedNanos
	// Inline replay processes a batch at its issue instant, so a retime at
	// a later instant came from another lane's event after processing.
	if e.TimeNanos > b.issued {
		b.retimedAfterProcess = true
	}
}

func (c *completionCheck) OnSample(sim.Sample) {}
