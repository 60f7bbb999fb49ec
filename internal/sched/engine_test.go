package sched

import "testing"

// TestEngineZeroAlloc is the allocation gate of the scheduling hot path:
// one cycle of admissions that exercises Algorithm 2's saving step and
// retry, the degrade ladder, redistribution and retire must not allocate.
// `make bench-tickpath` runs it in CI.
func TestEngineZeroAlloc(t *testing.T) {
	cfg := testConfig(t, true, true)
	table := cfg.Spec.DVFSTable()
	floor, top := table[0], table[len(table)-1]
	// Room for one accelerator at the top state beside one at the floor,
	// but not for two busy ones: the second admission is power-infeasible
	// until the saving step scales the first down.
	cfg.PowerBudgetWatts = cfg.BusyPower(top) + 0.999*cfg.BusyPower(floor)
	tiers := NewModelTiers(func(c *Config) Scheduler { return NewPPWScheduler(c) },
		degradeTierConfigs(t, true, true))
	for _, tier := range tiers {
		tier.Cfg.PowerBudgetWatts = cfg.PowerBudgetWatts
	}
	// Between the tier's and the primary model's fastest service times.
	mid := (tiers[0].Cfg.MinTotalNanos() + cfg.MinTotalNanos()) / 2

	e := NewEngine(cfg, 2, 350, true)
	pol := NewPPWScheduler(cfg)
	deadline := func(int) int64 { return 1 << 40 }
	var now int64
	var rescued, degraded bool
	cycle := func() {
		long := SchedContext{NowNanos: now, Queued: 1, AvailNanos: 1 << 30, IdleAccels: 2}
		if !e.Admit(long, pol, nil, true, deadline).Admitted {
			t.Fatal("first admission refused")
		}
		e.Redistribute(now, 0)
		long.AccelID, long.IdleAccels = 1, 1
		res := e.Admit(long, pol, nil, true, deadline)
		rescued = res.Saved && res.Verdict == VerdictIssued
		for i := 0; i < 2; i++ {
			e.Retire(i, e.Accel(i).DoneNanos)
		}
		now = e.Accel(0).DoneNanos + 1
		// Deadline-infeasible for the primary model, feasible for tier 1.
		tight := SchedContext{NowNanos: now, Queued: 1, AvailNanos: mid, IdleAccels: 2}
		res = e.Admit(tight, pol, tiers, true, deadline)
		degraded = res.Verdict == VerdictDegradedModel
		e.Retire(0, e.Accel(0).DoneNanos)
		now = e.Accel(0).DoneNanos + 1
	}
	cycle() // warm up: the DVFS table memo fills on first use
	if !rescued {
		t.Fatal("vacuous: the second admission was not rescued by the saving step")
	}
	if !degraded {
		t.Fatal("vacuous: the tight admission did not degrade to the ladder")
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("engine allocates %.1f times per cycle, want 0", allocs)
	}
}
