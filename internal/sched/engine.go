package sched

// The proactive scheduler as one state machine. The paper runs Algorithm 1
// and Algorithm 2 as one piece of FPGA logic; Engine is that logic. It owns
// every accelerator's operating point, draw and in-flight timing and the
// one power ledger they share. Its hosts — the back-test simulator
// (core.System) and the serving runtime's governor — own only their queues
// and event cadence: they call Admit when an accelerator is free, Retire
// when its batch completes, and Redistribute to spend the residual budget.

import (
	"lighttrader/internal/cgra"
	"lighttrader/internal/sim"
)

// AccelState is the engine's record of one accelerator.
type AccelState struct {
	// DVFS is the present operating point and DrawWatts the present draw:
	// the busy power of the in-flight batch's model, or the idle power.
	DVFS      cgra.DVFSState
	DrawWatts float64
	Busy      bool
	// DoneNanos is the in-flight batch's projected completion, moved by
	// every retime; after Retire, that batch's final completion.
	DoneNanos int64
	// BusyNanos accumulates the modelled service time of retired batches:
	// Σ(done − issue − pre-pipeline).
	BusyNanos int64
	// Switches counts issue-time operating-point changes; Saves and
	// Redistributes count in-flight retimes by Algorithm 2's saving and
	// redistribution steps; Parks counts returns to the floor at retire.
	Switches, Saves, Redistributes, Parks int64

	batch  int
	issued int64
	// minDeadline is the earliest deadline in the in-flight batch: the
	// slack bound of a saving-step scale-down.
	minDeadline int64
	// retimes counts DVFS changes applied to the in-flight batch; a retimed
	// batch takes no scale-up (§III-D: frequent DVFS changes risk a power
	// failure and add latency).
	retimes int
	// tier is the model tier the batch was admitted against and cost its
	// cost model, which a retime reprices and reschedules with.
	tier int
	cost *Config
}

// Admission is the outcome of one Admit call. Saved reports that the
// saving step ran (hosts rate-limit it); Admitted that a batch was
// committed, on the primary model or a degrade rung, and Done its projected
// completion at issue.
type Admission struct {
	Decision
	Saved, Admitted bool
	Done            int64
}

// Engine is the proactive scheduler's state over a fixed accelerator set.
// It is not safe for concurrent use; a concurrent host serialises calls.
type Engine struct {
	cfg *Config
	// pre is the host's front-pipeline time charged before every batch;
	// dvfs enables Algorithm 2 (saving, redistribution, parking at floor).
	pre   int64
	dvfs  bool
	floor cgra.DVFSState
	probe sim.Probe

	accels  []AccelState
	views   []BusyAccel
	changes []Change
	// maxDraw is the total draw's high-water mark over every ledger change.
	maxDraw          float64
	retries, rescues int64
}

// NewEngine builds n idle accelerators scheduled against cfg, at the floor
// state under DVFS scheduling and at the static Table III point without it.
// pre is the host's front-pipeline time before a batch reaches an
// accelerator; dvfs enables Algorithm 2 (normally cfg.DVFSScheduling).
func NewEngine(cfg *Config, n int, pre int64, dvfs bool) *Engine {
	e := &Engine{
		cfg: cfg, pre: pre, dvfs: dvfs,
		floor:   cfg.Spec.DVFSTable()[0],
		accels:  make([]AccelState, n),
		views:   make([]BusyAccel, 0, n),
		changes: make([]Change, 0, n),
	}
	start := cfg.StaticDVFS
	if cfg.DVFSScheduling {
		start = e.floor
	}
	for i := range e.accels {
		e.accels[i] = AccelState{DVFS: start, DrawWatts: cfg.Spec.IdlePower(start), cost: cfg}
	}
	e.noteDraw()
	return e
}

// SetProbe attaches an observer for DVFS events (nil detaches it).
func (e *Engine) SetProbe(p sim.Probe) { e.probe = p }

// Accel returns a copy of accelerator i's record.
func (e *Engine) Accel(i int) AccelState { return e.accels[i] }

// Load returns the busy-accelerator count and the total draw.
func (e *Engine) Load() (busy int, watts float64) {
	for i := range e.accels {
		watts += e.accels[i].DrawWatts
		if e.accels[i].Busy {
			busy++
		}
	}
	return busy, watts
}

// MaxDraw returns the highest total draw the ledger has held.
func (e *Engine) MaxDraw() float64 { return e.maxDraw }

// SaveRetries returns how many power-infeasible decisions ran the saving
// step and how many of those then issued.
func (e *Engine) SaveRetries() (retries, rescues int64) { return e.retries, e.rescues }

// Next returns the busy accelerator whose batch completes first (the lowest
// index on ties) and that completion; i is -1 when none is busy.
func (e *Engine) Next() (i int, done int64) {
	i = -1
	for j := range e.accels {
		if a := &e.accels[j]; a.Busy && (i < 0 || a.DoneNanos < done) {
			i, done = j, a.DoneNanos
		}
	}
	return i, done
}

// Admit runs one scheduling decision for the idle accelerator ctx.AccelID
// and commits it. The host fills NowNanos, Queued, AvailNanos, AccelID and
// IdleAccels; the engine fills the power view. Only a power-infeasible
// verdict runs Algorithm 2's saving step and one retry (when allowSave):
// freeing power cannot rescue a deadline-infeasible one. A still-infeasible
// verdict walks the degrade ladder tiers (nil for none), so a query the
// full model can serve is never degraded. minDeadline reports the earliest
// deadline over the first n queued queries, the batch's slack bound.
func (e *Engine) Admit(ctx SchedContext, pol Scheduler, tiers []ModelTier,
	allowSave bool, minDeadline func(n int) int64) Admission {
	res := Admission{Decision: pol.Decide(e.context(ctx))}
	if res.Verdict == VerdictPowerInfeasible && e.dvfs && allowSave {
		res.Saved = true
		e.retries++
		e.changes = SavePower(e.cfg, e.busyViews(ctx.NowNanos, false), e.changes)
		if len(e.changes) > 0 {
			for _, ch := range e.changes {
				e.retime(ch.ID, ch.DVFS, ctx.NowNanos, sim.DVFSSave)
			}
			res.Decision = pol.Decide(e.context(ctx))
			if res.Verdict == VerdictIssued {
				e.rescues++
			}
		}
	}
	cost := e.cfg
	if res.Verdict != VerdictIssued {
		if len(tiers) == 0 || !Degradable(res.Verdict) {
			return res
		}
		alt, ok := Degrade(tiers, e.context(ctx))
		if !ok {
			return res
		}
		res.Decision, cost = alt, tiers[alt.Tier-1].Cfg
	}
	i, now, issue := ctx.AccelID, ctx.NowNanos, res.Issue
	a := &e.accels[i]
	if a.DVFS != issue.DVFS {
		a.Switches++
		e.emit(sim.DVFSEvent{
			TimeNanos: now, Accel: i, Reason: sim.DVFSAtIssue,
			FromGHz: a.DVFS.FreqGHz, ToGHz: issue.DVFS.FreqGHz,
		})
	}
	a.DVFS, a.DrawWatts, a.Busy = issue.DVFS, cost.BusyPower(issue.DVFS), true
	a.DoneNanos = now + e.pre + issue.TotalNanos
	a.batch, a.issued, a.minDeadline = issue.Batch, now, minDeadline(issue.Batch)
	a.retimes, a.tier, a.cost = 0, res.Tier, cost
	e.noteDraw()
	res.Admitted, res.Done = true, a.DoneNanos
	return res
}

// Retire completes accelerator i's in-flight batch at instant at: the batch
// releases its power and, under DVFS scheduling, the accelerator parks at
// the floor state. It returns the batch's final, retimed completion.
func (e *Engine) Retire(i int, at int64) int64 {
	a := &e.accels[i]
	a.Busy = false
	a.BusyNanos += a.DoneNanos - a.issued - e.pre
	a.tier, a.cost = 0, e.cfg // idle power is Spec-level, shared by every tier
	if e.dvfs && a.DVFS != e.floor {
		a.Parks++
		e.emit(sim.DVFSEvent{
			TimeNanos: at, Accel: i, Reason: sim.DVFSPark,
			FromGHz: a.DVFS.FreqGHz, ToGHz: e.floor.FreqGHz,
		})
		a.DVFS = e.floor
	}
	a.DrawWatts = e.cfg.Spec.IdlePower(a.DVFS)
	e.noteDraw()
	return a.DoneNanos
}

// Redistribute spends the residual budget at now raising busy accelerators
// by marginal PPW (Algorithm 2), holding back headroom for idle
// accelerators to take the host's pending queries at the floor state. A
// no-op without DVFS scheduling.
func (e *Engine) Redistribute(now int64, pending int) {
	if !e.dvfs {
		return
	}
	views := e.busyViews(now, true)
	if len(views) == 0 {
		return
	}
	busy, used := e.Load()
	idle := min(len(e.accels)-busy, max(pending, 0))
	reserve := float64(idle) * (e.cfg.BusyPower(e.floor) - e.cfg.Spec.IdlePower(e.floor))
	e.changes = Redistribute(e.cfg, views, e.cfg.PowerBudgetWatts-used-reserve, e.changes)
	for _, ch := range e.changes {
		e.retime(ch.ID, ch.DVFS, now, sim.DVFSRedistribute)
	}
}

// context adds accelerator ctx.AccelID's power view to a host's context:
// the unallocated budget excluding its own draw (about to change), its
// operating point, and the busy accelerators.
func (e *Engine) context(ctx SchedContext) SchedContext {
	var used float64
	for i := range e.accels {
		if i != ctx.AccelID {
			used += e.accels[i].DrawWatts
		}
	}
	ctx.PowerAvailWatts = e.cfg.PowerBudgetWatts - used
	ctx.Current = e.accels[ctx.AccelID].DVFS
	ctx.Busy = e.busyViews(ctx.NowNanos, false)
	return ctx
}

// busyViews builds Algorithm 2's view of the accelerators working at now
// (aliasing e.views). With retimable set it keeps only those a scale-up may
// retime: not yet retimed, on the primary model (whose tables Redistribute
// prices with), and with over four switch stalls of work left.
func (e *Engine) busyViews(now int64, retimable bool) []BusyAccel {
	views := e.views[:0]
	amortise := 4 * e.cfg.Spec.DVFSSwitchNanos
	for i := range e.accels {
		a := &e.accels[i]
		if !a.Busy || a.DoneNanos <= now {
			continue // due for retire: a switch stall could make it late
		}
		v := BusyViewAt(i, a.DVFS, a.batch, a.minDeadline, a.DoneNanos, now)
		if retimable && (a.retimes != 0 || a.tier != 0 || v.RemainingNanos <= amortise) {
			continue
		}
		views = append(views, v)
	}
	e.views = views
	return views
}

// retime moves busy accelerator i to state d at now, rescheduling the
// remaining work and repricing the draw with the batch's cost model.
func (e *Engine) retime(i int, d cgra.DVFSState, now int64, reason sim.DVFSReason) {
	a := &e.accels[i]
	done := now + a.cost.RetimedRemainingNanos(max(a.DoneNanos-now, 0), a.DVFS, d)
	e.emit(sim.DVFSEvent{
		TimeNanos: now, Accel: i, Reason: reason,
		FromGHz: a.DVFS.FreqGHz, ToGHz: d.FreqGHz, RetimedNanos: done - a.DoneNanos,
	})
	if reason == sim.DVFSSave {
		a.Saves++
	} else {
		a.Redistributes++
	}
	a.DVFS, a.DoneNanos, a.DrawWatts = d, done, a.cost.BusyPower(d)
	a.retimes++
	e.noteDraw()
}

// noteDraw raises the draw high-water mark to the present total.
func (e *Engine) noteDraw() {
	if _, watts := e.Load(); watts > e.maxDraw {
		e.maxDraw = watts
	}
}

func (e *Engine) emit(ev sim.DVFSEvent) {
	if e.probe != nil {
		e.probe.OnDVFSEvent(ev)
	}
}
