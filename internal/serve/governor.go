package serve

import (
	"sync"

	"lighttrader/internal/sched"
	"lighttrader/internal/sim"
)

// governor hosts the proactive scheduler (sched.Engine) over the serving
// lanes, one engine accelerator per lane. Its lock makes admission
// transactional — decide and commit in one critical section, so two lanes
// can never jointly overshoot the shared budget — and every lane calls it
// after each issue and retire, so Algorithm 2 redistributes the residual
// budget at both. Without a scheduling config the governor is inert; with
// one but without DVFS scheduling (or with DisablePowerGovernor) the engine
// runs Algorithm 1 admission against the shared budget and no DVFS actions.
type governor struct {
	srv *Server
	// eng is nil without a scheduling config.
	eng *sched.Engine

	mu sync.Mutex
	// degrades counts batches the ladder admitted after the primary model
	// was infeasible; tierIssues[t] counts batches issued against tier t
	// (index 0 is the primary model). nil without Config.Tiers.
	degrades   int64
	tierIssues []int64
}

func newGovernor(srv *Server, cfg *sched.Config, lanes int) *governor {
	g := &governor{srv: srv}
	if cfg == nil {
		return g
	}
	g.eng = sched.NewEngine(cfg, lanes, srv.cfg.PrePipelineNanos,
		cfg.DVFSScheduling && !srv.cfg.DisablePowerGovernor)
	if srv.probe.active() {
		g.eng.SetProbe(srv.probe)
	}
	if n := len(srv.cfg.Tiers); n > 0 {
		g.tierIssues = make([]int64, n+1)
	}
	return g
}

// admit runs one transactional admission for lane l at now; the caller
// holds l.mu. Under the modelled clock, batches whose completion has passed
// retire first — the simulator's advance-before-schedule ordering. The
// engine then decides for the lane's own queue (allowSave rate-limits the
// saving step), an admitted batch moves into l.batch and is probed, and
// the engine spends the residual budget. A lane whose previous batch is
// still in flight — a concurrent lane retimed it after the caller read its
// completion — gets VerdictNoQueue and must re-read its free time.
func (g *governor) admit(l *lane, now int64, queued int, availNanos int64, allowSave bool) sched.Admission {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.retireDue(now)
	if g.srv.cfg.ModelledClock && g.eng.Accel(l.id).Busy {
		return sched.Admission{Decision: sched.Decision{Verdict: sched.VerdictNoQueue}}
	}
	res := g.eng.Admit(sched.SchedContext{
		NowNanos: now, Queued: queued, AvailNanos: availNanos,
		AccelID: l.id, IdleAccels: 1, // each lane decides only for its own queue
	}, l.policy, l.tiers, allowSave, l.deadlineFn)
	if !res.Admitted {
		return res
	}
	if res.Verdict == sched.VerdictDegradedModel {
		g.degrades++
	}
	if g.tierIssues != nil {
		g.tierIssues[res.Tier]++
	}
	if res.Verdict == sched.VerdictDegradedModel {
		g.srv.probe.OnQueryEvent(sim.QueryEvent{
			TimeNanos: now, Kind: sim.QueryDegrade, Query: simQuery(l.queue[0]),
			Accel: l.id, Batch: res.Issue.Batch, Tier: res.Tier,
		})
	}
	l.hold(res.Issue.Batch, res.Tier)
	l.probeIssue(now, res.Done)
	g.eng.Redistribute(now, int(g.srv.queued.Load())-res.Issue.Batch)
	l.wake = g.eng.Accel(l.id).DoneNanos
	return res
}

// retire completes lane l's batch when its dispatch finishes (live serving).
func (g *governor) retire(l *lane) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.retireLocked(l.id, g.eng.Accel(l.id).DoneNanos)
}

// retireDue retires, in completion order, every lane whose modelled batch
// has finished by now. Under the modelled clock a batch holds its power
// until its completion instant passes, observed lazily at the next governor
// event — the cross-lane analogue of the simulator's event loop. Live
// serving retires a batch when its dispatch returns, which on real
// hardware IS the modelled completion. Callers hold g.mu.
func (g *governor) retireDue(now int64) {
	if !g.srv.cfg.ModelledClock {
		return
	}
	for {
		i, done := g.eng.Next()
		if i < 0 || done > now {
			return
		}
		g.retireLocked(i, done)
	}
}

// flush retires every still-busy lane at its modelled completion — the
// end-of-replay drain, so final parks and counters match a simulator run
// that advances past its last event.
func (g *governor) flush() {
	if g.eng == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.retireDue(1<<63 - 1)
}

// retireLocked retires lane i's batch at its final completion done, spends
// the freed budget on still-busy lanes — the completion-boundary
// redistribution — and accounts the batch's queries. Callers hold g.mu.
func (g *governor) retireLocked(i int, done int64) {
	g.eng.Retire(i, done)
	g.eng.Redistribute(done, int(g.srv.queued.Load()))
	busy, watts := g.eng.Load()
	g.srv.lanes[i].complete(done, busy, watts)
}

// freeAt returns the modelled instant lane l may decide again: its last
// batch's completion as retimed so far, but no earlier than planned at
// admission (l.wake).
func (g *governor) freeAt(l *lane) int64 {
	if g.eng == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return max(l.wake, g.eng.Accel(l.id).DoneNanos)
}

// load returns the busy-lane count and total draw.
func (g *governor) load() (busy int, watts float64) {
	if g.eng == nil {
		return 0, 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.eng.Load()
}

// fold adds the governor's counters to st.
func (g *governor) fold(st *Stats) {
	if g.eng == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	retries, rescues := g.eng.SaveRetries()
	st.PowerSaveRetries, st.PowerSaveRescues = int(retries), int(rescues)
	for i := range g.srv.lanes {
		a := g.eng.Accel(i)
		st.DVFSSaves += int(a.Saves)
		st.DVFSRedistributes += int(a.Redistributes)
		st.DVFSParks += int(a.Parks)
		st.DVFSSwitches += int(a.Switches)
	}
	st.MaxPowerWatts = g.eng.MaxDraw()
	st.Degrades = int(g.degrades)
	if g.tierIssues != nil {
		st.TierIssues = make([]int, len(g.tierIssues))
		for t, n := range g.tierIssues {
			st.TierIssues[t] = int(n)
		}
	}
}

// LaneDVFSStats is one lane's published DVFS/power state and counters.
type LaneDVFSStats struct {
	// Lane is the lane index (the probe's accelerator id).
	Lane int
	// FreqGHz is the lane's present modelled operating point; DrawWatts its
	// present modelled draw; Busy whether a batch is in flight.
	FreqGHz   float64
	DrawWatts float64
	Busy      bool
	// Switches counts at-issue operating-point changes; Saves scale-downs
	// applied by Algorithm 2's saving step; Redistributes scale-ups from
	// residual budget; Parks returns to the floor state at retire.
	Switches      int64
	Saves         int64
	Redistributes int64
	Parks         int64
}

// LaneDVFS returns every lane's DVFS/power state and governor counters.
// Nil without a scheduling config.
func (s *Server) LaneDVFS() []LaneDVFSStats {
	g := s.gov
	if g.eng == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]LaneDVFSStats, len(s.lanes))
	for i := range out {
		a := g.eng.Accel(i)
		out[i] = LaneDVFSStats{
			Lane: i, FreqGHz: a.DVFS.FreqGHz, DrawWatts: a.DrawWatts, Busy: a.Busy,
			Switches: a.Switches, Saves: a.Saves,
			Redistributes: a.Redistributes, Parks: a.Parks,
		}
	}
	return out
}
