// Package core integrates the LightTrader system (paper §III): the FPGA
// trading pipeline, the offload engine queue, one or more CGRA AI
// accelerators behind the C2C interconnect, and the proactive scheduler.
// It provides two faces: System, the profiled-latency model driven by the
// back-test simulator (internal/sim), and Pipeline (pipeline.go), the
// functional packet→parse→book→infer→order path used by the live-wire
// examples.
package core

import (
	"fmt"

	"lighttrader/internal/sched"
	"lighttrader/internal/sim"
)

// SystemConfig configures a simulated LightTrader instance.
type SystemConfig struct {
	// Sched carries the hardware models and scheduling feature switches.
	Sched sched.Config
	// Scheduler selects the scheduling strategy deciding what each idle
	// accelerator issues. nil selects the paper's proactive PPW scheduler
	// (Algorithm 1), which reproduces the pre-interface behaviour exactly.
	Scheduler sched.Factory
	// NumAccels is the accelerator count (1…16 in the paper's sweeps).
	NumAccels int
	// PrePipelineNanos is the FPGA trading-pipeline time before a tensor
	// reaches the offload engine: packet parse, book update, feature
	// packing (≈350 ns on the KU15P-class pipeline).
	PrePipelineNanos int64
	// MaxQueue bounds the offload-engine FIFO; arrivals beyond it evict
	// the oldest tensor (stale-tensor management, §III-A). Zero means 64.
	MaxQueue int
}

// DefaultPrePipelineNanos is the calibrated FPGA front-pipeline latency.
const DefaultPrePipelineNanos = 350

// DefaultPostPipelineNanos is the calibrated post-inference latency:
// trading-engine decision plus order encoding and egress.
const DefaultPostPipelineNanos = 310

// System is the simulated LightTrader appliance implementing
// sim.SystemModel. It hosts the proactive scheduler (sched.Engine) over one
// shared offload-engine FIFO: every idle accelerator admits from the queue
// head, the saving step may run once per idle accelerator per scheduling
// pass, and the residual budget is redistributed once at the end of each
// pass.
type System struct {
	cfg   SystemConfig
	name  string
	queue []sim.Query
	// batches[i] is accelerator i's in-flight batch (nil while idle).
	batches [][]sim.Query
	// eng owns the accelerators' operating points, draw and timing; policy
	// is the scheduling strategy. Both are rebuilt on every Reset so
	// stateful policies start each run fresh.
	eng    *sched.Engine
	policy sched.Scheduler
	// minDeadline is batchDeadline bound once, so admission does not
	// allocate a method value per decision.
	minDeadline func(int) int64

	pending []sim.Completion
	lastNow int64

	energyJ      float64
	lastEnergyAt int64
	energyStart  bool

	// probe observes scheduler-internal events; nil outside instrumented
	// runs. Probes never influence decisions (determinism invariant).
	probe sim.Probe
}

var _ sim.SystemModel = (*System)(nil)
var _ sim.EnergyReporter = (*System)(nil)
var _ sim.Instrumentable = (*System)(nil)

// NewSystem builds a LightTrader system model.
func NewSystem(cfg SystemConfig) (*System, error) {
	if cfg.NumAccels < 1 {
		return nil, fmt.Errorf("core: need at least one accelerator, got %d", cfg.NumAccels)
	}
	if cfg.Sched.Kernel == nil {
		return nil, fmt.Errorf("core: scheduler config carries no kernel")
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = 64
	}
	if cfg.PrePipelineNanos == 0 {
		cfg.PrePipelineNanos = DefaultPrePipelineNanos
	}
	if cfg.Sched.PostProcessNanos == 0 {
		cfg.Sched.PostProcessNanos = DefaultPostPipelineNanos
	}
	if err := cfg.Sched.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	tag := "baseline"
	switch {
	case cfg.Sched.WorkloadScheduling && cfg.Sched.DVFSScheduling:
		tag = "WS+DS"
	case cfg.Sched.WorkloadScheduling:
		tag = "WS"
	case cfg.Sched.DVFSScheduling:
		tag = "DS"
	}
	s := &System{cfg: cfg}
	s.minDeadline = s.batchDeadline
	s.Reset()
	if name := s.policy.Name(); name != "ppw" {
		// Non-default policies show up in the system tag (and therefore in
		// every metrics line); the default keeps the historical name.
		tag += "," + name
	}
	s.name = fmt.Sprintf("LightTrader[%s,N=%d,%s]",
		cfg.Sched.Kernel.ModelName, cfg.NumAccels, tag)
	return s, nil
}

// Name implements sim.SystemModel.
func (s *System) Name() string { return s.name }

// Reset implements sim.SystemModel.
func (s *System) Reset() {
	factory := s.cfg.Scheduler
	if factory == nil {
		factory = func(c *sched.Config) sched.Scheduler { return sched.NewPPWScheduler(c) }
	}
	*s = System{
		cfg: s.cfg, name: s.name, minDeadline: s.minDeadline, probe: s.probe,
		queue:   s.queue[:0],
		batches: make([][]sim.Query, s.cfg.NumAccels),
		eng:     sched.NewEngine(&s.cfg.Sched, s.cfg.NumAccels, s.cfg.PrePipelineNanos, s.cfg.Sched.DVFSScheduling),
		policy:  factory(&s.cfg.Sched),
	}
	s.eng.SetProbe(s.probe)
}

// MaxObservedPowerWatts returns the highest instantaneous accelerator draw
// since Reset — the quantity the card's power budget constrains.
func (s *System) MaxObservedPowerWatts() float64 { return s.eng.MaxDraw() }

// EnergyJoules implements sim.EnergyReporter.
func (s *System) EnergyJoules() float64 { return s.energyJ }

// SetProbe implements sim.Instrumentable.
func (s *System) SetProbe(p sim.Probe) {
	s.probe = p
	s.eng.SetProbe(p)
}

// emitQuery forwards a query event to the attached probe.
func (s *System) emitQuery(e sim.QueryEvent) {
	if s.probe != nil {
		s.probe.OnQueryEvent(e)
	}
}

// sample reports post-scheduling load and draw to the probe.
func (s *System) sample(now int64) {
	if s.probe == nil {
		return
	}
	busy, watts := s.eng.Load()
	s.probe.OnSample(sim.Sample{
		TimeNanos:  now,
		QueueDepth: len(s.queue),
		BusyAccels: busy,
		PowerWatts: watts,
	})
}

// accrueEnergy integrates accelerator power up to now.
func (s *System) accrueEnergy(now int64) {
	if !s.energyStart {
		s.lastEnergyAt = now
		s.energyStart = true
		return
	}
	dt := float64(now-s.lastEnergyAt) / 1e9
	if dt <= 0 {
		return
	}
	_, watts := s.eng.Load()
	s.energyJ += watts * dt
	s.lastEnergyAt = now
}

// OnArrival implements sim.SystemModel.
func (s *System) OnArrival(now int64, q sim.Query) {
	s.accrueEnergy(now)
	s.lastNow = now
	if len(s.queue) >= s.cfg.MaxQueue {
		// Stale-tensor management: evict the oldest feature map.
		s.emitQuery(sim.QueryEvent{
			TimeNanos: now, Kind: sim.QueryEvict, Query: s.queue[0], Accel: -1,
		})
		s.pending = append(s.pending, sim.Completion{Query: s.queue[0], Dropped: true})
		s.queue = s.queue[1:]
	}
	s.queue = append(s.queue, q)
	s.schedule(now)
}

// NextEventTime implements sim.SystemModel.
func (s *System) NextEventTime() int64 {
	if len(s.pending) > 0 {
		return s.lastNow
	}
	if i, done := s.eng.Next(); i >= 0 {
		return done
	}
	return sim.NoEvent
}

// Advance implements sim.SystemModel.
func (s *System) Advance(now int64) []sim.Completion {
	s.accrueEnergy(now)
	s.lastNow = now
	out := s.pending
	s.pending = nil
	for i, batch := range s.batches {
		if batch == nil || s.eng.Accel(i).DoneNanos > now {
			continue
		}
		done := s.eng.Retire(i, now)
		for _, q := range batch {
			out = append(out, sim.Completion{Query: q, DoneNanos: done, Batch: len(batch)})
		}
		s.batches[i] = nil
	}
	s.schedule(now)
	return out
}

// batchDeadline returns the earliest deadline over the first n queued
// queries — the slack bound of a batch about to issue.
func (s *System) batchDeadline(n int) int64 {
	min := s.queue[0].DeadlineNanos
	for _, q := range s.queue[1:n] {
		if q.DeadlineNanos < min {
			min = q.DeadlineNanos
		}
	}
	return min
}

// schedule runs one scheduling pass at now: every idle accelerator admits
// from the queue head through the engine (the configured strategy decides,
// with Algorithm 2's saving step as a once-per-accelerator retry when a
// decision fails on power), queries no candidate can serve are deferred,
// and the engine then redistributes the residual budget.
func (s *System) schedule(now int64) {
	for i, inflight := range s.batches {
		if inflight != nil {
			continue
		}
		allowSave := true
		for len(s.queue) > 0 {
			oldest := s.queue[0]
			busy, _ := s.eng.Load()
			res := s.eng.Admit(sched.SchedContext{
				NowNanos:   now,
				Queued:     len(s.queue),
				AvailNanos: oldest.Remaining(now) - s.cfg.PrePipelineNanos,
				AccelID:    i,
				IdleAccels: len(s.batches) - busy,
			}, s.policy, nil, allowSave, s.minDeadline)
			allowSave = allowSave && !res.Saved
			if !res.Admitted {
				// Defer the oldest tensor to the conventional pipeline,
				// attributed to the scheduler's decision reason.
				s.emitQuery(sim.QueryEvent{
					TimeNanos: now, Kind: sim.QueryDefer, Query: oldest,
					Accel: -1, Cause: res.Verdict.DeferCause(),
				})
				s.pending = append(s.pending, sim.Completion{Query: oldest, Dropped: true})
				s.queue = s.queue[1:]
				continue
			}
			batch := make([]sim.Query, res.Issue.Batch)
			copy(batch, s.queue)
			s.queue = s.queue[len(batch):]
			s.batches[i] = batch
			if s.probe != nil {
				for _, q := range batch {
					s.emitQuery(sim.QueryEvent{
						TimeNanos: now, Kind: sim.QueryIssue, Query: q,
						Accel: i, Batch: len(batch), DoneNanos: res.Done,
					})
				}
			}
			break
		}
	}
	s.eng.Redistribute(now, len(s.queue))
	s.sample(now)
}
