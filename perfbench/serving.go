package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"lighttrader/internal/core"
	"lighttrader/internal/feed"
	"lighttrader/internal/lob"
	"lighttrader/internal/nn"
	"lighttrader/internal/offload"
	"lighttrader/internal/scenario"
	"lighttrader/internal/serve"
	"lighttrader/internal/tensor"
	"lighttrader/internal/trading"
)

// servingSpec fixes one serving workload. The constants are recorded in
// BENCHMARK.json; changing one changes the benchmark.
type servingSpec struct {
	name string
	// regime is the registry scenario whose phases are scripted over
	// instruments() and repeated until the stream fills the run.
	regime string
	// rate is the mean offered load in packets per second. The script's own
	// inter-arrival pattern is kept and scaled in time to this mean.
	rate float64
	// budget returns the per-query deadline budget from the compiled system.
	budget func(core.SystemConfig) int64
	// realModel runs the Go DeepLOB forward pass; otherwise a constant-time
	// predictor stands in for the offloaded accelerator.
	realModel bool
	// spin makes the generator busy-wait for each due time. With one lane
	// that is two busy goroutines on two cores; the inference workload
	// sleeps instead, leaving both cores to the lane and the GEMM workers.
	spin bool
}

// tickPathSpec: trading-day bursts at 5k pkt/s, below the knee, with the
// deadline at three times DeepLOB's modelled batch-1 tick-to-trade.
func tickPathSpec() servingSpec {
	return servingSpec{
		name: "tick-path", regime: "trading-day", rate: 5000,
		budget: func(c core.SystemConfig) int64 { return 3 * c.TickToTradeNanos() },
		spin:   true,
	}
}

// inferenceSpec: calm drift at 20 pkt/s with a 50 ms deadline. The quiet
// regime's Hawkes clusters still queue ticks behind each other's forward
// passes; at 50 pkt/s (lane about half busy) that queueing amplified the
// host's run-to-run speed changes into a median spread beyond any bound.
func inferenceSpec() servingSpec {
	return servingSpec{
		name: "inference", regime: "quiet", rate: 20,
		budget:    func(core.SystemConfig) int64 { return 50_000_000 },
		realModel: true,
	}
}

// instruments is the benchmark's three-instrument market.
func instruments() []scenario.Instrument {
	return []scenario.Instrument{
		{SecurityID: 1, Symbol: "ESU6", MidPrice: 450000, DepthPerLevel: 50},
		{SecurityID: 2, Symbol: "NQU6", MidPrice: 1500000, DepthPerLevel: 50},
		{SecurityID: 3, Symbol: "YMU6", MidPrice: 350000, DepthPerLevel: 50},
	}
}

// scriptedTicks builds the regime's phases over instruments(), repeated
// until the stream holds at least need packets.
func scriptedTicks(regime string, seed int64, need int) ([]feed.Tick, error) {
	base, err := scenario.ByName(regime, seed)
	if err != nil {
		return nil, err
	}
	reps := 1
	for {
		var phases []scenario.Phase
		for i := 0; i < reps; i++ {
			phases = append(phases, base.Script().Phases...)
		}
		src, err := scenario.New("perfbench-"+regime, scenario.Script{Instruments: instruments(), Phases: phases}, seed)
		if err != nil {
			return nil, err
		}
		ticks := src.Ticks()
		if len(ticks) >= need {
			return ticks, nil
		}
		reps = int(math.Ceil(float64(reps) * float64(need) / float64(len(ticks)) * 1.1))
	}
}

// servingSetup is what a serving run builds before it measures.
type servingSetup struct {
	spec   servingSpec
	ticks  []feed.Tick
	warm   int // leading packets replayed closed-loop to fill feature windows
	model  *nn.Model
	sys    core.SystemConfig
	norms  []offload.Normalizer // per instrument
	budget int64
}

// warmupCount returns the shortest prefix that gives every instrument a
// full feature window plus a few predictions.
func warmupCount(ticks []feed.Tick) int {
	seen := map[string]int{}
	full := 0
	for i, t := range ticks {
		seen[t.Snapshot.Symbol]++
		if seen[t.Snapshot.Symbol] == nn.Window+20 {
			if full++; full == len(instruments()) {
				return i + 1
			}
		}
	}
	return len(ticks)
}

func buildServing(spec servingSpec, o options) (*servingSetup, error) {
	need := int(spec.rate*o.seconds*1.05) + 1000
	ticks, err := scriptedTicks(spec.regime, o.seed, need)
	if err != nil {
		return nil, err
	}
	st := &servingSetup{spec: spec, ticks: ticks, warm: warmupCount(ticks)}
	if st.warm+int(spec.rate*o.seconds) > len(ticks) {
		ticks, err = scriptedTicks(spec.regime, o.seed, st.warm+need)
		if err != nil {
			return nil, err
		}
		st.ticks = ticks
	}
	st.model = nn.NewDeepLOB()
	if st.sys, err = core.Configure(st.model, 1, core.Limited,
		core.Options{WorkloadScheduling: true, DVFSScheduling: true}); err != nil {
		return nil, err
	}
	st.budget = spec.budget(st.sys)
	// Calibrate each instrument's normaliser on the warm-up history.
	bySym := map[string][]lob.Snapshot{}
	for _, t := range st.ticks[:st.warm] {
		bySym[t.Snapshot.Symbol] = append(bySym[t.Snapshot.Symbol], t.Snapshot)
	}
	for _, ins := range instruments() {
		st.norms = append(st.norms, offload.Calibrate(bySym[ins.Symbol]))
	}
	return st, nil
}

// sigRec is one trading decision as seen by the signal hook.
type sigRec struct {
	tick int64 // book-event time of the tick (scenario clock)
	at   int64 // wall time of the decision
}

// paritySample is one sampled predictor call: its input and served answer.
type paritySample struct {
	in   *tensor.Tensor
	dir  nn.Direction
	conf float32
}

// paritySampleEvery fixes the predictor calls the parity check re-runs,
// up to maxParitySamples of them.
const paritySampleEvery, maxParitySamples = 25, 200

// servingPass is one measured replay through a fresh server.
type servingPass struct {
	set    *servingSetup
	srv    *serve.Server
	sigs   []sigRec       // written by the lane goroutine only
	par    []paritySample // inference: sampled predictor calls
	parBuf []*tensor.Tensor
	calls  int
	tr     *servingTrace // nil on untraced passes
}

// stubPredict is the constant-time stand-in for the offloaded accelerator:
// it reads one feature of the newest row and answers from its sign.
func stubPredict(t *tensor.Tensor) (nn.Direction, float32, error) {
	d := t.Data()
	if d[len(d)-nn.Features] > 0 {
		return nn.Up, 0.6, nil
	}
	return nn.Down, 0.6, nil
}

func newServingPass(set *servingSetup, traced bool) (*servingPass, error) {
	p := &servingPass{set: set, sigs: make([]sigRec, 0, len(set.ticks))}
	if traced {
		p.tr = newServingTrace(set)
	}
	mp := core.NewMultiPipeline()
	for i, ins := range instruments() {
		tcfg := trading.DefaultConfig(ins.SecurityID)
		if err := mp.Add(ins.Symbol, ins.SecurityID, set.model, set.norms[i], tcfg); err != nil {
			return nil, err
		}
	}
	predict := stubPredict
	if set.spec.realModel {
		predict = p.modelPredict
		p.par = make([]paritySample, 0, maxParitySamples)
		for i := 0; i < maxParitySamples; i++ {
			p.parBuf = append(p.parBuf, tensor.New(set.model.InputShape...))
		}
	}
	if p.tr != nil {
		predict = p.tr.timedPredict(predict)
	}
	for _, pipe := range mp.Pipelines() {
		pipe.SetPredictor(predict)
		pipe.SetSignalHook(func(ev core.SignalEvent) {
			at := now()
			p.sigs = append(p.sigs, sigRec{tick: ev.TickNanos, at: at})
			if p.tr != nil {
				p.tr.onSignal(ev.TickNanos, at)
			}
		})
	}
	cfg := serve.Config{
		Lanes:            1,
		Sched:            &set.sys.Sched,
		TAvailNanos:      set.budget,
		PrePipelineNanos: set.sys.PrePipelineNanos,
		Clock:            now,
	}
	if p.tr != nil {
		f, err := timedFactory(&p.tr.decide)
		if err != nil {
			return nil, err
		}
		cfg.Scheduler = f
		cfg.Probe = p.tr
	}
	srv, err := serve.New(mp, cfg)
	if err != nil {
		return nil, err
	}
	p.srv = srv
	return p, nil
}

// modelPredict runs the real forward pass and keeps a fixed sample of
// calls (input copy and answer) for the parity check. The copies go into
// tensors allocated up front, so sampling adds no allocation to the run.
func (p *servingPass) modelPredict(t *tensor.Tensor) (nn.Direction, float32, error) {
	dir, conf, err := p.set.model.Predict(t)
	if p.calls%paritySampleEvery == 0 && err == nil && len(p.par) < cap(p.par) {
		in := p.parBuf[len(p.par)]
		copy(in.Data(), t.Data())
		p.par = append(p.par, paritySample{in: in, dir: dir, conf: conf})
	}
	p.calls++
	return dir, conf, err
}

// passResult is what one pass measured.
type passResult struct {
	packets    int // packets offered in the measured phase
	submitErr  int
	stats      serve.Stats // measured phase only
	total      serve.Stats // whole pass, warm-up included
	t2t        []float64   // ns, answered ticks
	lag        []float64   // generator lateness, ns
	allocB     float64     // heap bytes per offered packet
	throughput float64     // answered kq per second of the measured phase
	gcCycles   uint32
	gcPauseMs  float64
	stale      int
}

// run replays the warm-up closed-loop, then the measured phase open-loop
// for the given seconds, drains and stops the server.
func (p *servingPass) run(seconds float64) (passResult, error) {
	var res passResult
	set := p.set
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = p.srv.Run(ctx) // returns ctx.Err() once cancelled
	}()
	defer func() {
		cancel()
		wg.Wait()
	}()

	for _, t := range set.ticks[:set.warm] {
		if err := p.srv.Submit(now(), t.Packet); err != nil {
			return res, fmt.Errorf("warm-up submit: %w", err)
		}
		p.srv.Drain()
	}
	warmStats := p.srv.Stats()
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	allocs := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	heapAllocs := func() uint64 { metrics.Read(allocs); return allocs[0].Value.Uint64() }
	var windows []allocWindow
	nextWindow := int64(0)

	ticks := set.ticks[set.warm:]
	t0 := ticks[0].TimeNanos
	scale := float64(len(ticks)-1) / set.spec.rate * 1e9 / float64(ticks[len(ticks)-1].TimeNanos-t0)
	horizon := int64(seconds * 1e9)
	base := now() + 2_000_000
	due := func(tick int64) int64 { return base + int64(float64(tick-t0)*scale) }
	res.lag = make([]float64, 0, int(set.spec.rate*seconds)+1)
	last := 0
	for i, t := range ticks {
		d := due(t.TimeNanos)
		if d-base > horizon {
			break
		}
		if set.spec.spin {
			for now() < d {
				// Yield while waiting: a lane goroutine readied by the last
				// submit may sit on this P's run queue.
				runtime.Gosched()
			}
		} else if w := d - now(); w > 0 {
			time.Sleep(time.Duration(w))
		}
		start := now()
		if d-base >= nextWindow {
			windows = append(windows, allocWindow{packets: i, bytes: heapAllocs()})
			nextWindow += allocWindowNanos
		}
		res.lag = append(res.lag, float64(start-d))
		if p.tr != nil {
			p.tr.beforeSubmit(i, d, start)
		}
		if err := p.srv.Submit(d, t.Packet); err != nil {
			res.submitErr++
		}
		if p.tr != nil {
			p.tr.afterSubmit(i, now())
		}
		last = i + 1
	}
	p.srv.Drain()
	runtime.ReadMemStats(&ms1)
	res.packets = last
	res.total = p.srv.Stats()
	res.stats = statsDelta(res.total, warmStats)
	res.throughput = float64(res.stats.Served) / seconds / 1e3
	windows = append(windows, allocWindow{packets: last, bytes: heapAllocs()})
	res.allocB = allocPerPacket(windows)
	res.gcCycles = ms1.NumGC - ms0.NumGC
	res.gcPauseMs = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6

	// Tick-to-trade: due time of the tick's packet to its trading decision,
	// over ticks decided within the deadline budget.
	tEnd := ticks[last-1].TimeNanos
	for _, s := range p.sigs {
		if s.tick < t0 || s.tick > tEnd {
			continue
		}
		if v := s.at - due(s.tick); v <= set.budget {
			res.t2t = append(res.t2t, float64(v))
		}
	}
	res.stale = p.staleLevels(set.warm + last)
	return res, nil
}

// allocWindowNanos is the window over which allocation per packet is
// taken; alloc_b_per_pkt is the median over windows, so the sync.Pool
// refills that follow a GC cycle land in one window instead of moving the
// whole run's figure.
const allocWindowNanos = 5_000_000_000

// allocWindow marks a window start: packets offered and heap bytes
// allocated so far.
type allocWindow struct {
	packets int
	bytes   uint64
}

// allocPerPacket is the median over windows of heap bytes per offered
// packet.
func allocPerPacket(ws []allocWindow) float64 {
	var per []float64
	for i := 1; i < len(ws); i++ {
		if n := ws[i].packets - ws[i-1].packets; n > 0 {
			per = append(per, float64(ws[i].bytes-ws[i-1].bytes)/float64(n))
		}
	}
	return median(per)
}

// staleLevels counts book levels (price or quantity) where the runtime's
// mirror differs from the scenario's book after the first n packets.
func (p *servingPass) staleLevels(n int) int {
	want := map[string]lob.Snapshot{}
	for _, t := range p.set.ticks[:n] {
		want[t.Snapshot.Symbol] = t.Snapshot
	}
	stale := 0
	for _, ins := range instruments() {
		got, ok := p.srv.Snapshot(ins.SecurityID, 0)
		if !ok {
			stale += 2 * lob.DepthLevels
			continue
		}
		w := want[ins.Symbol]
		for l := 0; l < lob.DepthLevels; l++ {
			if !sameLevel(got.Bids[l], w.Bids[l]) {
				stale++
			}
			if !sameLevel(got.Asks[l], w.Asks[l]) {
				stale++
			}
		}
	}
	return stale
}

// sameLevel compares price and quantity; the mirror does not track the
// venue's per-level order count.
func sameLevel(a, b lob.Level) bool { return a.Price == b.Price && a.Qty == b.Qty }

func statsDelta(a, b serve.Stats) serve.Stats {
	return serve.Stats{
		Submitted:        a.Submitted - b.Submitted,
		Served:           a.Served - b.Served,
		Late:             a.Late - b.Late,
		EvictedQueueFull: a.EvictedQueueFull - b.EvictedQueueFull,
		DeferredDeadline: a.DeferredDeadline - b.DeferredDeadline,
		DeferredPower:    a.DeferredPower - b.DeferredPower,
		Errors:           a.Errors - b.Errors,
		Batches:          a.Batches - b.Batches,
		PowerSaveRetries: a.PowerSaveRetries - b.PowerSaveRetries,
		PowerSaveRescues: a.PowerSaveRescues - b.PowerSaveRescues,
	}
}

// e2e fills the end-to-end metrics of one pass.
func (res passResult) e2e(m map[string]metric) {
	n := len(res.t2t)
	m["t2t_iqm_us"] = metric{iqm(res.t2t) / 1e3, "us"}
	m["t2t_tail_us"] = metric{quantile(res.t2t, tailQuantile(n)) / 1e3, "us"}
	m["answered_pct"] = metric{pct(res.stats.Served, res.stats.Submitted), "%"}
	m["alloc_b_per_pkt"] = metric{res.allocB, "B"}
	m["throughput_kqps"] = metric{res.throughput, "kq/s"}
}

func pct(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

// checks prints and gates the pass's correctness checks.
func (p *servingPass) checks(r *report, res passResult) {
	st := res.total
	sum := st.Served + st.Late + st.EvictedQueueFull + st.DeferredDeadline + st.DeferredPower
	offered := p.set.warm + res.packets
	r.check("serve.conservation", sum == st.Submitted && st.Submitted == offered,
		"submitted %d = served %d + late %d + evicted %d + deferred-deadline %d + deferred-power %d = %d; generator offered %d",
		st.Submitted, st.Served, st.Late, st.EvictedQueueFull, st.DeferredDeadline, st.DeferredPower, sum, offered)
	r.check("serve.errors", res.submitErr == 0 && st.Errors == 0,
		"submit errors %d, pipeline errors %d", res.submitErr, st.Errors)
	// The generator fell behind its schedule when its median lateness
	// exceeds a tenth of the deadline budget. Its p99 is reported, not
	// gated: short host stalls of a few milliseconds move it on a shared
	// machine without the offered load drifting from the schedule.
	lag50, limit := quantile(res.lag, 0.5), float64(p.set.budget)/10
	r.check("gen.on_schedule", lag50 <= limit,
		"generator lag p50 %.1f us (limit %.1f us), p99 %.1f us", lag50/1e3, limit/1e3, quantile(res.lag, 0.99)/1e3)
	r.check("t2t.samples", len(res.t2t) >= minT2TSamples,
		"%d answered ticks (at least %d; p99 needs 1000)", len(res.t2t), minT2TSamples)
	if p.set.spec.realModel {
		p.checkParity(r)
	}
}

// minT2TSamples is the fewest answered ticks a valid run has: its tail
// percentile then has ten samples beyond it at p95 or higher.
const minT2TSamples = 200

// Parity tolerance of the forward-pass tests (|a-b| <= atol + rtol*max).
const parityAtol, parityRtol = 1e-4, 1e-4

// checkParity re-runs the sampled predictor inputs through the model's
// heap-allocating reference forward and compares direction and confidence.
func (p *servingPass) checkParity(r *report) {
	bad := 0
	for _, s := range p.par {
		out, err := p.set.model.Forward(s.in)
		if err != nil {
			bad++
			continue
		}
		probs := out.Data()
		idx := tensor.Argmax(out)
		want := probs[idx]
		lim := parityAtol + parityRtol*math.Max(math.Abs(float64(want)), math.Abs(float64(s.conf)))
		served := probs[s.dir] // the reference probability of the served class
		// A near-tie may flip the argmax within tolerance; anything else
		// must match exactly.
		if math.Abs(float64(s.conf-want)) > lim || math.Abs(float64(served-want)) > lim {
			bad++
		}
	}
	r.check("nn.parity", len(p.par) > 0 && bad == 0,
		"%d sampled predictor calls, %d outside |a-b| <= %g + %g*max", len(p.par), bad, parityAtol, parityRtol)
}

// runServing is the tick-path and inference workload driver.
func runServing(spec servingSpec, o options, r *report) (int, int, error) {
	var pass *servingPass
	set, setupS, err := timedSetup(func() (*servingSetup, error) {
		s, err := buildServing(spec, o)
		if err != nil {
			return nil, err
		}
		pass, err = newServingPass(s, false)
		return s, err
	})
	if err != nil {
		return 0, 0, err
	}
	r.e2e["setup_s"] = metric{setupS, "s"}
	fmt.Printf("%s: %d packets scripted from %s over %d instruments, %d warm-up, rate %.0f pkt/s, budget %.1f us, lanes 1\n",
		spec.name, len(set.ticks), spec.regime, len(instruments()), set.warm, spec.rate, float64(set.budget)/1e3)

	res, err := pass.run(o.seconds)
	if err != nil {
		return 0, 0, err
	}
	res.e2e(r.e2e)
	pass.checks(r, res)
	note("core.book_stale_levels", float64(res.stale), "levels")
	note("gen.lag_us.p50", quantile(res.lag, 0.5)/1e3, "us")
	note("gen.lag_us.p99", quantile(res.lag, 0.99)/1e3, "us")
	note("t2t.samples", float64(len(res.t2t)), "ticks")
	attempted, failed := res.packets, res.submitErr+res.stats.Errors
	if !o.trace {
		return attempted, failed, nil
	}

	tp, err := newServingPass(set, true)
	if err != nil {
		return 0, 0, err
	}
	tres, err := tp.run(o.seconds)
	if err != nil {
		return 0, 0, err
	}
	tp.checks(r, tres)
	traced := map[string]metric{}
	tres.e2e(traced)
	for _, k := range []string{"t2t_iqm_us", "throughput_kqps"} {
		r.layer["trace.overhead."+k] = metric{traced[k].Value - r.e2e[k].Value, traced[k].Unit}
	}
	if err := tp.tr.report(r, res, tres, tp.par, o); err != nil {
		return 0, 0, err
	}
	return attempted + tres.packets, failed + tres.submitErr + tres.stats.Errors, nil
}
