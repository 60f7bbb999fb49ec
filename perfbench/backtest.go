package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"runtime"

	"lighttrader/internal/core"
	"lighttrader/internal/nn"
	"lighttrader/internal/sim"
)

// Backtest constants, recorded in BENCHMARK.json: DeepLOB on two
// accelerators under the Limited envelope with workload and DVFS
// scheduling. The stream's time is scaled to a mean backtestRate: at the
// script's own pace (about 900 q/s) most queries find an idle accelerator,
// so the modelled p50 is the batch-1 service time on every seed. At
// 2500 q/s a t_avail of 800 us puts the modelled response near 90%, and
// Algorithm-1 deferrals and Algorithm-2 save/redistribute/park all fire.
const (
	backtestAccels  = 2
	backtestRate    = 2500    // mean queries per modelled second
	backtestTAvail  = 800_000 // ns
	backtestQueries = 40_000  // minimum stream length
)

// backtestSetup is what a backtest run builds before it measures.
type backtestSetup struct {
	queries []sim.Query
	cfg     core.SystemConfig
}

func buildBacktest(o options) (*backtestSetup, error) {
	ticks, err := scriptedTicks("trading-day", o.seed, backtestQueries)
	if err != nil {
		return nil, err
	}
	cfg, err := core.Configure(nn.NewDeepLOB(), backtestAccels, core.Limited,
		core.Options{WorkloadScheduling: true, DVFSScheduling: true})
	if err != nil {
		return nil, err
	}
	if _, err := core.NewSystem(cfg); err != nil {
		return nil, err
	}
	qs := sim.QueriesFromTicks(ticks, backtestTAvail)
	t0 := qs[0].ArrivalNanos
	scale := float64(len(qs)-1) / backtestRate * 1e9 / float64(qs[len(qs)-1].ArrivalNanos-t0)
	for i := range qs {
		qs[i].ArrivalNanos = t0 + int64(float64(qs[i].ArrivalNanos-t0)*scale)
		qs[i].DeadlineNanos = qs[i].ArrivalNanos + backtestTAvail
	}
	return &backtestSetup{queries: qs, cfg: cfg}, nil
}

// wrappedSystem is a sim.SystemModel wrapper over core.System. Embedding
// forwards the optional interfaces (energy, probe attachment); the three
// engine calls are intercepted to digest completions and, when traced, to
// time each call.
type wrappedSystem struct {
	*core.System
	digest  hash.Hash
	latency []float64 // modelled tick-to-trade of responded queries, ns
	tr      *backtestTrace
}

func (w *wrappedSystem) OnArrival(now int64, q sim.Query) {
	if w.tr == nil {
		w.System.OnArrival(now, q)
		return
	}
	i := w.tr.open("system.on_arrival", q.ID)
	w.System.OnArrival(now, q)
	w.tr.close(i, &w.tr.arrival)
}

func (w *wrappedSystem) NextEventTime() int64 {
	if w.tr == nil {
		return w.System.NextEventTime()
	}
	i := w.tr.open("system.next_event", -1)
	t := w.System.NextEventTime()
	w.tr.close(i, &w.tr.next)
	return t
}

func (w *wrappedSystem) Advance(now int64) []sim.Completion {
	var cs []sim.Completion
	if w.tr == nil {
		cs = w.System.Advance(now)
	} else {
		i := w.tr.open("system.advance", -1)
		cs = w.System.Advance(now)
		w.tr.close(i, &w.tr.advance)
	}
	if w.digest != nil {
		var b [33]byte
		for _, c := range cs {
			binary.LittleEndian.PutUint64(b[0:], uint64(c.Query.ID))
			binary.LittleEndian.PutUint64(b[8:], uint64(c.DoneNanos))
			binary.LittleEndian.PutUint64(b[16:], uint64(c.Batch))
			binary.LittleEndian.PutUint64(b[24:], uint64(now))
			b[32] = 0
			if c.Dropped {
				b[32] = 1
			}
			w.digest.Write(b[:])
			if c.Responded() {
				w.latency = append(w.latency, float64(c.DoneNanos-c.Query.ArrivalNanos))
			}
		}
	}
	return cs
}

var (
	_ sim.EnergyReporter = (*wrappedSystem)(nil)
	_ sim.Instrumentable = (*wrappedSystem)(nil)
)

// runBacktest is the backtest workload driver.
func runBacktest(o options, r *report) (int, int, error) {
	set, setupS, err := timedSetup(func() (*backtestSetup, error) { return buildBacktest(o) })
	if err != nil {
		return 0, 0, err
	}
	r.e2e["setup_s"] = metric{setupS, "s"}
	qs := set.queries
	fmt.Printf("backtest: %d queries from trading-day over %d instruments at %d q/s, DeepLOB N=%d %s WS+DS, t_avail %d us\n",
		len(qs), len(instruments()), backtestRate, backtestAccels, core.Limited.Name, backtestTAvail/1000)

	// Reference pass: digest every simulated completion.
	sys, err := core.NewSystem(set.cfg)
	if err != nil {
		return 0, 0, err
	}
	ref := &wrappedSystem{System: sys, digest: sha256.New()}
	want := sim.Run(qs, ref)
	r.check("sim.unaccounted", want.Unaccounted == 0, "%d of %d queries unaccounted", want.Unaccounted, want.Total)
	tail := quantile(ref.latency, tailQuantile(len(ref.latency)))
	p50, p99 := quantile(ref.latency, 0.5), quantile(ref.latency, 0.99)
	r.check("sim.percentiles", int64(p50) == want.P50LatencyNanos && int64(p99) == want.P99LatencyNanos,
		"completions give p50 %.0f p99 %.0f ns, sim.Metrics %d %d", p50, p99, want.P50LatencyNanos, want.P99LatencyNanos)
	fmt.Printf("digest sim.completions %x\n", ref.digest.Sum(nil))

	// Timed passes: the bare system, repeated until the run time is spent.
	// Every pass must reproduce the reference metrics exactly.
	var kqps []float64
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	deadline := now() + int64(o.seconds*1e9)
	mismatch := 0
	for len(kqps) < 3 || now() < deadline {
		sys, err := core.NewSystem(set.cfg)
		if err != nil {
			return 0, 0, err
		}
		start := now()
		got := sim.Run(qs, sys)
		kqps = append(kqps, float64(len(qs))/float64(now()-start)*1e6)
		if got != want {
			mismatch++
		}
	}
	runtime.ReadMemStats(&ms1)
	r.check("sim.repeatable", mismatch == 0, "%d of %d timed passes differ from the reference metrics", mismatch, len(kqps))
	simulated := len(kqps) * len(qs)

	E := r.e2e
	E["t2t_iqm_us"] = metric{iqm(ref.latency) / 1e3, "us"}
	E["t2t_tail_us"] = metric{tail / 1e3, "us"}
	E["answered_pct"] = metric{100 * want.ResponseRate, "%"}
	E["alloc_b_per_pkt"] = metric{float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(simulated), "B"}
	E["throughput_kqps"] = metric{median(kqps), "kq/s"}
	uj := 0.0
	if want.Responded > 0 {
		uj = want.EnergyJoules / float64(want.Responded) * 1e6
	}
	note("sim.uj_per_answer", uj, "uJ")
	note("backtest.passes", float64(len(kqps)), "passes")
	if !o.trace {
		return simulated, want.Unaccounted, nil
	}

	// Traced pass: timing wrappers on the system and scheduler, the repo's
	// sim.Tracer for exact counts and the benchmark's span recorder.
	tr := &backtestTrace{}
	cfg := set.cfg
	if cfg.Scheduler, err = timedFactory(&tr.decide); err != nil {
		return 0, 0, err
	}
	tr.decide.onDecide = tr.decideSpan
	tsys, err := core.NewSystem(cfg)
	if err != nil {
		return 0, 0, err
	}
	tracer := sim.NewTracerCapacity(1)
	tr.begin(len(qs))
	start := now()
	tw := &wrappedSystem{System: tsys, tr: tr, digest: sha256.New()}
	got := sim.RunWithOptions(qs, tw, sim.WithProbe(probes{tracer, tr}))
	traced := float64(len(qs)) / float64(now()-start) * 1e6
	same := got == want && bytes.Equal(tw.digest.Sum(nil), ref.digest.Sum(nil))
	r.check("sim.probe_observe_only", same, "traced pass metrics and completion digest equal the reference: %v", same)

	L := r.layer
	L["trace.overhead.throughput_kqps"] = metric{traced - E["throughput_kqps"].Value, "kq/s"}
	L["trace.overhead.t2t_iqm_us"] = metric{(iqm(tw.latency) - iqm(ref.latency)) / 1e3, "us"}
	L["t2t_p50_us"] = metric{float64(want.P50LatencyNanos) / 1e3, "us"}
	L["t2t_p99_us"] = metric{float64(want.P99LatencyNanos) / 1e3, "us"}
	for _, c := range []struct {
		name string
		st   *callStats
	}{{"on_arrival", &tr.arrival}, {"advance", &tr.advance}, {"next_event", &tr.next}} {
		L["system."+c.name+"_ns"] = metric{c.st.meanNs(), "ns"}
		L["system."+c.name+"_calls"] = metric{float64(c.st.calls), "count"}
	}
	attr := tracer.Attribution()
	dvfs := map[sim.DVFSReason]int{}
	for _, reason := range []sim.DVFSReason{sim.DVFSSave, sim.DVFSRedistribute, sim.DVFSPark} {
		dvfs[reason] = tracer.DVFSTransitions(reason)
	}
	reportProbeCounts(L, attr.DeferredDeadline, attr.DeferredPower, dvfs)
	reportDecide(r, &tr.decide, tr.decide.retries, tr.decide.rescues)
	L["sim.uj_per_answer"] = metric{uj, "uJ"}
	L["go.gc_cycles"] = metric{float64(ms1.NumGC - ms0.NumGC), "count"}
	L["go.gc_pause_ms"] = metric{float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6, "ms"}
	tr.finish(qs)
	if err := reportSpans(r, &tr.log, o); err != nil {
		return 0, 0, err
	}
	return simulated + len(qs), want.Unaccounted + got.Unaccounted, nil
}

// reportProbeCounts adds the exact sim.Probe taxonomy counts.
func reportProbeCounts(L map[string]metric, defDeadline, defPower int, dvfs map[sim.DVFSReason]int) {
	L["sim.deferred_deadline"] = metric{float64(defDeadline), "count"}
	L["sim.deferred_power"] = metric{float64(defPower), "count"}
	L["sim.dvfs.save"] = metric{float64(dvfs[sim.DVFSSave]), "count"}
	L["sim.dvfs.redistribute"] = metric{float64(dvfs[sim.DVFSRedistribute]), "count"}
	L["sim.dvfs.park"] = metric{float64(dvfs[sim.DVFSPark]), "count"}
}

// probes fans one run's events out to several probes.
type probes []sim.Probe

func (ps probes) OnQueryEvent(e sim.QueryEvent) {
	for _, p := range ps {
		p.OnQueryEvent(e)
	}
}

func (ps probes) OnDVFSEvent(e sim.DVFSEvent) {
	for _, p := range ps {
		p.OnDVFSEvent(e)
	}
}

func (ps probes) OnSample(s sim.Sample) {
	for _, p := range ps {
		p.OnSample(s)
	}
}

// callStats accumulates one intercepted system call's wall time.
type callStats struct {
	calls int
	ns    int64
}

func (c *callStats) meanNs() float64 {
	if c.calls == 0 {
		return 0
	}
	return float64(c.ns) / float64(c.calls)
}

// backtestTrace records the traced backtest pass: wall spans of the
// intercepted system calls with scheduler decisions nested inside, and
// modelled per-query spans from the probe.
type backtestTrace struct {
	log                    spanLog
	arrival, advance, next callStats
	decide                 decideStats
	openSpan               int // innermost open system call span, -1 when none

	arrive, issue, end []int64 // modelled, per query id
}

func (t *backtestTrace) begin(n int) {
	t.openSpan = -1
	t.arrive, t.issue, t.end = make([]int64, n), make([]int64, n), make([]int64, n)
	for i := range t.issue {
		t.issue[i], t.end[i] = -1, -1
	}
}

func (t *backtestTrace) open(name string, query int64) int {
	t.openSpan = t.log.add(span{name: name, query: query, parent: -1, start: now()})
	return t.openSpan
}

func (t *backtestTrace) close(i int, st *callStats) {
	s := &t.log.spans[i]
	s.end = now()
	st.calls++
	st.ns += s.end - s.start
	t.openSpan = -1
}

func (t *backtestTrace) decideSpan(start, end int64) {
	t.log.add(span{name: "sched.decide", query: -1, parent: t.openSpan, start: start, end: end})
}

// OnQueryEvent implements sim.Probe (modelled clock).
func (t *backtestTrace) OnQueryEvent(e sim.QueryEvent) {
	id := e.Query.ID
	if id < 0 || id >= int64(len(t.arrive)) {
		return
	}
	switch e.Kind {
	case sim.QueryArrive:
		t.arrive[id] = e.TimeNanos
	case sim.QueryIssue:
		t.issue[id] = e.TimeNanos
	case sim.QueryComplete, sim.QueryEvict, sim.QueryDefer:
		t.end[id] = e.TimeNanos
	}
}

func (t *backtestTrace) OnDVFSEvent(sim.DVFSEvent) {}
func (t *backtestTrace) OnSample(sim.Sample)       {}

// finish turns the modelled per-query timestamps into spans.
func (t *backtestTrace) finish(qs []sim.Query) {
	for _, q := range qs {
		id := q.ID
		root := t.log.add(span{name: "sim.query", query: id, parent: -1, start: t.arrive[id], end: t.end[id], modelled: true})
		if t.issue[id] >= 0 {
			t.log.add(span{name: "sim.queue", query: id, parent: root, start: t.arrive[id], end: t.issue[id], modelled: true})
			t.log.add(span{name: "sim.service", query: id, parent: root, start: t.issue[id], end: t.end[id], modelled: true})
		} else {
			t.log.add(span{name: "sim.queue", query: id, parent: root, start: t.arrive[id], end: t.end[id], modelled: true})
		}
	}
}
