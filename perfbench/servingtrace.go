package main

import (
	"fmt"

	"lighttrader/internal/cgra"
	"lighttrader/internal/compile"
	"lighttrader/internal/nn"
	"lighttrader/internal/sim"
	"lighttrader/internal/tensor"
)

// servingTrace is the traced pass's recorder: a sim.Probe on the server
// plus the benchmark's wrappers around Submit, the scheduler, the
// predictor and the signal hook. Query ids are measured-phase packet
// indices. Fields are grouped by the goroutine that writes them.
type servingTrace struct {
	set *servingSetup

	// Generator goroutine.
	cur             int // packet being submitted, -1 during warm-up
	dueAt, subStart []int64
	subEnd          []int64
	measuring       bool

	// Probe callbacks (serialised by the server's probe lock).
	ids               []int // serve query id -> packet index
	issue, done, drop []int64
	dvfs              map[sim.DVFSReason]int

	// Lane goroutine.
	decide    decideStats
	decideLog []span
	batch     []int // packet indices of the batch being dispatched
	batchAt   int64
	mark      int64 // issue time or previous decision in this batch
	predStart int64
	predEnd   int64
	ticks     []tickRec
}

// tickRec is one traced tick: its query and the lane-side timestamps.
type tickRec struct {
	q                  int
	issue, mark        int64
	predStart, predEnd int64
	at                 int64
}

func newServingTrace(set *servingSetup) *servingTrace {
	n := len(set.ticks) - set.warm
	t := &servingTrace{
		set: set, cur: -1,
		dueAt: make([]int64, n), subStart: make([]int64, n), subEnd: make([]int64, n),
		issue: make([]int64, n), done: make([]int64, n), drop: make([]int64, n),
		dvfs: map[sim.DVFSReason]int{},
	}
	for i := range t.issue {
		t.issue[i], t.done[i], t.drop[i] = -1, -1, -1
	}
	t.decide.onDecide = func(start, end int64) {
		if t.measuring {
			t.decideLog = append(t.decideLog, span{name: "sched.decide", query: -1, parent: -1, start: start, end: end})
		}
	}
	return t
}

func (t *servingTrace) beforeSubmit(i int, due, start int64) {
	if !t.measuring {
		// First measured packet: the lane is idle after the warm-up drain,
		// and the submit below orders these writes before its next decision.
		t.measuring = true
		t.decide = decideStats{onDecide: t.decide.onDecide}
		t.dvfs = map[sim.DVFSReason]int{}
	}
	t.cur = i
	t.dueAt[i], t.subStart[i] = due, start
}

func (t *servingTrace) afterSubmit(i int, end int64) { t.subEnd[i] = end }

// OnQueryEvent implements sim.Probe.
func (t *servingTrace) OnQueryEvent(e sim.QueryEvent) {
	if e.Kind == sim.QueryArrive {
		for int64(len(t.ids)) <= e.Query.ID {
			t.ids = append(t.ids, -1)
		}
		t.ids[e.Query.ID] = t.cur
		return
	}
	q := -1
	if e.Query.ID < int64(len(t.ids)) {
		q = t.ids[e.Query.ID]
	}
	if e.Kind == sim.QueryIssue {
		if len(t.batch) >= e.Batch || e.TimeNanos != t.batchAt {
			t.batch = t.batch[:0]
			t.batchAt, t.mark = e.TimeNanos, e.TimeNanos
		}
		t.batch = append(t.batch, q)
	}
	if q < 0 {
		return
	}
	switch e.Kind {
	case sim.QueryIssue:
		t.issue[q] = e.TimeNanos
	case sim.QueryComplete:
		t.done[q] = e.TimeNanos
	case sim.QueryEvict, sim.QueryDefer:
		t.drop[q] = e.TimeNanos
	}
}

// OnDVFSEvent implements sim.Probe.
func (t *servingTrace) OnDVFSEvent(e sim.DVFSEvent) { t.dvfs[e.Reason]++ }

// OnSample implements sim.Probe.
func (t *servingTrace) OnSample(sim.Sample) {}

var _ sim.Probe = (*servingTrace)(nil)

// timedPredict wraps the pipeline predictor with a timing span.
func (t *servingTrace) timedPredict(fn func(*tensor.Tensor) (nn.Direction, float32, error)) func(*tensor.Tensor) (nn.Direction, float32, error) {
	return func(x *tensor.Tensor) (nn.Direction, float32, error) {
		t.predStart = now()
		dir, conf, err := fn(x)
		t.predEnd = now()
		return dir, conf, err
	}
}

// onSignal attributes one trading decision to the query of the batch
// whose packet carried the tick.
func (t *servingTrace) onSignal(tick, at int64) {
	q := -1
	for _, b := range t.batch {
		if b >= 0 && t.set.ticks[t.set.warm+b].TimeNanos == tick {
			q = b
			break
		}
	}
	if q >= 0 {
		t.ticks = append(t.ticks, tickRec{q: q, issue: t.batchAt, mark: t.mark,
			predStart: t.predStart, predEnd: t.predEnd, at: at})
	}
	t.mark = at
}

// report derives the per-layer metrics and spans of the traced pass.
// The layer table runs on the first sampled predictor input.
func (t *servingTrace) report(r *report, untraced, res passResult, par []paritySample, o options) error {
	L := r.layer
	n := res.packets
	var submit, queue []float64
	var log spanLog
	// A query's dispatch ends at its last trading decision: later queries of
	// its batch are still being processed after it.
	decided := make([]int64, n)
	for _, k := range t.ticks {
		if k.q < n && k.at > decided[k.q] {
			decided[k.q] = k.at
		}
	}
	disp := make([]int, n)
	for q := 0; q < n; q++ {
		end := t.done[q]
		if end < 0 {
			end = t.drop[q]
		}
		if end < 0 {
			end = t.subEnd[q]
		}
		root := log.add(span{name: "query", query: int64(q), parent: -1, start: t.dueAt[q], end: end})
		log.add(span{name: "gen.lag", query: int64(q), parent: root, start: t.dueAt[q], end: t.subStart[q]})
		log.add(span{name: "serve.submit", query: int64(q), parent: root, start: t.subStart[q], end: t.subEnd[q]})
		submit = append(submit, float64(t.subEnd[q]-t.subStart[q]))
		disp[q] = -1
		switch {
		case t.issue[q] >= 0:
			queue = append(queue, float64(t.issue[q]-t.dueAt[q]))
			log.add(span{name: "serve.queue", query: int64(q), parent: root, start: t.subEnd[q], end: t.issue[q]})
			end := t.done[q]
			if decided[q] > 0 {
				end = decided[q]
			}
			disp[q] = log.add(span{name: "serve.dispatch", query: int64(q), parent: root, start: t.issue[q], end: end})
		case t.drop[q] >= 0:
			log.add(span{name: "serve.queue", query: int64(q), parent: root, start: t.subEnd[q], end: t.drop[q]})
		}
	}
	var dispatch, pipeline, predict []float64
	for _, k := range t.ticks {
		if k.q >= n {
			continue
		}
		dispatch = append(dispatch, float64(k.at-k.issue))
		pd := k.predEnd - k.predStart
		predict = append(predict, float64(pd))
		pipeline = append(pipeline, float64(k.at-k.mark-pd))
		if disp[k.q] >= 0 {
			log.add(span{name: "nn.predict", query: int64(k.q), parent: disp[k.q], start: k.predStart, end: k.predEnd})
		}
	}
	log.spans = append(log.spans, t.decideLog...)

	st := res.stats
	L["serve.submit_ns.p50"] = metric{quantile(submit, 0.5), "ns"}
	L["serve.submit_ns.p99"] = metric{quantile(submit, 0.99), "ns"}
	L["serve.queue_wait_us.p50"] = metric{quantile(queue, 0.5) / 1e3, "us"}
	L["serve.queue_wait_us.p99"] = metric{quantile(queue, 0.99) / 1e3, "us"}
	L["serve.dispatch_us.p50"] = metric{quantile(dispatch, 0.5) / 1e3, "us"}
	L["serve.dispatch_us.p99"] = metric{quantile(dispatch, 0.99) / 1e3, "us"}
	if st.Batches > 0 {
		L["serve.batch_mean"] = metric{float64(st.Served+st.Late) / float64(st.Batches), "queries"}
	}
	L["serve.evicted_pct"] = metric{pct(st.EvictedQueueFull, st.Submitted), "%"}
	L["serve.deferred_deadline_pct"] = metric{pct(st.DeferredDeadline, st.Submitted), "%"}
	L["serve.deferred_power_pct"] = metric{pct(st.DeferredPower, st.Submitted), "%"}
	L["serve.late_pct"] = metric{pct(st.Late, st.Submitted), "%"}
	reportProbeCounts(L, st.DeferredDeadline, st.DeferredPower, t.dvfs)
	reportDecide(r, &t.decide, st.PowerSaveRetries, st.PowerSaveRescues)
	L["core.pipeline_ns.p50"] = metric{quantile(pipeline, 0.5), "ns"}
	L["core.pipeline_ns.p99"] = metric{quantile(pipeline, 0.99), "ns"}
	L["nn.predict_us.p50"] = metric{quantile(predict, 0.5) / 1e3, "us"}
	L["nn.predict_us.p99"] = metric{quantile(predict, 0.99) / 1e3, "us"}
	if t.set.spec.realModel {
		if p50 := L["nn.predict_us.p50"].Value; p50 > 0 {
			L["nn.gflops"] = metric{float64(t.set.model.TotalFLOPs()) / (p50 * 1e3), "GFLOP/s"}
		}
		if len(par) == 0 {
			return fmt.Errorf("no predictor input sampled for the layer table")
		}
		if err := layerTable(L, t.set.model, par[0].in, t.set.sys.Sched.StaticDVFS); err != nil {
			return err
		}
	}
	reportServingCommon(L, untraced)
	return reportSpans(r, &log, o)
}

// reportServingCommon adds the per-layer numbers taken from the untraced
// pass: GC, generator lateness and the book-mirror staleness count.
func reportServingCommon(L map[string]metric, res passResult) {
	L["t2t_p50_us"] = metric{quantile(res.t2t, 0.5) / 1e3, "us"}
	L["t2t_p99_us"] = metric{quantile(res.t2t, 0.99) / 1e3, "us"}
	L["core.book_stale_levels"] = metric{float64(res.stale), "levels"}
	L["gen.lag_us.p50"] = metric{quantile(res.lag, 0.5) / 1e3, "us"}
	L["gen.lag_us.p99"] = metric{quantile(res.lag, 0.99) / 1e3, "us"}
	L["go.gc_cycles"] = metric{float64(res.gcCycles), "count"}
	L["go.gc_pause_ms"] = metric{res.gcPauseMs, "ms"}
}

// layerReps is how many times the layer table times each layer.
const layerReps = 30

// layerTable times every model layer from outside through
// Layer.ForwardCtx on a captured input (median of layerReps), beside the
// compiler's modelled cost of the same layer's hyperblocks at the static
// operating point.
func layerTable(L map[string]metric, m *nn.Model, in *tensor.Tensor, dvfs cgra.DVFSState) error {
	var pool tensor.Pool
	durs := make([][]float64, len(m.Layers))
	for rep := 0; rep < layerReps; rep++ {
		pool.Reset()
		cur := in
		for i, l := range m.Layers {
			start := now()
			cur = l.ForwardCtx(&pool, cur)
			if m.BF16 {
				cur.RoundBF16()
			}
			durs[i] = append(durs[i], float64(now()-start))
		}
	}
	spec := cgra.DefaultSpec()
	k, err := compile.Compile(m, spec)
	if err != nil {
		return err
	}
	// The compiler lowers layers in order, so the kernel's blocks split
	// by each layer's own block count.
	next := 0
	shape := m.InputShape
	for i, l := range m.Layers {
		sub, err := compile.Compile(&nn.Model{ModelName: m.ModelName, InputShape: shape, Layers: []nn.Layer{l}}, spec)
		if err != nil {
			return err
		}
		var cycles int64
		for _, b := range k.Blocks[next : next+len(sub.Blocks)] {
			cycles += b.Cycles(1) + spec.BlockOverheadCycles
		}
		next += len(sub.Blocks)
		kind := layerKind(l)
		L[fmt.Sprintf("nn.layer.%d.%s_us", i, kind)] = metric{median(durs[i]) / 1e3, "us"}
		L[fmt.Sprintf("compile.layer.%d_modelled_us", i)] = metric{float64(cycles) / dvfs.FreqGHz / 1e3, "us"}
		if shape, err = l.OutShape(shape); err != nil {
			return err
		}
	}
	if next != len(k.Blocks) {
		return fmt.Errorf("layer block split covers %d of %d hyperblocks", next, len(k.Blocks))
	}
	return nil
}

// layerKind is the layer's kind word: its name up to the first '('.
func layerKind(l nn.Layer) string {
	name := l.Name()
	for i, c := range name {
		if c == '(' || c == '-' {
			return name[:i]
		}
	}
	return name
}
