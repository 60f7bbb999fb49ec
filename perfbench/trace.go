package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"lighttrader/internal/sched"
)

// span is one timed interval recorded at a layer boundary. Spans of one
// query share its id; lane-level spans (scheduler decisions, simulator
// calls not tied to one query) carry query -1.
type span struct {
	name       string
	query      int64
	parent     int // index into the span list, -1 for a root
	start, end int64
	modelled   bool // modelled simulator clock instead of wall clock
}

// spanLog is an in-memory span list, written out once the run ends.
type spanLog struct{ spans []span }

// add appends a span and returns its index (the id children refer to).
func (l *spanLog) add(s span) int {
	l.spans = append(l.spans, s)
	return len(l.spans) - 1
}

// selfTimes returns, per wall-clock span name, each span's self time in
// nanoseconds: its duration minus the part of it that its children cover.
func (l *spanLog) selfTimes() map[string][]float64 {
	children := make([][]int, len(l.spans))
	for i, s := range l.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	out := map[string][]float64{}
	var iv [][2]int64
	for i, s := range l.spans {
		if s.modelled {
			continue
		}
		iv = iv[:0]
		for _, c := range children[i] {
			a, b := max(l.spans[c].start, s.start), min(l.spans[c].end, s.end)
			if b > a {
				iv = append(iv, [2]int64{a, b})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, curA, curB int64
		for k, v := range iv {
			switch {
			case k == 0:
				curA, curB = v[0], v[1]
			case v[0] > curB:
				covered += curB - curA
				curA, curB = v[0], v[1]
			case v[1] > curB:
				curB = v[1]
			}
		}
		if len(iv) > 0 {
			covered += curB - curA
		}
		out[s.name] = append(out[s.name], float64(s.end-s.start-covered))
	}
	return out
}

// write stores the spans as JSON lines and returns the file path.
func (l *spanLog) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	for i, s := range l.spans {
		clock := "wall"
		if s.modelled {
			clock = "modelled"
		}
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"name":%q,"query":%d,"start":%d,"end":%d,"clock":%q}`+"\n",
			i, s.parent, s.name, s.query, s.start, s.end, clock)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// reportSpans derives per-layer self times, writes the span file and
// reports both.
func reportSpans(r *report, l *spanLog, o options) error {
	for name, xs := range l.selfTimes() {
		r.layer["self."+name+"_us"] = metric{mean(xs) / 1e3, "us"}
	}
	r.layer["trace.spans"] = metric{float64(len(l.spans)), "count"}
	path, err := l.write(o.out, o.name, o.seed)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("spans %s (%d spans)\n", path, len(l.spans))
	return nil
}

// decideStats is what the timing scheduler wrapper records.
type decideStats struct {
	durs    []float64 // Decide wall time, ns
	calls   int
	issued  int // decisions that issued a batch (full or degraded model)
	retries int // re-decisions after a failed decision at the same instant and queue
	rescues int // retries that then issued
	last    sched.SchedContext
	failed  bool
	// onDecide, when set, records the decision as a span.
	onDecide func(start, end int64)
}

// timedScheduler wraps a scheduling policy, timing each decision. It keeps
// the inner policy's name and decisions, so the engine behaves exactly as
// with the bare policy.
type timedScheduler struct {
	inner sched.Scheduler
	st    *decideStats
}

func (t *timedScheduler) Name() string { return t.inner.Name() }

func (t *timedScheduler) Decide(ctx sched.SchedContext) sched.Decision {
	start := now()
	d := t.inner.Decide(ctx)
	end := now()
	st := t.st
	st.durs = append(st.durs, float64(end-start))
	if st.onDecide != nil {
		st.onDecide(start, end)
	}
	st.calls++
	ok := d.Verdict == sched.VerdictIssued || d.Verdict == sched.VerdictDegradedModel
	if ok {
		st.issued++
	}
	// A failed decision is followed either by a drop (the queue shrinks) or,
	// after Algorithm 2's saving step, by a retry on the same queue at the
	// same instant: that is the retry this detects.
	if st.failed && ctx.NowNanos == st.last.NowNanos && ctx.AccelID == st.last.AccelID &&
		ctx.Queued == st.last.Queued && ctx.AvailNanos == st.last.AvailNanos {
		st.retries++
		if ok {
			st.rescues++
		}
	}
	st.last, st.failed = ctx, !ok
	return d
}

// timedFactory wraps the registry's PPW factory with the timing wrapper.
func timedFactory(st *decideStats) (sched.Factory, error) {
	ppw, err := sched.FactoryByName("ppw")
	if err != nil {
		return nil, err
	}
	return func(cfg *sched.Config) sched.Scheduler {
		return &timedScheduler{inner: ppw(cfg), st: st}
	}, nil
}

// reportDecide adds the scheduler layer metrics.
func reportDecide(r *report, st *decideStats, retries, rescues int) {
	r.layer["sched.decide_ns.p50"] = metric{quantile(st.durs, 0.5), "ns"}
	r.layer["sched.decide_ns.p99"] = metric{quantile(st.durs, 0.99), "ns"}
	if st.issued > 0 {
		r.layer["sched.decides_per_issue"] = metric{float64(st.calls) / float64(st.issued), "ratio"}
	}
	if retries > 0 {
		r.layer["sched.save_rescue_ratio"] = metric{float64(rescues) / float64(retries), "ratio"}
	}
	r.layer["sched.save_retries"] = metric{float64(retries), "count"}
}
