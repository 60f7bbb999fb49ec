package main

import (
	"fmt"

	"lighttrader/internal/nn"
)

// metricSpec declares one reported metric. BENCHMARK.json lists the same
// metrics; `perfbench -list` prints them in its format.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what every untraced run reports, on every workload. Bounds
// are the share of the parent's median a metric may worsen by.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"t2t_iqm_us", "us", "lower", 0.25},
	{"t2t_tail_us", "us", "lower", 0.25},
	{"answered_pct", "%", "higher", 0.15},
	{"alloc_b_per_pkt", "B", "lower", 0.2},
	{"throughput_kqps", "kq/s", "higher", 0.25},
}

// perLayer is what every traced run reports. A layer that is not on a
// workload's path reads 0 there.
func perLayer() []metricSpec {
	lower := func(name, unit string) metricSpec { return metricSpec{name, unit, "lower", 0} }
	higher := func(name, unit string) metricSpec { return metricSpec{name, unit, "higher", 0} }
	out := []metricSpec{
		lower("t2t_p50_us", "us"),
		lower("t2t_p99_us", "us"),
		lower("trace.overhead.t2t_iqm_us", "us"),
		higher("trace.overhead.throughput_kqps", "kq/s"),
		higher("trace.spans", "count"),
		lower("gen.lag_us.p50", "us"),
		lower("gen.lag_us.p99", "us"),
		lower("serve.submit_ns.p50", "ns"),
		lower("serve.submit_ns.p99", "ns"),
		lower("serve.queue_wait_us.p50", "us"),
		lower("serve.queue_wait_us.p99", "us"),
		lower("serve.dispatch_us.p50", "us"),
		lower("serve.dispatch_us.p99", "us"),
		higher("serve.batch_mean", "queries"),
		lower("serve.evicted_pct", "%"),
		lower("serve.deferred_deadline_pct", "%"),
		lower("serve.deferred_power_pct", "%"),
		lower("serve.late_pct", "%"),
		lower("sched.decide_ns.p50", "ns"),
		lower("sched.decide_ns.p99", "ns"),
		lower("sched.decides_per_issue", "ratio"),
		higher("sched.save_rescue_ratio", "ratio"),
		lower("sched.save_retries", "count"),
		lower("core.pipeline_ns.p50", "ns"),
		lower("core.pipeline_ns.p99", "ns"),
		lower("core.book_stale_levels", "levels"),
		lower("nn.predict_us.p50", "us"),
		lower("nn.predict_us.p99", "us"),
		higher("nn.gflops", "GFLOP/s"),
		lower("system.on_arrival_ns", "ns"),
		lower("system.advance_ns", "ns"),
		lower("system.next_event_ns", "ns"),
		lower("system.on_arrival_calls", "count"),
		lower("system.advance_calls", "count"),
		lower("system.next_event_calls", "count"),
		lower("sim.deferred_deadline", "count"),
		lower("sim.deferred_power", "count"),
		lower("sim.dvfs.save", "count"),
		higher("sim.dvfs.redistribute", "count"),
		higher("sim.dvfs.park", "count"),
		lower("sim.uj_per_answer", "uJ"),
		lower("go.gc_cycles", "count"),
		lower("go.gc_pause_ms", "ms"),
	}
	for _, span := range []string{"query", "gen.lag", "serve.submit", "serve.queue", "serve.dispatch",
		"nn.predict", "sched.decide", "system.on_arrival", "system.advance", "system.next_event"} {
		out = append(out, lower("self."+span+"_us", "us"))
	}
	for i, l := range nn.NewDeepLOB().Layers {
		out = append(out,
			lower(fmt.Sprintf("nn.layer.%d.%s_us", i, layerKind(l)), "us"),
			lower(fmt.Sprintf("compile.layer.%d_modelled_us", i), "us"))
	}
	return out
}

// complete checks a run's metrics against the declared list: every
// declared metric present (per-layer ones default to 0), nothing else.
func complete(got map[string]metric, specs []metricSpec, fill bool) error {
	declared := map[string]bool{}
	for _, s := range specs {
		declared[s.Name] = true
		if m, ok := got[s.Name]; ok {
			if m.Unit != s.Unit {
				return fmt.Errorf("metric %s has unit %q, declared %q", s.Name, m.Unit, s.Unit)
			}
			continue
		}
		if !fill {
			return fmt.Errorf("metric %s not measured", s.Name)
		}
		got[s.Name] = metric{0, s.Unit}
	}
	for name := range got {
		if !declared[name] {
			return fmt.Errorf("metric %s is not declared", name)
		}
	}
	return nil
}
