package bench

// The limited-power recovery experiment: the paper's bursty workloads under
// the constrained power envelope, run through the offline simulator
// (core.System) and the online serving runtime (serve.Server) with the
// Algorithm-2 power governor on and off. The governor's saving step turns
// power-infeasible drops into issued batches by scaling other busy lanes
// down within their deadline slack; the sweep quantifies the recovered
// response rate against the drop-on-power-infeasible status quo.
// `make bench-power` archives the rows as BENCH_power.json.

import (
	"encoding/json"
	"fmt"
	"strings"

	"lighttrader/internal/core"
	"lighttrader/internal/exchange"
	"lighttrader/internal/lob"
	"lighttrader/internal/nn"
	"lighttrader/internal/offload"
	"lighttrader/internal/serve"
	"lighttrader/internal/sim"
	"lighttrader/internal/trading"
)

// powerLanes is the accelerator/lane count of the sweep: enough that the
// limited envelope cannot hold every lane at a high operating point, so
// power-infeasible decisions actually occur.
const powerLanes = 8

// powerBudgetWatts tightens the paper's limited envelope for the sweep: at
// N=8 the nominal 20 W admits every lane idling at a mid operating point, so
// power infeasibility would never fire and there would be nothing to govern.
// The tightened budget binds as soon as a few lanes sit above the floor,
// which is exactly the regime Algorithm 2 is for.
const powerBudgetWatts = 12

// PowerRow is one (workload, engine) cell of the limited-power sweep.
type PowerRow struct {
	Workload string `json:"workload"`
	// Engine is "sim" (core.System, shared queue), "serve" (lane-sharded
	// runtime, governor on) or "serve-nogov" (governor disabled: the
	// drop-on-power-infeasible status quo).
	Engine       string  `json:"engine"`
	Submitted    int     `json:"submitted"`
	Responded    int     `json:"responded"`
	ResponseRate float64 `json:"response_rate"`
	// Per-cause miss attribution (mutually exclusive).
	Evicted          int `json:"evicted"`
	DeferredDeadline int `json:"deferred_deadline"`
	DeferredPower    int `json:"deferred_power"`
	Late             int `json:"late"`
	// Governor activity (serve engines only; the sim engine reports its own
	// save/redistribute transition counts).
	Saves         int     `json:"dvfs_saves"`
	Redistributes int     `json:"dvfs_redistributes"`
	Rescues       int     `json:"power_save_rescues"`
	MaxPowerWatts float64 `json:"max_power_watts"`
}

// PowerTraffic is the sweep's canonical workload: the default mixture at
// three times the arrival rate under a tight 500 µs horizon. The short
// horizon forces high operating points (low states cannot meet single-query
// deadlines), so un-governed idle draws pile up against the budget — the
// regime where the status quo drops on power and Algorithm 2 recovers.
func PowerTraffic() TrafficConfig {
	tc := DefaultTraffic()
	tc.Ticks = 12000
	tc.TAvailNanos = 500_000
	tc.Calm.Mu *= 3
	tc.Burst.Mu *= 3
	return tc
}

// powerSystemConfig is the sweep's system: DeepLOB latency tables across
// powerLanes accelerators under the tightened limited envelope, WS+DS.
func powerSystemConfig() core.SystemConfig {
	cfg, err := core.Configure(nn.NewDeepLOB(), powerLanes, core.Limited, core.Options{
		WorkloadScheduling: true, DVFSScheduling: true,
	})
	if err != nil {
		panic(err) // static config; cannot fail
	}
	cfg.Sched.PowerBudgetWatts = powerBudgetWatts
	return cfg
}

// powerFeed builds the serving-side packet stream: `lanes` instruments
// listed round-robin on a matching engine, order flow interleaved so packet
// i belongs to instrument i mod lanes — one packet per query slot.
func powerFeed(n, lanes int) [][]byte {
	var packets [][]byte
	var clock int64
	eng := exchange.New(
		func() int64 { clock++; return clock },
		func(buf []byte) {
			cp := make([]byte, len(buf))
			copy(cp, buf)
			packets = append(packets, cp)
		},
	)
	for s := 0; s < lanes; s++ {
		eng.ListSecurity(int32(s+1), powerSymbol(s))
	}
	id := uint64(1000)
	for i := 0; len(packets) < n; i++ {
		sec := int32(i%lanes + 1)
		id++
		eng.Submit(exchange.Request{
			Kind: exchange.ReqNew, SecurityID: sec, ClOrdID: id,
			Side:  lob.Side(i % 2),
			Price: int64(100000*int(sec) + i%5 - 2 + 10*(i%2)),
			Qty:   2,
		})
	}
	return packets[:n]
}

func powerSymbol(i int) string { return fmt.Sprintf("PWR%d", i) }

// powerMulti subscribes the sweep's instruments with small identically-
// seeded models: the pipelines' wall-clock cost is irrelevant (admission
// and completion run on modelled time), they only have to be real.
func powerMulti(lanes int) *core.MultiPipeline {
	mp := core.NewMultiPipeline()
	for s := 0; s < lanes; s++ {
		tcfg := trading.DefaultConfig(int32(s + 1))
		if err := mp.Add(powerSymbol(s), int32(s+1),
			nn.NewSizedCNN("pwr-"+powerSymbol(s), 8, 0), offload.Normalizer{}, tcfg); err != nil {
			panic(err) // static subscription set; cannot fail
		}
	}
	return mp
}

// runSimPower runs one workload through the instrumented simulator.
func runSimPower(name string, tc TrafficConfig) PowerRow {
	cfg := powerSystemConfig()
	sys, err := core.NewSystem(cfg)
	if err != nil {
		panic(err)
	}
	tr := sim.NewTracer()
	m := sim.RunWithOptions(tc.Queries(), sys, sim.WithProbe(tr))
	attr := tr.Attribution()
	return PowerRow{
		Workload: name, Engine: "sim",
		Submitted: m.Total, Responded: m.Responded, ResponseRate: m.ResponseRate,
		Evicted: attr.Evicted, DeferredDeadline: attr.DeferredDeadline,
		DeferredPower: attr.DeferredPower, Late: m.Late,
		Saves:         tr.DVFSTransitions(sim.DVFSSave),
		Redistributes: tr.DVFSTransitions(sim.DVFSRedistribute),
		MaxPowerWatts: sys.MaxObservedPowerWatts(),
	}
}

// runServePower replays one workload through the serving runtime in
// deterministic multi-lane inline replay (modelled clock, one lane per
// instrument), with the power governor on or off.
func runServePower(name string, tc TrafficConfig, governor bool) PowerRow {
	st := replayServePower(tc, governor, nil).Stats()
	engine := "serve"
	if !governor {
		engine = "serve-nogov"
	}
	return PowerRow{
		Workload: name, Engine: engine,
		Submitted: st.Submitted, Responded: st.Served, ResponseRate: st.ResponseRate,
		Evicted: st.EvictedQueueFull, DeferredDeadline: st.DeferredDeadline,
		DeferredPower: st.DeferredPower, Late: st.Late,
		Saves: st.DVFSSaves, Redistributes: st.DVFSRedistributes,
		Rescues: st.PowerSaveRescues, MaxPowerWatts: st.MaxPowerWatts,
	}
}

// replayServePower runs runServePower's replay with an optional probe and
// returns the drained server.
func replayServePower(tc TrafficConfig, governor bool, probe sim.Probe) *serve.Server {
	cfg := powerSystemConfig()
	qs := tc.Queries()
	packets := powerFeed(len(qs), powerLanes)
	srv, err := serve.New(powerMulti(powerLanes), serve.Config{
		Lanes:                powerLanes,
		Inline:               true,
		ModelledClock:        true,
		MaxQueue:             64,
		Sched:                &cfg.Sched,
		TAvailNanos:          tc.TAvailNanos,
		PrePipelineNanos:     cfg.PrePipelineNanos,
		DisablePowerGovernor: !governor,
		Probe:                probe,
	})
	if err != nil {
		panic(err)
	}
	for i, q := range qs {
		if err := srv.Submit(q.ArrivalNanos, packets[i]); err != nil {
			panic(err) // engine-generated packets always parse
		}
	}
	srv.Drain()
	return srv
}

// PowerSweep runs the three traffic regimes through all three engines.
func PowerSweep(tc TrafficConfig) []PowerRow {
	var rows []PowerRow
	for _, w := range schedWorkloads(tc) {
		rows = append(rows, runSimPower(w.Name, w.TC))
		rows = append(rows, runServePower(w.Name, w.TC, false))
		rows = append(rows, runServePower(w.Name, w.TC, true))
	}
	return rows
}

// RenderPowerSweep renders the recovery table.
func RenderPowerSweep(rows []PowerRow) string {
	var b strings.Builder
	header(&b, fmt.Sprintf("Limited-power recovery (DeepLOB, N=%d, %.0f W budget, WS+DS)",
		powerLanes, float64(powerBudgetWatts)))
	fmt.Fprintf(&b, "%-8s %-12s %14s %8s %9s %9s %6s %7s %8s %8s\n",
		"workload", "engine", "response rate", "evicted", "def-ddl", "def-power",
		"late", "saves", "rescues", "max W")
	last := ""
	for _, r := range rows {
		if last != "" && r.Workload != last {
			b.WriteString("\n")
		}
		last = r.Workload
		fmt.Fprintf(&b, "%-8s %-12s %14s %8d %9d %9d %6d %7d %8d %8.2f\n",
			r.Workload, r.Engine, pct(r.ResponseRate), r.Evicted, r.DeferredDeadline,
			r.DeferredPower, r.Late, r.Saves, r.Rescues, r.MaxPowerWatts)
	}
	b.WriteString("\nsim is the shared-queue simulator; serve shards queries one lane per\n")
	b.WriteString("instrument. serve-nogov drops every power-infeasible decision (the\n")
	b.WriteString("status quo); serve retries it after Algorithm 2's saving step scales\n")
	b.WriteString("other busy lanes down within their deadline slack.\n")
	return b.String()
}

// PowerReport is the archived form of the sweep (BENCH_power.json).
type PowerReport struct {
	Model       string     `json:"model"`
	Lanes       int        `json:"lanes"`
	Power       string     `json:"power"`
	BudgetWatts float64    `json:"budget_watts"`
	Ticks       int        `json:"ticks"`
	TAvailNanos int64      `json:"t_avail_nanos"`
	Seed        int64      `json:"seed"`
	Rows        []PowerRow `json:"rows"`
}

// PowerSweepJSON marshals the sweep with its generating parameters.
func PowerSweepJSON(tc TrafficConfig, rows []PowerRow) ([]byte, error) {
	rep := PowerReport{
		Model: "DeepLOB", Lanes: powerLanes, Power: core.Limited.Name,
		BudgetWatts: powerBudgetWatts,
		Ticks:       tc.Ticks, TAvailNanos: tc.TAvailNanos, Seed: tc.Seed,
		Rows: rows,
	}
	return json.MarshalIndent(rep, "", "  ")
}
