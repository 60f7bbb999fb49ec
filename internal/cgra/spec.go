// Package cgra models the paper's custom AI accelerator: a Coarse-Grained
// Reconfigurable Array fabricated in 7 nm (Table I: 0.68–1.16 V, up to
// 2.2 GHz, up to 10.8 W) with a tensor engine of regular PEs and extended
// PEs (EPEs), a memory engine (DMEM/IMEM/LSU/FMT), DVFS states, and a
// calibrated analytical power model. The real silicon is replaced by this
// cycle/power model per the DESIGN.md substitution table; the experiments
// consume only latency(model, batch, DVFS) and power(DVFS, activity)
// curves, which this package produces from the same first-order physics.
package cgra

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Spec describes one accelerator's hardware configuration.
type Spec struct {
	// GridRows × GridCols is the tensor-engine PE grid.
	GridRows, GridCols int
	// EPECols of the grid columns are extended PEs handling
	// exponential/logarithmic/shift operations.
	EPECols int
	// SIMDLanes is the BF16 lane count per PE; INT8 runs 4× wider.
	SIMDLanes int
	// DMEMBytes is the on-chip data memory; kernels whose working set
	// exceeds it spill to the FPGA-side L2 over C2C.
	DMEMBytes int
	// IMEMBytes is the instruction memory.
	IMEMBytes int
	// DMEMBandwidth is bytes per cycle between DMEM and the PE grid.
	DMEMBandwidth int
	// FMTBandwidth is elements per cycle through the data formatter.
	FMTBandwidth int
	// Frequency and voltage envelope (Table I).
	MinFreqGHz, MaxFreqGHz float64
	MinVolt, MaxVolt       float64
	// MaxPowerWatts is the per-chip power ceiling.
	MaxPowerWatts float64
	// BlockOverheadCycles is the fixed cost to issue one hyperblock:
	// instruction streaming into the per-PE queues, pipeline fill/drain,
	// and the prototype's host-engaged runtime synchronisation (§III-E:
	// function calls from the trading application through the HFT driver
	// over PCIe/XDMA per issued command stream). The value is calibrated
	// so batch-1 inference latency matches the prototype measurements of
	// Fig. 11a (119/160/296 µs for the three benchmark models, whose
	// kernels compile to 8/12/20 hyperblocks respectively).
	BlockOverheadCycles int64
	// DVFSSwitchNanos is the PMIC + PLL relock delay when changing the
	// DVFS state; the accelerator cannot start a batch during the switch.
	DVFSSwitchNanos int64
}

// DefaultSpec returns the prototype configuration. The grid is sized so
// BF16 peak ≈ 16 TFLOPS and INT8 peak ≈ 64 TOPS at 2.2 GHz, matching the
// paper's headline numbers.
func DefaultSpec() Spec {
	return Spec{
		GridRows: 16, GridCols: 16, EPECols: 2, SIMDLanes: 16,
		DMEMBytes: 4 << 20, IMEMBytes: 512 << 10,
		DMEMBandwidth: 256, FMTBandwidth: 64,
		MinFreqGHz: 0.8, MaxFreqGHz: 2.2,
		MinVolt: 0.68, MaxVolt: 1.16,
		MaxPowerWatts:       10.8,
		BlockOverheadCycles: 32_000,
		DVFSSwitchNanos:     2_000,
	}
}

// RegularPEs returns the number of MAC-oriented PEs.
func (s Spec) RegularPEs() int { return s.GridRows * (s.GridCols - s.EPECols) }

// EPEs returns the number of extended PEs.
func (s Spec) EPEs() int { return s.GridRows * s.EPECols }

// FLOPsPerCycle is the BF16 peak per cycle: each regular PE retires
// SIMDLanes fused multiply-adds (2 FLOPs each).
func (s Spec) FLOPsPerCycle() int64 {
	return int64(s.RegularPEs()) * int64(s.SIMDLanes) * 2
}

// PeakTFLOPS returns the BF16 peak at freqGHz.
func (s Spec) PeakTFLOPS(freqGHz float64) float64 {
	return float64(s.FLOPsPerCycle()) * freqGHz / 1e3
}

// PeakTOPS returns the INT8 peak at freqGHz (4× the BF16 lane width).
func (s Spec) PeakTOPS(freqGHz float64) float64 { return 4 * s.PeakTFLOPS(freqGHz) }

// DVFSState is one operating point.
type DVFSState struct {
	FreqGHz float64
	Volt    float64
}

// String implements fmt.Stringer.
func (d DVFSState) String() string { return fmt.Sprintf("%.1fGHz/%.2fV", d.FreqGHz, d.Volt) }

// VoltageAt returns the minimum stable voltage for freqGHz, interpolated
// linearly across the envelope (the shape of a 7 nm Vmin curve over this
// narrow range).
func (s Spec) VoltageAt(freqGHz float64) float64 {
	if freqGHz <= s.MinFreqGHz {
		return s.MinVolt
	}
	if freqGHz >= s.MaxFreqGHz {
		return s.MaxVolt
	}
	frac := (freqGHz - s.MinFreqGHz) / (s.MaxFreqGHz - s.MinFreqGHz)
	return s.MinVolt + frac*(s.MaxVolt-s.MinVolt)
}

// DVFSTable enumerates the operating points the scheduler may select,
// 0.1 GHz apart across the envelope (lowest first). Tables are memoised per
// envelope, so the scheduling hot path walks them without allocating; the
// returned slice is shared and must not be modified.
func (s Spec) DVFSTable() []DVFSState {
	env := dvfsEnvelope{s.MinFreqGHz, s.MaxFreqGHz, s.MinVolt, s.MaxVolt}
	var cached []dvfsTable
	if p := dvfsTables.Load(); p != nil {
		cached = *p
		for _, c := range cached {
			if c.env == env {
				return c.table
			}
		}
	}
	var table []DVFSState
	for f := s.MinFreqGHz; f <= s.MaxFreqGHz+1e-9; f += 0.1 {
		fr := math.Round(f*10) / 10
		table = append(table, DVFSState{FreqGHz: fr, Volt: s.VoltageAt(fr)})
	}
	table = table[:len(table):len(table)] // appends by callers copy
	if len(cached) < maxDVFSTables {
		// Copy-on-write: a racing builder may drop this entry, which only
		// costs a rebuild later.
		next := append(append(make([]dvfsTable, 0, len(cached)+1), cached...), dvfsTable{env, table})
		dvfsTables.Store(&next)
	}
	return table
}

// dvfsEnvelope is what a DVFS table depends on: the frequency range and the
// voltage curve's end points.
type dvfsEnvelope struct{ minF, maxF, minV, maxV float64 }

type dvfsTable struct {
	env   dvfsEnvelope
	table []DVFSState
}

// dvfsTables is the DVFSTable memo, read lock-free. It holds at most
// maxDVFSTables envelopes; specs beyond that are rebuilt on every call.
var dvfsTables atomic.Pointer[[]dvfsTable]

const maxDVFSTables = 16

// Power model calibration. Dynamic power is k·V²·f·(a0 + a1·activity) and
// leakage scales with V²; k is chosen so that the top DVFS state at full
// activity dissipates exactly MaxPowerWatts.
const (
	leakageWattsAtVnom = 0.9
	activityFloor      = 0.30 // clock tree + control fabric, even when idle-spinning
	activitySlope      = 0.70
)

// dynCoeff returns k in watts per (V²·GHz).
func (s Spec) dynCoeff() float64 {
	vmax := s.MaxVolt
	return (s.MaxPowerWatts - leakageWattsAtVnom) /
		(vmax * vmax * s.MaxFreqGHz * (activityFloor + activitySlope))
}

// Power returns the chip power in watts at state d with the given workload
// activity ∈ [0,1] (0 = idle but clocked, 1 = fully active tensor engine).
func (s Spec) Power(d DVFSState, activity float64) float64 {
	if activity < 0 {
		activity = 0
	}
	if activity > 1 {
		activity = 1
	}
	vr := d.Volt / s.MaxVolt
	leak := leakageWattsAtVnom * vr * vr
	dyn := s.dynCoeff() * d.Volt * d.Volt * d.FreqGHz * (activityFloor + activitySlope*activity)
	return leak + dyn
}

// IdlePower returns the power at state d with no work issued.
func (s Spec) IdlePower(d DVFSState) float64 { return s.Power(d, 0) }

// MaxFreqUnderPower returns the fastest DVFS state whose power at the given
// activity fits within budgetWatts, and false when even the lowest state
// does not fit.
func (s Spec) MaxFreqUnderPower(budgetWatts, activity float64) (DVFSState, bool) {
	table := s.DVFSTable()
	for i := len(table) - 1; i >= 0; i-- {
		if s.Power(table[i], activity) <= budgetWatts {
			return table[i], true
		}
	}
	return DVFSState{}, false
}
