package cell

import (
	"fmt"
	"math"
	"sync"
)

// Corner selects which extreme of the published spread a tentpole cell
// represents.
type Corner int

const (
	// Optimistic composes the most favourable published value of every
	// cell property for a technology.
	Optimistic Corner = iota
	// Pessimistic composes the least favourable values.
	Pessimistic
)

// String names the corner.
func (c Corner) String() string {
	if c == Pessimistic {
		return "pessimistic"
	}
	return "optimistic"
}

// Corners returns both corners in display order.
func Corners() []Corner { return []Corner{Optimistic, Pessimistic} }

// Tentpole returns the optimistic or pessimistic composite cell for an
// eNVM technology from the embedded database, implementing NVMExplorer's
// "tentpole" methodology: the extrema of the cell-level characteristics
// represent the range of potential behaviour of each technology across a
// large volume of published datapoints.
//
// Favourable means smaller for area, sensing time, write pulse, write
// energy and write current, and larger for read current and endurance.
//
// The database is constant, so every composite is folded once per process
// (see tentpoles); a Cell holds only values, so the returned copy is the
// caller's to modify.
func Tentpole(t Technology, corner Corner) (Cell, error) {
	pair, ok := tentpoles()[t]
	if !ok {
		return Cell{}, fmt.Errorf("cell: no database entries for %v (tentpole applies to eNVM technologies)", t)
	}
	if corner == Pessimistic {
		return pair[1], nil
	}
	return pair[0], nil
}

// tentpoles folds the optimistic and pessimistic composites of every
// surveyed technology from one build of the database.
var tentpoles = sync.OnceValue(func() map[Technology][2]Cell {
	byTech := make(map[Technology][]DatabaseEntry)
	for _, e := range Database() {
		byTech[e.Tech] = append(byTech[e.Tech], e)
	}
	out := make(map[Technology][2]Cell, len(byTech))
	for t, entries := range byTech {
		out[t] = [2]Cell{foldTentpole(t, Optimistic, entries), foldTentpole(t, Pessimistic, entries)}
	}
	return out
})

// foldTentpole composes one corner over a technology's database entries.
func foldTentpole(t Technology, corner Corner, entries []DatabaseEntry) Cell {
	best := entries[0].Cell
	best.Name = fmt.Sprintf("%s-%s", techSlug(t), corner)
	best.Source = fmt.Sprintf("tentpole %s over %d survey points", corner, len(entries))
	lo := func(a, b float64) float64 { return math.Min(a, b) }
	hi := func(a, b float64) float64 { return math.Max(a, b) }
	favorSmall, favorLarge := lo, hi
	if corner == Pessimistic {
		favorSmall, favorLarge = hi, lo
	}
	for _, e := range entries[1:] {
		best.AreaF2 = favorSmall(best.AreaF2, e.AreaF2)
		best.MinSenseTimeS = favorSmall(best.MinSenseTimeS, e.MinSenseTimeS)
		best.ReadEnergyJ = favorSmall(best.ReadEnergyJ, e.ReadEnergyJ)
		best.WritePulseS = favorSmall(best.WritePulseS, e.WritePulseS)
		best.WriteEnergyJ = favorSmall(best.WriteEnergyJ, e.WriteEnergyJ)
		best.WriteCurrentA = favorSmall(best.WriteCurrentA, e.WriteCurrentA)
		best.ReadCurrentA = favorLarge(best.ReadCurrentA, e.ReadCurrentA)
		best.EnduranceCycles = favorLarge(best.EnduranceCycles, e.EnduranceCycles)
		// Volatile-cell axes, composed the same way for the gain-cell
		// survey: long retention, low leakage and a shallow retention
		// activation (shorter hot-corner retention loss) are favourable.
		// For the eNVM entries every one of these is identical (infinite
		// retention, zero leakage, zero activation), so the composition
		// is the identity there and the historical corners are unchanged.
		best.Retention300S = favorLarge(best.Retention300S, e.Retention300S)
		best.RetentionActEV = favorSmall(best.RetentionActEV, e.RetentionActEV)
		best.SubLeakRel = favorSmall(best.SubLeakRel, e.SubLeakRel)
		best.FloorLeakRel = favorSmall(best.FloorLeakRel, e.FloorLeakRel)
	}
	return best
}

func techSlug(t Technology) string {
	switch t {
	case PCM:
		return "pcm"
	case STTRAM:
		return "stt"
	case RRAM:
		return "rram"
	case SOTRAM:
		return "sot"
	case OSGC:
		return "osgc"
	case SRAM:
		return "sram"
	case EDRAM3T:
		return "edram3t"
	case EDRAM1T1C:
		return "edram1t1c"
	default:
		return "unknown"
	}
}
