package array

import (
	"math"

	"coldtall/internal/cell"
	"coldtall/internal/tech"
)

// boundSlack shaves a relative 1e-9 off every lower bound. The bound is a
// partial sum of the exact model's nonnegative terms, so in exact
// arithmetic it can never exceed the true objective; the slack absorbs the
// few ULPs by which a differently-associated floating-point summation
// could land above the model's own rounding. 1e-9 is ~1e6 ULPs of margin
// while organization objectives differ by percents, so it costs no
// measurable prune power.
const boundSlack = 1 - 1e-9

// boundContext precomputes the organization-independent physics of one
// configuration: the device corner, the wire RC of all three metal classes,
// the port-widened cell geometry, and the per-bit leakage/retention figures.
// Both the admissible lower bound and the characterization body
// (characterize, model.go) read it, so an organization search builds the
// corner and wires once and every candidate — bounded or characterized —
// is pure arithmetic against them.
type boundContext struct {
	cfg    *Config
	corner tech.DeviceCorner
	local  tech.Wire
	inter  tech.Wire
	global tech.Wire

	cellW, cellH float64 // port-widened cell dimensions (metres)
	capPort      float64
	swing        float64
	vdd          float64
	wlDrvR       float64
	pulseScale   float64 // FO4(T)/FO4(300K) applied to volatile write pulses

	leakPerBit float64 // cell leakage per stored bit (W)
	retention  float64 // evaluated retention (s, +Inf when static)
	refreshes  bool
}

// newBoundContext evaluates the organization-independent physics of cfg
// once; the context keeps cfg by reference. It builds the corner, then the
// local, global and intermediate wires — the order Characterize has always
// reported their errors in — so a failure here is exactly Characterize's
// failure for every organization, and means every candidate is infeasible.
func newBoundContext(cfg *Config) (boundContext, error) {
	corner, err := cfg.Node.At(cfg.Temperature)
	if err != nil {
		return boundContext{}, err
	}
	wireScale := cfg.Node.FeatureSize / 22e-9
	local, err := tech.NewWireScaled(tech.WireLocal, cfg.Temperature, wireScale)
	if err != nil {
		return boundContext{}, err
	}
	global, err := tech.NewWireScaled(tech.WireGlobal, cfg.Temperature, wireScale)
	if err != nil {
		return boundContext{}, err
	}
	inter, err := tech.NewWireScaled(tech.WireIntermediate, cfg.Temperature, wireScale)
	if err != nil {
		return boundContext{}, err
	}
	c := &cfg.Cell
	cellW, cellH := c.Dimensions(cfg.Node.FeatureSize)
	pf := math.Sqrt(cfg.portAreaFactor())
	bc := boundContext{
		cfg:        cfg,
		corner:     corner,
		local:      local,
		inter:      inter,
		global:     global,
		cellW:      cellW * pf,
		cellH:      cellH * pf,
		capPort:    cfg.portCapFactor(),
		swing:      c.ReadVoltage * (1 + 0.0004*(cfg.Temperature-tech.TempRoom)),
		vdd:        corner.Vdd,
		wlDrvR:     wlDriverR300 / corner.OnCurrentScale,
		pulseScale: corner.FO4Delay / cfg.Node.FO4Delay300,
		leakPerBit: c.LeakagePower(corner),
		retention:  c.Retention(corner),
	}
	bc.refreshes = c.NeedsRefresh() && !math.IsInf(bc.retention, 1)
	return bc, nil
}

// lowerBound returns a value that is <= objective(target) of
// Characterize(cfg, org) for any organization that derives feasibly (d is
// its derived quantities).
//
// Admissibility comes from construction, not calibration: every term is
// computed with the same expressions characterize (model.go) uses — the
// mat-local stages directly, the global stages (H-tree, in-bank route,
// vertical hops, wire energies) through the same htree/inBankRoute code
// over the context's wires. The bound skips what the objective does not
// need (the write path, cycle time, the Result itself) and sums partial
// terms, so it tracks the true objective to within floating-point
// association (then steps down by boundSlack):
//
//	latency: all read stages, summed locally   <= ReadLatency
//	energy:  all read/write terms              <= (Erd+Ewr)/2
//	leakage: exact (cells + periphery + refresh)
//	area:    exact (the footprint model never touches wires)
//	EDP:     energyLB x latencyLB with the exact standby fold-in
//
// The differential harness (differential_test.go) asserts the pruned
// search built on this bound selects bit-identical results; the property
// test (bound_test.go) asserts admissibility directly over randomized
// feasible configurations.
func (bc *boundContext) lowerBound(org Organization, d *derived, target Target) float64 {
	c := &bc.cfg.Cell
	ar := areas(bc.cfg, org, d)

	// Footprint needs no wires: delegate to the exact area model.
	if target == OptimizeArea {
		return ar.footprint * boundSlack
	}

	wlLen := float64(org.Cols) * bc.cellW
	blLen := float64(org.Rows) * bc.cellH
	wlCellCap := float64(org.Cols) * c.WLCapF * bc.capPort
	wlWireCap := bc.local.Capacitance(wlLen)
	wlCap := wlCellCap + wlWireCap
	blCap := float64(org.Rows)*c.BLCapF*bc.capPort + bc.local.Capacitance(blLen)
	blRes := bc.local.Resistance(blLen)

	decode := (rowDecodeFO4Base + rowDecodeFO4PerBit*math.Log2(float64(org.Rows))) * bc.corner.FO4Delay
	wordline := 0.69*bc.wlDrvR*wlCap + 0.38*bc.local.Resistance(wlLen)*wlWireCap

	var bitline float64
	switch c.Sense {
	case cell.SenseVoltage:
		drive := c.ReadCurrentA * bc.corner.OnCurrentScale
		bitline = blCap*bc.swing/drive + 0.38*blRes*bc.local.Capacitance(blLen)
		if c.MinSenseTimeS > bitline {
			bitline = c.MinSenseTimeS
		}
	default:
		bitline = c.MinSenseTimeS + 0.38*blRes*blCap + 0.69*blCap*c.ReadVoltage/c.ReadCurrentA
	}
	sense := bc.corner.SenseAmpDelay
	colMux := columnMuxFO4 * bc.corner.FO4Delay

	blCharge := 0.69*bc.wlDrvR*blCap + 0.38*blRes*bc.local.Capacitance(blLen)
	pulse := c.WritePulseS
	if !c.Tech.IsNonVolatile() {
		pulse *= bc.pulseScale
		pulse += 1.7 * bitline
	}

	// Global path: the H-tree and in-bank route derive from the area
	// model's core footprint and the context's wires — the same code
	// characterize runs.
	tree := newHTree(ar.core, d.banksPerDie, &bc.corner, bc.global)
	route := newInBankRoute(ar.core, d.banksPerDie, &bc.corner, bc.inter)
	treeDelay := tree.delay()
	routeDelay := route.delay()
	vertOnce := bc.cfg.Stack.VerticalDelay(tree.bufferR())

	latLB := 2*treeDelay + 2*routeDelay + 2*vertOnce +
		decode + wordline + bitline + sense + colMux
	if c.ReadDisturbWriteback() {
		latLB += math.Max(blCharge, pulse)
	}
	if target == OptimizeLatency {
		return latLB * boundSlack
	}

	// Standby power is exactly computable without the area/wire models:
	// both the leakage and refresh objectives reduce to derived counts.
	cellLeak := d.totalBits * bc.leakPerBit
	periLeak := (d.totalSAs*(bc.cfg.Node.SenseAmpLeakage+writeDriverLeakPerUA300*c.WriteCurrentA*1e6) +
		d.totalRows*0.2e-9 +
		pumpStandbyPerAmpW300*d.blockBits*c.WriteCurrentA +
		float64(bc.cfg.Stack.Dies)*perDieStandbyW300) * bc.corner.LeakageScale
	standby := cellLeak + periLeak
	if bc.refreshes {
		rowEnergy := wlCap*bc.vdd*bc.vdd +
			float64(org.Cols)*blCap*bc.swing*bc.vdd +
			0.15*float64(org.Cols)*blCap*bc.vdd*bc.vdd
		standby += d.totalRows * rowEnergy / bc.retention
	}
	if target == OptimizeLeakage {
		return standby * boundSlack
	}

	vdd := bc.vdd
	reqBits := float64(addrBits + ctlBits)
	wireBit := tree.energyPerBit() + route.energyPerBit()
	vertBit := bc.cfg.Stack.VerticalEnergy(vdd)
	eWire := (reqBits + d.blockBits) * (wireBit + vertBit)
	eDecode := reqBits * decoderEnergyPerAddrBitF * vdd * vdd
	eWordline := d.activatedMats * wlCap * vdd * vdd
	var eBitlineRead float64
	switch c.Sense {
	case cell.SenseVoltage:
		readSwing := bc.swing
		if c.ReadDisturbWriteback() {
			readSwing = vdd
		}
		eBitlineRead = d.activatedMats * float64(org.Cols) * blCap * readSwing * vdd
	default:
		bias := c.ReadCurrentA * c.ReadVoltage * (bitline + sense)
		eBitlineRead = d.blockBits * (bias + c.ReadEnergyJ)
	}
	eSense := d.blockBits * bc.cfg.Node.SenseAmpEnergy
	readELB := eWire + eDecode + eWordline + eBitlineRead + eSense
	if c.ReadDisturbWriteback() {
		readELB += d.activatedMats * float64(org.Cols) * blCap * vdd * vdd
	}
	var eBitlineWrite float64
	switch c.Sense {
	case cell.SenseVoltage:
		eBitlineWrite = d.blockBits*blCap*vdd*vdd + d.blockBits*c.WriteEnergyJ
	default:
		eBitlineWrite = d.blockBits*blCap*vdd*vdd + 1.2*d.blockBits*c.WriteEnergyJ
	}
	writeELB := eWire + eDecode + eWordline + eBitlineWrite
	energyLB := (readELB + writeELB) / 2
	if target == OptimizeEnergy {
		return energyLB * boundSlack
	}

	// EDP (the default): both factors are lower bounds of positive
	// quantities, so their product bounds the product.
	return (energyLB + standby*edpRefAccessPeriod) * latLB * boundSlack
}
