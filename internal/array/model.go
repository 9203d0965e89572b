package array

import (
	"math"

	"coldtall/internal/cell"
)

// Characterize evaluates one explicit organization of the configured array.
// Most callers should use OptimizeWithStats, which searches organizations;
// this entry point is exported for ablation studies and tests.
//
// It validates the configuration, then the organization, then builds the
// configuration's device corner and wires (newBoundContext) and runs the
// one characterization body the organization search runs too.
func Characterize(cfg Config, org Organization) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	d, err := cfg.derive(org)
	if err != nil {
		return Result{}, err
	}
	bc, err := newBoundContext(&cfg)
	if err != nil {
		return Result{}, err
	}
	return bc.characterize(org, &d), nil
}

// characterize evaluates one organization that derives feasibly (d is its
// derived quantities) against the context's precomputed corner, wires and
// organization-independent cell figures. It is the only characterization
// body: the public Characterize and the organization search both run it,
// so a searched Result is bit-identical to Characterize's.
func (bc *boundContext) characterize(org Organization, d *derived) Result {
	cfg := bc.cfg
	corner := &bc.corner
	ar := areas(cfg, org, d)

	// Global wires span the memory core (the folded cell matrix plus its
	// mat periphery and the TSV bus); the per-die I/O ring and pumps sit
	// at the edge and do not lengthen the H-tree.
	tree := newHTree(ar.core, d.banksPerDie, corner, bc.global)
	route := newInBankRoute(ar.core, d.banksPerDie, corner, bc.inter)
	localWire := &bc.local

	c := &cfg.Cell
	// Extra ports widen the cell in both directions (bc.cellW, bc.cellH).
	wlLen := float64(org.Cols) * bc.cellW
	blLen := float64(org.Rows) * bc.cellH

	capPort := bc.capPort
	wlCellCap := float64(org.Cols) * c.WLCapF * capPort
	wlWireCap := localWire.Capacitance(wlLen)
	wlCap := wlCellCap + wlWireCap
	blCap := float64(org.Rows)*c.BLCapF*capPort + localWire.Capacitance(blLen)
	blRes := localWire.Resistance(blLen)

	vdd := bc.vdd
	// Sense margins widen with temperature (thermal noise, offset drift):
	// bc.swing yields the ~10% dynamic-energy spread over 77-387 K the
	// paper reports for SRAM.
	swing := bc.swing

	// --- Stage delays.
	decode := (rowDecodeFO4Base + rowDecodeFO4PerBit*math.Log2(float64(org.Rows))) * corner.FO4Delay
	wlDrvR := bc.wlDrvR
	wordline := 0.69*wlDrvR*wlCap + 0.38*localWire.Resistance(wlLen)*wlWireCap

	var bitline float64
	switch c.Sense {
	case cell.SenseVoltage:
		drive := c.ReadCurrentA * corner.OnCurrentScale
		bitline = blCap*swing/drive + 0.38*blRes*localWire.Capacitance(blLen)
	default: // current sensing: intrinsic resolution floor + bitline RC settle
		bitline = c.MinSenseTimeS + 0.38*blRes*blCap + 0.69*blCap*c.ReadVoltage/c.ReadCurrentA
	}
	sense := corner.SenseAmpDelay
	colMux := columnMuxFO4 * corner.FO4Delay

	treeDelay := tree.delay()
	routeDelay := route.delay()
	vertOnce := cfg.Stack.VerticalDelay(tree.bufferR())

	readParts := Components{
		HTreeRequest: treeDelay,
		InBankRoute:  routeDelay,
		Vertical:     2 * vertOnce,
		Decode:       decode,
		Wordline:     wordline,
		BitlineSense: bitline + sense,
		ColumnMux:    colMux,
		HTreeReply:   treeDelay + routeDelay,
	}
	readLatency := readParts.Total()

	// MinSenseTimeS applies to voltage sensing too when non-zero (1T1C
	// charge sharing); current sensing already folded it into bitline.
	if c.Sense == cell.SenseVoltage && c.MinSenseTimeS > bitline {
		extra := c.MinSenseTimeS - bitline
		readParts.BitlineSense += extra
		readLatency += extra
		bitline = c.MinSenseTimeS
	}

	// Write completion: the slower of charging the bitlines to full swing
	// and the cell's intrinsic programming pulse. Volatile cells flip
	// faster when the devices are faster; eNVM pulses are material-set.
	blCharge := 0.69*(wlDrvR)*blCap + 0.38*blRes*localWire.Capacitance(blLen)
	pulse := c.WritePulseS
	if !c.Tech.IsNonVolatile() {
		pulse *= bc.pulseScale
		// Voltage-written arrays hold the port through bitline restore
		// and precharge (NVSim counts the symmetric path for SRAM write
		// latency); eNVM ports are released once the pulse completes.
		pulse += 1.7 * bitline
	}
	writeParts := Components{
		HTreeRequest: treeDelay,
		InBankRoute:  routeDelay,
		Vertical:     vertOnce,
		Decode:       decode,
		Wordline:     wordline,
		ColumnMux:    writeDriverFO4 * corner.FO4Delay,
		WritePulse:   math.Max(blCharge, pulse),
	}
	writeLatency := writeParts.Total()

	// --- Energies.
	reqBits := float64(addrBits + ctlBits)
	wireBit := tree.energyPerBit() + route.energyPerBit()
	vertBit := cfg.Stack.VerticalEnergy(vdd)

	eDecode := reqBits * decoderEnergyPerAddrBitF * vdd * vdd
	eWordline := d.activatedMats * wlCap * vdd * vdd

	var eBitlineRead float64
	switch c.Sense {
	case cell.SenseVoltage:
		// All bitlines of the activated mats develop the read swing;
		// destructive (charge-sharing) reads drive the full supply.
		readSwing := swing
		if c.ReadDisturbWriteback() {
			readSwing = vdd
		}
		eBitlineRead = d.activatedMats * float64(org.Cols) * blCap * readSwing * vdd
	default:
		bias := c.ReadCurrentA * c.ReadVoltage * (bitline + sense)
		eBitlineRead = d.blockBits * (bias + c.ReadEnergyJ)
	}
	eSense := d.blockBits * cfg.Node.SenseAmpEnergy

	readEnergy := (reqBits+d.blockBits)*(wireBit+vertBit) +
		eDecode + eWordline + eBitlineRead + eSense

	var eBitlineWrite float64
	switch c.Sense {
	case cell.SenseVoltage:
		eBitlineWrite = d.blockBits*blCap*vdd*vdd + d.blockBits*c.WriteEnergyJ
	default:
		eBitlineWrite = d.blockBits*blCap*vdd*vdd + 1.2*d.blockBits*c.WriteEnergyJ
	}
	writeEnergy := (reqBits+d.blockBits)*(wireBit+vertBit) +
		eDecode + eWordline + eBitlineWrite

	// Destructive reads restore the row after every read: the access
	// holds the row through the restore, costing both the write-back
	// energy and the restore time — the reason the paper excludes
	// 1T1C-eDRAM as "generally slower and higher dynamic energy".
	if c.ReadDisturbWriteback() {
		// Row-wide restore: every cell of the activated row rewrites at
		// full swing.
		readEnergy += d.activatedMats * float64(org.Cols) * blCap * vdd * vdd
		restore := math.Max(blCharge, pulse)
		readParts.BitlineSense += restore
		readLatency += restore
	}

	// --- Static power.
	cellLeak := d.totalBits * bc.leakPerBit
	periLeak := (d.totalSAs*(cfg.Node.SenseAmpLeakage+writeDriverLeakPerUA300*c.WriteCurrentA*1e6) +
		d.totalRows*0.2e-9 +
		pumpStandbyPerAmpW300*d.blockBits*c.WriteCurrentA +
		float64(cfg.Stack.Dies)*perDieStandbyW300) * corner.LeakageScale
	leakage := cellLeak + periLeak

	// --- Refresh.
	retention := bc.retention
	var refreshPower, refreshOcc float64
	if bc.refreshes {
		rowEnergy := wlCap*vdd*vdd +
			float64(org.Cols)*blCap*swing*vdd + // row read
			0.15*float64(org.Cols)*blCap*vdd*vdd // storage-node restore via write port
		refreshPower = d.totalRows * rowEnergy / retention
		rowCycle := decode + wordline + bitline + sense + 0.7*bitline
		refreshOcc = math.Min(1, d.totalRows*rowCycle/(float64(org.Banks)*retention))
	}

	// --- Cycle time and bandwidth.
	subCycle := decode + wordline + bitline + sense + 0.7*bitline
	writeCycle := decode + wordline + math.Max(blCharge, pulse) + 0.3*bitline
	cycle := math.Max(subCycle, writeCycle)
	bw := float64(org.Banks) / cycle * bankBandwidthDerate * float64(cfg.Ports)

	dataBits := float64(cfg.BlockBytes) * 8
	return Result{
		Org:               org,
		CellName:          c.Name,
		Temperature:       cfg.Temperature,
		Dies:              cfg.Stack.Dies,
		ReadLatency:       readLatency,
		WriteLatency:      writeLatency,
		RandomCycle:       cycle,
		BandwidthAccesses: bw,
		ReadEnergy:        readEnergy,
		WriteEnergy:       writeEnergy,
		ReadEnergyPerBit:  readEnergy / dataBits,
		WriteEnergyPerBit: writeEnergy / dataBits,
		LeakagePower:      leakage,
		RefreshPower:      refreshPower,
		RefreshOccupancy:  refreshOcc,
		Retention:         retention,
		FootprintM2:       ar.footprint,
		TotalSiliconM2:    ar.totalSilicon,
		CellAreaM2:        ar.cellArea,
		ArrayEfficiency:   ar.cellArea / ar.totalSilicon,
		ReadParts:         readParts,
		WriteParts:        writeParts,
	}
}

// areaBreakdown carries the area model outputs (square metres).
type areaBreakdown struct {
	cellArea     float64
	foldable     float64
	perDieFixed  float64
	core         float64 // per-die memory core the global wires span
	footprint    float64
	totalSilicon float64
}

// areas evaluates the area model: cell matrix plus mat-local periphery fold
// across stacked dies; per-die global periphery (I/O, pumps) and the TSV
// bus are replicated on every die.
func areas(cfg *Config, org Organization, d *derived) areaBreakdown {
	f2 := cfg.Node.FeatureSize * cfg.Node.FeatureSize
	c := &cfg.Cell

	cellArea := d.totalBits * c.AreaF2 * f2 * cfg.portAreaFactor()
	matLocal := cellArea * matPeriFrac
	rowDrv := d.totalRows * rowDriverAreaF2 * f2
	saAreaF2 := saAreaVoltageF2
	if c.Sense == cell.SenseCurrent {
		saAreaF2 = saAreaCurrentF2
	}
	saArea := d.totalSAs * saAreaF2 * f2
	wrDrv := d.totalSAs * (writeDriverBaseF2 + writeDriverPerUAF2*c.WriteCurrentA*1e6) * f2
	foldable := cellArea + matLocal + rowDrv + saArea + wrDrv

	io := ioAreaBaseM2 + ioAreaPerRootBitM2*math.Sqrt(d.totalBits)
	pump := pumpAreaPerAmpM2 * d.blockBits * c.WriteCurrentA
	busWidth := int(d.blockBits) + addrBits + ctlBits
	tsv := cfg.Stack.BusAreaOverhead(busWidth)
	perDie := io + pump + tsv

	dies := float64(cfg.Stack.Dies)
	return areaBreakdown{
		cellArea:     cellArea,
		foldable:     foldable,
		perDieFixed:  perDie,
		core:         foldable/dies + tsv,
		footprint:    foldable/dies + perDie,
		totalSilicon: foldable + dies*perDie,
	}
}
