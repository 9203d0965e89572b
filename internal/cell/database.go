package cell

import "math"

// DatabaseEntry tags a Cell with survey metadata, mirroring NVMExplorer's
// database of eNVM datapoints drawn from ISSCC/IEDM/VLSI 2016–2020
// publications. The numbers below are synthesized to reproduce the spread
// of the published survey (cell size, write asymmetry, endurance) rather
// than any single named paper; the Venue/Year fields indicate the style of
// source each point stands in for.
type DatabaseEntry struct {
	Cell
	Venue string
	Year  int
}

// Database returns the embedded survey. The slice is freshly allocated on
// every call so callers may mutate their copy.
func Database() []DatabaseEntry {
	nv := math.Inf(1)
	mk := func(tech Technology, name, venue string, year int,
		areaF2, senseNS, readPJ, writeNS, writePJ, writeUA, readUA, endurance float64) DatabaseEntry {
		return DatabaseEntry{
			Venue: venue,
			Year:  year,
			Cell: Cell{
				Tech:            tech,
				Name:            name,
				Source:          venue,
				AreaF2:          areaF2,
				AspectRatio:     1.0,
				WLCapF:          4e-17,
				BLCapF:          2e-17,
				Sense:           SenseCurrent,
				ReadCurrentA:    readUA * 1e-6,
				ReadVoltage:     0.2,
				MinSenseTimeS:   senseNS * 1e-9,
				ReadEnergyJ:     readPJ * 1e-12,
				WritePulseS:     writeNS * 1e-9,
				WriteEnergyJ:    writePJ * 1e-12,
				WriteCurrentA:   writeUA * 1e-6,
				SubLeakRel:      0,
				FloorLeakRel:    0,
				Retention300S:   nv,
				EnduranceCycles: endurance,
			},
		}
	}
	return []DatabaseEntry{
		// --- PCM: the smallest cells of the survey, fast sensing thanks
		// to the enormous amorphous/crystalline resistance contrast, but
		// slow, energetic, SET-limited writes; endurance 1e6–1e9.
		mk(PCM, "pcm-a", "ISSCC", 2016, 9.6, 2.0, 0.32, 120, 22, 250, 12, 1e8),
		mk(PCM, "pcm-b", "IEDM", 2017, 4.8, 0.7, 0.31, 40, 4.5, 110, 20, 1e9),
		mk(PCM, "pcm-c", "VLSI", 2017, 14.0, 2.6, 0.40, 90, 14, 200, 15, 3e8),
		mk(PCM, "pcm-d", "ISSCC", 2018, 6.0, 0.9, 0.32, 55, 6.0, 130, 18, 8e8),
		mk(PCM, "pcm-e", "IEDM", 2018, 19.0, 4.0, 0.45, 180, 30, 280, 10, 5e7),
		mk(PCM, "pcm-f", "VLSI", 2019, 5.2, 0.5, 0.33, 30, 3.0, 100, 22, 1e9),
		mk(PCM, "pcm-g", "ISSCC", 2019, 25.0, 6.0, 0.50, 250, 35, 300, 8, 1e6),
		mk(PCM, "pcm-h", "IEDM", 2020, 7.5, 1.2, 0.30, 70, 9.0, 160, 16, 6e8),
		mk(PCM, "pcm-i", "VLSI", 2020, 11.0, 1.6, 0.35, 100, 18, 220, 14, 2e8),

		// --- STT-RAM: moderate-size 1T1MTJ cells (published macros run
		// tens of F^2), fast low-energy writes at the optimistic end, but
		// the slowest sensing of the eNVMs — the MTJ's limited TMR gives
		// little read contrast; endurance 1e12–1e15.
		mk(STTRAM, "stt-a", "ISSCC", 2016, 54.0, 3.0, 0.50, 20, 5.0, 250, 15, 1e12),
		mk(STTRAM, "stt-b", "IEDM", 2017, 38.0, 1.8, 0.46, 6, 3.9, 165, 20, 5e13),
		mk(STTRAM, "stt-c", "VLSI", 2017, 44.0, 2.2, 0.48, 12, 3.8, 120, 18, 1e13),
		mk(STTRAM, "stt-d", "ISSCC", 2018, 30.0, 1.5, 0.47, 3, 3.8, 160, 25, 1e14),
		mk(STTRAM, "stt-e", "IEDM", 2019, 20.0, 0.9, 0.45, 0.65, 3.5, 150, 28, 1e15),
		mk(STTRAM, "stt-f", "VLSI", 2019, 40.0, 2.0, 0.48, 9, 3.5, 100, 19, 2e13),
		mk(STTRAM, "stt-g", "ISSCC", 2020, 26.0, 1.4, 0.46, 1.4, 3.7, 155, 26, 8e14),
		mk(STTRAM, "stt-h", "IEDM", 2020, 48.0, 2.6, 0.55, 16, 5.0, 140, 16, 3e12),

		// --- RRAM: small-to-mid cells, mid-speed sensing and writes,
		// wide endurance spread (1e6–1e11) and notable variability.
		mk(RRAM, "rram-a", "ISSCC", 2016, 40.0, 4.0, 0.48, 100, 20, 200, 8, 1e6),
		mk(RRAM, "rram-b", "IEDM", 2017, 20.0, 1.6, 0.42, 25, 4.2, 110, 14, 1e9),
		mk(RRAM, "rram-c", "VLSI", 2017, 16.0, 1.3, 0.40, 10, 3.3, 110, 18, 1e10),
		mk(RRAM, "rram-d", "ISSCC", 2018, 24.0, 2.0, 0.41, 40, 6.0, 140, 12, 5e8),
		mk(RRAM, "rram-e", "IEDM", 2018, 32.0, 3.2, 0.45, 80, 15, 180, 9, 1e7),
		mk(RRAM, "rram-f", "VLSI", 2019, 18.0, 1.3, 0.42, 15, 3.6, 115, 16, 5e9),
		mk(RRAM, "rram-g", "ISSCC", 2020, 17.0, 1.2, 0.38, 8, 3.0, 105, 20, 5e9),
		mk(RRAM, "rram-h", "IEDM", 2020, 28.0, 2.4, 0.44, 60, 10, 160, 10, 1e8),

		// --- SOT-RAM: larger two-transistor cells, sub-ns low-energy
		// writes, slower shared-path reads.
		mk(SOTRAM, "sot-a", "IEDM", 2018, 60.0, 4.0, 0.30, 1.5, 0.5, 80, 8, 3e14),
		mk(SOTRAM, "sot-b", "VLSI", 2019, 42.0, 3.0, 0.22, 1.0, 0.35, 65, 10, 8e14),
		mk(SOTRAM, "sot-c", "ISSCC", 2020, 34.0, 2.2, 0.15, 0.7, 0.25, 55, 12, 1e15),
		mk(SOTRAM, "sot-d", "IEDM", 2020, 50.0, 3.5, 0.25, 1.2, 0.4, 70, 9, 5e14),

		// --- OS gain cell: oxide-semiconductor 2T gain cells from the
		// monolithic-3D eDRAM literature (2021-2024 IGZO/ITO macros and
		// the arXiv 2503.06304 LLC design study). Voltage-sensed and
		// volatile like the silicon gain cell, but with seconds-class
		// 300 K retention (fA-class write-transistor off-current, ~0.4-0.5
		// eV Arrhenius activation), slower oxide-channel writes and
		// weaker reads. Endurance is field-effect-unlimited.
		mkGC(OSGC, "osgc-a", "IEDM", 2021, 45.0, 0.5, 10, 0.30, 5, 1.2, 0.40),
		mkGC(OSGC, "osgc-b", "VLSI", 2022, 30.0, 0.3, 6, 0.22, 8, 3.0, 0.45),
		mkGC(OSGC, "osgc-c", "IEDM", 2022, 55.0, 0.8, 15, 0.35, 4, 0.8, 0.42),
		mkGC(OSGC, "osgc-d", "ISSCC", 2023, 25.0, 0.25, 4, 0.18, 10, 12.0, 0.48),
		mkGC(OSGC, "osgc-e", "IEDM", 2024, 20.0, 0.2, 3, 0.15, 12, 30.0, 0.50),
	}
}

// mkGC builds one oxide-semiconductor gain-cell survey entry: a
// voltage-sensed volatile cell with finite Arrhenius retention, in
// contrast with mk's current-sensed non-volatile eNVM shape.
func mkGC(tech Technology, name, venue string, year int,
	areaF2, senseNS, writeNS, writeFJ, readUA, retentionS, actEV float64) DatabaseEntry {
	return DatabaseEntry{
		Venue: venue,
		Year:  year,
		Cell: Cell{
			Tech:            tech,
			Name:            name,
			Source:          venue,
			AreaF2:          areaF2,
			AspectRatio:     1.0,
			WLCapF:          3e-17,
			BLCapF:          2.5e-17,
			Sense:           SenseVoltage,
			ReadCurrentA:    readUA * 1e-6,
			ReadVoltage:     0.10,
			MinSenseTimeS:   senseNS * 1e-9,
			WritePulseS:     writeNS * 1e-9,
			WriteEnergyJ:    writeFJ * 1e-15,
			WriteCurrentA:   0,
			SubLeakRel:      1e-4,
			FloorLeakRel:    0.02,
			Retention300S:   retentionS,
			RetentionActEV:  actEV,
			EnduranceCycles: math.Inf(1),
		},
	}
}
