// Package stack models 3D integration of memory dies: through-silicon-via
// (TSV) based die stacking, face-to-face bonding, and monolithic integration
// with inter-layer vias (MIVs), following the fabrication strategies modeled
// by Destiny (Poremba et al., DATE'15).
//
// The array model (internal/array) partitions a memory macro's banks across
// the dies of a stack: the foldable area (cells plus mat-local periphery)
// divides by the die count, shrinking the 2D footprint and with it the
// global H-tree wires, while per-die global periphery (I/O, write-current
// pumps, test) is replicated on every die and vertical via hops add
// capacitance and a little delay. Package stack supplies the vertical-link
// physics and the structural constraints of each integration style.
package stack

import "fmt"

// Style selects the 3D integration method.
type Style int

const (
	// TSVStack is conventional face-to-back die stacking with
	// through-silicon vias. Up to 8 dies.
	TSVStack Style = iota
	// FaceToFace bonds two dies pad-to-pad: denser vertical connections
	// but limited to exactly two dies.
	FaceToFace
	// Monolithic fabricates device layers sequentially on one substrate
	// with nanoscale monolithic inter-layer vias; transistor quality on
	// upper layers constrains the count to 4 layers.
	Monolithic
)

// String names the style.
func (s Style) String() string {
	switch s {
	case TSVStack:
		return "tsv"
	case FaceToFace:
		return "face-to-face"
	case Monolithic:
		return "monolithic"
	default:
		return fmt.Sprintf("Style(%d)", int(s))
	}
}

// ParseStyle maps a name produced by String back to a Style.
func ParseStyle(s string) (Style, error) {
	for _, st := range []Style{TSVStack, FaceToFace, Monolithic} {
		if st.String() == s {
			return st, nil
		}
	}
	return 0, fmt.Errorf("stack: unknown style %q", s)
}

// MaxDies returns the maximum die/layer count the style supports.
func (s Style) MaxDies() int {
	switch s {
	case FaceToFace:
		return 2
	case Monolithic:
		return 4
	default:
		return 8
	}
}

// Config describes one stacking choice.
type Config struct {
	// Dies is the number of stacked dies (or monolithic layers); 1 means
	// a conventional 2D design.
	Dies int
	// Style is the integration method; ignored when Dies == 1.
	Style Style
}

// Validate checks structural constraints: positive power-of-two die counts
// within the style's limit.
func (c Config) Validate() error {
	if c.Dies < 1 {
		return fmt.Errorf("stack: dies must be >= 1, got %d", c.Dies)
	}
	if c.Dies&(c.Dies-1) != 0 {
		return fmt.Errorf("stack: dies must be a power of two, got %d", c.Dies)
	}
	if c.Dies > c.Style.MaxDies() {
		return fmt.Errorf("stack: %v supports at most %d dies, got %d", c.Style, c.Style.MaxDies(), c.Dies)
	}
	return nil
}

// Vertical-link physical parameters.
const (
	// tsvCapF is the capacitance of one TSV in farads (~8 fF for a
	// modern 5 um, 50 um-deep via).
	tsvCapF = 8e-15
	// tsvResOhm is the series resistance of one TSV.
	tsvResOhm = 0.5
	// tsvPitchM is the TSV pitch; area per via is pitch^2.
	tsvPitchM = 8e-6
	// f2fCapF is a face-to-face micro-bump/hybrid-bond capacitance.
	f2fCapF = 3e-15
	// f2fPitchM is the face-to-face pad pitch.
	f2fPitchM = 2e-6
	// mivCapF is a monolithic inter-layer via capacitance (nanoscale).
	mivCapF = 0.1e-15
	// mivPitchM is the MIV pitch.
	mivPitchM = 0.2e-6
)

// ViaCapacitance returns the capacitance of one vertical link in farads.
func (c Config) ViaCapacitance() float64 {
	if c.Dies == 1 {
		return 0
	}
	switch c.Style {
	case FaceToFace:
		return f2fCapF
	case Monolithic:
		return mivCapF
	default:
		return tsvCapF
	}
}

// ViaResistance returns the series resistance of one vertical link in ohms.
func (c Config) ViaResistance() float64 {
	if c.Dies == 1 {
		return 0
	}
	switch c.Style {
	case FaceToFace:
		return 0.2
	case Monolithic:
		return 2.0 // nanoscale vias are thin
	default:
		return tsvResOhm
	}
}

// ViaAreaEach returns the silicon area consumed by one vertical link in
// square metres (keep-out included).
func (c Config) ViaAreaEach() float64 {
	if c.Dies == 1 {
		return 0
	}
	switch c.Style {
	case FaceToFace:
		return f2fPitchM * f2fPitchM
	case Monolithic:
		return mivPitchM * mivPitchM
	default:
		return tsvPitchM * tsvPitchM
	}
}

// BusAreaOverhead returns the footprint consumed on each die by a vertical
// bus of busWidth links (address + data + control), in square metres.
func (c Config) BusAreaOverhead(busWidth int) float64 {
	if c.Dies == 1 {
		return 0
	}
	return float64(busWidth) * c.ViaAreaEach()
}

// AverageCrossings returns the expected number of vertical hops an access
// traverses: accesses are uniform across dies and the interface sits on the
// bottom die, so the average is (Dies-1)/2.
func (c Config) AverageCrossings() float64 {
	return float64(c.Dies-1) / 2
}

// VerticalDelay returns the added delay of traversing the average number of
// vertical hops, driven by a driver of resistance rDrive ohms, in seconds.
func (c Config) VerticalDelay(rDrive float64) float64 {
	n := c.AverageCrossings()
	if n == 0 {
		return 0
	}
	// Lumped RC per hop, Elmore-chained.
	perHop := 0.69 * (rDrive*c.ViaCapacitance() + c.ViaResistance()*c.ViaCapacitance()/2)
	return n * perHop
}

// VerticalEnergy returns the switching energy of sending one bit through
// the average number of vertical hops at supply vdd, in joules.
func (c Config) VerticalEnergy(vdd float64) float64 {
	return c.AverageCrossings() * c.ViaCapacitance() * vdd * vdd
}
