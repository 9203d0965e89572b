package array

import (
	"math"

	"coldtall/internal/tech"
)

// htree models the global interconnect of one die: a fan-out tree from the
// macro port to the banks, buffered only at fan-out (hop) boundaries. For
// multi-megabyte macros the leading segments are millimetres long and their
// distributed RC dominates — the deliberately conservative buffering
// reproduces the multi-nanosecond H-trees CACTI and NVSim report for large
// 2D SRAM, which is precisely the wire burden that both cryogenic operation
// (lower rho) and 3D stacking (smaller footprint) attack.
//
// The tree has hops segments: the root spans the die side and each hop
// halves the length. The segments are generated on the fly, root first, so
// building a tree allocates nothing.
type htree struct {
	root   float64 // root segment length (the die side), metres
	hops   int
	wire   tech.Wire
	corner *tech.DeviceCorner
}

// newHTree builds the tree for a die of the given core footprint (m^2)
// holding banksPerDie banks over the global wire w. The wire depends only
// on temperature and node, so the caller builds it once per configuration
// (boundContext) and every candidate's tree reuses it.
func newHTree(footprintM2, banksPerDie float64, corner *tech.DeviceCorner, w tech.Wire) htree {
	hops := int(math.Max(2, math.Ceil(math.Log2(math.Max(1, banksPerDie)))+1))
	return htree{root: math.Sqrt(footprintM2), hops: hops, wire: w, corner: corner}
}

// bufferR returns the hop driver resistance at the evaluated corner.
func (h *htree) bufferR() float64 {
	return htreeBufR300 / h.corner.OnCurrentScale
}

// delay returns the one-way traversal delay in seconds.
func (h *htree) delay() float64 {
	r := h.bufferR()
	var d float64
	l := h.root
	for i := 0; i < h.hops; i++ {
		cw := h.wire.Capacitance(l)
		rw := h.wire.Resistance(l)
		d += 0.69*r*(cw+htreeBufCapF) + 0.38*rw*cw
		l /= 2
	}
	d += float64(h.hops) * hopOverheadFO4 * h.corner.FO4Delay
	return d
}

// pathLength returns the total traversed wire length in metres.
func (h *htree) pathLength() float64 {
	var sum float64
	l := h.root
	for i := 0; i < h.hops; i++ {
		sum += l
		l /= 2
	}
	return sum
}

// energyPerBit returns the switching energy of moving one bit one way, with
// a 0.5 activity factor and 40% repeater-capacitance overhead.
func (h *htree) energyPerBit() float64 {
	c := h.wire.Capacitance(h.pathLength()) * 1.4
	v := h.corner.Vdd
	return 0.5 * c * v * v
}

// inBankRoute models the distribution from a bank's port to its mats on the
// intermediate layer: a single weakly-buffered span of the bank's side
// length, whose quadratic RC growth penalizes physically large banks.
type inBankRoute struct {
	length float64
	wire   tech.Wire
	corner *tech.DeviceCorner
}

// newInBankRoute sizes the route for a die core footprint split into
// banksPerDie square banks, over the intermediate wire w (see newHTree).
func newInBankRoute(footprintM2, banksPerDie float64, corner *tech.DeviceCorner, w tech.Wire) inBankRoute {
	bankSide := math.Sqrt(footprintM2 / math.Max(1, banksPerDie))
	return inBankRoute{length: bankSide, wire: w, corner: corner}
}

// delay returns the one-way in-bank routing delay. The span is driven at
// each end and re-buffered once in the middle, halving the quadratic term.
func (r *inBankRoute) delay() float64 {
	half := r.length / 2
	rb := htreeBufR300 / r.corner.OnCurrentScale
	cw := r.wire.Capacitance(half)
	rw := r.wire.Resistance(half)
	per := 0.69*rb*(cw+htreeBufCapF) + 0.38*rw*cw
	return 2 * per
}

// energyPerBit returns the per-bit switching energy of the route.
func (r *inBankRoute) energyPerBit() float64 {
	c := r.wire.Capacitance(r.length) * 1.2
	v := r.corner.Vdd
	return 0.5 * c * v * v
}
