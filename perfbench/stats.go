package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// setupRounds is how many times serve_mix and ingest_replay set up in one
// run; setup_s is the median, so one slow start does not set it.
const setupRounds = 9

// tailQuantile is the percentile op_tail_ms reports on every workload.
// It is fixed, not derived from the sample count, so a change that fits
// more operations into a run is compared at the same percentile. A 20 s
// run leaves about 5 exports, 10 uploads or (per window) 10 requests
// beyond it.
const tailQuantile = 0.9

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ms converts a duration to milliseconds with its full nanosecond digits.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
