// Package widget holds one declaration of each case the unused-name scan
// must tell apart. Only Widget.Unused and Gauge.Reset are unused.
package widget

import (
	"fmt"
	"net/http"
)

// Widget is used, and so is its Used method; Unused is called by nothing.
type Widget struct{ n int }

// New returns a Widget.
func New() *Widget { return &Widget{} }

// Used is called by the fixture's main.
func (w *Widget) Used() int { return w.n }

// Unused has no caller.
func (w *Widget) Unused() int { return -w.n }

// Counter's Reset is called by the caller module.
type Counter struct{ n int }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.n = 0 }

// Gauge's Reset shares its name with the live Counter.Reset but has no
// caller of its own.
type Gauge struct{ v float64 }

// Reset zeroes the gauge.
func (g *Gauge) Reset() { g.v = 0 }

// Value is called by the fixture's main.
func (g *Gauge) Value() float64 { return g.v }

// failure's Error is reached only through the error interface.
type failure struct{}

func (failure) Error() string { return "failure" }

// Describe returns an error.
func Describe() error { return failure{} }

// label's String is reached only through fmt.Stringer.
type label string

func (l label) String() string { return string(l) }

// Label returns a label.
func Label() fmt.Stringer { return label("fixture") }

// flushWriter's Flush is reached only through http.Flusher.
type flushWriter struct{ http.ResponseWriter }

func (flushWriter) Flush() {}

// Wrap returns a flushing writer.
func Wrap(w http.ResponseWriter) http.ResponseWriter { return flushWriter{w} }

// Tier is a generic interface.
type Tier[K comparable, V any] interface {
	Load(key K) (V, bool)
}

// mapTier's Load is reached only through Tier[string, int].
type mapTier map[string]int

func (m mapTier) Load(key string) (int, bool) {
	v, ok := m[key]
	return v, ok
}

// NewTier returns a tier.
func NewTier() Tier[string, int] { return mapTier{} }

// box is generic; its String is reached only through fmt.Stringer on the
// box[int] instance.
type box[T any] struct{ v T }

func (b box[T]) String() string { return fmt.Sprint(b.v) }

// Box returns a boxed int.
func Box() fmt.Stringer { return box[int]{v: 1} }
