package workload

import (
	"testing"

	"coldtall/internal/trace"
)

var sinkAccess trace.Access

// BenchmarkProfileGenerators times each built-in profile's stand-in
// stream, ns per generated access, and the generator build (build/<name>):
// the draws behind every signature fold and generator window, and the
// cost of one Profile.Generator call, which reuses a Zipf table an
// earlier build of the same hot set and skew left in the process memo.
func BenchmarkProfileGenerators(b *testing.B) {
	for _, p := range Profiles() {
		b.Run(p.Name, func(b *testing.B) {
			g, err := p.Generator(1)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkAccess = g.Next()
			}
		})
	}
	for _, p := range Profiles() {
		b.Run("build/"+p.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := p.Generator(int64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
