package coldtall

import "testing"

// TestArtifactPointsMatchBuild: tenant admission prices an artifact job at
// len(ArtifactPoints(name)) evaluations, so for every registry artifact
// that count must equal the optimizer searches a build runs on a fresh
// study.
func TestArtifactPointsMatchBuild(t *testing.T) {
	for _, name := range Artifacts().Names() {
		s := NewStudy()
		if _, err := s.ArtifactTable(name); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := len(ArtifactPoints(name)), s.Explorer().OptimizeCalls(); int64(got) != want {
			t.Errorf("%s: ArtifactPoints lists %d points, a build runs %d searches", name, got, want)
		}
	}
}
