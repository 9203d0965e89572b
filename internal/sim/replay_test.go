package sim

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"coldtall/internal/trace"
)

// testAccesses builds a deterministic mixed-locality stream big enough to
// fill the hierarchy and force evictions/writebacks in every level.
func testAccesses(t testing.TB, n int) []trace.Access {
	t.Helper()
	zipf, err := trace.NewZipf(trace.Region{Base: 0, Size: 48 << 20}, 1.2, 0.35, 11)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := trace.NewStream(trace.Region{Base: 1 << 30, Size: 24 << 20}, 1, 0.5, 12)
	if err != nil {
		t.Fatal(err)
	}
	chase, err := trace.NewPointerChase(trace.Region{Base: 1 << 33, Size: 12 << 20}, 0.1, 13)
	if err != nil {
		t.Fatal(err)
	}
	mix, err := trace.NewMixture([]trace.Generator{zipf, stream, chase}, []float64{2, 1, 1}, 14)
	if err != nil {
		t.Fatal(err)
	}
	return trace.Collect(mix, n)
}

// serialSnapshot replays through a plain Hierarchy — the reference
// semantics the Replayer must reproduce bit for bit.
func serialSnapshot(t testing.TB, cfg HierarchyConfig, accesses []trace.Access) HierarchyStats {
	t.Helper()
	h, err := NewHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range accesses {
		h.Access(a)
	}
	return h.Snapshot()
}

// TestShardedChunkedReplayInvariant: replaying a stream in uneven chunks
// counts exactly what one whole-stream call counts, and the observer sees
// every access once, in stream order.
func TestShardedChunkedReplayInvariant(t *testing.T) {
	cfg := TableIConfig()
	accesses := testAccesses(t, 50000)

	whole, err := NewReplayer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := whole.Replay(context.Background(), accesses); err != nil {
		t.Fatal(err)
	}

	chunked, err := NewReplayer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var observed []trace.Access
	chunked.SetObserver(func(a trace.Access) { observed = append(observed, a) })
	for off := 0; off < len(accesses); off += 7777 {
		end := off + 7777
		if end > len(accesses) {
			end = len(accesses)
		}
		if err := chunked.Replay(context.Background(), accesses[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(whole.Snapshot(), chunked.Snapshot()) {
		t.Fatal("chunked replay diverges from whole-batch replay")
	}
	if !reflect.DeepEqual(observed, accesses) {
		t.Fatalf("observer saw %d accesses out of stream order, want the %d replayed", len(observed), len(accesses))
	}
}

func TestReplayReaderMatchesSerial(t *testing.T) {
	cfg := TableIConfig()
	accesses := testAccesses(t, 30000)
	want := serialSnapshot(t, cfg, accesses)

	s, err := NewReplayer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var last uint64
	calls := 0
	stream := bytes.NewReader(trace.EncodeBinary(accesses))
	n, err := s.ReplayReader(context.Background(), trace.NewBinaryReader(stream), 4096, func(done uint64) {
		if done <= last {
			t.Fatalf("progress not monotone: %d after %d", done, last)
		}
		last = done
		calls++
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != uint64(len(accesses)) || last != n {
		t.Fatalf("replayed %d accesses (final progress %d), want %d", n, last, len(accesses))
	}
	if calls < 2 {
		t.Fatalf("expected chunked progress callbacks, got %d", calls)
	}
	if got := s.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("ReplayReader stats diverge from serial:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestShardedCancellation(t *testing.T) {
	s, err := NewReplayer(TableIConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Replay(ctx, testAccesses(t, 20000)); err == nil {
		t.Fatal("want cancellation error")
	}
}

func TestSnapshotSub(t *testing.T) {
	cfg := TableIConfig()
	accesses := testAccesses(t, 40000)
	warm := len(accesses) / 4

	s, err := NewReplayer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Replay(context.Background(), accesses[:warm]); err != nil {
		t.Fatal(err)
	}
	at := s.Snapshot()
	if err := s.Replay(context.Background(), accesses[warm:]); err != nil {
		t.Fatal(err)
	}
	window := s.Snapshot().Sub(at)
	if got, want := window.Accesses, uint64(len(accesses)-warm); got != want {
		t.Fatalf("window covers %d accesses, want %d", got, want)
	}
	if window.LLC().Accesses() == 0 {
		t.Fatal("measurement window saw no LLC traffic")
	}
}

// TestNewShardedShardCounts pins the compatibility constructor: shard
// counts 0 and 1 build the serial replayer, any other count is rejected.
func TestNewShardedShardCounts(t *testing.T) {
	cfg := TableIConfig()
	accesses := testAccesses(t, 20000)
	want := serialSnapshot(t, cfg, accesses)
	for _, shards := range []int{0, 1} {
		s, err := NewSharded(cfg, shards, 4)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if err := s.Replay(context.Background(), accesses); err != nil {
			t.Fatal(err)
		}
		if got := s.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d: stats diverge from serial:\ngot  %+v\nwant %+v", shards, got, want)
		}
	}
	for _, shards := range []int{-1, 2, 3, 16} {
		if _, err := NewSharded(cfg, shards, 1); err == nil {
			t.Errorf("shards=%d accepted", shards)
		}
	}
}
