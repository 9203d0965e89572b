package ingest

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"testing"

	"coldtall/internal/signature"
	"coldtall/internal/store"
	"coldtall/internal/trace"
	"coldtall/internal/workload"
)

func TestUploadsAppendAssemble(t *testing.T) {
	st := testStore(t)
	u := NewUploads(st)

	payload := bytes.Repeat([]byte("0123456789abcdef"), 1000)
	var off int64
	for len(payload[off:]) > 0 {
		n := int64(5000)
		if rem := int64(len(payload)) - off; rem < n {
			n = rem
		}
		next, err := u.Append("up", off, payload[off:off+n])
		if err != nil {
			t.Fatal(err)
		}
		if next != off+n {
			t.Fatalf("Append returned offset %d, want %d", next, off+n)
		}
		off = next
	}
	got, err := u.Assemble("up")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("assembled bytes differ from the appended stream")
	}
	if o, err := u.Offset("up"); err != nil || o != int64(len(payload)) {
		t.Fatalf("Offset = %d, %v", o, err)
	}
	if err := u.Discard("up"); err != nil {
		t.Fatal(err)
	}
	if o, _ := u.Offset("up"); o != 0 {
		t.Fatalf("offset after discard = %d", o)
	}
	// Discard dropped the chunk bytes too.
	chunks := 0
	st.Walk(ChunkKeyPrefix, func(string, []byte) error {
		chunks++
		return nil
	})
	if chunks != 0 {
		t.Fatalf("%d chunk entries survived discard", chunks)
	}
}

func TestUploadsOffsetMismatch(t *testing.T) {
	u := NewUploads(testStore(t))
	if _, err := u.Append("up", 0, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	// Retransmitting the same chunk (stale offset) is rejected with the
	// current offset, so the client can resume rather than duplicate.
	_, err := u.Append("up", 0, []byte("hello"))
	var oe *OffsetError
	if !errors.As(err, &oe) {
		t.Fatalf("want *OffsetError, got %v", err)
	}
	if oe.Want != 5 || oe.Got != 0 {
		t.Fatalf("offset error = %+v", oe)
	}
	// Skipping ahead is rejected the same way.
	if _, err := u.Append("up", 100, []byte("x")); !errors.As(err, &oe) {
		t.Fatalf("gap append: %v", err)
	}
	// Empty chunks are rejected outright.
	if _, err := u.Append("up", 5, nil); err == nil {
		t.Fatal("empty chunk accepted")
	}
}

// TestUploadsResumeAcrossReopen simulates the kill-and-resume flow: the
// store is reopened (a new process) and the upload continues from the
// persisted offset, assembling to the same bytes — and the ingested trace
// content address matches a one-shot upload of the same payload.
func TestUploadsResumeAcrossReopen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	open := func() *store.Store {
		st, err := store.Open(dir, store.Options{Version: "test-v1"})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	g, err := trace.NewStream(trace.Region{Base: 0, Size: 32 << 20}, 1, 0.25, 3)
	if err != nil {
		t.Fatal(err)
	}
	accesses := trace.Collect(g, 60000)
	payload := trace.EncodeBinary(accesses)
	half := len(payload) / 2

	st := open()
	u := NewUploads(st)
	if _, err := u.Append("resumed", 0, payload[:half]); err != nil {
		t.Fatal(err)
	}
	// "Crash": drop the handles and reopen the store fresh.
	st.Close()
	st = open()
	u = NewUploads(st)
	off, err := u.Offset("resumed")
	if err != nil {
		t.Fatal(err)
	}
	if off != int64(half) {
		t.Fatalf("resume offset = %d, want %d", off, half)
	}
	if _, err := u.Append("resumed", off, payload[half:]); err != nil {
		t.Fatal(err)
	}
	assembled, err := u.Assemble("resumed")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(assembled, payload) {
		t.Fatal("resumed assembly differs from the original payload")
	}

	// The assembled payload ingests to the same trace content address as
	// a direct upload.
	direct, err := Run(context.Background(), Spec{Name: "direct", Trace: payload},
		Options{Workloads: workload.NewRegistry(), Sigs: signature.NewIndex()})
	if err != nil {
		t.Fatal(err)
	}
	viaChunks, err := Run(context.Background(), Spec{Name: "resumed", Trace: assembled},
		Options{Workloads: workload.NewRegistry(), Sigs: signature.NewIndex()})
	if err != nil {
		t.Fatal(err)
	}
	if direct.Source.TraceSHA256 != viaChunks.Source.TraceSHA256 {
		t.Fatal("chunked upload content-addresses differently from a direct upload")
	}
}

func TestUploadsDiscardKeepsSharedChunks(t *testing.T) {
	st := testStore(t)
	u := NewUploads(st)
	shared := bytes.Repeat([]byte("s"), 1024)
	if _, err := u.Append("a", 0, shared); err != nil {
		t.Fatal(err)
	}
	if _, err := u.Append("b", 0, shared); err != nil {
		t.Fatal(err)
	}
	if err := u.Discard("a"); err != nil {
		t.Fatal(err)
	}
	// b still assembles: its (shared, content-addressed) chunk survived.
	got, err := u.Assemble("b")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, shared) {
		t.Fatal("shared chunk lost with the discarded upload")
	}
}
