package main

import (
	"errors"
	"io"

	"coldtall/internal/sim"
	"coldtall/internal/trace"
)

// replay feeds a hierarchy from the textual trace format, access by
// access — the serial reference path the tests and the fuzz harness drive
// directly; run() goes through sim.Replayer with format autodetection
// instead.
func replay(h *sim.Hierarchy, r io.Reader) (int, error) {
	tr := trace.NewTextReader(r)
	n := 0
	for {
		a, err := tr.Next()
		if errors.Is(err, io.EOF) {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		h.Access(a)
		n++
	}
}
