// Package cluster is the distributed characterization subsystem: a
// coordinator that leases the array characterizations of sweep and
// artifact jobs, as family-contiguous ranges of design points, to N
// stateless worker replicas over HTTP.
//
// Protocol (JSON envelopes under /v1/cluster/, gob payloads inside):
//
//	POST /v1/cluster/register   worker joins; answers its ID and the
//	                            heartbeat/poll cadence
//	POST /v1/cluster/heartbeat  liveness ping
//	POST /v1/cluster/lease      pull one lease (204 when no work is ready)
//	POST /v1/cluster/ack        return a lease's results (or a failure)
//	GET  /v1/cluster/status     worker table + lease statistics (JSON)
//
// Design points and results travel as gob blobs (base64 inside the JSON
// envelopes): the cell model carries +Inf endurance, which JSON cannot
// encode, and gob is already the checkpoint encoding of the job layer.
//
// The characterization is the lease unit. A unit is one design point,
// keyed by its characterization key, and its result is the point's
// array.Result: the output of array.Optimize, which never reads cooling
// or workload. So workers need no environment from the coordinator and
// resolve nothing (not even ingested workload names) locally. Everything
// downstream of a characterization (evaluation under a workload and a
// cooler, `jobcell|` checkpoints, rendering) stays with the job manager
// on the coordinator, which seeds each landed result into its explorer
// cache. Each uncached point is therefore optimized once, on one worker.
// Worker crashes and lease expiries requeue the lease; coordinator
// restarts resume from the job layer's checkpoints plus the persisted
// lease tables. Results are byte-identical to local computation
// (array.Optimize is deterministic and workers run the same physics),
// which the differential tests pin.
package cluster

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"runtime"
)

// WorkerTokenHeader carries the shared worker auth token on every cluster
// request when the coordinator requires one.
const WorkerTokenHeader = "X-Coldtall-Worker-Token"

// RegisterRequest is a worker joining (or re-joining) the cluster.
type RegisterRequest struct {
	// Name is an optional stable display name; the coordinator always
	// assigns the authoritative worker ID.
	Name string `json:"name,omitempty"`
	// Version is the worker binary's explorer.ModelVersion. The
	// coordinator rejects mismatches: a worker under different physics
	// would silently break the byte-identity invariant.
	Version string `json:"version"`
}

// RegisterResponse tells the worker who it is and how often to check in.
type RegisterResponse struct {
	WorkerID string `json:"worker_id"`
	// HeartbeatMS and PollMS are the coordinator's suggested cadences:
	// how often to heartbeat while computing, and how often to re-poll
	// for a lease when none is ready.
	HeartbeatMS int64 `json:"heartbeat_ms"`
	PollMS      int64 `json:"poll_ms"`
}

// HeartbeatRequest is a liveness ping.
type HeartbeatRequest struct {
	WorkerID string `json:"worker_id"`
}

// LeaseRequest pulls one lease for a registered worker.
type LeaseRequest struct {
	WorkerID string `json:"worker_id"`
}

// Unit is one leased design point: its characterization key plus the
// gob-encoded explorer.DesignPoint to characterize.
type Unit struct {
	Key     string `json:"key"`
	Payload []byte `json:"payload"`
}

// Lease is one granted range of units. Units arrive in family-contiguous,
// (dies, temperature)-sorted order — the same schedule the in-process
// sweep dispatches — so a worker characterizing them serially rides the
// array layer's rankingMemo warm starts.
type Lease struct {
	ID    string `json:"id"`
	Job   string `json:"job"`
	Units []Unit `json:"units"`
	// TTLMS is how long the worker holds the lease before the
	// coordinator expires and requeues it.
	TTLMS int64 `json:"ttl_ms"`
}

// AckRequest returns a lease's outcome: one gob array.Result per unit in
// lease order, or a failure message (the coordinator requeues failed leases
// with capped backoff).
type AckRequest struct {
	WorkerID string   `json:"worker_id"`
	LeaseID  string   `json:"lease_id"`
	Results  [][]byte `json:"results,omitempty"`
	Error    string   `json:"error,omitempty"`
}

// AckResponse reports how the ack landed: "ok" for the first delivery,
// "duplicate" for an idempotent re-delivery of an already-completed lease.
type AckResponse struct {
	Status string `json:"status"`
}

// encodeGob/decodeGob are the little codec helpers every payload shares.
func encodeGob(v any) ([]byte, error) {
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(v); err != nil {
		return nil, fmt.Errorf("cluster: encode: %w", err)
	}
	return b.Bytes(), nil
}

func decodeGob(raw []byte, out any) error {
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(out); err != nil {
		return fmt.Errorf("cluster: decode: %w", err)
	}
	return nil
}

// DefaultLeaseUnits sizes leases for the coordinator's host, mirroring
// the one-core degradation of the worker pool and the sharded replayer:
// on a single-core coordinator, leases are effectively whole families
// (serial dispatch — one worker streams a family end to end, maximizing
// warm starts and minimizing round trips); with real cores, leases chunk
// to a few units per core so multiple workers interleave.
func DefaultLeaseUnits() int {
	if cores := runtime.GOMAXPROCS(0); cores > 1 {
		return 4 * cores
	}
	return math.MaxInt32 // family boundaries still cap every lease
}
