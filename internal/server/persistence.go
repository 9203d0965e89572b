package server

import (
	"bytes"
	"encoding/gob"

	"coldtall/internal/array"
	"coldtall/internal/store"
)

// Store key namespaces: the one disk store backs several in-memory layers,
// and prefixes keep their keyspaces disjoint (the job subsystem claims
// "job|", "jobresult|" and "jobcell|" in internal/job).
const (
	// respPrefix namespaces persisted HTTP response bodies (the response
	// cache's tier).
	respPrefix = "resp|"
	// charPrefix namespaces persisted array characterizations (the
	// characterization cache's tier). The store golden test pins this
	// prefix — changing it orphans every persisted characterization.
	charPrefix = "char|"
)

// respTier adapts the store to the response cache's Tier interface:
// response bodies are stored raw under the resp| namespace, so an entry
// evicted from the LRU — or lost to a restart — is one disk read away
// instead of a recomputation.
type respTier struct{ st *store.Store }

func (t respTier) Load(key string) ([]byte, bool) { return t.st.Get(respPrefix + key) }

func (t respTier) Store(key string, v []byte) {
	// Best-effort by the Tier contract: a failed write costs a future
	// recomputation, nothing else.
	_ = t.st.Put(respPrefix+key, v)
}

// charStore adapts the store to the characterization cache's Tier:
// characterizations are gob-encoded (JSON cannot carry the +Inf retention
// of static cells) under char| + the canonical design-point key, stamped
// with explorer.ModelVersion by the store itself.
type charStore struct{ st *store.Store }

func (c charStore) Load(key string) (array.Result, bool) {
	raw, ok := c.st.Get(charPrefix + key)
	if !ok {
		return array.Result{}, false
	}
	var r array.Result
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&r); err != nil {
		return array.Result{}, false
	}
	return r, true
}

func (c charStore) Store(key string, r array.Result) {
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(r); err != nil {
		return
	}
	_ = c.st.Put(charPrefix+key, b.Bytes())
}
