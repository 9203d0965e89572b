package server

import "coldtall/internal/store"

// respPrefix namespaces persisted HTTP response bodies (the response
// cache's tier). The one disk store backs several layers, and prefixes
// keep their keyspaces disjoint: internal/job claims "job|", "jobresult|"
// and the characterization tier's "char|".
const respPrefix = "resp|"

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
