package server

import (
	"crypto/subtle"
	"fmt"
	"net/http"

	"coldtall/internal/cluster"
)

// clusterMaxBody is the body cap for /v1/cluster routes: an ack carries
// one gob-encoded result per leased unit, which can legitimately exceed
// the 1 MiB default on large leases.
const clusterMaxBody = 16 << 20

// Coordinator exposes the cluster coordinator (nil unless
// Config.Coordinator is set) — tests and embedders reach lease state and
// stats through it.
func (s *Server) Coordinator() *cluster.Coordinator { return s.coord }

// workerAuth gates the cluster surface on the shared worker token. An
// empty configured token leaves the surface open (local development).
func (s *Server) workerAuth(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.cfg.WorkerToken != "" {
			got := r.Header.Get(cluster.WorkerTokenHeader)
			if subtle.ConstantTimeCompare([]byte(got), []byte(s.cfg.WorkerToken)) != 1 {
				http.Error(w, "worker token required", http.StatusUnauthorized)
				return
			}
		}
		next.ServeHTTP(w, r)
	})
}

// refreshClusterMetrics projects the coordinator's statistics onto the
// registry at scrape time (the coordinator owns the counters; the
// registry only mirrors them — the same pattern as the store gauges).
func (s *Server) refreshClusterMetrics() {
	if s.coord == nil {
		return
	}
	st := s.coord.Stats()
	reg := s.met.reg
	reg.Gauge("coldtall_cluster_workers", "Worker replicas currently registered.").Set(int64(len(st.Workers)))
	reg.Gauge("coldtall_cluster_workers_registered_total", "Cumulative worker registrations.").Set(st.WorkersRegistered)
	reg.Gauge("coldtall_cluster_workers_lost_total", "Workers deregistered after missing heartbeats.").Set(st.WorkersLost)
	reg.Gauge("coldtall_cluster_runs_active", "Distributed runs currently leasing units.").Set(int64(st.RunsActive))
	reg.Gauge("coldtall_cluster_leases_active", "Leases currently held by workers.").Set(int64(st.LeasesActive))
	reg.Gauge("coldtall_cluster_leases_pending", "Leases waiting to be granted.").Set(int64(st.LeasesPending))
	reg.Gauge("coldtall_cluster_leases_granted_total", "Cumulative lease grants.").Set(st.LeasesGranted)
	reg.Gauge("coldtall_cluster_leases_completed_total", "Leases completed by acks.").Set(st.LeasesCompleted)
	reg.Gauge("coldtall_cluster_leases_expired_total", "Leases expired (TTL or dead worker).").Set(st.LeasesExpired)
	reg.Gauge("coldtall_cluster_leases_requeued_total", "Lease requeues (expiries plus nacks).").Set(st.LeasesRequeued)
	reg.Gauge("coldtall_cluster_leases_adopted_total", "In-flight leases re-adopted across coordinator restarts.").Set(st.LeasesAdopted)
	reg.Gauge("coldtall_cluster_points_total", "Design points characterized by the cluster (one per lease unit).").Set(st.UnitsDone)
	for _, w := range st.Workers {
		reg.Gauge(fmt.Sprintf("coldtall_cluster_worker_points_total{worker=%q}", w.ID),
			"Design points characterized per worker.").Set(w.UnitsDone)
		reg.FGauge(fmt.Sprintf("coldtall_cluster_worker_points_per_second{worker=%q}", w.ID),
			"Per-worker throughput in characterized design points per second since registration.").Set(w.PointsPerSec)
	}
}
