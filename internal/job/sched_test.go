package job

import (
	"errors"
	"sync"
	"testing"
	"time"

	"coldtall/internal/explorer"
)

// qjob builds a queue-only job for direct scheduler tests.
func qjob(kind, tenant string, total int) *Job {
	return &Job{spec: Spec{Kind: kind}, tenant: tenant, total: total, fin: make(chan struct{})}
}

// pickAll drains the scheduler one slot at a time, returning the tenant
// dispatch order.
func pickAll(s *scheduler) []string {
	var order []string
	for {
		j := s.pick()
		if j == nil {
			return order
		}
		order = append(order, j.tenant)
		s.done()
	}
}

func TestSchedulerWeightedShare(t *testing.T) {
	weights := map[string]float64{"alice": 4, "bob": 1}
	s := newScheduler(1, func(name string) float64 { return weights[name] })
	// Equal-cost bulk jobs (one full 64-cell quantum each) from both
	// tenants: a 4x weight must earn a 4:1 dispatch share.
	for i := 0; i < 5; i++ {
		s.add(qjob(KindSweep, "alice", 64))
		s.add(qjob(KindSweep, "bob", 64))
	}
	order := pickAll(s)
	want := []string{"alice", "alice", "alice", "alice", "bob"}
	for i, name := range want {
		if order[i] != name {
			t.Fatalf("dispatch order = %v, want prefix %v (4:1 weighted share)", order, want)
		}
	}
	if len(order) != 10 {
		t.Fatalf("dispatched %d jobs, want all 10", len(order))
	}
}

func TestSchedulerInteractiveBeforeBulk(t *testing.T) {
	s := newScheduler(1, nil)
	bulk1 := qjob(KindSweep, "alice", 64)
	inter := qjob(KindEvaluate, "alice", 1)
	bulk2 := qjob(KindArtifact, "alice", 1)
	s.add(bulk1)
	s.add(inter)
	s.add(bulk2)

	got := []*Job{s.pick()}
	s.done()
	got = append(got, s.pick())
	s.done()
	got = append(got, s.pick())
	s.done()
	if got[0] != inter || got[1] != bulk1 || got[2] != bulk2 {
		t.Fatalf("dispatch order = [%s %s %s], want interactive first then bulk in order",
			got[0].spec.Kind, got[1].spec.Kind, got[2].spec.Kind)
	}
}

func TestSchedulerSlotCapAndRemove(t *testing.T) {
	s := newScheduler(1, nil)
	a, b := qjob(KindSweep, "", 1), qjob(KindSweep, "", 1)
	s.add(a)
	s.add(b)
	first := s.pick()
	if first == nil {
		t.Fatal("pick returned nil with queued work and a free slot")
	}
	if s.pick() != nil {
		t.Fatal("pick exceeded MaxConcurrent")
	}
	second := b
	if first == b {
		second = a
	}
	if !s.remove(second) {
		t.Fatal("remove failed for a queued job")
	}
	if s.remove(first) {
		t.Fatal("remove succeeded for a dispatched job")
	}
	s.done()
	if s.pick() != nil {
		t.Fatal("removed job was still dispatched")
	}
}

// blockingManager builds a MaxConcurrent=1 manager whose characterization
// lookups block on the returned gate, so tests control exactly when the
// running job finishes and the next dispatch happens.
func blockingManager(t *testing.T, opts Options) (*Manager, chan struct{}, *[]string, *sync.Mutex) {
	t.Helper()
	gate := make(chan struct{})
	var mu sync.Mutex
	var started []string
	prev := opts.OnTransition
	opts.OnTransition = func(id string, from, to State) {
		if to == StateRunning {
			mu.Lock()
			started = append(started, id)
			mu.Unlock()
		}
		if prev != nil {
			prev(id, from, to)
		}
	}
	if opts.MaxConcurrent == 0 {
		opts.MaxConcurrent = 1
	}
	m := newTestManager(t, opts)
	m.study.Explorer().SetPersistence(newGateTier(gate))
	return m, gate, &started, &mu
}

func TestInteractiveDequeuesAheadOfQueuedBulk(t *testing.T) {
	m, gate, started, mu := blockingManager(t, Options{})

	// Bulk A occupies the single slot; bulk B queues behind it; then the
	// interactive evaluate I arrives last. Fair dispatch must run I
	// before B once A's slot frees.
	a, _, err := m.SubmitAs(Spec{Kind: KindSweep, Points: []explorer.PointSpec{{Cell: "SRAM"}}, Benchmarks: []string{"namd"}}, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := m.SubmitAs(Spec{Kind: KindSweep, Points: []explorer.PointSpec{{Cell: "SRAM", TemperatureK: 77}}, Benchmarks: []string{"namd"}}, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	i, _, err := m.SubmitAs(Spec{Kind: KindEvaluate, Points: []explorer.PointSpec{{Cell: "3T-eDRAM"}}, Benchmarks: []string{"namd"}}, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := m.Get(b.ID); st.State != StateQueued {
		t.Fatalf("bulk B state = %s, want queued behind the busy slot", st.State)
	}
	close(gate)
	waitDone(t, m, a.ID)
	waitDone(t, m, b.ID)
	waitDone(t, m, i.ID)

	mu.Lock()
	order := append([]string(nil), *started...)
	mu.Unlock()
	if len(order) != 3 || order[0] != a.ID || order[1] != i.ID || order[2] != b.ID {
		t.Fatalf("running order = %v, want [%s %s %s] (interactive ahead of queued bulk)", order, a.ID, i.ID, b.ID)
	}
}

// TestFairMatchesFIFOByteIdentical is the scheduler differential: every
// job of a single-tenant batch dispatched by fair share must produce the
// bytes the same spec produces alone on a fresh manager. A one-job queue
// is FIFO, so the scheduler may reorder starts, never bytes.
func TestFairMatchesFIFOByteIdentical(t *testing.T) {
	specs := []Spec{
		{Kind: KindSweep, Points: []explorer.PointSpec{{Cell: "SRAM"}, {Cell: "SRAM", TemperatureK: 77}}, Benchmarks: []string{"namd"}},
		{Kind: KindCharacterize, Points: []explorer.PointSpec{{Cell: "3T-eDRAM"}}},
		{Kind: KindEvaluate, Points: []explorer.PointSpec{{Cell: "SRAM"}}, Benchmarks: []string{"mcf"}},
		{Kind: KindArtifact, Artifact: "table1"},
	}
	result := func(m *Manager, id string) []byte {
		waitDone(t, m, id)
		body, _, ok := m.Result(id)
		if !ok {
			t.Fatalf("%s: no result", id)
		}
		return body
	}
	fair := newTestManager(t, Options{MaxConcurrent: 1})
	var ids []string
	for _, sp := range specs {
		st, _, err := fair.SubmitAs(sp, "", 0)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	for i, sp := range specs {
		got := result(fair, ids[i])
		alone := newTestManager(t, Options{MaxConcurrent: 1})
		st, _, err := alone.SubmitAs(sp, "", 0)
		if err != nil {
			t.Fatal(err)
		}
		if want := result(alone, st.ID); string(got) != string(want) {
			t.Errorf("job %s (%s): fair result diverges from the job run alone\nalone: %s\nfair:  %s", ids[i], sp.Kind, want, got)
		}
	}
}

func TestSubmitAsQuota(t *testing.T) {
	m, gate, _, _ := blockingManager(t, Options{})
	defer close(gate)

	specA := Spec{Kind: KindSweep, Points: []explorer.PointSpec{{Cell: "SRAM"}}, Benchmarks: []string{"namd"}}
	specB := Spec{Kind: KindSweep, Points: []explorer.PointSpec{{Cell: "SRAM", TemperatureK: 77}}, Benchmarks: []string{"namd"}}

	st, created, err := m.SubmitAs(specA, "alice", 1)
	if err != nil || !created {
		t.Fatalf("first SubmitAs: created=%v err=%v", created, err)
	}
	if st.Tenant != "alice" {
		t.Fatalf("status tenant = %q, want alice", st.Tenant)
	}
	if _, _, err := m.SubmitAs(specB, "alice", 1); !errors.Is(err, ErrQuota) {
		t.Fatalf("over-quota SubmitAs err = %v, want ErrQuota", err)
	}
	// Idempotent resubmission of live work never trips the quota.
	st2, created, err := m.SubmitAs(specA, "alice", 1)
	if err != nil || created || st2.ID != st.ID {
		t.Fatalf("duplicate SubmitAs: st=%+v created=%v err=%v", st2, created, err)
	}
	// Another tenant has its own quota.
	if _, created, err := m.SubmitAs(specB, "bob", 1); err != nil || !created {
		t.Fatalf("bob SubmitAs: created=%v err=%v", created, err)
	}
}

func TestCancelQueuedJobNeverRuns(t *testing.T) {
	m, gate, started, mu := blockingManager(t, Options{})
	defer close(gate)

	a, _, err := m.SubmitAs(Spec{Kind: KindSweep, Points: []explorer.PointSpec{{Cell: "SRAM"}}, Benchmarks: []string{"namd"}}, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := m.SubmitAs(Spec{Kind: KindSweep, Points: []explorer.PointSpec{{Cell: "SRAM", TemperatureK: 77}}, Benchmarks: []string{"namd"}}, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Cancel(b.ID) {
		t.Fatal("Cancel reported unknown job")
	}
	st := waitDone(t, m, b.ID)
	if st.State != StateCancelled {
		t.Fatalf("queued job state after cancel = %s, want cancelled", st.State)
	}
	mu.Lock()
	for _, id := range *started {
		if id == b.ID {
			mu.Unlock()
			t.Fatal("cancelled queued job still ran")
		}
	}
	mu.Unlock()
	_ = a
}

func TestListPageFilterAndCursor(t *testing.T) {
	m := newTestManager(t, Options{MaxConcurrent: 1})
	cells := []string{"SRAM", "3T-eDRAM", "1T1C-eDRAM"}
	var ids []string
	for _, cell := range cells {
		st, _, err := m.SubmitAs(Spec{Kind: KindSweep, Points: []explorer.PointSpec{{Cell: cell}}, Benchmarks: []string{"namd"}}, "", 0)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		waitDone(t, m, id)
	}

	page1, next := m.ListPage(ListQuery{Limit: 2})
	if len(page1) != 2 || next == "" {
		t.Fatalf("page1 = %d jobs, next = %q; want 2 jobs and a cursor", len(page1), next)
	}
	page2, next2 := m.ListPage(ListQuery{Limit: 2, Cursor: next})
	if len(page2) != 1 || next2 != "" {
		t.Fatalf("page2 = %d jobs, next = %q; want the final job and no cursor", len(page2), next2)
	}
	if page1[0].ID >= page1[1].ID || page1[1].ID >= page2[0].ID {
		t.Fatal("pages are not in ascending ID order")
	}

	done, _ := m.ListPage(ListQuery{State: StateDone})
	if len(done) != 3 {
		t.Fatalf("state=done filter returned %d jobs, want 3", len(done))
	}
	failed, _ := m.ListPage(ListQuery{State: StateFailed})
	if len(failed) != 0 {
		t.Fatalf("state=failed filter returned %d jobs, want 0", len(failed))
	}
}

func TestSubscribeStreamsToTerminal(t *testing.T) {
	m := newTestManager(t, Options{})
	st, _, err := m.SubmitAs(sweepSpec(), "", 0)
	if err != nil {
		t.Fatal(err)
	}
	sub, ok := m.Subscribe(st.ID)
	if !ok {
		t.Fatal("Subscribe failed for a known job")
	}
	defer sub.Close()

	deadline := time.After(2 * time.Minute)
	var last Status
	got := 0
	for {
		select {
		case s := <-sub.C:
			last, got = s, got+1
			if s.State.Terminal() {
				if s.State != StateDone {
					t.Fatalf("terminal state = %s, want done", s.State)
				}
				if got < 1 {
					t.Fatal("no snapshots before terminal")
				}
				return
			}
		case <-sub.Done():
			// Terminal reached; the final status is in the channel or
			// readable directly.
			select {
			case s := <-sub.C:
				last = s
			default:
				last = sub.Status()
			}
			if !last.State.Terminal() {
				t.Fatalf("after Done, state = %s, want terminal", last.State)
			}
			return
		case <-deadline:
			t.Fatalf("no terminal snapshot; last = %+v after %d receives", last, got)
		}
	}
}

func TestSubscribeUnknownJob(t *testing.T) {
	m := newTestManager(t, Options{})
	if _, ok := m.Subscribe("jdeadbeef"); ok {
		t.Fatal("Subscribe succeeded for an unknown job")
	}
}
