package job

import "sync"

// drrQuantum is the deficit credit (in estimated cells) a tenant of
// weight 1 earns per round-robin visit. One quantum covers a full
// sweepGridLimit row, so small jobs dispatch on their first visit and a
// tenant queueing maximal grids still starts one within a bounded
// number of rounds.
const drrQuantum = 64

// schedCostCap bounds one job's deficit cost. Ingest jobs measure
// progress in trace accesses (millions), which would starve their
// tenant for hours of credit; a cap keeps costs in the same order of
// magnitude as sweep grids.
const schedCostCap = 4096

// scheduler owns the queued-job pool and the running-slot count. Jobs
// enter via add, leave via pick (to run) or remove (cancelled while
// queued). Dispatch policy: strict priority across classes (interactive
// before bulk), deficit round-robin across tenants within a class.
type scheduler struct {
	max    int
	weight func(tenant string) float64

	mu      sync.Mutex
	running int
	classes [2]classQueue // [interactive, bulk]
}

// classQueue is one priority class's per-tenant queue set with DRR
// state. Tenants appear in order while they have queued jobs and are
// removed (deficit forgotten) when their queue drains, so an idle
// tenant cannot bank credit.
type classQueue struct {
	tenants map[string]*tenantQueue
	order   []string
	next    int
}

type tenantQueue struct {
	jobs    []*Job
	deficit float64
}

func newScheduler(max int, weight func(string) float64) *scheduler {
	if max < 1 {
		max = 1
	}
	if weight == nil {
		weight = func(string) float64 { return 1 }
	}
	s := &scheduler{max: max, weight: weight}
	for i := range s.classes {
		s.classes[i].tenants = map[string]*tenantQueue{}
	}
	return s
}

func classIndex(c Class) int {
	if c == ClassInteractive {
		return 0
	}
	return 1
}

// schedCost estimates a job's dispatch cost in cells for DRR accounting.
func schedCost(j *Job) float64 {
	j.mu.Lock()
	total := j.total
	j.mu.Unlock()
	if total < 1 {
		total = 1
	}
	if total > schedCostCap {
		total = schedCostCap
	}
	return float64(total)
}

// add enqueues a job.
func (s *scheduler) add(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cq := &s.classes[classIndex(j.spec.Class())]
	tq, ok := cq.tenants[j.tenant]
	if !ok {
		tq = &tenantQueue{}
		cq.tenants[j.tenant] = tq
		cq.order = append(cq.order, j.tenant)
	}
	tq.jobs = append(tq.jobs, j)
}

// pick claims one job and a running slot, or returns nil when every
// slot is busy or nothing is queued. The caller must pair a non-nil
// pick with exactly one later done().
func (s *scheduler) pick() *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.running >= s.max {
		return nil
	}
	for i := range s.classes {
		if j := s.classes[i].pick(s.weight); j != nil {
			s.running++
			return j
		}
	}
	return nil
}

// pick runs the DRR rotation: visit tenants in order, crediting
// quantum x weight per visit, and dispatch the first head-of-queue job
// its tenant's deficit affords. Costs are capped at schedCostCap, so
// the rotation terminates within cost/quantum full rounds.
func (cq *classQueue) pick(weight func(string) float64) *Job {
	if len(cq.order) == 0 {
		return nil
	}
	for {
		if cq.next >= len(cq.order) {
			cq.next = 0
		}
		name := cq.order[cq.next]
		tq := cq.tenants[name]
		if cost := schedCost(tq.jobs[0]); tq.deficit >= cost {
			j := tq.jobs[0]
			tq.jobs = tq.jobs[1:]
			tq.deficit -= cost
			if len(tq.jobs) == 0 {
				cq.drop(cq.next)
			}
			return j
		}
		w := weight(name)
		if w <= 0 {
			w = 1
		}
		tq.deficit += drrQuantum * w
		cq.next++
	}
}

// drop removes the tenant at order index i, keeping the rotation cursor
// on the element that followed it.
func (cq *classQueue) drop(i int) {
	delete(cq.tenants, cq.order[i])
	cq.order = append(cq.order[:i], cq.order[i+1:]...)
	if cq.next > i {
		cq.next--
	}
}

// done releases a running slot.
func (s *scheduler) done() {
	s.mu.Lock()
	s.running--
	s.mu.Unlock()
}

// remove withdraws a still-queued job (cancellation). It reports false
// when the job is not queued — already picked, running, or finished.
func (s *scheduler) remove(j *Job) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := range s.classes {
		cq := &s.classes[c]
		for i, name := range cq.order {
			tq := cq.tenants[name]
			for k, q := range tq.jobs {
				if q != j {
					continue
				}
				tq.jobs = append(tq.jobs[:k], tq.jobs[k+1:]...)
				if len(tq.jobs) == 0 {
					cq.drop(i)
				}
				return true
			}
		}
	}
	return false
}

// drainAll empties every queue and returns the withdrawn jobs so
// shutdown can transition them to a terminal state.
func (s *scheduler) drainAll() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*Job
	for c := range s.classes {
		cq := &s.classes[c]
		for _, name := range cq.order {
			out = append(out, cq.tenants[name].jobs...)
		}
		cq.tenants = map[string]*tenantQueue{}
		cq.order = nil
		cq.next = 0
	}
	return out
}
