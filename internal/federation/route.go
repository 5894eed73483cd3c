package federation

import (
	"fmt"
	"math/rand"
	"sort"

	"elastichpc/internal/model"
	"elastichpc/internal/workload"
)

// Route selects how jobs are distributed across member clusters.
type Route int

// Routing policies.
const (
	// RoundRobin deals jobs to members in submission order, one each —
	// the contention-free baseline every other route is judged against.
	RoundRobin Route = iota
	// LeastLoaded sends each job to the member with the lowest estimated
	// waiting cost at the job's submission instant: the member's booked
	// backlog drain time on its own machine model, an M/G/1 queueing-delay
	// term from its arrival history, and the job's own modelled service
	// time on that member's hardware — evaluated against the capacity the
	// member's availability trace actually delivers at that instant, so
	// known drain windows are dodged. Ties go to the lowest member index.
	LeastLoaded
	// PriorityAware routes high-priority jobs (DefaultHighPriority and
	// above) to the least-contended member and deals the rest round-robin,
	// keeping the fleet's fast lanes clear for urgent work.
	PriorityAware
	// Random picks a member uniformly at random from Config.RouteSeed —
	// the stochastic baseline; deterministic per seed.
	Random
)

// AllRoutes lists the routing policies in presentation order.
func AllRoutes() []Route { return []Route{RoundRobin, LeastLoaded, PriorityAware, Random} }

// String returns the flag-friendly route name.
func (r Route) String() string {
	switch r {
	case RoundRobin:
		return "round_robin"
	case LeastLoaded:
		return "least_loaded"
	case PriorityAware:
		return "priority"
	case Random:
		return "random"
	default:
		return fmt.Sprintf("route(%d)", int(r))
	}
}

// RouteByName resolves a -route flag value to its Route.
func RouteByName(name string) (Route, error) {
	for _, r := range AllRoutes() {
		if r.String() == name {
			return r, nil
		}
	}
	return 0, fmt.Errorf(`federation: unknown route %q (have "round_robin", "least_loaded", "priority", "random")`, name)
}

// mg1RhoCap bounds the M/G/1 utilization estimate away from 1: past it the
// waiting-time formula diverges, and the estimate is a routing heuristic,
// not a stability proof.
const mg1RhoCap = 0.98

// infeasiblePenalty pushes a member whose deliverable capacity at the
// submission instant cannot host the job's minimum replica count behind
// every feasible member. It is a penalty rather than exclusion so a fleet
// with no feasible member still routes deterministically (the member
// simulator then queues the job until capacity returns).
const infeasiblePenalty = 1e18

// pending is one routed job's estimated residency in a member's queue: it
// contributes its booked work (slot-seconds) until its estimated finish.
type pending struct {
	estEnd float64
	work   float64
}

// demandHeap is a min-heap of pending jobs by estimated finish time.
type demandHeap []pending

func (h *demandHeap) push(p pending) {
	hh := append(*h, p)
	i := len(hh) - 1
	for i > 0 {
		par := (i - 1) / 2
		if hh[par].estEnd <= hh[i].estEnd {
			break
		}
		hh[i], hh[par] = hh[par], hh[i]
		i = par
	}
	*h = hh
}

func (h *demandHeap) pop() pending {
	hh := *h
	top := hh[0]
	n := len(hh) - 1
	hh[0] = hh[n]
	hh = hh[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && hh[r].estEnd < hh[c].estEnd {
			c = r
		}
		if hh[i].estEnd <= hh[c].estEnd {
			break
		}
		hh[i], hh[c] = hh[c], hh[i]
		i = c
	}
	*h = hh
	return top
}

// router tracks per-member load estimates while partitioning a workload.
type router struct {
	cfg      Config
	members  []Member
	machines []model.Machine // cached per member: the interface call is off the per-job path
	specs    map[model.Class]model.Spec
	next     int        // round-robin cursor
	rng      *rand.Rand // Random route
	// tracksDemand is set for the routes that read the load estimates;
	// round-robin and random skip the bookkeeping (model evaluations and a
	// heap push per job) entirely on the million-job partition path.
	tracksDemand bool
	queues       []demandHeap // per-member pending jobs by estimated finish
	work         []float64    // per-member booked queued work (slot-seconds)
	// Arrival statistics per member for the M/G/1 waiting-time term:
	// arrival count, Σ service, Σ service², and the first arrival instant.
	// "Service" is the job's occupancy-normalized service time on that
	// member (runtime × minPE / deliverable slots).
	nArr    []int
	sumS    []float64
	sumS2   []float64
	firstAt []float64
}

func newRouter(cfg Config, members []Member) *router {
	n := len(members)
	r := &router{
		cfg:          cfg,
		members:      members,
		machines:     make([]model.Machine, n),
		specs:        model.Specs(),
		tracksDemand: cfg.Route == LeastLoaded || cfg.Route == PriorityAware,
		queues:       make([]demandHeap, n),
		work:         make([]float64, n),
		nArr:         make([]int, n),
		sumS:         make([]float64, n),
		sumS2:        make([]float64, n),
		firstAt:      make([]float64, n),
	}
	for i, m := range members {
		r.machines[i] = m.Machine()
	}
	if cfg.Route == Random {
		r.rng = rand.New(rand.NewSource(cfg.RouteSeed))
	}
	return r
}

// effCapacity is member i's deliverable slot count at an instant: its
// availability trace evaluated at `at`, so the router sees a drain window
// the trace has already scheduled instead of the nominal capacity.
func (r *router) effCapacity(i int, at float64) int {
	m := r.members[i]
	base := m.Capacity()
	if tr := m.Availability(); len(tr.Events) > 0 {
		return tr.CapacityAt(base, at)
	}
	return base
}

// fit returns the job's placement replica count on member i (its class
// minimum, capped at the member's base capacity, as the member simulator
// itself caps it) and the modelled runtime at that count on the member's
// own machine.
func (r *router) fit(i int, spec model.Spec) (minPE int, runtime float64) {
	minPE = spec.MinReplicas
	if c := r.members[i].Capacity(); minPE > c {
		minPE = c
	}
	return minPE, r.machines[i].JobRuntime(spec, minPE)
}

// drain expires pending jobs whose estimated finish lies at or before now,
// releasing their booked work.
func (r *router) drain(now float64) {
	for i := range r.queues {
		q := &r.queues[i]
		for len(*q) > 0 && (*q)[0].estEnd <= now {
			r.work[i] -= q.pop().work
		}
	}
}

// score estimates the waiting cost of sending js to member i at its
// submission instant:
//
//	backlog/eff  — drain time of the member's booked work over the slots
//	               its availability trace delivers at that instant;
//	λ·E[S²]/2(1−ρ) — the M/G/1 mean-wait term from the member's own
//	               arrival history (Pollaczek–Khinchine), capturing that a
//	               member fed bursty, heavy jobs delays newcomers more
//	               than its mean backlog alone suggests;
//	service      — the job's own occupancy-normalized runtime on the
//	               member's machine (hardware-fit: a faster machine or a
//	               roomier cluster genuinely finishes the job sooner);
//
// plus infeasiblePenalty when the deliverable capacity cannot host the
// job's minimum replica count (a scheduled drain window, or a member that
// is simply too small).
func (r *router) score(i int, js *workload.JobSpec, spec model.Spec) float64 {
	eff := float64(r.effCapacity(i, js.SubmitAt))
	minPE, runtime := r.fit(i, spec)
	cost := r.work[i]/eff + runtime*float64(minPE)/eff
	if n := r.nArr[i]; n >= 2 {
		if elapsed := js.SubmitAt - r.firstAt[i]; elapsed > 0 {
			lam := float64(n) / elapsed
			es := r.sumS[i] / float64(n)
			es2 := r.sumS2[i] / float64(n)
			rho := lam * es
			if rho > mg1RhoCap {
				rho = mg1RhoCap
			}
			cost += lam * es2 / (2 * (1 - rho))
		}
	}
	if float64(spec.MinReplicas) > eff {
		cost += infeasiblePenalty
	}
	return cost
}

// leastLoaded picks the member with the lowest estimated waiting cost for
// this job; ties go to the lowest index.
func (r *router) leastLoaded(js *workload.JobSpec) int {
	spec := r.specs[js.Class]
	best, bestCost := 0, r.score(0, js, spec)
	for i := 1; i < len(r.members); i++ {
		if cost := r.score(i, js, spec); cost < bestCost {
			best, bestCost = i, cost
		}
	}
	return best
}

// book records js's estimated demand against member m: its slot-second work
// on m's machine, queued behind m's current backlog, plus the arrival
// statistics the M/G/1 term reads. A heuristic, not a simulation — what
// matters is that it is a deterministic function of the partition so far.
func (r *router) book(m int, js *workload.JobSpec, spec model.Spec) {
	minPE, runtime := r.fit(m, spec)
	eff := float64(r.effCapacity(m, js.SubmitAt))
	work := runtime * float64(minPE)
	est := r.work[m]/eff + runtime
	r.queues[m].push(pending{estEnd: js.SubmitAt + est, work: work})
	r.work[m] += work
	occ := work / eff
	r.nArr[m]++
	if r.nArr[m] == 1 {
		r.firstAt[m] = js.SubmitAt
	}
	r.sumS[m] += occ
	r.sumS2[m] += occ * occ
}

// route picks the member for one job at its submission instant and, for the
// demand-driven routes, books the job's estimated demand against it.
func (r *router) route(js *workload.JobSpec) int {
	if r.tracksDemand {
		r.drain(js.SubmitAt)
	}
	var m int
	switch r.cfg.Route {
	case RoundRobin:
		m = r.next
		r.next = (r.next + 1) % len(r.members)
	case LeastLoaded:
		m = r.leastLoaded(js)
	case PriorityAware:
		if js.Priority >= DefaultHighPriority {
			m = r.leastLoaded(js)
		} else {
			m = r.next
			r.next = (r.next + 1) % len(r.members)
		}
	case Random:
		m = r.rng.Intn(len(r.members))
	default:
		m = r.next
		r.next = (r.next + 1) % len(r.members)
	}
	if r.tracksDemand {
		r.book(m, js, r.specs[js.Class])
	}
	return m
}

// Partition routes every job of the workload to a member cluster, returning
// one sub-workload per member (jobs kept in submission order) and the member
// index chosen for each job of w (in w's own order). The pass is
// deterministic: jobs are visited in submission order — equal submission
// times keep workload order, exactly as the simulator admits them — and no
// routing decision depends on member simulation results.
func Partition(cfg Config, w workload.Workload) ([]workload.Workload, []int, error) {
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	members := cfg.backends()
	order := make([]int32, len(w.Jobs))
	for i := range order {
		order[i] = int32(i)
	}
	if !w.InSubmitOrder() {
		sort.SliceStable(order, func(a, b int) bool {
			return w.Jobs[order[a]].SubmitAt < w.Jobs[order[b]].SubmitAt
		})
	}
	assign := make([]int, len(w.Jobs))
	count := make([]int, len(members))
	r := newRouter(cfg, members)
	for _, wi := range order {
		m := r.route(&w.Jobs[wi])
		assign[wi] = m
		count[m]++
	}
	// Every member's list is carved, capped, from one array: a member routed
	// no job keeps a nil list.
	parts := make([]workload.Workload, len(members))
	all := make([]workload.JobSpec, len(w.Jobs))
	end := 0
	for m, n := range count {
		if n > 0 {
			parts[m].Jobs = all[end : end : end+n]
			end += n
		}
	}
	for _, wi := range order {
		m := assign[wi]
		parts[m].Jobs = append(parts[m].Jobs, w.Jobs[wi])
	}
	return parts, assign, nil
}
