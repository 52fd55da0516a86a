package main

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/workload"
)

// reqClass is the part of the serve mix a request belongs to.
type reqClass int

const (
	classHot   reqClass = iota // repeat of a cell served during warm-up
	classCold                  // one fresh cell
	classBatch                 // the paper's schemes for a fresh (workload, seed)
)

var classNames = [...]string{"hot", "cold", "batch"}

func (c reqClass) String() string { return classNames[c] }

// cellKey names one simulation cell of the serve mix in the /v1/sim
// request vocabulary; every other knob is the server's default.
type cellKey struct {
	Bench  string `json:"bench"`
	Scheme string `json:"scheme"`
	Seed   int64  `json:"seed"`
}

// planned is one request of the open-loop schedule.
type planned struct {
	At    time.Duration // send time, from the start of the window
	Class reqClass
	Node  int       // index of the node the request goes to
	Cells []cellKey // one cell for /v1/sim, the paper's schemes for /v1/batch
}

// mix sizes the serve traffic. Counts are fixed rather than drawn, so
// every seed yields the same number of samples per class and the tail
// percentile each class reports stays the same from run to run.
type mix struct {
	Window    time.Duration
	Hot       int // /v1/sim repeats of warm-up cells
	ColdSeeds int // fresh (workload, seed) pairs, each sent scheme by scheme
	Batches   int // /v1/batch posts, one fresh (workload, seed) each
	Nodes     int
}

// plan is the whole generated input of one serve run.
type plan struct {
	Window   time.Duration
	Warm     []cellKey // served once, off the clock, before the window
	Requests []planned // sorted by At
}

// zipfS is the popularity skew of hot repeats: rank k of the warm set
// is requested with weight 1/k^zipfS. It is an assumption, like the
// class rates in serve.go: no request log of real traffic exists to
// take it from (NOTES.md).
const zipfS = 1.2

// hotDwell is how long hot requests keep going to the same node.
const hotDwell = time.Second

// makePlan derives the serve traffic from seed alone. Layout seeds of
// generated cells start far above the CLI default so they never meet a
// cell some other run served, and every fresh (workload, seed) pair is
// used by exactly one cold group or one batch.
func makePlan(seed int64, m mix) plan {
	rng := rand.New(rand.NewSource(seed))
	benches := workload.All()
	var schemes []string
	for _, v := range core.Variants() {
		schemes = append(schemes, v.String())
	}
	// Fresh (workload, seed) pairs take the workloads in turn, in a
	// seeded order, so every run asks for the same mix of programs.
	next := 1_000_000 + seed*100_000
	order := rng.Perm(len(benches))
	fresh := func() (string, int64) {
		next++
		return benches[order[int(next)%len(order)]].Name, next
	}
	at := func(lo, hi time.Duration) time.Duration {
		if hi <= lo { // a window too short for the spacing
			return lo
		}
		return lo + time.Duration(rng.Int63n(int64(hi-lo)))
	}

	p := plan{Window: m.Window}
	// Warm set: four schemes on one seed per workload, in a seeded
	// order that doubles as popularity rank.
	for _, w := range benches {
		next++
		for _, i := range rng.Perm(len(schemes))[:4] {
			p.Warm = append(p.Warm, cellKey{Bench: w.Name, Scheme: schemes[i], Seed: next})
		}
	}
	rng.Shuffle(len(p.Warm), func(i, j int) { p.Warm[i], p.Warm[j] = p.Warm[j], p.Warm[i] })

	// Arrivals are stratified: each class's window is cut into as many
	// equal slots as it has requests and each request lands uniformly
	// at random inside its own slot. That is an open loop at a fixed
	// offered rate whose bursts are bounded, so a tail measures the
	// system rather than how clustered one seed's arrivals happened
	// to be.
	slot := func(i, n int) time.Duration {
		w := m.Window / time.Duration(n)
		return time.Duration(i)*w + at(0, w)
	}
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(p.Warm)-1))
	for i := 0; i < m.Hot; i++ {
		p.Requests = append(p.Requests, planned{At: slot(i, m.Hot), Class: classHot,
			Cells: []cellKey{p.Warm[zipf.Uint64()]}})
	}
	// Cold groups: every scheme of a fresh (workload, seed), one
	// /v1/sim each in consecutive slots. The first cell each node owns
	// records the trace there (trace miss, about one cold request in
	// five); the rest replay it (trace hit).
	var cold []cellKey
	for i := 0; i < m.ColdSeeds; i++ {
		bench, s := fresh()
		for _, j := range rng.Perm(len(schemes)) {
			cold = append(cold, cellKey{bench, schemes[j], s})
		}
	}
	for i, k := range cold {
		p.Requests = append(p.Requests, planned{At: slot(i, len(cold)), Class: classCold, Cells: []cellKey{k}})
	}
	// Batches: the six configurations of the paper's matrix (base and
	// the five prefetchers of Figs 5-9) for a fresh (workload, seed),
	// one psbtables row per post.
	for i := 0; i < m.Batches; i++ {
		bench, s := fresh()
		var cells []cellKey
		for _, v := range experiments.Schemes() {
			cells = append(cells, cellKey{bench, v.String(), s})
		}
		p.Requests = append(p.Requests, planned{At: slot(i, m.Batches), Class: classBatch, Cells: cells})
	}
	// Nodes are drawn after all times so the node choice does not
	// perturb the arrival process. Cold and batch requests go to either
	// node at random. Hot requests stay on one node for hotDwell at a
	// time, taking the nodes in turn from a seeded first one, so the one
	// connection that carries them is reused rather than reopened
	// whenever the node changes.
	sort.SliceStable(p.Requests, func(i, j int) bool { return p.Requests[i].At < p.Requests[j].At })
	first := rng.Intn(m.Nodes)
	for i := range p.Requests {
		if r := &p.Requests[i]; r.Class == classHot {
			r.Node = (first + int(r.At/hotDwell)) % m.Nodes
		} else {
			r.Node = rng.Intn(m.Nodes)
		}
	}
	return p
}

// outcome is what the generator observed for one request. Times are
// offsets from the start of the window.
type outcome struct {
	Sched time.Duration // when the schedule said to send
	Sent  time.Duration // when the generator released it to its node's queue
	Start time.Duration // when a connection began the HTTP exchange
	Done  time.Duration // when the response (or error) was complete
	OK    bool          // 2xx, and the body later passed every check
}

// latency is measured from the scheduled send time, so a stall in the
// generator or a busy connection is charged to every request it
// delayed instead of silently thinning the load (coordinated omission).
func (o outcome) latency() time.Duration { return o.Done - o.Sched }

// lateness is how far behind schedule the generator released the
// request. Waiting for a free connection after that is not lateness:
// it is part of the latency the client sees.
func (o outcome) lateness() time.Duration { return o.Sent - o.Sched }

// latenciesMs returns the latency of every outcome in milliseconds; a
// failed request counts as +Inf, so it misses any latency limit and
// pushes the tail up rather than vanishing from it.
func latenciesMs(outs []outcome) []float64 {
	xs := make([]float64, len(outs))
	for i, o := range outs {
		if !o.OK {
			xs[i] = math.Inf(1)
			continue
		}
		xs[i] = ms(o.latency())
	}
	return xs
}

// latenessMs returns every outcome's lateness in milliseconds.
func latenessMs(outs []outcome) []float64 {
	xs := make([]float64, len(outs))
	for i, o := range outs {
		xs[i] = ms(o.lateness())
	}
	return xs
}

// sleepUntil blocks until t. It sleeps with nanosleep, because
// time.Sleep wakes with millisecond granularity on Linux (on a 2-CPU
// Xeon host it overshot by 0.52 ms at the median, several times what a
// hot request takes to serve), and stops spinMargin short of t to spin
// the rest, since nanosleep itself overshot by 0.07 ms.
func sleepUntil(t time.Time) {
	for d := time.Until(t) - spinMargin; d > 0; d = time.Until(t) - spinMargin {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: go round again
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// spinMargin is how long before its deadline sleepUntil stops sleeping
// and spins. At the serve workload's rates that spin costs well under
// 1% of one CPU.
const spinMargin = 150 * time.Microsecond

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
