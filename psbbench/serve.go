package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

// The serve workload's shape. Offered load per second of the window:
// hotRate repeats of warm cells; coldSeedRate fresh (workload, seed)
// pairs, each sending its ten schemes one /v1/sim at a time; and
// batchRate batches of the paper's six schemes for a fresh pair. At
// 25 s that is 950 hot, 150 cold and 99 batch requests. These
// proportions are assumptions: no request log of real traffic exists to
// take them from, and NOTES.md lists the metrics that depend on them.
// Only the total was tuned, for steady results. The generator
// keeps one of its nproc connections for hot requests (see drive), so
// cold and batch requests share the rest. The load is kept light, each
// node's process near a tenth of a CPU: under heavier loads the
// latencies swung with how often both host CPUs were busy, and cells
// are short so that cold and batch requests queue little behind each
// other (NOTES.md). Each fresh pair also costs every node that owns one
// of its cells a trace recording it keeps for its lifetime.
const (
	serveInsts = 15_000
	serveNodes = 2
	// serveSessionLen is how long one session of a serve run lasts; a
	// run holds --seconds / serveSessionLen of them (at least one).
	serveSessionLen = 5 * time.Second
	// serveSessionsMax bounds the sessions of a run, so every session
	// of every seed gets its own plan seed (seed*serveSessionsMax+i),
	// small enough that the simulation seeds made from it stay exact in
	// JSON.
	serveSessionsMax = 16
	hotRate          = 38.0
	coldSeedRate     = 0.6
	batchRate        = 3.96
)

// node is one psbserved process.
type node struct {
	addr, pprof string
	cmd         *exec.Cmd
	log         string
	pid         int
	done        chan struct{} // closed once the process has been reaped
	stopOnce    sync.Once
}

// startPair starts serveNodes fresh nodes joined in one ring and waits
// until every node reports healthy with all peers alive.
func startPair(c *runCtx, bin string, traced bool, gen int) ([]*node, error) {
	ports, err := freePorts(2 * serveNodes)
	if err != nil {
		return nil, err
	}
	var nodes []*node
	var peers []string
	for i := 0; i < serveNodes; i++ {
		nodes = append(nodes, &node{addr: ports[i], pprof: ports[serveNodes+i],
			log: filepath.Join(c.Dir, fmt.Sprintf("node%d-%d.log", gen, i))})
		peers = append(peers, ports[i])
	}
	for _, n := range nodes {
		args := []string{"-addr", n.addr, "-advertise", n.addr, "-peers", strings.Join(peers, ","),
			"-workers", "1", "-insts", strconv.Itoa(serveInsts)}
		if traced {
			args = append(args, "-log-requests", "-pprof", n.pprof)
		}
		if err := n.start(bin, args); err != nil {
			stopAll(nodes)
			return nil, err
		}
	}
	client := &http.Client{Timeout: 2 * time.Second}
	defer client.CloseIdleConnections()
	deadline := time.Now().Add(60 * time.Second)
	for _, n := range nodes {
		for !n.healthy(client) {
			if time.Now().After(deadline) {
				stopAll(nodes)
				return nil, fmt.Errorf("node %s not healthy after 60s; log %s", n.addr, n.log)
			}
			select {
			case <-n.done:
				stopAll(nodes)
				b, _ := os.ReadFile(n.log)
				return nil, fmt.Errorf("node %s exited during start:\n%s", n.addr, b)
			case <-time.After(500 * time.Microsecond):
			}
		}
	}
	return nodes, nil
}

func (n *node) start(bin string, args []string) error {
	f, err := os.Create(n.log)
	if err != nil {
		return err
	}
	n.cmd = exec.Command(bin, args...)
	n.cmd.Env = cleanEnv()
	// Drain the node if this process dies without stopping it.
	n.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	n.cmd.Stdout, n.cmd.Stderr = f, f
	if err := n.cmd.Start(); err != nil {
		f.Close()
		return err
	}
	n.pid = n.cmd.Process.Pid
	n.done = make(chan struct{})
	go func() {
		_ = n.cmd.Wait() // a node stopped by signal exits non-zero
		f.Close()
		close(n.done)
	}()
	return nil
}

// healthy reports whether the node answers /healthz as healthy, with
// fault injection off and every ring member alive.
func (n *node) healthy(client *http.Client) bool {
	resp, err := client.Get("http://" + n.addr + "/healthz")
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	var h serve.HealthReport
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&h) != nil {
		return false
	}
	return !h.Degraded && !h.FaultsActive && h.Cluster != nil && h.Cluster.PeersAlive == serveNodes
}

// stop asks the node to drain and waits until it has exited, killing
// it if it does not within ten seconds.
func (n *node) stop() {
	n.stopOnce.Do(func() {
		_ = n.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-n.done:
		case <-time.After(10 * time.Second):
			_ = n.cmd.Process.Kill()
			<-n.done
		}
	})
}

func stopAll(nodes []*node) {
	for _, n := range nodes {
		if n.done != nil {
			n.stop()
		}
	}
}

func freePorts(k int) ([]string, error) {
	var ls []net.Listener
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	var out []string
	for i := 0; i < k; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ls = append(ls, l)
		out = append(out, l.Addr().String())
	}
	return out, nil
}

// cpuSeconds is a live process's user+system CPU time.
func cpuSeconds(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return math.NaN()
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks (100 Hz).
	s := string(b)
	f := strings.Fields(s[strings.LastIndex(s, ")")+2:])
	if len(f) < 13 {
		return math.NaN()
	}
	u, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (u + st) / 100
}

// response is what the generator kept of one response.
type response struct {
	err         error
	tier        string // X-Psb-Cache (single cells)
	serveUs     float64
	fingerprint string
	digest      string // single cells: sha256 of the body
	body        []byte // batches: decoded after the window
}

// post sends one request body and reads the whole response.
func post(client *http.Client, url string, body []byte) (response, []byte) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return response{err: err}, nil
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return response{err: err}, nil
	}
	if resp.StatusCode != http.StatusOK {
		return response{err: fmt.Errorf("%s: HTTP %d: %s", url, resp.StatusCode, bytes.TrimSpace(b))}, nil
	}
	us, _ := strconv.ParseFloat(resp.Header.Get("X-Psb-Serve-Us"), 64)
	return response{tier: resp.Header.Get("X-Psb-Cache"), serveUs: us,
		fingerprint: resp.Header.Get("X-Psb-Fingerprint")}, b
}

func simBody(k cellKey) []byte {
	b, _ := json.Marshal(k) // bench, scheme, seed: the /v1/sim vocabulary
	return b
}

func batchBody(cells []cellKey) []byte {
	var schemes []string
	for _, k := range cells {
		schemes = append(schemes, k.Scheme)
	}
	b, _ := json.Marshal(map[string]any{"jobs": []map[string]any{
		{"bench": cells[0].Bench, "schemes": schemes, "seed": cells[0].Seed}}})
	return b
}

// session is what one serving session leaves for the run's totals.
type session struct {
	outs                []outcome
	setup, rss          float64
	cpuFrac             []float64
	fetches, fetchFails int
	layers, detail      map[string]float64 // traced runs only
	profiles            []string           // traced runs only
}

// runServe runs the serve workload as a series of sessions, each on a
// freshly started ring (see serveSession). It then checks every
// distinct cell against a direct simulation and reports over all
// sessions' requests.
func runServe(c *runCtx) (result, error) {
	bin := filepath.Join(filepath.Dir(c.Bin), "psbserved")
	secs := c.Seconds.Seconds()
	n := min(serveSessionsMax, max(1, int(c.Seconds/serveSessionLen)))
	total := mix{Hot: int(hotRate * secs), ColdSeeds: int(coldSeedRate * secs), Batches: int(batchRate * secs)}
	part := func(k, i int) int { return k*(i+1)/n - k*i/n }

	ck := newCellCheck()
	var (
		setups   []float64
		plans    []plan
		sessions []session
		outs     []outcome
	)
	for i := 0; i < n; i++ {
		m := mix{Window: c.Seconds / time.Duration(n), Hot: part(total.Hot, i),
			ColdSeeds: part(total.ColdSeeds, i), Batches: part(total.Batches, i), Nodes: serveNodes}
		p := makePlan(c.Seed*serveSessionsMax+int64(i), m)
		ss, err := serveSession(c, bin, p, ck, len(outs), i)
		if err != nil {
			return result{}, err
		}
		plans, sessions = append(plans, p), append(sessions, ss)
		outs = append(outs, ss.outs...)
		setups = append(setups, ss.setup)
	}

	keys := ck.keys()
	direct, err := ck.againstDirect(c, keys)
	if err != nil {
		return result{}, err
	}
	res := result{Correct: !ck.mismatch}
	var rss float64
	var cpuFrac []float64
	byClass := map[reqClass][]outcome{}
	for i := range outs {
		outs[i].OK = !ck.failed[i]
	}
	k := 0
	var sessionMeans []float64
	for si, p := range plans {
		ss := sessions[si]
		sessionMeans = append(sessionMeans, finiteOr(mean(latenciesMs(outs[k:k+len(ss.outs)])), failedMs))
		res.Attempted += len(ss.outs) + ss.fetches
		res.Failed += ss.fetchFails
		rss = math.Max(rss, ss.rss)
		cpuFrac = append(cpuFrac, ss.cpuFrac...)
		for _, r := range p.Requests {
			byClass[r.Class] = append(byClass[r.Class], outs[k])
			k++
		}
	}
	res.Failed += len(ck.failed)

	// latency_ms is the geometric mean of the three classes' median
	// latencies, so a change to any one class moves it by the same share
	// whatever that class's share of the requests or of their time. The
	// mean over all requests, which batches dominate, spread twice as
	// much from run to run on a two-CPU host, and the per-class figures
	// cannot be metrics of their own, since the other workloads have no
	// classes (NOTES.md). They are recorded with the tails.
	all := latenciesMs(outs)
	var p50s []float64
	tails := map[string]map[string]float64{}
	for _, cl := range []reqClass{classHot, classCold, classBatch} {
		lat := latenciesMs(byClass[cl])
		if len(lat) > 0 { // a run of a few seconds may have no cold request
			p50s = append(p50s, finiteOr(median(lat), failedMs))
		}
		tails[cl.String()] = map[string]float64{"n": float64(len(lat)),
			"p50_ms": finiteOr(median(lat), failedMs),
			"p99_ms": finiteOr(percentile(lat, 99), failedMs)}
		if pct, t, ok := tail(lat); ok {
			tails[cl.String()]["pct"] = pct
			tails[cl.String()]["tail_ms"] = finiteOr(t, failedMs)
		}
	}
	res.set("setup_s", median(setups))
	res.set("latency_ms", geomean(p50s))
	res.set("peak_rss_mb", rss)
	c.Notes["mean_ms"] = finiteOr(mean(all), failedMs)
	c.Notes["p50_ms"] = finiteOr(median(all), failedMs)
	c.Notes["session_mean_ms"] = sessionMeans
	c.Notes["sessions"] = n
	c.Notes["tails"] = tails
	c.Notes["offered_per_s"] = map[string]float64{"hot": hotRate, "cold": coldSeedRate * float64(len(core.Variants())), "batch": batchRate}
	c.Notes["node_cpu_frac"] = cpuFrac
	c.Notes["setups"] = setups
	c.Notes["gen_late_p99_ms"] = percentile(latenessMs(outs), 99)
	fmt.Fprintf(os.Stderr, "psbbench: %d sessions; tails %v; node CPU busy %.2f; generator late p99 %.2fms; %d distinct cells\n",
		n, tails, cpuFrac, percentile(latenessMs(outs), 99), len(keys))

	if c.Traced {
		// Counts and sums add up over the sessions; the record's
		// medians and ratios are the median over the sessions.
		res.Metrics = nil
		sums := map[string]float64{}
		perSession := map[string][]float64{}
		var profiles []string
		for _, ss := range sessions {
			for k, v := range ss.layers {
				sums[k] += v
			}
			for k, v := range ss.detail {
				perSession[k] = append(perSession[k], v)
			}
			profiles = append(profiles, ss.profiles...)
		}
		for _, L := range []map[string]float64{sums, direct.res.Layers} {
			for k, v := range L {
				res.set(k, v)
			}
		}
		merged := map[string]float64{}
		for _, path := range profiles {
			byPkg, err := flatByPackage(path)
			if err != nil {
				return result{}, fmt.Errorf("node profile %s: %w", path, err)
			}
			for k, v := range byPkg {
				merged[k] += v
			}
		}
		for name, pkgs := range profilePackages {
			res.set("prof."+name+"_share", shareOf(merged, pkgs...))
		}
		detail := map[string]float64{}
		for k, v := range perSession {
			detail[k] = median(v)
		}
		for k, v := range direct.res.Detail {
			detail["direct."+k] = v
		}
		c.Notes["layer_detail"] = detail
		spans := filepath.Join(mkdirAll(filepath.Join(c.Out, "spans")), fmt.Sprintf("serve-direct-seed%d.jsonl", c.Seed))
		if err := os.Rename(filepath.Join(direct.dir, "spans.jsonl"), spans); err != nil {
			return result{}, err
		}
		c.Notes["direct_spans"] = spans
	}
	return res, nil
}

// serveSession starts a fresh ring, warms the session's hot set off the
// clock, drives its open-loop window, and checks off the clock that
// both nodes now serve every cell the session saw as its responses
// had it. Request i of the session is request base+i of the run in
// ck. A run is several short sessions rather than one long one, so that
// set-up is measured several times and a node's heap does not grow with
// trace recordings over the whole run (NOTES.md).
func serveSession(c *runCtx, bin string, p plan, ck *cellCheck, base, idx int) (session, error) {
	var ss session
	start := time.Now()
	nodes, err := startPair(c, bin, c.Traced, idx)
	if err != nil {
		return ss, err
	}
	defer stopAll(nodes)
	off := &http.Client{Timeout: 60 * time.Second}
	for i, k := range p.Warm {
		r, body := post(off, "http://"+nodes[i%serveNodes].addr+"/v1/sim", simBody(k))
		if r.err != nil {
			return ss, fmt.Errorf("warm-up: %w", r.err)
		}
		ck.note(k, digest(body), -1)
	}
	off.CloseIdleConnections()
	ss.setup = time.Since(start).Seconds()

	before, err := scrapeAll(nodes)
	if err != nil {
		return ss, err
	}
	cpu0 := make([]float64, len(nodes))
	for i, n := range nodes {
		cpu0[i] = cpuSeconds(n.pid)
	}
	window := p.Window
	var profWG sync.WaitGroup
	if c.Traced {
		for i, n := range nodes {
			ss.profiles = append(ss.profiles, filepath.Join(c.Dir, fmt.Sprintf("node%d-%d.pprof", idx, i)))
			profWG.Add(1)
			go func(n *node, path string) {
				defer profWG.Done()
				fetchProfile(n.pprof, max(1, int(window.Round(time.Second)/time.Second)), path)
			}(n, ss.profiles[i])
		}
	}

	winStart := time.Now()
	outs, resps := drive(nodes, p.Requests)
	winEnd := time.Now()

	for i, n := range nodes {
		ss.cpuFrac = append(ss.cpuFrac, (cpuSeconds(n.pid)-cpu0[i])/window.Seconds())
	}
	after, err := scrapeAll(nodes)
	if err != nil {
		return ss, err
	}
	profWG.Wait()

	// Off the clock: every response must agree with every other for the
	// same cell, and with what both nodes serve for it now.
	seen := map[cellKey]bool{}
	for i, r := range p.Requests {
		ok := resps[i].err == nil
		if ok && r.Class == classBatch {
			ok = ck.noteBatch(r.Cells, resps[i].body, base+i)
		} else if ok {
			ok = ck.note(r.Cells[0], resps[i].digest, base+i)
		}
		if !ok {
			if resps[i].err != nil {
				fmt.Fprintf(os.Stderr, "psbbench: request %d (%s) failed: %v\n", base+i, r.Class, resps[i].err)
			}
			ck.fail(base + i)
		}
		for _, k := range r.Cells {
			seen[k] = true
		}
	}
	for _, k := range p.Warm {
		seen[k] = true
	}
	for _, k := range ck.keys() {
		if !seen[k] {
			continue
		}
		for _, n := range nodes {
			ss.fetches++
			r, body := post(off, "http://"+n.addr+"/v1/sim", simBody(k))
			if r.err != nil || !ck.matches(k, digest(body)) {
				fmt.Fprintf(os.Stderr, "psbbench: CHECK FAILED: node %s serves %+v differently (%v)\n", n.addr, k, r.err)
				ss.fetchFails++
				ck.mismatch = true
			}
		}
	}
	off.CloseIdleConnections()
	stopAll(nodes)
	for _, n := range nodes {
		ss.rss = math.Max(ss.rss, peakRSS(n.cmd.ProcessState))
	}
	ss.outs = outs
	if c.Traced {
		ss.layers, ss.detail, err = serveLayers(c, nodes, p, outs, resps, before, after, winStart, winEnd, idx)
		if err != nil {
			return ss, err
		}
	}
	return ss, nil
}

// drive sends the schedule open-loop. One goroutine releases each
// request at its scheduled time to a queue; nproc connection slots
// drain the queues, each holding at most one connection at a time, so
// the generator never has more than nproc connections open. With two
// or more slots, one serves only hot requests: they exercise only the
// serving path and must not wait behind a simulation that happens to
// hold the connection. The plan keeps hot requests on one node per
// hotDwell, so that slot reopens its connection only once a dwell. The
// other slots serve cold and batch requests, their own node's queue
// first and another node's when theirs is empty.
func drive(nodes []*node, reqs []planned) ([]outcome, []response) {
	outs := make([]outcome, len(reqs))
	resps := make([]response, len(reqs))
	bodies := make([][]byte, len(reqs))
	for i, r := range reqs {
		if r.Class == classBatch {
			bodies[i] = batchBody(r.Cells)
		} else {
			bodies[i] = simBody(r.Cells[0])
		}
	}
	// Lanes 0..len(nodes)-1 hold cold and batch requests per node; the
	// last lane holds hot requests.
	hotLane := len(nodes)
	q := newLanes(len(nodes) + 1)
	var prefs [][]int
	if slots := runtime.NumCPU(); slots < 2 {
		prefs = append(prefs, nil) // a single slot takes every lane
		for l := 0; l <= hotLane; l++ {
			prefs[0] = append(prefs[0], l)
		}
	} else {
		prefs = append(prefs, []int{hotLane})
		for k := 1; k < slots; k++ {
			var p []int
			for j := 0; j < len(nodes); j++ {
				p = append(p, (k-1+j)%len(nodes))
			}
			prefs = append(prefs, p)
		}
	}
	start := time.Now()
	var wg sync.WaitGroup
	for _, lanes := range prefs {
		wg.Add(1)
		go func(lanes []int) {
			defer wg.Done()
			tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
			defer tr.CloseIdleConnections()
			client := &http.Client{Transport: tr, Timeout: 60 * time.Second}
			last := -1
			for {
				i, ok := q.take(lanes)
				if !ok {
					return
				}
				n := reqs[i].Node
				if n != last {
					tr.CloseIdleConnections() // keep one connection per slot
					last = n
				}
				outs[i].Start = time.Since(start)
				path := "/v1/sim"
				if reqs[i].Class == classBatch {
					path = "/v1/batch"
				}
				r, body := post(client, "http://"+nodes[n].addr+path, bodies[i])
				if r.err == nil {
					if reqs[i].Class == classBatch {
						r.body = body
					} else {
						r.digest = digest(body)
					}
				}
				outs[i].Done = time.Since(start)
				resps[i] = r
			}
		}(lanes)
	}
	for i, r := range reqs {
		sleepUntil(start.Add(r.At))
		outs[i].Sched = r.At
		outs[i].Sent = time.Since(start)
		lane := r.Node
		if r.Class == classHot {
			lane = hotLane
		}
		q.put(lane, i)
		// Let the slot that takes it run now: this goroutine's next sleep
		// is a blocking syscall, and a slot readied just before it could
		// wait for the runtime to hand the processor on.
		runtime.Gosched()
	}
	q.close()
	wg.Wait()
	return outs, resps
}

// lanes holds released requests in FIFO lanes.
type lanes struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queues [][]int
	closed bool
}

func newLanes(n int) *lanes {
	q := &lanes{queues: make([][]int, n)}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *lanes) put(lane, i int) {
	q.mu.Lock()
	q.queues[lane] = append(q.queues[lane], i)
	q.mu.Unlock()
	// Slots wait on different lanes, so every waiter must look.
	q.cond.Broadcast()
}

// close wakes every taker; they drain what is queued and then stop.
func (q *lanes) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// take returns the oldest request of the first non-empty lane in pref,
// waiting while they are all empty. ok is false once the lanes are
// closed and drained.
func (q *lanes) take(pref []int) (i int, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		for _, l := range pref {
			if len(q.queues[l]) > 0 {
				i, q.queues[l] = q.queues[l][0], q.queues[l][1:]
				return i, true
			}
		}
		if q.closed {
			return 0, false
		}
		q.cond.Wait()
	}
}

// cellCheck collects the digest of every response per cell.
type cellCheck struct {
	want     map[cellKey]string
	users    map[cellKey][]int // request indexes that carried the cell
	failed   map[int]bool
	mismatch bool
}

func newCellCheck() *cellCheck {
	return &cellCheck{want: map[cellKey]string{}, users: map[cellKey][]int{}, failed: map[int]bool{}}
}

// note records one response for k (req -1 for warm-up) and reports
// whether it agrees with the earlier ones.
func (ck *cellCheck) note(k cellKey, d string, req int) bool {
	if req >= 0 {
		ck.users[k] = append(ck.users[k], req)
	} else if _, ok := ck.users[k]; !ok {
		ck.users[k] = nil
	}
	w, ok := ck.want[k]
	if !ok {
		ck.want[k] = d
		return true
	}
	if w != d {
		fmt.Fprintf(os.Stderr, "psbbench: CHECK FAILED: two responses for %+v differ\n", k)
		ck.mismatch = true
		return false
	}
	return true
}

// noteBatch checks a batch response cell by cell: each cell present,
// error-free, in request order, and agreeing with other responses.
func (ck *cellCheck) noteBatch(cells []cellKey, body []byte, req int) bool {
	var br serve.BatchResponse
	if err := json.Unmarshal(body, &br); err != nil || len(br.Cells) != len(cells) {
		fmt.Fprintf(os.Stderr, "psbbench: batch %d: malformed response (%v)\n", req, err)
		return false
	}
	ok := true
	for j, bc := range br.Cells {
		k := cells[j]
		if bc.Error != "" || bc.Result == nil || bc.Bench != k.Bench || bc.Scheme != k.Scheme {
			fmt.Fprintf(os.Stderr, "psbbench: batch %d cell %+v failed: %s\n", req, k, bc.Error)
			ok = false
			continue
		}
		if !ck.note(k, digest(serve.EncodeResult(*bc.Result)), req) {
			ok = false
		}
	}
	return ok
}

func (ck *cellCheck) fail(req int) { ck.failed[req] = true }

func (ck *cellCheck) matches(k cellKey, d string) bool { return ck.want[k] == d }

// keys lists every distinct cell in a fixed order.
func (ck *cellCheck) keys() []cellKey {
	var ks []cellKey
	for k := range ck.want {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool {
		a, b := ks[i], ks[j]
		if a.Seed != b.Seed {
			return a.Seed < b.Seed
		}
		if a.Bench != b.Bench {
			return a.Bench < b.Bench
		}
		return a.Scheme < b.Scheme
	})
	return ks
}

// againstDirect compares every served cell with serve.EncodeResult of
// a direct simulation, computed in a fresh process; a mismatch fails
// every request that carried the cell.
func (ck *cellCheck) againstDirect(c *runCtx, keys []cellKey) (rep, error) {
	path := filepath.Join(c.Dir, "cells.json")
	if err := writeJSON(path, keys); err != nil {
		return rep{}, err
	}
	args := []string{"--cells", path, "--insts", strconv.Itoa(serveInsts)}
	if c.Traced {
		args = append(args, "--traced")
	}
	r, err := c.worker("expect", args...)
	if err != nil {
		return rep{}, err
	}
	if len(r.res.Digests) != len(keys) {
		return rep{}, fmt.Errorf("expect worker returned %d digests for %d cells", len(r.res.Digests), len(keys))
	}
	for i, k := range keys {
		if r.res.Digests[i] == ck.want[k] {
			continue
		}
		fmt.Fprintf(os.Stderr, "psbbench: CHECK FAILED: served %+v differs from a direct simulation\n", k)
		ck.mismatch = true
		for _, req := range ck.users[k] {
			ck.fail(req)
		}
	}
	return r, nil
}

// scrapeAll reads /metrics from every node: one map per node from
// "name{labels}" to value.
func scrapeAll(nodes []*node) ([]map[string]float64, error) {
	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()
	var out []map[string]float64
	for _, n := range nodes {
		resp, err := client.Get("http://" + n.addr + "/metrics")
		if err != nil {
			return nil, err
		}
		m := map[string]float64{}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			l := sc.Text()
			if strings.HasPrefix(l, "#") {
				continue
			}
			if i := strings.LastIndex(l, " "); i > 0 {
				if v, err := strconv.ParseFloat(l[i+1:], 64); err == nil {
					m[l[:i]] = v
				}
			}
		}
		resp.Body.Close()
		if err := sc.Err(); err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// delta sums a counter's growth over every node.
func delta(before, after []map[string]float64, key string) float64 {
	var d float64
	for i := range after {
		d += after[i][key] - before[i][key]
	}
	return d
}

// fetchProfile collects a CPU profile of secs seconds from a node's
// pprof side listener into path; on failure path is left missing or
// empty, which flatByPackage reports.
func fetchProfile(addr string, secs int, path string) {
	client := &http.Client{Timeout: time.Duration(secs+30) * time.Second}
	defer client.CloseIdleConnections()
	resp, err := client.Get(fmt.Sprintf("http://%s/debug/pprof/profile?seconds=%d", addr, secs))
	if err != nil {
		return
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return
	}
	_ = os.WriteFile(path, b, 0o644)
}

// logLine is one -log-requests record.
type logLine struct {
	Event       string    `json:"event"`
	Path        string    `json:"path"`
	LatencyUs   float64   `json:"latency_us"`
	Fingerprint string    `json:"fingerprint"`
	Ts          time.Time `json:"ts"`
}

// readRequestLog returns a node's request records that completed in
// [from, to], in completion order.
func readRequestLog(path string, from, to time.Time) ([]logLine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []logLine
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var l logLine
		if json.Unmarshal(sc.Bytes(), &l) != nil || l.Event != "request" {
			continue
		}
		if l.Ts.Before(from) || l.Ts.After(to) {
			continue
		}
		out = append(out, l)
	}
	return out, sc.Err()
}

// serveLayers computes the serve per-layer metrics and writes one span
// per request, joined to the server's log line for it: by fingerprint
// for single cells, by order for batches.
func serveLayers(c *runCtx, nodes []*node, p plan, outs []outcome, resps []response,
	before, after []map[string]float64, winStart, winEnd time.Time, idx int) (L, detail map[string]float64, err error) {
	serverUs := make([]float64, len(outs))
	for i := range serverUs {
		serverUs[i] = math.NaN()
	}
	for ni, n := range nodes {
		lines, err := readRequestLog(n.log, winStart, winEnd.Add(time.Second))
		if err != nil {
			return nil, nil, err
		}
		byKey := map[string][]logLine{}
		for _, l := range lines {
			key := l.Path
			if l.Path == "/v1/sim" {
				key = l.Fingerprint
			}
			byKey[key] = append(byKey[key], l)
		}
		var mine []int
		for i, r := range p.Requests {
			if r.Node == ni && resps[i].err == nil {
				mine = append(mine, i)
			}
		}
		sort.SliceStable(mine, func(a, b int) bool { return outs[mine[a]].Done < outs[mine[b]].Done })
		for _, i := range mine {
			key := resps[i].fingerprint
			if p.Requests[i].Class == classBatch {
				key = "/v1/batch"
			}
			if q := byKey[key]; len(q) > 0 {
				serverUs[i] = q[0].LatencyUs
				byKey[key] = q[1:]
			}
		}
	}

	L, detail = map[string]float64{}, map[string]float64{}
	var busyUs, overheadMs float64
	server := map[reqClass][]float64{}
	var overhead, hotWait, simUs, peerUs []float64
	tiers := map[string]float64{}
	cold := 0
	spans := newSpanLog()
	spans.origin = winStart
	root := spans.begin(0, "serve.window", nil)
	spans.spans[root-1].Start = 0
	for i, r := range p.Requests {
		o := outs[i]
		if r.Class == classHot {
			hotWait = append(hotWait, ms(o.Start-o.Sched))
		}
		if !math.IsNaN(serverUs[i]) {
			busyUs += serverUs[i]
			server[r.Class] = append(server[r.Class], serverUs[i]/1000)
			if r.Class == classHot {
				overhead = append(overhead, ms(o.Done-o.Start)-serverUs[i]/1000)
				overheadMs += ms(o.Done-o.Start) - serverUs[i]/1000
			}
		}
		if r.Class == classCold && resps[i].err == nil {
			cold++
			tiers[resps[i].tier]++
			switch resps[i].tier {
			case "sim":
				simUs = append(simUs, resps[i].serveUs/1000)
			case "peer":
				peerUs = append(peerUs, resps[i].serveUs/1000)
			}
		}
		spans.spans = append(spans.spans, span{ID: len(spans.spans) + 1, Parent: root,
			Name: "request." + r.Class.String(), Start: int64(o.Sched), End: int64(o.Done),
			Attrs: map[string]any{"node": r.Node, "sent_ns": int64(o.Sent), "start_ns": int64(o.Start),
				"cells": len(r.Cells), "tier": resps[i].tier, "fingerprint": resps[i].fingerprint,
				"server_us": finiteOr(serverUs[i], -1), "ok": o.OK}})
	}
	spans.spans[root-1].End = int64(winEnd.Sub(winStart))

	// The result line: sums and counts, which are 0 in a workload that
	// starts no server.
	L["serve.server_busy_s"] = busyUs / 1e6
	L["serve.http_overhead_s"] = overheadMs / 1000
	for _, t := range []string{"mem", "sim", "peer", "dedup"} {
		L["serve.tier."+t] = tiers[t]
	}
	hits := delta(before, after, `psb_cache_hits_total{tier="mem"}`) + delta(before, after, `psb_cache_hits_total{tier="disk"}`)
	misses := delta(before, after, "psb_cache_misses_total")
	L["serve.cache_hits"] = hits
	L["serve.cache_misses"] = misses
	L["serve.rejected"] = delta(before, after, "psb_cells_rejected_total")
	rpcs := delta(before, after, "psb_peer_batch_rpcs_total")
	sims := delta(before, after, `psb_cells_total{tier="sim"}`)
	L["cluster.peer_batch_rpcs"] = rpcs
	L["cluster.peer_fills"] = delta(before, after, "psb_peer_fills_total")
	L["cluster.coalesced_fills"] = delta(before, after, "psb_peer_coalesced_fills_total")
	L["cluster.warm_pushes"] = delta(before, after, `psb_warm_push_total{outcome="sent"}`)
	L["cluster.sims"] = sims
	late := 0.0
	for _, x := range latenessMs(outs) {
		if x > lateSendMs {
			late++
		}
	}
	L["gen.late_sends"] = late

	// The record: medians and ratios, defined only where requests ran.
	for _, cl := range []reqClass{classHot, classCold, classBatch} {
		detail["serve.server_p50_ms."+cl.String()] = finiteOr(median(server[cl]), 0)
	}
	detail["serve.http_overhead_ms"] = finiteOr(median(overhead), 0)
	for _, t := range []string{"mem", "sim", "peer", "dedup"} {
		detail["serve.tier_frac."+t] = tiers[t] / math.Max(1, float64(cold))
	}
	detail["serve.sim_p50_ms"] = finiteOr(median(simUs), 0)
	detail["serve.peer_p50_ms"] = finiteOr(median(peerUs), 0)
	detail["serve.cache_hit_rate"] = hits / math.Max(1, hits+misses)
	batches := 0.0
	fresh := map[cellKey]bool{}
	for _, r := range p.Requests {
		if r.Class == classBatch {
			batches++
		}
		if r.Class != classHot {
			for _, k := range r.Cells {
				fresh[k] = true
			}
		}
	}
	detail["cluster.rpcs_per_batch"] = rpcs / batches
	detail["cluster.sims_per_cell"] = sims / float64(len(fresh))
	detail["gen.late_p99_ms"] = percentile(latenessMs(outs), 99)
	detail["gen.hot_wait_p50_ms"] = median(hotWait)

	path := filepath.Join(mkdirAll(filepath.Join(c.Out, "spans")), fmt.Sprintf("serve-seed%d-session%d.jsonl", c.Seed, idx))
	if err := spans.write(path); err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(os.Stderr, "psbbench: spans in %s\n", path)
	return L, detail, nil
}

// lateSendMs is how far behind schedule a send must be for
// gen.late_sends to count it: a hot request takes about 0.3 ms to serve.
const lateSendMs = 1.0

// failedMs stands for the infinite latency of a failed request in the
// result, since JSON has no infinity.
const failedMs = 1e9

// finiteOr returns v, or alt when v is NaN or infinite.
func finiteOr(v, alt float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return alt
	}
	return v
}
