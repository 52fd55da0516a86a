package main

import (
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
)

func TestOutcomeLatencyFromSchedule(t *testing.T) {
	o := outcome{Sched: 100 * time.Millisecond, Sent: 105 * time.Millisecond,
		Start: 130 * time.Millisecond, Done: 140 * time.Millisecond, OK: true}
	if o.latency() != 40*time.Millisecond {
		t.Errorf("latency = %v, want 40ms (done - scheduled, not done - start)", o.latency())
	}
	if o.lateness() != 5*time.Millisecond {
		t.Errorf("lateness = %v, want 5ms (released - scheduled)", o.lateness())
	}
	failed := o
	failed.OK = false
	lat := latenciesMs([]outcome{o, failed})
	if lat[0] != 40 || !math.IsInf(lat[1], 1) {
		t.Errorf("latenciesMs = %v, want [40 +Inf]", lat)
	}
	if late := latenessMs([]outcome{o, failed}); late[0] != 5 || late[1] != 5 {
		t.Errorf("latenessMs = %v, want [5 5]", late)
	}
}

// A server that stalls every request until 150ms into the window must
// be charged for the whole stall on each request, measured from its
// scheduled time, while the generator itself keeps releasing requests
// on schedule. A closed-loop generator would instead send late and
// report short latencies.
func TestDriveChargesStallFromSchedule(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
		w.Write([]byte("{}"))
	}))
	defer srv.Close()
	time.AfterFunc(150*time.Millisecond, func() { close(release) })

	n := &node{addr: strings.TrimPrefix(srv.URL, "http://")}
	var reqs []planned
	for i := 0; i < 4; i++ {
		reqs = append(reqs, planned{At: time.Duration(i) * 30 * time.Millisecond, Class: classHot,
			Cells: []cellKey{{Bench: "health", Scheme: "Base", Seed: 1}}})
	}
	outs, resps := drive([]*node{n}, reqs)
	for i, o := range outs {
		if resps[i].err != nil {
			t.Fatalf("request %d: %v", i, resps[i].err)
		}
		stall := 150*time.Millisecond - reqs[i].At
		if o.latency() < stall-5*time.Millisecond {
			t.Errorf("request %d: latency %v, want at least the %v it was stalled", i, o.latency(), stall)
		}
		if o.lateness() > 20*time.Millisecond {
			t.Errorf("request %d released %v late; the generator must not wait for the server", i, o.lateness())
		}
		if o.Sched != reqs[i].At {
			t.Errorf("request %d scheduled at %v, want %v", i, o.Sched, reqs[i].At)
		}
	}
}

func TestPlanIsSeededAndWellFormed(t *testing.T) {
	m := mix{Window: 10 * time.Second, Hot: 200, ColdSeeds: 2, Batches: 9, Nodes: 2}
	p := makePlan(7, m)
	if !reflect.DeepEqual(p, makePlan(7, m)) {
		t.Fatal("the same seed must give the same plan")
	}
	if reflect.DeepEqual(p, makePlan(8, m)) {
		t.Fatal("different seeds should give different plans")
	}
	warm := map[cellKey]bool{}
	for _, k := range p.Warm {
		warm[k] = true
	}
	if len(warm) != 24 {
		t.Errorf("warm set has %d distinct cells, want 24", len(warm))
	}
	count := map[reqClass]int{}
	type pair struct {
		bench string
		seed  int64
	}
	owner := map[pair]reqClass{}
	slots := map[reqClass][]time.Duration{}
	cold := map[pair][]planned{}
	hotNode := map[int][]int{} // dwell period -> nodes of its hot requests
	for i, r := range p.Requests {
		count[r.Class]++
		if r.At < 0 || r.At >= m.Window {
			t.Errorf("request %d at %v is outside the window", i, r.At)
		}
		slots[r.Class] = append(slots[r.Class], r.At)
		if i > 0 && r.At < p.Requests[i-1].At {
			t.Errorf("request %d is out of time order", i)
		}
		if r.Node < 0 || r.Node >= m.Nodes {
			t.Errorf("request %d goes to node %d", i, r.Node)
		}
		switch r.Class {
		case classHot:
			if len(r.Cells) != 1 || !warm[r.Cells[0]] {
				t.Errorf("hot request %d is not a warm cell: %v", i, r.Cells)
			}
			hotNode[int(r.At/hotDwell)] = append(hotNode[int(r.At/hotDwell)], r.Node)
		case classCold, classBatch:
			k := pair{r.Cells[0].Bench, r.Cells[0].Seed}
			if c, seen := owner[k]; seen && (c != classCold || r.Class != classCold) {
				t.Errorf("(workload, seed) %v reused across requests", k)
			}
			owner[k] = r.Class
			if r.Class == classCold {
				cold[k] = append(cold[k], r)
			} else if len(r.Cells) != len(experiments.Schemes()) {
				t.Errorf("batch %d has %d cells, want the paper's schemes", i, len(r.Cells))
			}
		}
	}
	// Stratified arrivals: the i-th request of a class falls in the
	// i-th of n equal slots of the window.
	for cl, ts := range slots {
		w := m.Window / time.Duration(len(ts))
		for i, at := range ts {
			if at < time.Duration(i)*w || at >= time.Duration(i+1)*w {
				t.Errorf("%s request %d at %v is outside its slot [%v, %v)", cl, i, at, time.Duration(i)*w, time.Duration(i+1)*w)
				break
			}
		}
	}
	// Hot requests change node only between dwell periods, and every
	// node gets its turn.
	hotNodes := map[int]bool{}
	for d, ns := range hotNode {
		for _, n := range ns {
			if n != ns[0] {
				t.Errorf("dwell period %d sends hot requests to nodes %v", d, ns)
				break
			}
		}
		hotNodes[ns[0]] = true
	}
	if len(hotNodes) != m.Nodes {
		t.Errorf("hot requests reach nodes %v, want all %d", hotNodes, m.Nodes)
	}
	group := len(core.Variants())
	if count[classHot] != m.Hot || count[classCold] != group*m.ColdSeeds || count[classBatch] != m.Batches {
		t.Errorf("class counts %v, want hot %d cold %d batch %d", count, m.Hot, group*m.ColdSeeds, m.Batches)
	}
	for k, rs := range cold {
		cells := map[cellKey]bool{}
		for _, r := range rs {
			cells[r.Cells[0]] = true
		}
		if len(rs) != group || len(cells) != group {
			t.Errorf("cold group %v: want every scheme once, got %+v", k, rs)
		}
	}
}

// Every request of a mixed schedule over two nodes completes once, on
// the node it was planned for, with its times in order.
func TestDriveMixedClassesOverTwoNodes(t *testing.T) {
	var nodes []*node
	hits := make([]chan string, 2)
	for n := range hits {
		ch := make(chan string, 64)
		hits[n] = ch
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			ch <- r.URL.Path
			w.Write([]byte("{}"))
		}))
		defer srv.Close()
		nodes = append(nodes, &node{addr: strings.TrimPrefix(srv.URL, "http://")})
	}
	var reqs []planned
	want := [2]int{}
	for i := 0; i < 40; i++ {
		r := planned{At: time.Duration(i) * time.Millisecond, Class: reqClass(i % 3), Node: i % 2,
			Cells: []cellKey{{Bench: "health", Scheme: "Base", Seed: int64(i)}}}
		reqs = append(reqs, r)
		want[r.Node]++
	}
	outs, resps := drive(nodes, reqs)
	for i, o := range outs {
		if resps[i].err != nil {
			t.Fatalf("request %d: %v", i, resps[i].err)
		}
		if !(o.Sched <= o.Sent && o.Sent <= o.Start && o.Start <= o.Done) {
			t.Errorf("request %d: times out of order %+v", i, o)
		}
	}
	for n, ch := range hits {
		if got := len(ch); got != want[n] {
			t.Errorf("node %d served %d requests, want %d", n, got, want[n])
		}
	}
}

// sleepUntil never returns before its deadline, whether the deadline
// is inside the spin margin, beyond it, or already past.
func TestSleepUntilNeverEarly(t *testing.T) {
	for _, d := range []time.Duration{-time.Millisecond, 0, spinMargin / 2, 3 * spinMargin, 2 * time.Millisecond} {
		deadline := time.Now().Add(d)
		sleepUntil(deadline)
		if now := time.Now(); now.Before(deadline) {
			t.Errorf("sleepUntil(now%+v) returned %v early", d, deadline.Sub(now))
		}
	}
}
