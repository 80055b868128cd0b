package livenet

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/faults"
	"repro/internal/lang"
	"repro/internal/wall"
)

// TestLiveServiceStream serves a batch of mixed workloads through one open
// cluster with a burst of kills landing mid-stream, and requires every
// request to complete with the reference answer — online recovery: repair
// proceeding concurrently with request service.
func TestLiveServiceStream(t *testing.T) {
	const procs, requests = 8, 16
	cl, err := core.OpenOn("live", core.Config{Procs: procs, Seed: 11, Recovery: "rollback"})
	if err != nil {
		t.Fatal(err)
	}
	specs := []string{"fib:10", "fib:11", "tree:2,4", "tak:7,4,2"}
	var tickets []*core.Ticket
	var wg sync.WaitGroup
	tkCh := make(chan *core.Ticket, requests)
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(spec string) {
			defer wg.Done()
			tk, err := cl.SubmitSpec(spec)
			if err != nil {
				t.Error(err)
				return
			}
			tkCh <- tk
		}(specs[i%len(specs)])
	}
	// Kill two nodes while the stream is in flight.
	if err := cl.Inject(faults.Burst(procs, 2, 200, faults.CrashAnnounced, 7)); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(tkCh)
	for tk := range tkCh {
		tickets = append(tickets, tk)
	}
	for _, tk := range tickets {
		if _, err := tk.Verify(); err != nil {
			t.Fatalf("request %q: %v", tk.Workload().Spec, err)
		}
	}
	sr, err := cl.Close()
	if err != nil {
		t.Fatal(err)
	}
	if sr.Completed != requests || sr.Failed != 0 {
		t.Fatalf("completed %d failed %d, want %d/0\n%s", sr.Completed, sr.Failed, requests, sr.Render())
	}
	if sr.Backend != "live" || sr.Unit != core.WallMicros {
		t.Fatalf("backend/unit = %s/%s", sr.Backend, sr.Unit)
	}
	if len(sr.FaultStamps) != 2 {
		t.Fatalf("fault stamps = %v, want 2 kills", sr.FaultStamps)
	}
	if sr.LatencyP99 < sr.LatencyP50 || sr.LatencyP50 <= 0 {
		t.Fatalf("latency aggregates inconsistent: mean %d p50 %d p99 %d",
			sr.LatencyMean, sr.LatencyP50, sr.LatencyP99)
	}
	if sr.Throughput <= 0 {
		t.Fatalf("throughput = %v", sr.Throughput)
	}
}

// TestLiveSessionRootReissue kills the node hosting a request's root: the
// cluster (the root's parent) must reissue it and still answer.
func TestLiveSessionRootReissue(t *testing.T) {
	prog := lang.Fib()
	c, err := New(4, 5, true, "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	var reqs []*wall.Request
	for i := 0; i < 4; i++ {
		r, err := c.Submit(prog, "fib", fibArgs(12))
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, r)
	}
	// Roots spread round-robin: killing nodes 1 and 2 hits some roots.
	if err := c.Kill(1); err != nil {
		t.Fatal(err)
	}
	if err := c.Kill(2); err != nil {
		t.Fatal(err)
	}
	want, err := lang.RefEval(prog, "fib", fibArgs(12))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range reqs {
		v, err := c.WaitRequest(r, DefaultDeadline)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if !v.Equal(want) {
			t.Fatalf("request %d answer %v, want %v", i, v, want)
		}
	}
}

// TestLiveSessionRejectsCumulativeKillAll: two plans that together would
// kill every node are rejected at the second Inject.
func TestLiveSessionRejectsCumulativeKillAll(t *testing.T) {
	cl, err := core.OpenOn("live", core.Config{Procs: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	plan1 := core.CrashPlan(0, 100, true)
	plan1.Add(faults.Fault{At: 100, Proc: 1, Kind: faults.CrashAnnounced})
	if err := cl.Inject(plan1); err != nil {
		t.Fatal(err)
	}
	plan2 := core.CrashPlan(2, 100000, true)
	plan2.Add(faults.Fault{At: 100000, Proc: 3, Kind: faults.CrashAnnounced})
	if err := cl.Inject(plan2); err == nil {
		t.Fatal("cumulative kill-all plan accepted")
	}
}

func fibArgs(n int64) []expr.Value {
	return []expr.Value{expr.VInt(n)}
}
