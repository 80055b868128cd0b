package wall_test

import (
	"errors"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	_ "repro/internal/livenet" // registers "live"
	"repro/internal/machine"
	"repro/internal/netnode"
	"repro/internal/proto"
)

// TestMain is the net backend's re-exec hook: a spawned node process enters
// ChildMain and never reaches the test runner.
func TestMain(m *testing.M) {
	netnode.ChildMain()
	os.Exit(m.Run())
}

// wallBackends are the substrates that share the wall-clock session; every
// check below must hold identically on each — the same observable answers,
// admission decisions, rejections and recovery on every substrate.
var wallBackends = []string{"live", "net"}

// TestConformance runs the backend-conformance suite on every wall-clock
// backend, resolved through the core registry exactly as drivers do.
func TestConformance(t *testing.T) {
	for _, name := range wallBackends {
		b, err := core.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		sb := b.(core.SessionBackend)
		t.Run(name, func(t *testing.T) {
			t.Run("FaultFreeCounters", func(t *testing.T) { faultFreeCounters(t, name) })
			t.Run("RecoversFromKill", func(t *testing.T) { recoversFromKill(t, name) })
			t.Run("Shed", func(t *testing.T) { shed(t, name) })
			t.Run("Queue", func(t *testing.T) { queue(t, name) })
			t.Run("BoundedQueue", func(t *testing.T) { boundedQueue(t, name) })
			t.Run("RejectsUnsupportedConfigs", func(t *testing.T) { rejects(t, sb) })
			t.Run("RejectsCumulativeKillAll", func(t *testing.T) { rejectsKillAll(t, name) })
			t.Run("CloseIdempotent", func(t *testing.T) { closeIdempotent(t, sb) })
			t.Run("MakespanStampedAtDelivery", func(t *testing.T) { makespanAtDelivery(t, name) })
			t.Run("WaitAfterClose", func(t *testing.T) { waitAfterClose(t, sb) })
		})
	}
}

// faultFreeCounters: fault-free answers equal lang.RefEval, nothing is
// reissued or drained, and the spawned/message/byte totals are the exact
// figures each transport's own accounting has always reported. They do not
// depend on placement: the task tree and every encoded size are fixed by
// the workload.
func faultFreeCounters(t *testing.T, backend string) {
	type counts struct{ spawned, msgs, bytes int64 }
	want := map[string]map[string]counts{
		// Live charges spawns and child results; a root's answer reaches
		// the in-process super-root without a message.
		"live": {"fib:10": {177, 353, 40399}, "tree:3,4": {121, 241, 23336}, "tak:10,6,3": {497, 993, 127553}},
		// Net charges every protocol frame the hub routes, root result
		// included, at real frame sizes.
		"net": {"fib:10": {177, 354, 43642}, "tree:3,4": {121, 242, 25571}, "tak:10,6,3": {497, 994, 136556}},
	}[backend]
	for _, spec := range []string{"fib:10", "tree:3,4", "tak:10,6,3"} {
		w, err := core.StandardWorkload(spec)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := core.VerifyOn(backend, core.Config{Procs: 4, Seed: 1}, w, nil)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		got := counts{rep.Spawned, rep.Messages, rep.MsgBytes}
		if got != want[spec] || rep.Reissued != 0 || rep.Drained != 0 {
			t.Errorf("%s: spawned/msgs/bytes = %v reissued %d drained %d, want %v and 0/0",
				spec, got, rep.Reissued, rep.Drained, want[spec])
		}
		if rep.Backend != backend || rep.Unit != core.WallMicros || len(rep.ReissuesByNode) != 4 {
			t.Errorf("%s: report shape backend=%q unit=%q per-node=%v", spec, rep.Backend, rep.Unit, rep.ReissuesByNode)
		}
	}
}

// recoversFromKill: a node crash mid-run is repaired by rollback reissue
// and the answer still equals lang.RefEval — §2.1 determinacy.
func recoversFromKill(t *testing.T, backend string) {
	w, err := core.StandardWorkload("fib:14")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.VerifyOn(backend, core.Config{Procs: 4, Seed: 2}, w, faults.Crash(1, 500, true)); err != nil {
		t.Fatal(err)
	}
}

// submitAll offers n copies of spec in one burst, far faster than any of
// them completes.
func submitAll(t *testing.T, cl *core.Cluster, spec string, n int) []*core.Ticket {
	t.Helper()
	var tickets []*core.Ticket
	for i := 0; i < n; i++ {
		tk, err := cl.SubmitSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	return tickets
}

// shed: with one slot busy, the "shed" policy rejects the next offer with
// the typed core.ErrShed and a shed, incomplete report.
func shed(t *testing.T, backend string) {
	cl, err := core.OpenOn(backend, core.Config{Procs: 3, Seed: 2, MaxInFlight: 1, Admission: "shed"})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	tickets := submitAll(t, cl, "fib:12", 2)
	rep, err := tickets[1].Wait()
	if !errors.Is(err, core.ErrShed) {
		t.Fatalf("overload wait = %v, want core.ErrShed", err)
	}
	if !rep.Shed || rep.Completed {
		t.Fatalf("shed report wrong: %+v", rep)
	}
	if _, err := tickets[0].Verify(); err != nil {
		t.Fatal(err)
	}
}

// queue: the unbounded "queue" policy holds overflow until a slot frees, so
// every request of an over-capacity burst completes with a verified answer
// and the queue's high-water mark lands on the close report.
func queue(t *testing.T, backend string) {
	cl, err := core.OpenOn(backend, core.Config{Procs: 4, Seed: 9, MaxInFlight: 1, Admission: "queue"})
	if err != nil {
		t.Fatal(err)
	}
	for i, tk := range submitAll(t, cl, "fib:12", 4) {
		if _, err := tk.Verify(); err != nil {
			t.Fatalf("ticket %d: %v", i, err)
		}
	}
	sr, err := cl.Close()
	if err != nil {
		t.Fatal(err)
	}
	if sr.Completed != 4 || sr.Shed != 0 || sr.Failed != 0 || sr.QueueDepthMax == 0 {
		t.Fatalf("completed/shed/failed/depth = %d/%d/%d/%d\n%s",
			sr.Completed, sr.Shed, sr.Failed, sr.QueueDepthMax, sr.Render())
	}
}

// boundedQueue: "queue:N" queues up to N offers behind the in-flight bound
// and sheds the rest at Submit. One slot plus a depth-2 queue admits three
// of five; the two queued completions report a positive time in queue,
// separate from their service latency.
func boundedQueue(t *testing.T, backend string) {
	cl, err := core.OpenOn(backend, core.Config{Procs: 4, Seed: 9, MaxInFlight: 1, Admission: "queue:2"})
	if err != nil {
		t.Fatal(err)
	}
	shed, queued := 0, 0
	for i, tk := range submitAll(t, cl, "fib:12", 5) {
		rep, err := tk.Wait()
		if errors.Is(err, core.ErrShed) {
			shed++
			continue
		}
		if _, err := tk.Verify(); err != nil {
			t.Fatalf("ticket %d: %v", i, err)
		}
		if rep.QueuedFor > 0 {
			queued++
		}
	}
	if shed != 2 || queued != 2 {
		t.Fatalf("shed %d, queued %d; want 2 and 2 (five offers, one slot, depth-2 queue)", shed, queued)
	}
	sr, err := cl.Close()
	if err != nil {
		t.Fatal(err)
	}
	if sr.Completed != 3 || sr.Shed != 2 || sr.Failed != 0 || sr.QueueDepthMax != 2 || sr.QueueWaitP99 <= 0 {
		t.Fatalf("completed/shed/failed/depth/wait-p99 = %d/%d/%d/%d/%d\n%s",
			sr.Completed, sr.Shed, sr.Failed, sr.QueueDepthMax, sr.QueueWaitP99, sr.Render())
	}
}

// rejects: the sim-only knobs, malformed admission specs and unsupported
// fault plans fail the one-shot Run with an actionable error.
func rejects(t *testing.T, b core.SessionBackend) {
	w, err := core.StandardWorkload("fib:8")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		cfg  core.Config
		plan *faults.Plan
		want string
	}{
		{core.Config{Recovery: "splice"}, nil, "recovery"},
		{core.Config{Recovery: "incremental"}, nil, "recovery"},
		{core.Config{Placement: "gradient"}, nil, "placement"},
		{core.Config{Eval: "nosuch"}, nil, "evaluator"},
		{core.Config{Replication: map[string]int{"work": 3}}, nil, "replication"},
		{core.Config{DisableCheckpoints: true}, nil, "checkpoints"},
		{core.Config{Raw: &machine.Config{}}, nil, "Raw"},
		{core.Config{RecoveryBudget: 2}, nil, "budget"},
		{core.Config{RecoveryPeriod: 4}, nil, "budget"},
		{core.Config{Admission: "lifo"}, nil, "admission"},
		{core.Config{Admission: "queue:0"}, nil, "admission"},
		{core.Config{Admission: "queue:08"}, nil, "admission"},
		{core.Config{}, &faults.Plan{Faults: []faults.Fault{{At: 1, Proc: 0, Kind: faults.Corrupt}}}, "corruption"},
		{core.Config{Procs: 2}, faults.Burst(2, 2, 1, faults.CrashAnnounced, 1), "survive"},
		{core.Config{}, faults.Crash(proto.ProcID(99), 1, true), "out of range"},
	}
	for _, tc := range cases {
		_, err := b.Run(tc.cfg, w, tc.plan)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("cfg %+v plan %v: err = %v, want containing %q", tc.cfg, tc.plan, err, tc.want)
		}
	}
}

// rejectsKillAll: two plans that together would kill every node are
// rejected at the second Inject, though each alone leaves a survivor.
func rejectsKillAll(t *testing.T, backend string) {
	cl, err := core.OpenOn(backend, core.Config{Procs: 4, Seed: 1})
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
	if err := cl.Inject(plan2); err == nil || !strings.Contains(err.Error(), "survive") {
		t.Fatalf("cumulative kill-all plan: err = %v", err)
	}
}

// closeIdempotent: a second Close returns the first one's report and no
// error, and the closed session refuses new work.
func closeIdempotent(t *testing.T, b core.SessionBackend) {
	sess, err := b.Open(core.Config{Procs: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep1, err := sess.Close()
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := sess.Close()
	if err != nil || rep2 != rep1 {
		t.Fatalf("second Close = %p, %v; want %p, nil", rep2, err, rep1)
	}
	w, err := core.StandardWorkload("fib:5")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Submit(w); err == nil {
		t.Fatal("Submit after Close accepted")
	}
	if _, err := sess.Inject(faults.None()); err == nil {
		t.Fatal("Inject after Close accepted")
	}
}

// makespanAtDelivery: a request's completion time is when its answer
// arrived, not when the caller got round to Wait.
func makespanAtDelivery(t *testing.T, backend string) {
	const late = 200 * time.Millisecond
	cl, err := core.OpenOn(backend, core.Config{Procs: 3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	tk, err := cl.SubmitSpec("fib:5")
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(late)
	rep, err := tk.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Makespan >= (late / 2).Microseconds() {
		t.Fatalf("makespan %d µs includes the caller's %v delay before Wait", rep.Makespan, late)
	}
}

// waitAfterClose: waiting on a request the session's Close cut off returns
// at once with Completed false, not after the per-request deadline.
func waitAfterClose(t *testing.T, b core.SessionBackend) {
	sess, err := b.Open(core.Config{Procs: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	w, err := core.StandardWorkload("fib:30")
	if err != nil {
		t.Fatal(err)
	}
	req, err := sess.Submit(w)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	startAt := time.Now()
	rep, err := req.Wait()
	if elapsed := time.Since(startAt); elapsed > 500*time.Millisecond {
		t.Fatalf("Wait after Close took %v", elapsed)
	}
	if err != nil || rep.Completed {
		t.Fatalf("Wait after Close = %+v, %v; want an incomplete report and no error", rep, err)
	}
}
