package livenet

import (
	"testing"
	"time"

	"repro/internal/expr"
	"repro/internal/lang"
	"repro/internal/wall"
)

// start brings up an n-node rollback cluster and submits one root.
func start(t *testing.T, n int, seed int64, prog *lang.Program, fn string, arg int64) (*Cluster, *wall.Request) {
	t.Helper()
	c, err := New(n, seed, true, "")
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.Submit(prog, fn, []expr.Value{expr.VInt(arg)})
	if err != nil {
		c.Shutdown()
		t.Fatal(err)
	}
	return c, r
}

func TestFaultFreeLiveRun(t *testing.T) {
	c, r := start(t, 4, 1, lang.Fib(), "fib", 14)
	defer c.Shutdown()
	v, err := c.WaitRequest(r, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Equal(expr.VInt(377)) {
		t.Fatalf("fib(14) = %v, want 377", v)
	}
	spawned, reissued, _ := c.Stats()
	if spawned == 0 {
		t.Error("no tasks spawned")
	}
	if reissued != 0 {
		t.Errorf("fault-free run reissued %d packets", reissued)
	}
}

func TestLiveRunSurvivesKill(t *testing.T) {
	c, r := start(t, 6, 2, lang.Fib(), "fib", 17)
	defer c.Shutdown()
	// Let the tree unfold a little, then crash a node under real load.
	time.Sleep(5 * time.Millisecond)
	if err := c.Kill(2); err != nil {
		t.Fatal(err)
	}
	v, err := c.WaitRequest(r, 60*time.Second)
	if err != nil {
		spawned, reissued, drained := c.Stats()
		t.Fatalf("no answer after kill: %v (spawned=%d reissued=%d drained=%d)",
			err, spawned, reissued, drained)
	}
	if !v.Equal(expr.VInt(1597)) {
		t.Fatalf("fib(17) = %v, want 1597", v)
	}
}

func TestLiveRunSurvivesRootNodeKill(t *testing.T) {
	c, r := start(t, 4, 3, lang.Fib(), "fib", 15)
	defer c.Shutdown()
	time.Sleep(2 * time.Millisecond)
	// Node 0 hosts the root: the cluster (super-root) must reissue it.
	if err := c.Kill(0); err != nil {
		t.Fatal(err)
	}
	v, err := c.WaitRequest(r, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Equal(expr.VInt(610)) {
		t.Fatalf("fib(15) = %v, want 610", v)
	}
}

func TestLiveRunSurvivesTwoKills(t *testing.T) {
	c, r := start(t, 6, 4, lang.TreeSum(3), "tree", 7)
	defer c.Shutdown()
	time.Sleep(3 * time.Millisecond)
	if err := c.Kill(1); err != nil {
		t.Fatal(err)
	}
	time.Sleep(3 * time.Millisecond)
	if err := c.Kill(4); err != nil {
		t.Fatal(err)
	}
	v, err := c.WaitRequest(r, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Equal(expr.VInt(2187)) { // 3^7
		t.Fatalf("tree(7) = %v, want 2187", v)
	}
}

func TestKillValidation(t *testing.T) {
	c, err := New(2, 5, true, "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if err := c.Kill(9); err == nil {
		t.Error("out-of-range kill accepted")
	}
	if err := c.Kill(1); err != nil {
		t.Fatal(err)
	}
	if err := c.Kill(1); err == nil {
		t.Error("double kill accepted")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(1, 1, true, ""); err == nil {
		t.Error("single-node cluster accepted")
	}
	if _, err := New(2, 1, true, "nosuch"); err == nil {
		t.Error("unknown evaluator accepted")
	}
	c, err := New(2, 1, true, "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if _, err := c.Submit(lang.Fib(), "nosuch", nil); err == nil {
		t.Error("unknown function accepted")
	}
	if _, err := c.Submit(nil, "fib", nil); err == nil {
		t.Error("nil program accepted")
	}
}
