package livenet

import (
	"testing"
	"time"

	"repro/internal/expr"
	"repro/internal/lang"
)

// TestLiveKillSoak drives the kill/recover cycle across many seeds and kill
// instants; it exists because the livenet wedge class (orphan-lineage
// reissues colliding with main-lineage incarnations) only shows under
// scheduling variety.
func TestLiveKillSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak is slow")
	}
	for iter := 0; iter < 12; iter++ {
		c, r := start(t, 6, int64(iter)*31+2, lang.Fib(), "fib", 15)
		time.Sleep(time.Duration(iter%7) * time.Millisecond)
		if err := c.Kill(2); err != nil {
			c.Shutdown()
			t.Fatal(err)
		}
		v, err := c.WaitRequest(r, 10*time.Second)
		spawned, reissued, drained := c.Stats()
		c.Shutdown()
		if err != nil {
			t.Fatalf("iter %d HUNG: %v (spawned=%d reissued=%d drained=%d)",
				iter, err, spawned, reissued, drained)
		}
		if !v.Equal(expr.VInt(610)) {
			t.Fatalf("iter %d: wrong answer %v", iter, v)
		}
	}
}
