package machine

import (
	"math/rand"
	"testing"

	"repro/internal/balance"
	"repro/internal/expr"
	"repro/internal/lang"
)

// TestProcRandMatchesDirectSource pins the RNG contract every artifact
// depends on: processor i of a built machine draws exactly the sequence a
// math/rand source seeded directly with mixSeed(seed, i) produces.
func TestProcRandMatchesDirectSource(t *testing.T) {
	const seed, draws = 42, 2000
	m, err := New(Config{Topo: mustTopo(t, "mesh", 16), Seed: seed}, lang.Fib())
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range append(append([]*proc(nil), m.procs...), m.host) {
		want := rand.New(rand.NewSource(mixSeed(seed, i)))
		for d := 0; d < draws; d++ {
			n := 1 + d%97
			if got, w := p.Rand().Intn(n), want.Intn(n); got != w {
				t.Fatalf("proc %d draw %d: Intn(%d) = %d, want %d", i, d, n, got, w)
			}
		}
	}
}

// TestProcRandDrawAllocatesNothing guards the draw path against any return
// of per-draw growth: once seeded, a processor's draws allocate nothing.
func TestProcRandDrawAllocatesNothing(t *testing.T) {
	m, err := New(Config{Topo: mustTopo(t, "mesh", 4), Seed: 3}, lang.Fib())
	if err != nil {
		t.Fatal(err)
	}
	p := m.procs[0]
	p.Rand().Intn(7) // seed the source outside the measurement
	if allocs := testing.AllocsPerRun(100, func() { p.Rand().Intn(7) }); allocs != 0 {
		t.Fatalf("Rand().Intn allocates %v per draw, want 0", allocs)
	}
}

// TestRandSeededLazily checks that processors which never draw never pay
// for a source: a fault-free run under non-random placement leaves every
// processor's RNG unseeded.
func TestRandSeededLazily(t *testing.T) {
	prog := lang.Fib()
	args := []expr.Value{expr.VInt(10)}
	for _, placement := range []balance.Policy{
		balance.NewStaticHash(), balance.NewGradient(0, 0, 0), balance.NewLocal(),
	} {
		m, err := New(Config{Topo: mustTopo(t, "mesh", 8), Placement: placement, Seed: 5}, prog)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := m.Run("fib", args, nil)
		if err != nil {
			t.Fatal(err)
		}
		expectAnswer(t, rep, prog, "fib", args)
		for i, p := range append(append([]*proc(nil), m.procs...), m.host) {
			if p.rng != nil {
				t.Errorf("%s: proc %d seeded an RNG in a run that never draws", placement.Name(), i)
			}
		}
	}
}
