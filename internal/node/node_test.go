package node

import (
	"testing"

	"repro/internal/expr"
	"repro/internal/lang"
	"repro/internal/proto"
	"repro/internal/stamp"
)

// world is a deterministic in-memory transport: one FIFO of messages for
// every node, delivered one at a time, so protocol behaviour is checked
// without any scheduling nondeterminism.
type world struct {
	t       *testing.T
	nodes   []*Node
	dead    map[proto.ProcID]bool
	queue   []envelope
	answers []*proto.Result // results addressed to the super-root
	spawns  int
}

type envelope struct {
	to     proto.ProcID
	spawn  *Packet
	result *proto.Result
}

func newWorld(t *testing.T, procs int) *world {
	w := &world{t: t, dead: map[proto.ProcID]bool{}}
	for i := 0; i < procs; i++ {
		w.nodes = append(w.nodes, New(i, procs, 7, w, func(d proto.ProcID) bool { return !w.dead[d] }))
	}
	return w
}

func (w *world) Spawn(dest proto.ProcID, pkt *Packet, _ bool) error {
	w.spawns++
	w.queue = append(w.queue, envelope{to: dest, spawn: pkt})
	return nil
}

func (w *world) Result(to proto.ProcID, r *proto.Result) error {
	if to == proto.HostID {
		w.answers = append(w.answers, r)
		return nil
	}
	w.queue = append(w.queue, envelope{to: to, result: r})
	return nil
}

// step delivers up to n queued messages; messages to dead nodes vanish.
func (w *world) step(n int) {
	for ; n > 0 && len(w.queue) > 0; n-- {
		e := w.queue[0]
		w.queue = w.queue[1:]
		if w.dead[e.to] {
			continue
		}
		var err error
		if e.spawn != nil {
			err = w.nodes[e.to].Spawn(e.spawn)
		} else {
			err = w.nodes[e.to].Result(e.result)
		}
		if err != nil {
			w.t.Fatal(err)
		}
	}
}

// fibRoot is the root packet of fib(n), parented by the super-root.
func fibRoot(t *testing.T, n int64) *Packet {
	ev, err := lang.EvaluatorByName(lang.DefaultEvaluator)
	if err != nil {
		t.Fatal(err)
	}
	code, err := ev.Compile(lang.Fib())
	if err != nil {
		t.Fatal(err)
	}
	return &Packet{TaskPacket: &proto.TaskPacket{
		Key:    proto.TaskKey{Stamp: stamp.FromPath(0)},
		Fn:     "fib",
		Args:   []expr.Value{expr.VInt(n)},
		Parent: proto.Addr{Proc: proto.HostID},
	}, Code: code}
}

func wantFib(t *testing.T, n int64) expr.Value {
	v, err := lang.RefEval(lang.Fib(), "fib", []expr.Value{expr.VInt(n)})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestFaultFreeAnswerMatchesRefEval(t *testing.T) {
	w := newWorld(t, 4)
	if err := w.nodes[0].Spawn(fibRoot(t, 12)); err != nil {
		t.Fatal(err)
	}
	w.step(1 << 20)
	if len(w.answers) != 1 || !w.answers[0].Value.Equal(wantFib(t, 12)) {
		t.Fatalf("answers %v, want one fib(12)", w.answers)
	}
	for i, n := range w.nodes {
		if n.Drained.Load() != 0 || n.Reissues.Load() != 0 {
			t.Errorf("node %d drained %d reissued %d on a fault-free run", i, n.Drained.Load(), n.Reissues.Load())
		}
	}
}

// TestNodeDownReissuesLostChildren kills a node mid-run: its queued and
// future messages vanish, the survivors hear of the death, and their
// retained checkpoints regenerate the lost subtrees (§3).
func TestNodeDownReissuesLostChildren(t *testing.T) {
	w := newWorld(t, 4)
	if err := w.nodes[0].Spawn(fibRoot(t, 12)); err != nil {
		t.Fatal(err)
	}
	w.step(40)
	w.dead[2] = true
	for i, n := range w.nodes {
		if !w.dead[proto.ProcID(i)] {
			if err := n.NodeDown(2); err != nil {
				t.Fatal(err)
			}
		}
	}
	w.step(1 << 20)
	if len(w.answers) == 0 || !w.answers[0].Value.Equal(wantFib(t, 12)) {
		t.Fatalf("answers %v, want fib(12)", w.answers)
	}
	var reissues int64
	for _, n := range w.nodes {
		reissues += n.Reissues.Load()
	}
	if reissues == 0 {
		t.Fatal("no checkpoint was reissued after the death")
	}
	if err := w.nodes[0].NodeDown(9); err == nil {
		t.Fatal("node-down for an unknown node accepted")
	}
}

// TestDuplicateIncarnationRule: a re-delivery with the same parent address
// keeps the incumbent; a packet from another parent incarnation runs
// alongside, and one child's result serves both.
func TestDuplicateIncarnationRule(t *testing.T) {
	w := newWorld(t, 2)
	n := w.nodes[0]
	pkt := fibRoot(t, 3)
	if err := n.Spawn(pkt); err != nil {
		t.Fatal(err)
	}
	first := w.spawns
	if err := n.Spawn(pkt); err != nil || w.spawns != first {
		t.Fatalf("re-delivery spawned %d more children (err %v)", w.spawns-first, err)
	}
	other := *pkt.TaskPacket
	other.Parent = proto.Addr{Proc: 1, Task: proto.TaskKey{Stamp: stamp.FromPath(9)}}
	if err := n.Spawn(&Packet{TaskPacket: &other, Code: pkt.Code}); err != nil || w.spawns != 2*first {
		t.Fatalf("second incarnation spawned %d children, want %d (err %v)", w.spawns-first, first, err)
	}
	// Answer only the first incarnation's children: their results fill the
	// second incarnation's holes too, so it needs nothing of its own.
	w.queue = w.queue[:first]
	w.step(1 << 20)
	if len(w.answers) != 1 || !w.answers[0].Value.Equal(wantFib(t, 3)) {
		t.Fatalf("super-root answers = %v, want one fib(3)", w.answers)
	}
	// The second incarnation finished too; its parent address names a task
	// node 1 never had, so its answer drains there.
	if d := w.nodes[1].Drained.Load(); d != 1 {
		t.Fatalf("node 1 drained %d, want the second incarnation's answer", d)
	}
	if len(w.queue) != 0 {
		t.Fatalf("%d messages undelivered", len(w.queue))
	}
}
