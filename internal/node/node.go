// Package node is the paper's rollback node protocol, once, for every
// wall-clock transport: §4.2's "LOOP CASE received packet OF …" as a
// transport-agnostic state machine. A Node installs task packets, keeps
// each child's packet as its functional checkpoint (§2.1), fills holes from
// results, and resends a dead node's children from those checkpoints (§3).
//
// The recovery style is rollback in its simplest form: every parent
// reissues its own lost children (per-parent reissue; the topmost-table
// optimization of §3.2 is exercised by the deterministic machine in
// internal/machine and deliberately omitted here). Orphaned work keeps
// running and its results are drained harmlessly — "Returns from orphan
// tasks are theoretically harmless" (§3.4).
//
// A Node is single-threaded: the owner feeds it one message at a time
// (livenet from one goroutine per node, netnode from each child process's
// frame loop) and it answers through a Transport.
package node

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"repro/internal/expr"
	"repro/internal/lang"
	"repro/internal/proto"
)

// Packet is a task packet as a node holds it: the wire packet plus the
// compiled program its Fn resolves in. Code is a resident in-process
// pointer, never wire payload; the wire names the program by Prog.
// Children inherit their parent's program.
type Packet struct {
	*proto.TaskPacket
	Code lang.EvalProgram
}

// Transport carries a node's outbound protocol messages.
type Transport interface {
	// Spawn sends pkt to node dest; reissue marks a resend of a retained
	// checkpoint after the node it was placed on died.
	Spawn(dest proto.ProcID, pkt *Packet, reissue bool) error
	// Result sends a finished task's value to node to (proto.HostID for a
	// root, whose parent is the super-root of §4.3.1).
	Result(to proto.ProcID, r *proto.Result) error
}

// task is a resident task incarnation.
type task struct {
	pkt      *Packet
	residual lang.TaskState
	nextID   int
	fills    map[int]expr.Value
	unfilled int
	// children maps hole id → retained child packet + destination node:
	// the functional checkpoint (§2.1).
	children map[int]*ckpt
}

type ckpt struct {
	pkt    *Packet
	dest   proto.ProcID
	filled bool
}

// Node is one processor's protocol state. Tasks are keyed by stamp, with a
// list per key: after recovery several incarnations of the same logical
// task (spawned by different parent incarnations) can legitimately
// coexist, and determinacy makes any result valid for all of them.
type Node struct {
	id    proto.ProcID
	tr    Transport
	alive func(proto.ProcID) bool
	tasks map[proto.TaskKey][]*task
	rng   *rand.Rand
	live  []bool // local view of node liveness

	// Drained counts results ignored as late, orphaned or duplicate;
	// Reissues counts retained packets this node re-sent as a parent after
	// peer deaths. Both may be read from other goroutines.
	Drained, Reissues atomic.Int64
}

// New builds node id of a procs-node cluster. Placement draws come from a
// private source seeded seed + id*7919. alive, if non-nil, is a global
// liveness hint consulted on top of the node's own death announcements.
func New(id, procs int, seed int64, tr Transport, alive func(proto.ProcID) bool) *Node {
	n := &Node{
		id:    proto.ProcID(id),
		tr:    tr,
		alive: alive,
		tasks: map[proto.TaskKey][]*task{},
		rng:   rand.New(rand.NewSource(seed + int64(id)*7919)),
		live:  make([]bool, procs),
	}
	for i := range n.live {
		n.live[i] = true
	}
	return n
}

// Spawn installs a task and runs its first pass. A duplicate with the same
// parent address and hole is a harmless re-delivery and keeps the
// incumbent; a duplicate with a *different* parent address is another
// incarnation (spawned by a recovered — or orphaned — parent incarnation)
// and runs alongside: killing either would wedge whichever lineage needed
// it, and determinacy keeps coexistence harmless.
func (n *Node) Spawn(pkt *Packet) error {
	for _, old := range n.tasks[pkt.Key] {
		if old.pkt.Parent == pkt.Parent && old.pkt.HoleID == pkt.HoleID {
			return nil
		}
	}
	t := &task{pkt: pkt, fills: map[int]expr.Value{}, children: map[int]*ckpt{}}
	n.tasks[pkt.Key] = append(n.tasks[pkt.Key], t)
	out, st, err := pkt.Code.Flatten(pkt.Fn, pkt.Args, &t.nextID)
	if err != nil {
		return fmt.Errorf("node %d: %w", n.id, err)
	}
	return n.apply(t, out, st)
}

// apply handles a pass outcome: finish, or checkpoint-and-spawn the demands.
func (n *Node) apply(t *task, out lang.Outcome, st lang.TaskState) error {
	if out.Done {
		return n.finish(t, out.Value)
	}
	t.residual = st
	for _, d := range out.Demands {
		child := &Packet{TaskPacket: &proto.TaskPacket{
			Key:    proto.TaskKey{Stamp: t.pkt.Key.Stamp.Child(uint32(d.ID))},
			Fn:     d.Fn,
			Args:   d.Args,
			Parent: proto.Addr{Proc: n.id, Task: t.pkt.Key},
			HoleID: d.ID,
			Prog:   t.pkt.Prog,
		}, Code: t.pkt.Code}
		dest := n.pickDest()
		// Functional checkpoint: retain the packet and remember where it
		// went (§2.1); this is everything recovery needs.
		t.children[d.ID] = &ckpt{pkt: child, dest: dest}
		t.unfilled++
		if err := n.tr.Spawn(dest, child, false); err != nil {
			return err
		}
	}
	return nil
}

// finish sends the task's value to its parent and retires that incarnation.
func (n *Node) finish(t *task, v expr.Value) error {
	list := n.tasks[t.pkt.Key]
	for i, cand := range list {
		if cand == t {
			list = append(list[:i], list[i+1:]...)
			break
		}
	}
	if len(list) == 0 {
		delete(n.tasks, t.pkt.Key)
	} else {
		n.tasks[t.pkt.Key] = list
	}
	return n.tr.Result(t.pkt.Parent.Proc, &proto.Result{
		Child:      t.pkt.Key,
		ParentTask: t.pkt.Parent.Task,
		HoleID:     t.pkt.HoleID,
		Value:      v,
	})
}

// Result fills the matching hole of every incarnation of the addressee
// task — results are determinate, so one child's answer serves them all —
// and resumes whichever incarnations become complete. Duplicates and
// orphans drain harmlessly (§3.4).
func (n *Node) Result(r *proto.Result) error {
	consumed := false
	// finish() mutates the list; iterate over a snapshot.
	for _, t := range append([]*task(nil), n.tasks[r.ParentTask]...) {
		ck := t.children[r.HoleID]
		if ck == nil || ck.filled {
			continue
		}
		consumed = true
		ck.filled = true
		t.fills[r.HoleID] = r.Value
		t.unfilled--
		if t.unfilled > 0 {
			continue
		}
		fills := t.fills
		t.fills = map[int]expr.Value{}
		out, st, err := t.pkt.Code.Resume(t.residual, fills, &t.nextID)
		if err != nil {
			return fmt.Errorf("node %d: %w", n.id, err)
		}
		if err := n.apply(t, out, st); err != nil {
			return err
		}
	}
	if !consumed {
		// Late, orphan (§4.2 rule of thumb) or duplicate: "the second copy
		// is simply ignored".
		n.Drained.Add(1)
	}
	return nil
}

// NodeDown reissues the retained packets of unfilled children that were
// placed on the dead node — the rollback reissue of §3, one parent
// incarnation at a time.
func (n *Node) NodeDown(dead int) error {
	if dead < 0 || dead >= len(n.live) {
		return fmt.Errorf("node %d: node-down for unknown node %d", n.id, dead)
	}
	n.live[dead] = false
	for _, list := range n.tasks {
		for _, t := range list {
			for _, ck := range t.children {
				if ck.filled || ck.dest != proto.ProcID(dead) {
					continue
				}
				ck.dest = n.pickDest()
				n.Reissues.Add(1)
				if err := n.tr.Spawn(ck.dest, ck.pkt, true); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// pickDest chooses a uniformly random live node (possibly itself).
func (n *Node) pickDest() proto.ProcID {
	for tries := 0; tries < 64; tries++ {
		d := proto.ProcID(n.rng.Intn(len(n.live)))
		if n.live[d] && (n.alive == nil || n.alive(d)) {
			return d
		}
	}
	return n.id
}
