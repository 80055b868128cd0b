// Package livenet runs the applicative machine on real concurrency: one
// goroutine per node, channels as the interconnect, actual asynchrony
// instead of the discrete-event kernel's virtual time. It demonstrates that
// functional checkpointing (§2) needs nothing from the simulator: a parent
// that retains its children's task packets can regenerate them on any node
// after a crash, and determinacy (§2.1) makes the regenerated run converge
// to the same answer despite wildly nondeterministic interleavings.
//
// The node protocol is internal/node's rollback core and the super-root is
// internal/wall's Host; this package is only the channel transport between
// them.
package livenet

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/lang"
	"repro/internal/node"
	"repro/internal/proto"
	"repro/internal/wall"
)

// msg is anything a node can receive.
type msg struct {
	// spawn: install and run this packet.
	spawn *node.Packet
	// result: a child's answer for the addressee task's hole.
	result *proto.Result
	// nodeDown: the named node died (1-based; 0 = not a death notice).
	nodeDown int
}

// msgWireSize mirrors proto.Msg.EncodedSize for the live message shapes: a
// fixed header plus the payload's codec size (16 for the small fixed
// payloads, here nodeDown) — the figure the simulator charges per hop, so
// the backends' byte totals are comparable.
func msgWireSize(m msg) int {
	const header = 12
	switch {
	case m.spawn != nil:
		return header + m.spawn.EncodedSize()
	case m.result != nil:
		return header + m.result.EncodedSize()
	default:
		return header + 16
	}
}

// lnode is one goroutine-backed processor.
type lnode struct {
	*node.Node
	inbox chan msg
	alive atomic.Bool
}

// Cluster is a live machine: the super-root Host plus the node goroutines.
type Cluster struct {
	*wall.Host
	nodes []*lnode

	// eval compiles each program once, at Submit time (never on the
	// per-task hot path); evalCache memoizes it per program.
	eval      lang.Evaluator
	evalMu    sync.Mutex
	evalCache map[*lang.Program]lang.EvalProgram

	// recov is false under the "none" scheme: survivors are not told
	// about deaths and the super-root does not reissue the root, so lost
	// work stays lost — like the simulator's "none", a faulted run simply
	// never finishes.
	recov bool

	wg sync.WaitGroup
}

// New builds a cluster of n goroutine nodes running evaluator eval (""
// selects lang.DefaultEvaluator).
func New(n int, seed int64, recov bool, eval string) (*Cluster, error) {
	if n < 2 {
		return nil, errors.New("livenet: need at least 2 nodes")
	}
	if eval == "" {
		eval = lang.DefaultEvaluator
	}
	ev, err := lang.EvaluatorByName(eval)
	if err != nil {
		return nil, err
	}
	c := &Cluster{eval: ev, evalCache: map[*lang.Program]lang.EvalProgram{}, recov: recov}
	c.Host = wall.NewHost("livenet", n, c)
	for i := 0; i < n; i++ {
		// The inbox buffer absorbs a node's burst of child spawns without
		// falling back to send's per-message overflow goroutines.
		nd := &lnode{inbox: make(chan msg, 4096)}
		nd.Node = node.New(i, n, seed, c, func(d proto.ProcID) bool { return c.Alive(int(d)) })
		nd.alive.Store(true)
		c.nodes = append(c.nodes, nd)
	}
	for _, nd := range c.nodes {
		c.wg.Add(1)
		go c.run(nd)
	}
	return c, nil
}

// Alive implements wall.Links.
func (c *Cluster) Alive(i int) bool { return c.nodes[i].alive.Load() }

// Load implements wall.Links: compile prog with the cluster's evaluator,
// memoized per program. Code is resident in-process, so the wire index is
// always 0.
func (c *Cluster) Load(prog *lang.Program) (int, lang.EvalProgram, error) {
	c.evalMu.Lock()
	defer c.evalMu.Unlock()
	if ep, ok := c.evalCache[prog]; ok {
		return 0, ep, nil
	}
	ep, err := c.eval.Compile(prog)
	if err != nil {
		return 0, nil, fmt.Errorf("livenet: compile: %w", err)
	}
	c.evalCache[prog] = ep
	return 0, ep, nil
}

// SendRoot implements wall.Links.
func (c *Cluster) SendRoot(dest int, pkt *node.Packet, _ bool) { c.send(dest, msg{spawn: pkt}) }

// Spawn implements node.Transport. Every spawn, reissues included, counts
// as a spawned packet.
func (c *Cluster) Spawn(dest proto.ProcID, pkt *node.Packet, reissue bool) error {
	c.Spawned.Add(1)
	if reissue {
		c.Reissued.Add(1)
	}
	c.send(int(dest), msg{spawn: pkt})
	return nil
}

// Result implements node.Transport: a root's answer goes straight to the
// in-process super-root, any other over the interconnect.
func (c *Cluster) Result(to proto.ProcID, r *proto.Result) error {
	if to == proto.HostID {
		c.Deliver(r)
	} else {
		c.send(int(to), msg{result: r})
	}
	return nil
}

// Kill crashes a node: its goroutine stops processing, resident tasks are
// lost, and every live node (and the super-root, for roots) reissues the
// retained packets of children it had placed there.
func (c *Cluster) Kill(id int) error {
	if id < 0 || id >= len(c.nodes) {
		return fmt.Errorf("livenet: no node %d", id)
	}
	nd := c.nodes[id]
	if !nd.alive.CompareAndSwap(true, false) {
		return fmt.Errorf("livenet: node %d already dead", id)
	}
	// Drain the dead inbox so senders never block; messages into the void
	// model the paper's fail-silent node.
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for {
			select {
			case <-nd.inbox:
				c.Drained.Add(1)
			case <-c.Quit():
				return
			}
		}
	}()
	if !c.recov {
		return nil // lost work stays lost (§3's motivation, negated)
	}
	for i, other := range c.nodes {
		if other.alive.Load() {
			c.send(i, msg{nodeDown: id + 1})
		}
	}
	c.NodeDied(id)
	return nil
}

// Shutdown stops every node goroutine and drainer. Call it exactly once;
// the cluster is unusable afterwards.
func (c *Cluster) Shutdown() {
	c.Stop()
	c.wg.Wait()
}

// Stats reports the stream counters, with the drains the nodes counted.
func (c *Cluster) Stats() (spawned, reissued, drained int64) {
	spawned, reissued, drained = c.Host.Stats()
	for _, nd := range c.nodes {
		drained += nd.Drained.Load()
	}
	return spawned, reissued, drained
}

// ReissuesByNode reports how many retained child packets each node re-sent
// as a parent after peer deaths. The super-root's reissue of a root packet
// (§4.3.1) is counted in Stats but belongs to no node.
func (c *Cluster) ReissuesByNode() []int64 {
	out := make([]int64, len(c.nodes))
	for i, nd := range c.nodes {
		out[i] = nd.Reissues.Load()
	}
	return out
}

// send delivers to a node's inbox (dead nodes drain it). The send never
// blocks the caller: a node that blocked on a full peer inbox — or its own —
// could deadlock the cluster, so overflow is handed to a goroutine that
// gives up at shutdown. Causal order is preserved (a result can only be
// produced after its spawn was processed); order between independent
// messages is already arbitrary on a real interconnect.
func (c *Cluster) send(dest int, m msg) {
	c.Msgs.Add(1)
	c.MsgBytes.Add(int64(msgWireSize(m)))
	select {
	case c.nodes[dest].inbox <- m:
	default:
		go func() {
			select {
			case c.nodes[dest].inbox <- m:
			case <-c.Quit():
			}
		}()
	}
}

// run is the node's goroutine loop: §4.2's "LOOP CASE received packet OF
// ..." on a channel. The transport never fails, so an error is an
// evaluator fault in a validated program — a bug.
func (c *Cluster) run(nd *lnode) {
	defer c.wg.Done()
	for {
		select {
		case m := <-nd.inbox:
			if !nd.alive.Load() {
				// Crashed mid-queue: stop processing; the drainer takes
				// over this inbox.
				return
			}
			var err error
			switch {
			case m.spawn != nil:
				err = nd.Spawn(m.spawn)
			case m.result != nil:
				err = nd.Result(m.result)
			case m.nodeDown != 0:
				err = nd.NodeDown(m.nodeDown - 1)
			}
			if err != nil {
				panic(fmt.Sprintf("livenet: %v", err))
			}
		case <-c.Quit():
			return
		}
	}
}
