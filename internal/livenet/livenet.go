// Package livenet runs the applicative machine on real concurrency: one
// goroutine per node, channels as the interconnect, actual asynchrony
// instead of the discrete-event kernel's virtual time. It demonstrates that
// functional checkpointing (§2) needs nothing from the simulator: a parent
// that retains its children's task packets can regenerate them on any node
// after a crash, and determinacy (§2.1) makes the regenerated run converge
// to the same answer despite wildly nondeterministic interleavings.
//
// The recovery style is the paper's rollback (§3) in its simplest form:
// every parent reissues its own lost children (per-parent reissue; the
// topmost-table optimization of §3.2 is exercised by the deterministic
// machine in internal/machine and deliberately omitted here). Orphaned
// work keeps running and its results are drained harmlessly — "Returns from
// orphan tasks are theoretically harmless" (§3.4).
package livenet

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/expr"
	"repro/internal/lang"
	"repro/internal/proto"
	"repro/internal/stamp"
)

// msg is anything a node can receive.
type msg struct {
	// spawn: install and run this packet.
	spawn *packet
	// result: child's answer for the addressee task's hole.
	result *resultMsg
	// nodeDown: the named node died; reissue lost children.
	nodeDown int
}

// packet is the live task packet — the functional checkpoint payload.
type packet struct {
	stamp      stamp.Stamp
	fn         string
	args       []expr.Value
	parentNode int // -1 = the cluster itself (super-root, §4.3.1)
	parentTask stamp.Stamp
	holeID     int
	// prog is the program the packet's fn resolves in. Requests of one
	// service stream may carry different programs (with clashing function
	// names), so every packet names its own; children inherit their
	// parent's. Code is resident in-process — this is a pointer, not wire
	// payload. nil falls back to the cluster's build program.
	prog *lang.Program
	// ep is prog compiled by the cluster's evaluator, resolved once at
	// Submit time and inherited by children — like prog, a resident
	// in-process pointer, never wire payload.
	ep lang.EvalProgram
	// wireSize is the packet's proto codec size, sealed by encodedSize at
	// construction (before the pointer is shared) so reissues — which resend
	// the same retained pointer, possibly from another goroutine — only read.
	wireSize int
}

// encodedSize memoizes the packet's proto wire size — the same
// proto.TaskPacket.EncodedSize figure the simulator charges per hop, so the
// two backends' byte totals are comparable. Construction sites call it once
// before the packet is shared.
func (p *packet) encodedSize() int {
	if p.wireSize == 0 {
		view := proto.TaskPacket{
			Key:    proto.TaskKey{Stamp: p.stamp},
			Fn:     p.fn,
			Args:   p.args,
			Parent: proto.Addr{Proc: proto.ProcID(p.parentNode), Task: proto.TaskKey{Stamp: p.parentTask}},
			HoleID: p.holeID,
		}
		p.wireSize = view.EncodedSize()
	}
	return p.wireSize
}

// msgWireSize mirrors proto.Msg.EncodedSize for the live message shapes:
// a fixed header plus the payload's codec size (16 for the small fixed
// payloads, here nodeDown).
func msgWireSize(m msg) int {
	const header = 12
	switch {
	case m.spawn != nil:
		return header + m.spawn.encodedSize()
	case m.result != nil:
		view := proto.Result{
			Child:      proto.TaskKey{Stamp: m.result.child},
			ParentTask: proto.TaskKey{Stamp: m.result.parent},
			HoleID:     m.result.holeID,
			Value:      m.result.value,
		}
		return header + view.EncodedSize()
	default:
		return header + 16
	}
}

type resultMsg struct {
	child  stamp.Stamp
	parent stamp.Stamp
	holeID int
	value  expr.Value
}

// ltask is a resident live task.
type ltask struct {
	pkt      *packet
	residual lang.TaskState
	nextID   int
	fills    map[int]expr.Value
	unfilled int
	// children maps hole id → retained child packet + destination node:
	// the functional checkpoint (§2.1).
	children map[int]*childCkpt
}

type childCkpt struct {
	pkt    *packet
	dest   int
	filled bool
}

// node is one goroutine-backed processor. Tasks are keyed by stamp, with a
// list per stamp: after recovery several incarnations of the same logical
// task (spawned by different parent incarnations) can legitimately coexist,
// and determinacy makes any result valid for all of them.
type node struct {
	id    int
	c     *Cluster
	inbox chan msg
	alive atomic.Bool
	tasks map[stamp.Stamp][]*ltask
	rng   *rand.Rand
	live  []bool // local view of node liveness
	// reissues counts the retained packets this node re-sent as a parent
	// after peer deaths — the per-node recovery-load statistic.
	reissues atomic.Int64
}

// Request is one submitted root application: the cluster retains its root
// packet (the super-root pre-evaluation checkpoint of §4.3.1) and routes
// its answer to a private channel, so many requests can be in flight on the
// persistent node network at once.
type Request struct {
	id       uint32
	resultCh chan expr.Value
	rootPkt  *packet
	rootDest int
	done     bool
	// doneAt is the first delivery's wall time, written under reqMu before
	// the answer is sent, so a receiver of resultCh may read it.
	doneAt time.Time
}

// ID is the request's stream index.
func (r *Request) ID() int { return int(r.id) }

// Cluster is a live machine.
type Cluster struct {
	prog  *lang.Program
	nodes []*node

	// eval is the evaluator that runs reduction passes; evalCache memoizes
	// compilation per program (Submit-time, never the per-task hot path).
	eval      lang.Evaluator
	evalMu    sync.Mutex
	evalCache map[*lang.Program]lang.EvalProgram

	// reqMu guards the request table and each request's rootDest/done;
	// deliverRoot and Kill both take it, so a root reissue can never race
	// its own completion.
	reqMu   sync.Mutex
	reqs    map[uint32]*Request
	nextReq uint32
	defReq  *Request // the Start/Wait single-request compatibility handle
	// onReqDone, when set, runs after a request's *first* root delivery,
	// outside reqMu (it may re-enter Submit). The service session's bounded
	// admission uses it to free an in-flight slot and install the queue head.
	onReqDone func()

	spawned   atomic.Int64
	reissued  atomic.Int64
	drained   atomic.Int64
	killsSeen atomic.Int64
	msgs      atomic.Int64
	msgBytes  atomic.Int64

	// noRecovery disables reissue after kills (the "none" scheme): survivors
	// are not told about deaths and the super-root does not reissue the
	// root, so lost work stays lost — like the simulator's "none", a
	// faulted run simply never finishes.
	noRecovery bool

	// quit, when closed, stops every node goroutine, drainer, and pending
	// overflow send. Inbox channels are never closed (closing a channel
	// with concurrent senders is a race).
	quit chan struct{}
	wg   sync.WaitGroup
}

// DisableRecovery switches the cluster to the "none" scheme: kills are not
// announced and nothing is reissued. Call before Start.
func (c *Cluster) DisableRecovery() { c.noRecovery = true }

// SetEvaluator switches the evaluator that runs reduction passes. Call
// before the first Submit; programs already compiled keep their form.
func (c *Cluster) SetEvaluator(name string) error {
	ev, err := lang.EvaluatorByName(name)
	if err != nil {
		return err
	}
	c.evalMu.Lock()
	c.eval = ev
	c.evalMu.Unlock()
	return nil
}

// epOf compiles prog with the cluster's evaluator, memoized per program.
func (c *Cluster) epOf(prog *lang.Program) (lang.EvalProgram, error) {
	c.evalMu.Lock()
	defer c.evalMu.Unlock()
	if ep, ok := c.evalCache[prog]; ok {
		return ep, nil
	}
	ep, err := c.eval.Compile(prog)
	if err != nil {
		return nil, fmt.Errorf("livenet: compile: %w", err)
	}
	c.evalCache[prog] = ep
	return ep, nil
}

// New builds a cluster of n goroutine nodes. prog is the default program
// for Start; it may be nil when every workload arrives through Submit with
// its own program (the service stream).
func New(prog *lang.Program, n int, seed int64) (*Cluster, error) {
	if n < 2 {
		return nil, errors.New("livenet: need at least 2 nodes")
	}
	defEval, err := lang.EvaluatorByName(lang.DefaultEvaluator)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		prog:      prog,
		eval:      defEval,
		evalCache: map[*lang.Program]lang.EvalProgram{},
		reqs:      map[uint32]*Request{},
		quit:      make(chan struct{}),
	}
	for i := 0; i < n; i++ {
		nd := &node{
			id:    i,
			c:     c,
			inbox: make(chan msg, 4096),
			tasks: map[stamp.Stamp][]*ltask{},
			rng:   rand.New(rand.NewSource(seed + int64(i)*7919)),
			live:  make([]bool, n),
		}
		for j := range nd.live {
			nd.live[j] = true
		}
		nd.alive.Store(true)
		c.nodes = append(c.nodes, nd)
	}
	for _, nd := range c.nodes {
		c.wg.Add(1)
		go nd.run()
	}
	return c, nil
}

// Submit enqueues one root application on the persistent network and
// returns its request handle. The root packet is stamped with the request's
// stream index, so every request's task tree is disjoint from every
// other's; roots are spread across live nodes round-robin (request 0 lands
// on node 0, the one-shot path).
func (c *Cluster) Submit(prog *lang.Program, fn string, args []expr.Value) (*Request, error) {
	if prog == nil {
		prog = c.prog
	}
	if prog == nil {
		return nil, errors.New("livenet: program required")
	}
	if _, ok := prog.Func(fn); !ok {
		return nil, fmt.Errorf("livenet: unknown function %q", fn)
	}
	ep, err := c.epOf(prog)
	if err != nil {
		return nil, err
	}
	c.reqMu.Lock()
	id := c.nextReq
	c.nextReq++
	root := &packet{
		stamp:      stamp.FromPath(id),
		fn:         fn,
		args:       args,
		parentNode: -1,
		prog:       prog,
		ep:         ep,
	}
	root.encodedSize() // seal the wire size before the packet is shared
	r := &Request{id: id, resultCh: make(chan expr.Value, 1), rootPkt: root}
	r.rootDest = c.pickLiveFrom(int(id) % len(c.nodes))
	c.reqs[id] = r
	dest := r.rootDest
	c.reqMu.Unlock()
	c.spawned.Add(1)
	c.send(dest, msg{spawn: root})
	return r, nil
}

// Start submits the root application of the build program; the single-
// request compatibility entry point (Wait answers it).
func (c *Cluster) Start(fn string, args []expr.Value) error {
	r, err := c.Submit(c.prog, fn, args)
	if err != nil {
		return err
	}
	c.defReq = r
	return nil
}

// Kill crashes a node: its goroutine stops processing, resident tasks are
// lost, and every live node (and the cluster, for the root) reissues the
// retained packets of children it had placed there.
func (c *Cluster) Kill(id int) error {
	if id < 0 || id >= len(c.nodes) {
		return fmt.Errorf("livenet: no node %d", id)
	}
	nd := c.nodes[id]
	if !nd.alive.CompareAndSwap(true, false) {
		return fmt.Errorf("livenet: node %d already dead", id)
	}
	c.killsSeen.Add(1)
	// Drain the dead inbox so senders never block; messages into the void
	// model the paper's fail-silent node.
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for {
			select {
			case <-nd.inbox:
				c.drained.Add(1)
			case <-c.quit:
				return
			}
		}
	}()
	if c.noRecovery {
		return nil // lost work stays lost (§3's motivation, negated)
	}
	// Tell the survivors.
	for _, other := range c.nodes {
		if other.alive.Load() {
			c.send(other.id, msg{nodeDown: id + 1})
		}
	}
	// The cluster is every root's parent: reissue each outstanding
	// request's root that was placed on the dead node (§4.3.1).
	c.reqMu.Lock()
	for _, r := range c.reqs {
		if r.done || r.rootDest != id {
			continue
		}
		r.rootDest = c.pickLive(id)
		c.reissued.Add(1)
		c.send(r.rootDest, msg{spawn: r.rootPkt})
	}
	c.reqMu.Unlock()
	return nil
}

// WaitRequest blocks until the request's answer arrives or the timeout
// elapses.
func (c *Cluster) WaitRequest(r *Request, timeout time.Duration) (expr.Value, error) {
	select {
	case v := <-r.resultCh:
		return v, nil
	case <-time.After(timeout):
		return nil, errors.New("livenet: timed out waiting for the answer")
	}
}

// Wait blocks until Start's answer arrives or the timeout elapses.
func (c *Cluster) Wait(timeout time.Duration) (expr.Value, error) {
	if c.defReq == nil {
		return nil, errors.New("livenet: Start was never called")
	}
	return c.WaitRequest(c.defReq, timeout)
}

// SetRequestDoneHook installs fn to run after each request's first root
// delivery, outside the request lock. Install before submitting traffic.
func (c *Cluster) SetRequestDoneHook(fn func()) {
	c.reqMu.Lock()
	c.onReqDone = fn
	c.reqMu.Unlock()
}

// deliverRoot hands a super-root result to its request; answers for
// already-answered (twin) or unknown roots drain harmlessly. Only the
// first delivery fires the completion hook — a twin's duplicate answer
// must not free a second admission slot.
func (c *Cluster) deliverRoot(root stamp.Stamp, v expr.Value) {
	id := root.Component(0)
	c.reqMu.Lock()
	r := c.reqs[id]
	first := r != nil && !r.done
	if first {
		r.done = true
		r.doneAt = time.Now()
	}
	hook := c.onReqDone
	c.reqMu.Unlock()
	if r == nil {
		c.drained.Add(1)
		return
	}
	select {
	case r.resultCh <- v:
	default: // a twin already answered; determinacy says it matches
	}
	if first && hook != nil {
		hook()
	}
}

// Shutdown stops every node goroutine and drainer. Call it exactly once;
// the cluster is unusable afterwards.
func (c *Cluster) Shutdown() {
	close(c.quit)
	c.wg.Wait()
}

// Stats reports counters for tests and examples.
func (c *Cluster) Stats() (spawned, reissued, drained int64) {
	return c.spawned.Load(), c.reissued.Load(), c.drained.Load()
}

// Messages is the total number of messages handed to the interconnect.
func (c *Cluster) Messages() int64 { return c.msgs.Load() }

// MsgBytes is the encoded payload byte total of Messages, in proto codec
// wire sizes.
func (c *Cluster) MsgBytes() int64 { return c.msgBytes.Load() }

// ReissuesByNode reports how many retained child packets each node re-sent
// as a parent after peer deaths. The super-root's reissue of the root packet
// (cluster-level, §4.3.1) is counted in Stats but belongs to no node.
func (c *Cluster) ReissuesByNode() []int64 {
	out := make([]int64, len(c.nodes))
	for i, nd := range c.nodes {
		out[i] = nd.reissues.Load()
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
	c.msgs.Add(1)
	c.msgBytes.Add(int64(msgWireSize(m)))
	select {
	case c.nodes[dest].inbox <- m:
	default:
		go func() {
			select {
			case c.nodes[dest].inbox <- m:
			case <-c.quit:
			}
		}()
	}
}

// pickLive chooses any live node other than avoid (falls back to 0).
func (c *Cluster) pickLive(avoid int) int {
	for i, nd := range c.nodes {
		if i != avoid && nd.alive.Load() {
			return i
		}
	}
	return 0
}

// pickLiveFrom scans from start for a live node (falls back to start).
func (c *Cluster) pickLiveFrom(start int) int {
	n := len(c.nodes)
	for i := 0; i < n; i++ {
		if d := (start + i) % n; c.nodes[d].alive.Load() {
			return d
		}
	}
	return start
}

// run is the node's goroutine loop: the live analogue of §4.2's protocol
// loop ("LOOP CASE received packet OF ...").
func (n *node) run() {
	defer n.c.wg.Done()
	for {
		select {
		case m := <-n.inbox:
			if !n.alive.Load() {
				// Crashed mid-queue: stop processing; the drainer takes
				// over this inbox.
				return
			}
			switch {
			case m.spawn != nil:
				n.onSpawn(m.spawn)
			case m.result != nil:
				n.onResult(m.result)
			case m.nodeDown != 0:
				n.onNodeDown(m.nodeDown - 1)
			}
		case <-n.c.quit:
			return
		}
	}
}

// onSpawn installs a task and runs its first pass. A duplicate with the
// same parent address is a harmless re-delivery and keeps the incumbent; a
// duplicate with a *different* parent address is another incarnation
// (spawned by a recovered — or orphaned — parent incarnation) and runs
// alongside: killing either would wedge whichever lineage needed it, and
// determinacy keeps coexistence harmless.
func (n *node) onSpawn(pkt *packet) {
	for _, old := range n.tasks[pkt.stamp] {
		if old.pkt.parentNode == pkt.parentNode &&
			old.pkt.parentTask == pkt.parentTask &&
			old.pkt.holeID == pkt.holeID {
			return // equivalent incarnation; keep the incumbent
		}
	}
	t := &ltask{
		pkt:      pkt,
		fills:    map[int]expr.Value{},
		children: map[int]*childCkpt{},
	}
	n.tasks[pkt.stamp] = append(n.tasks[pkt.stamp], t)
	out, st, err := n.epOf(t).Flatten(pkt.fn, pkt.args, &t.nextID)
	if err != nil {
		panic(fmt.Sprintf("livenet: %v", err)) // validated programs cannot fail
	}
	n.apply(t, out, st)
}

// epOf resolves the compiled program a task's packets run in. Packets carry
// their compiled form from Submit; the fallback compiles the cluster's
// build program on first use.
func (n *node) epOf(t *ltask) lang.EvalProgram {
	if t.pkt.ep != nil {
		return t.pkt.ep
	}
	prog := t.pkt.prog
	if prog == nil {
		prog = n.c.prog
	}
	// Do not cache on the packet here: retained packets are shared with
	// reissue paths on other goroutines, so only Submit (before sharing)
	// may write ep.
	ep, err := n.c.epOf(prog)
	if err != nil {
		panic(fmt.Sprintf("livenet: %v", err)) // validated programs cannot fail
	}
	return ep
}

// apply handles a pass outcome: finish, or spawn the demands.
func (n *node) apply(t *ltask, out lang.Outcome, st lang.TaskState) {
	if out.Done {
		n.finish(t, out.Value)
		return
	}
	t.residual = st
	for _, d := range out.Demands {
		child := &packet{
			stamp:      t.pkt.stamp.Child(uint32(d.ID)),
			fn:         d.Fn,
			args:       d.Args,
			parentNode: n.id,
			parentTask: t.pkt.stamp,
			holeID:     d.ID,
			prog:       t.pkt.prog,
			ep:         t.pkt.ep,
		}
		child.encodedSize() // seal the wire size before the packet is shared
		dest := n.pickDest()
		// Functional checkpoint: retain the packet and remember where it
		// went (§2.1); this is everything recovery needs.
		t.children[d.ID] = &childCkpt{pkt: child, dest: dest}
		t.unfilled++
		n.c.spawned.Add(1)
		n.c.send(dest, msg{spawn: child})
	}
}

// finish sends the task's value to its parent and retires that incarnation.
func (n *node) finish(t *ltask, v expr.Value) {
	list := n.tasks[t.pkt.stamp]
	for i, cand := range list {
		if cand == t {
			list = append(list[:i], list[i+1:]...)
			break
		}
	}
	if len(list) == 0 {
		delete(n.tasks, t.pkt.stamp)
	} else {
		n.tasks[t.pkt.stamp] = list
	}
	if t.pkt.parentNode < 0 {
		n.c.deliverRoot(t.pkt.stamp, v)
		return
	}
	n.c.send(t.pkt.parentNode, msg{result: &resultMsg{
		child:  t.pkt.stamp,
		parent: t.pkt.parentTask,
		holeID: t.pkt.holeID,
		value:  v,
	}})
}

// onResult fills the matching hole of every incarnation of the addressee
// stamp — results are determinate, so one child's answer serves them all —
// and resumes whichever incarnations become complete.
func (n *node) onResult(r *resultMsg) {
	list := n.tasks[r.parent]
	if len(list) == 0 {
		n.c.drained.Add(1) // late/orphan result: ignored (§4.2 rule of thumb)
		return
	}
	consumed := false
	// finish() mutates the list; iterate over a snapshot.
	for _, t := range append([]*ltask(nil), list...) {
		ck := t.children[r.holeID]
		if ck == nil || ck.filled {
			continue
		}
		consumed = true
		ck.filled = true
		t.fills[r.holeID] = r.value
		t.unfilled--
		if t.unfilled > 0 {
			continue
		}
		fills := t.fills
		t.fills = map[int]expr.Value{}
		out, st, err := n.epOf(t).Resume(t.residual, fills, &t.nextID)
		if err != nil {
			panic(fmt.Sprintf("livenet: %v", err))
		}
		n.apply(t, out, st)
	}
	if !consumed {
		n.c.drained.Add(1) // duplicate: "the second copy is simply ignored"
	}
}

// onNodeDown reissues the retained packets of unfilled children that were
// placed on the dead node — the rollback reissue of §3, one parent
// incarnation at a time.
func (n *node) onNodeDown(dead int) {
	n.live[dead] = false
	for _, list := range n.tasks {
		for _, t := range list {
			for _, ck := range t.children {
				if ck.filled || ck.dest != dead {
					continue
				}
				dest := n.pickDest()
				ck.dest = dest
				n.reissues.Add(1)
				n.c.reissued.Add(1)
				n.c.spawned.Add(1)
				n.c.send(dest, msg{spawn: ck.pkt})
			}
		}
	}
}

// pickDest chooses a uniformly random live node (possibly itself).
func (n *node) pickDest() int {
	for tries := 0; tries < 64; tries++ {
		d := n.rng.Intn(len(n.live))
		if n.live[d] && n.c.nodes[d].alive.Load() {
			return d
		}
	}
	return n.id
}
