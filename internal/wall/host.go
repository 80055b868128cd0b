package wall

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/expr"
	"repro/internal/lang"
	"repro/internal/node"
	"repro/internal/proto"
	"repro/internal/stamp"
)

// Links is what a Host needs from its transport: which nodes are up, how a
// program becomes resident, and how a root packet reaches a node.
type Links interface {
	// Alive reports whether node i is up.
	Alive(i int) bool
	// Load makes prog resident on the nodes, returning its wire index and,
	// where the transport evaluates in-process, its compiled form.
	Load(prog *lang.Program) (int, lang.EvalProgram, error)
	// SendRoot sends a root packet to node dest; reissue marks a resend
	// after the node it was placed on died.
	SendRoot(dest int, pkt *node.Packet, reissue bool)
}

// Request is one submitted root application: the host retains its root
// packet (the super-root pre-evaluation checkpoint of §4.3.1) and routes its
// answer to a private channel, so many requests can be in flight on the
// persistent node network at once.
type Request struct {
	id       uint32
	resultCh chan expr.Value
	root     *node.Packet
	dest     int
	done     bool
	// doneAt is the first delivery's wall time, written under the host lock
	// before the answer is sent, so a receiver of resultCh may read it.
	doneAt time.Time
}

// ID is the request's stream index.
func (r *Request) ID() int { return int(r.id) }

// Host is the super-root of a wall-clock cluster (§4.3.1): the parent of
// every root, holding the request table and the stream counters. A
// transport's Cluster embeds it.
type Host struct {
	pkg   string // error prefix
	n     int
	links Links

	// mu guards the request table and each request's dest/done; Deliver and
	// NodeDied both take it, so a root reissue can never race its own
	// completion.
	mu   sync.Mutex
	reqs map[uint32]*Request
	next uint32
	// onDone, when set, runs after a request's *first* root delivery,
	// outside mu (it may re-enter Submit). The session's bounded admission
	// uses it to free an in-flight slot and install the queue head.
	onDone func()
	quit   chan struct{}

	// Stream counters, each transport charging its own messages and bytes.
	Msgs, MsgBytes, Spawned, Reissued, Drained atomic.Int64
}

// NewHost builds the super-root of an n-node cluster; pkg prefixes errors.
func NewHost(pkg string, n int, links Links) *Host {
	return &Host{pkg: pkg, n: n, links: links, reqs: map[uint32]*Request{}, quit: make(chan struct{})}
}

func (h *Host) host() *Host { return h }

// Quit is closed by Stop; transport goroutines select on it to exit.
func (h *Host) Quit() <-chan struct{} { return h.quit }

// Stop closes Quit, releasing every WaitRequest. Call it exactly once, from
// the transport's Shutdown.
func (h *Host) Stop() { close(h.quit) }

// Submit enqueues one root application and returns its request handle. The
// root packet is stamped with the request's stream index, so every
// request's task tree is disjoint from every other's; roots are spread
// across live nodes round-robin (request 0 lands on node 0).
func (h *Host) Submit(prog *lang.Program, fn string, args []expr.Value) (*Request, error) {
	if prog == nil {
		return nil, fmt.Errorf("%s: program required", h.pkg)
	}
	if _, ok := prog.Func(fn); !ok {
		return nil, fmt.Errorf("%s: unknown function %q", h.pkg, fn)
	}
	idx, code, err := h.links.Load(prog)
	if err != nil {
		return nil, err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	id := h.next
	h.next++
	root := &node.Packet{TaskPacket: &proto.TaskPacket{
		Key:    proto.TaskKey{Stamp: stamp.FromPath(id)},
		Fn:     fn,
		Args:   args,
		Parent: proto.Addr{Proc: proto.HostID},
		Prog:   idx,
	}, Code: code}
	r := &Request{id: id, resultCh: make(chan expr.Value, 1), root: root, dest: h.pickFrom(int(id) % h.n)}
	h.reqs[id] = r
	h.Spawned.Add(1)
	// Sent under mu, so a concurrent root reissue never touches the packet
	// before its first send has.
	h.links.SendRoot(r.dest, root, false)
	return r, nil
}

// Deliver hands a super-root result to its request; answers for
// already-answered (twin) or unknown roots drain harmlessly. Only the first
// delivery fires the completion hook — a twin's duplicate answer must not
// free a second admission slot.
func (h *Host) Deliver(res *proto.Result) {
	h.mu.Lock()
	r := h.reqs[res.Child.Stamp.Component(0)]
	first := r != nil && !r.done
	if first {
		r.done = true
		r.doneAt = time.Now()
	}
	hook := h.onDone
	h.mu.Unlock()
	if r == nil {
		h.Drained.Add(1)
		return
	}
	select {
	case r.resultCh <- res.Value:
	default: // a twin already answered; determinacy says it matches
	}
	if first && hook != nil {
		hook()
	}
}

// NodeDied reissues every outstanding root that was placed on the dead
// node: the cluster is every root's parent (§4.3.1).
func (h *Host) NodeDied(dead int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, r := range h.reqs {
		if r.done || r.dest != dead {
			continue
		}
		r.dest = h.pickAvoid(dead)
		h.Reissued.Add(1)
		h.links.SendRoot(r.dest, r.root, true)
	}
}

// SetRequestDoneHook installs fn to run after each request's first root
// delivery, outside the request lock. Install before submitting traffic.
func (h *Host) SetRequestDoneHook(fn func()) {
	h.mu.Lock()
	h.onDone = fn
	h.mu.Unlock()
}

// WaitRequest blocks until the request's answer arrives, the timeout
// elapses, or the cluster shuts down. An answer delivered before the
// shutdown still wins.
func (h *Host) WaitRequest(r *Request, timeout time.Duration) (expr.Value, error) {
	select {
	case v := <-r.resultCh:
		return v, nil
	case <-time.After(timeout):
		return nil, fmt.Errorf("%s: request %d: no answer after %v", h.pkg, r.id, timeout)
	case <-h.quit:
		select {
		case v := <-r.resultCh:
			return v, nil
		default:
			return nil, errors.New(h.pkg + ": cluster shut down")
		}
	}
}

// Stats reports the task counters. A transport whose nodes count drains
// locally overrides it to fold them in.
func (h *Host) Stats() (spawned, reissued, drained int64) {
	return h.Spawned.Load(), h.Reissued.Load(), h.Drained.Load()
}

// pickFrom scans from start for a live node (falls back to start).
func (h *Host) pickFrom(start int) int {
	for i := 0; i < h.n; i++ {
		if d := (start + i) % h.n; h.links.Alive(d) {
			return d
		}
	}
	return start
}

// pickAvoid chooses any live node other than avoid (falls back to 0).
func (h *Host) pickAvoid(avoid int) int {
	for i := 0; i < h.n; i++ {
		if i != avoid && h.links.Alive(i) {
			return i
		}
	}
	return 0
}
